"""Singularity functionals of the periodic ODE operator and their zero tests.

The linearization at u has a unique real eigenvalue, the mean of D2f along
u, with a strictly positive eigenfunction w given in closed form by the
sawtooth-kernel integral. Five scalar functionals built from w and nested
running integrals vanish exactly on the strata of critical points of
increasing order; together with a finite-dimensional surjectivity check
they decide the order of a singular point (fold, cusp, swallowtail,
butterfly).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import fibre as _fibre
from .core import (FourierAnsatz, Nonlinearity, PeriodicFn, PreconditionError,
                   integral_weighted_t, integral_weighted_t2, require_int,
                   spectral_antiderivative)

SIGMA_COUNT = 5

ZERO_TOL_FACTOR = 1e-8   # relative zero test on the Sigma values
RANK_TOL_FACTOR = 1e-6   # relative smallest-singular-value threshold
BASIS_SIZE = 8           # Fourier harmonics of the rank test's directions


@dataclass(frozen=True)
class EigenPair:
    """Positive eigenfunction and the unique real eigenvalue of DF(u)."""

    w: PeriodicFn
    lam: float

    def residual(self, f: Nonlinearity, u: PeriodicFn) -> float:
        """Sup-norm of w' + D2f(t,u) w - lam w."""
        r = (self.w.derivative().values
             + f.on_grid(u, 1) * self.w.values - self.lam * self.w.values)
        return float(np.max(np.abs(r)))


@dataclass(frozen=True)
class MorinOrder:
    """Outcome of the pointwise classification."""

    kind: str                 # "regular" | "morin" | "degenerate" | "exceeds"
    k: int | None = None
    reason: str | None = None

    def __str__(self):
        if self.kind == "morin":
            names = {1: "fold", 2: "cusp", 3: "swallowtail", 4: "butterfly"}
            return f"Morin({self.k}, {names.get(self.k, '?')})"
        return self.kind


@dataclass(frozen=True)
class SigmaReport:
    """Sigma_1..Sigma_5, the a/b/c variants, and (optionally) the order."""

    sigma: np.ndarray                 # shape (5,)
    sigma_abc: tuple[float, float, float]
    jacobian_svals: np.ndarray | None = None
    order: MorinOrder | None = None
    tol_zero: float | None = None
    tol_rank: float | None = None


def eigen_w(f: Nonlinearity, u: PeriodicFn) -> EigenPair:
    """Eigenpair of the linearization along u, kernel-formula normalization.

    w(t) = exp(-K(t)) where K is the zero-mean periodic antiderivative of
    D2f(t,u) - mean(D2f(t,u)); the eigenvalue is that mean.
    """
    g = f.on_grid(u, 1)
    lam = float(np.mean(g))
    w_vals = np.exp(-spectral_antiderivative(g))
    return EigenPair(PeriodicFn(u.grid, w_vals), lam)


def _derivative_samples(f: Nonlinearity, u: PeriodicFn) -> list[np.ndarray]:
    """D_i = f^(i)(t, u(t)) on the grid, i = 1..5."""
    return [f.on_grid(u, i) for i in range(1, SIGMA_COUNT + 1)]


def _sigma_stages(D: list[np.ndarray]):
    """(w, qbar, P, psi3, psi4) of the functionals, from D_1..D_4."""
    w = np.exp(-spectral_antiderivative(D[0]))
    q = D[1] * w
    qbar = float(np.mean(q))                  # = Sigma_2
    aq = spectral_antiderivative(q)
    P = aq - aq[0]                            # C(t) = qbar*t + P(t)
    return w, qbar, P, D[2] * w ** 2, D[3] * w ** 3


def _sigma_values(f: Nonlinearity, u: PeriodicFn) -> tuple[np.ndarray, float]:
    """Sigma_1..Sigma_5 plus Sigma_b, without the W-field solve."""
    D = _derivative_samples(f, u)
    w, qbar, P, psi3, psi4 = _sigma_stages(D)
    psi5 = D[4] * w ** 4

    s1 = float(np.mean(D[0]))
    s3 = float(np.mean(psi3))
    s4 = (float(np.mean(psi4))
          - 2.0 * (float(np.mean(psi3 * P)) + qbar * integral_weighted_t(psi3)))
    s5 = (float(np.mean(psi5))
          - 5.0 * (float(np.mean(psi4 * P)) + qbar * integral_weighted_t(psi4))
          + 5.0 * (float(np.mean(psi3 * P ** 2))
                   + 2.0 * qbar * integral_weighted_t(psi3 * P)
                   + qbar * qbar * integral_weighted_t2(psi3)))
    sigma_b = float(np.mean(D[0] * w))
    return np.array([s1, qbar, s3, s4, s5]), sigma_b


def _sigma_gradients(D: list[np.ndarray]) -> np.ndarray:
    """Gradients of Sigma_1..Sigma_4 in the samples: G of shape (4, 4, n).

    dSigma_r = mean(sum_i G[r, i] dD_i) for any perturbation dD of the
    samples D; a move du of u is dD_i = D_(i+1) du. With A the zero-mean
    antiderivative and a = A(dD_1), the stages move by dw = -w a,
    dq = w (dD_2 - D_2 a), dpsi3 = w^2 (dD_3 - 2 D_3 a) and
    dpsi4 = w^3 (dD_4 - 3 D_4 a). A is skew-adjoint in the grid mean,
    mean(b A(c)) = -mean(A(b) c), and (A c)[0] = -mean(e0 c) with
    e0 = A(n delta_0), so every term folds into one weight on one dD_i:
    G[1] = (A(w D_2), w, 0, 0), G[2] = (2 A(w^2 D_3), 0, w^2, 0) and
    G[3] = (A(y D_2) + 2 A(x D_3) + 3 A(w^3 D_4), y, x, w^3), where
    y = 2 w (A(psi3) - mean(psi3) e0 - int_0^1 psi3 t dt) weighs dq and
    x = -2 w^2 (P + qbar (1/2 - e0)) weighs dpsi3.
    """
    A = spectral_antiderivative
    w, qbar, P, psi3, _ = _sigma_stages(D)
    n = len(w)
    e0 = A(n * (np.arange(n) == 0))
    y = 2.0 * w * (A(psi3) - float(np.mean(psi3)) * e0
                   - integral_weighted_t(psi3))
    x = -2.0 * w ** 2 * (P + qbar * (0.5 - e0))
    zero = np.zeros(n)
    return np.array([
        [np.ones(n), zero, zero, zero],
        [A(w * D[1]), w, zero, zero],
        [2.0 * A(w ** 2 * D[2]), zero, w ** 2, zero],
        [A(y * D[1] + 2.0 * x * D[2] + 3.0 * w ** 3 * D[3]), y, x, w ** 3]])


def sigma_vec(f: Nonlinearity, u: PeriodicFn) -> SigmaReport:
    """Evaluate Sigma_1..Sigma_5 and (Sigma_a, Sigma_b, Sigma_c) at u.

    The nested running integral C(t) = int_0^t D2^2f w splits into a linear
    part (its mean times t) and a periodic part; products against t and t^2
    are integrated by exact spectral formulas so the whole evaluation is
    spectrally accurate. Sigma_c is the alpha of ``fibre.solve_w`` at
    m = 1, which has the sign of Sigma_1 for every Sigma_1.
    """
    sigma, sigma_b = _sigma_values(f, u)
    sigma_c = _fibre.solve_w(f, u, 1.0).alpha
    return SigmaReport(sigma=sigma, sigma_abc=(float(sigma[0]), sigma_b, sigma_c))


def sigma_hat(f: Nonlinearity, u: PeriodicFn, k: int) -> np.ndarray:
    """Means of the first k x-derivatives of an autonomous f along u.

    These are the simplified functionals: their simultaneous vanishing cuts
    out the strata of the operator u -> u' + int f(u).
    """
    if not f.autonomous:
        raise PreconditionError("sigma_hat requires an autonomous nonlinearity")
    k = require_int("k", k, 1, SIGMA_COUNT)
    return np.array([float(np.mean(f.on_grid(u, i))) for i in range(1, k + 1)])


def classify_point(f: Nonlinearity, u: PeriodicFn) -> SigmaReport:
    """Decide the singularity order of u with the transversality check.

    k is the number of leading Sigma_i within the relative zero tolerance
    ``tol_zero``. The order is regular for k = 0, exceeds for k = 5, else
    Morin(k), or degenerate when k >= 2 and the Jacobian of
    (Sigma_1..Sigma_(k-1)) on ``2 * BASIS_SIZE + 1`` Fourier directions
    fails the rank test (smallest singular value at most the relative
    ``tol_rank``). Its rows are exact: grid means of each direction
    against the u-gradients of ``_sigma_gradients``. ``jacobian_svals``
    and ``tol_rank`` are None where no rank test ran.
    """
    report = sigma_vec(f, u)
    s = report.sigma
    tol_zero = ZERO_TOL_FACTOR * (1.0 + float(np.max(np.abs(s))))
    zeros = np.abs(s) <= tol_zero
    k = next((i for i in range(SIGMA_COUNT) if not zeros[i]), SIGMA_COUNT)

    svals = tol_rank = None
    if 2 <= k < SIGMA_COUNT:
        D = _derivative_samples(f, u)
        grad_u = np.einsum("rin,in->rn", _sigma_gradients(D)[:k - 1], D[1:])
        jac = grad_u @ FourierAnsatz.basis(u.grid, BASIS_SIZE).T / u.grid.n
        svals = np.linalg.svd(jac, compute_uv=False)
        tol_rank = RANK_TOL_FACTOR * svals[0]
    if k == 0:
        order = MorinOrder("regular")
    elif k == SIGMA_COUNT:
        order = MorinOrder("exceeds", reason="all five functionals vanish")
    elif svals is not None and svals[-1] <= tol_rank:
        order = MorinOrder("degenerate",
                           reason=f"rank test failed at k={k}: "
                                  f"smin={svals[-1]:.3e} <= {tol_rank:.3e}")
    else:
        order = MorinOrder("morin", k=k)
    return replace(report, order=order, jacobian_svals=svals,
                   tol_zero=tol_zero, tol_rank=tol_rank)
