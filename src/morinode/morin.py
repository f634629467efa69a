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


def _sigma_jacobian(D: list[np.ndarray], directions) -> np.ndarray:
    """Forward-mode derivative of Sigma_1..Sigma_4: (4, d) for d directions.

    Each direction is a perturbation (dD_1, .., dD_4) of the derivative
    samples D, and its column differentiates every stage of
    ``_sigma_values`` in closed form: with a the zero-mean antiderivative
    of dD_1, dw = -w a, dq = w (dD_2 - D_2 a), dpsi3 = w^2 (dD_3 - 2 D_3 a)
    and dpsi4 = w^3 (dD_4 - 3 D_4 a). Directions are taken one at a time,
    so no (directions x grid) array is formed.
    """
    w, qbar, P, psi3, psi4 = _sigma_stages(D)
    w2, w3 = w ** 2, w ** 3
    t_psi3 = integral_weighted_t(psi3)
    cols = []
    for d1, d2, d3, d4 in directions:
        a = spectral_antiderivative(d1)
        dq = w * (d2 - D[1] * a)
        dqbar = float(np.mean(dq))
        daq = spectral_antiderivative(dq)
        dpsi3 = w2 * (d3 - 2.0 * D[2] * a)
        dpsi4 = w3 * (d4 - 3.0 * D[3] * a)
        ds4 = (float(np.mean(dpsi4))
               - 2.0 * (float(np.mean(dpsi3 * P + psi3 * (daq - daq[0])))
                        + dqbar * t_psi3 + qbar * integral_weighted_t(dpsi3)))
        cols.append((float(np.mean(d1)), dqbar, float(np.mean(dpsi3)), ds4))
    return np.array(cols).T


def _u_directions(D: list[np.ndarray], dus):
    """The perturbations (dD_1, .., dD_4) = (D_2, .., D_5) du of each du."""
    for du in dus:
        yield D[1] * du, D[2] * du, D[3] * du, D[4] * du


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

    The order is the largest k <= 4 with |Sigma_i| below the relative zero
    tolerance for i <= k, Sigma_(k+1) above it, and the Jacobian of
    (Sigma_1..Sigma_(k-1)) restricted to ``2 * BASIS_SIZE + 1`` Fourier
    directions of full rank (smallest singular value above the relative
    rank tolerance). The rows are exact directional derivatives
    (``_sigma_jacobian``).
    """
    report = sigma_vec(f, u)
    s = report.sigma
    tol_zero = ZERO_TOL_FACTOR * (1.0 + float(np.max(np.abs(s))))
    zeros = np.abs(s) <= tol_zero

    if not zeros[0]:
        order = MorinOrder("regular")
        return replace(report, order=order, tol_zero=tol_zero)

    k = 1
    while k < SIGMA_COUNT and zeros[k]:
        k += 1
    if k >= SIGMA_COUNT:
        order = MorinOrder("exceeds", reason="all five functionals vanish")
        return replace(report, order=order, tol_zero=tol_zero)

    svals = None
    tol_rank = None
    if k >= 2:
        D = _derivative_samples(f, u)
        dirs = FourierAnsatz.basis(u.grid, BASIS_SIZE)
        jac = _sigma_jacobian(D, _u_directions(D, dirs))[:k - 1]
        svals = np.linalg.svd(jac, compute_uv=False)
        tol_rank = RANK_TOL_FACTOR * svals[0]
        if svals[-1] <= tol_rank:
            order = MorinOrder("degenerate",
                               reason=f"rank test failed at k={k}: "
                                      f"smin={svals[-1]:.3e} <= {tol_rank:.3e}")
            return replace(report, order=order, jacobian_svals=svals,
                           tol_zero=tol_zero, tol_rank=tol_rank)
    order = MorinOrder("morin", k=k)
    return replace(report, order=order, jacobian_svals=svals,
                   tol_zero=tol_zero, tol_rank=tol_rank)
