"""Operator-level analysis: hull criterion, degree, tameness, classification.

The autonomous derivative curve gamma_k(x) = (f'(x), ..., f^(k)(x)) decides
whether order-k singularities of the simplified operator exist: they do
exactly when the origin lies in the interior of the convex hull of the
curve's image. The test is run as 2k small linear programs over the faces
of the unit box, each yielding a machine-checkable certificate. On top of
this sit the topological degree, the wildness diagnostic, the operator
classification cascade, the time reparametrization linking the full and
simplified strata, and step-function seeds for the singularity search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (Grid, Nonlinearity, PeriodicFn, PreconditionError,
                   mean, spectral_antiderivative)
from .morin import eigen_w

DEFAULT_CURVE_SAMPLES = 401


# ---------------------------------------------------------------------------
# textbook simplex (dense tableau, Bland fallback)
# ---------------------------------------------------------------------------


class _SimplexFailure(Exception):
    pass


def _pivot(T: np.ndarray, entering: int, max_iter: int,
           bland_after: int) -> np.ndarray:
    """Simplex pivots on tableau T in place; returns the basic solution.

    The last row holds the reduced costs and the last column the basic
    values; the starting basis is the identity block in the m columns before
    it. Only the first ``entering`` columns may enter the basis. Dantzig's
    rule picks the entering column, switching to Bland's rule after
    ``bland_after`` iterations to escape cycling. Raises _SimplexFailure
    when the entering column is unbounded.
    """
    m, width = T.shape[0] - 1, T.shape[1] - 1
    basis = list(range(width - m, width))
    for it in range(max_iter):
        row = T[m, :entering]
        if it < bland_after:
            j = int(np.argmin(row))
            if row[j] >= -1e-11:
                break
        else:
            neg = np.nonzero(row < -1e-11)[0]
            if len(neg) == 0:
                break
            j = int(neg[0])
        col = T[:m, j]
        pos = col > 1e-12
        if not pos.any():
            raise _SimplexFailure("unbounded")
        ratios = np.full(m, np.inf)
        ratios[pos] = T[:m, -1][pos] / col[pos]
        i = int(np.argmin(ratios))
        T[i] /= T[i, j]
        factors = T[:, j].copy()
        factors[i] = 0.0
        T -= np.outer(factors, T[i])
        basis[i] = j
    x = np.zeros(width)
    x[basis] = T[:m, -1]
    return x


def _simplex_max(A: np.ndarray, b: np.ndarray, c: np.ndarray,
                 max_iter: int = 5000):
    """max c.x s.t. A x <= b, x >= 0, requiring b >= 0 (slack basis start).

    Returns (x, objective). Raises _SimplexFailure on cycling/unbounded.
    """
    m, n = A.shape
    if np.any(b < 0):
        raise _SimplexFailure("negative RHS; slack start invalid")
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = b
    T[m, :n] = -c
    x = _pivot(T, n + m, max_iter, max_iter // 2)
    return x[:n], float(T[m, -1])


def _feasible_combination(P: np.ndarray) -> np.ndarray | None:
    """lambda >= 0 with sum lambda = 1 and lambda . P = 0, by phase-1 simplex.

    P has one sample point per row. Returns None when infeasible.
    """
    m, k = P.shape
    G = np.vstack([P.T, np.ones((1, m))])           # (k+1) x m
    rhs = np.concatenate([np.zeros(k), [1.0]])
    scale = np.max(np.abs(G), axis=1)
    scale[scale == 0] = 1.0
    G = G / scale[:, None]
    rhs = rhs / scale
    rows = k + 1
    # classic phase-1 tableau: minimize the sum of artificials
    T = np.zeros((rows + 1, m + rows + 1))
    T[:rows, :m] = G
    T[:rows, m:m + rows] = np.eye(rows)
    T[:rows, -1] = rhs
    # objective: minimize sum of artificials -> reduced costs
    T[rows, :] = -np.sum(T[:rows, :], axis=0)
    T[rows, m:m + rows] = 0.0
    try:
        # artificials never re-enter; Dantzig's rule throughout
        lam = _pivot(T, m, 4000, 4000)
    except _SimplexFailure:
        return None
    art = lam[m:]
    if np.max(np.abs(art)) > 1e-9:
        return None
    lam = np.clip(lam[:m], 0.0, None)
    s = lam.sum()
    return lam / s if s > 0 else None


# ---------------------------------------------------------------------------
# gamma curves and the origin-in-hull criterion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GammaCurve:
    """Samples of (f'(x), ..., f^(k)(x)) over an x-range."""

    k: int
    x_lo: float
    x_hi: float
    xs: np.ndarray
    points: np.ndarray  # shape (len(xs), k)


def gamma_curve(f: Nonlinearity, k: int, x_lo: float, x_hi: float,
                count: int = DEFAULT_CURVE_SAMPLES) -> GammaCurve:
    """Sample the derivative curve of an autonomous nonlinearity."""
    if not f.autonomous:
        raise PreconditionError("gamma curves require an autonomous nonlinearity")
    if count < 2 * k + 1:
        raise PreconditionError(f"need at least {2 * k + 1} sample points")
    xs = np.linspace(x_lo, x_hi, count)
    pts = np.column_stack([np.asarray(f.eval(0.0, xs, i)) for i in range(1, k + 1)])
    return GammaCurve(k=k, x_lo=x_lo, x_hi=x_hi, xs=xs, points=pts)


@dataclass(frozen=True)
class HullVerdict:
    """Origin-in-interior decision with a recomputable certificate."""

    interior: bool
    margin: float
    convex_coefficients: np.ndarray | None = None   # interior witness
    direction: np.ndarray | None = None             # separating direction
    evidence: dict = field(default_factory=dict)

    def certificate_residual(self, points: np.ndarray) -> float:
        """How well the stored witness certifies the verdict."""
        if self.interior:
            lam = self.convex_coefficients
            res = np.linalg.norm(lam @ points)
            res = max(res, abs(lam.sum() - 1.0), float(-(lam.min())))
            return float(res)
        nu = self.direction
        return float(max(0.0, -np.min(points @ nu)))


def hull_origin_test(curve: GammaCurve) -> HullVerdict:
    """Decide 0 in int conv(curve points) via 2k box-face linear programs.

    For each face fixing one coordinate of nu to +-1, maximize delta subject
    to nu . p_i >= delta and |nu_j| <= 1. The origin is interior exactly
    when every face optimum is negative; otherwise the optimal nu of a
    non-negative face is a separating-direction certificate.
    """
    if curve.k > 5:
        raise PreconditionError("hull test supported for k <= 5")
    P = curve.points
    m, k = P.shape
    if m < 2 * k + 1:
        raise PreconditionError(f"need at least {2 * k + 1} sample points")
    box = 1.0
    for attempt in range(2):
        try:
            return _hull_test_box(P, box)
        except _SimplexFailure:
            box *= 10.0  # widen and retry once
    verdict = _hull_test_box(P, box, best_effort=True)
    return verdict


def _hull_test_box(P: np.ndarray, box: float, best_effort: bool = False):
    m, k = P.shape
    B = 1.0 + float(np.max(np.sum(np.abs(P), axis=1))) * box
    worst = -math.inf
    witness_nu = None
    undetermined = []
    for j in range(k):
        for s in (+1.0, -1.0):
            free = [l for l in range(k) if l != j]
            nfree = len(free)
            # variables: y_l = nu_l + box (l free), d = delta + B
            A = np.zeros((m + nfree, nfree + 1))
            b = np.zeros(m + nfree)
            A[:m, :nfree] = -P[:, free]
            A[:m, nfree] = 1.0
            b[:m] = B + s * P[:, j] - box * P[:, free].sum(axis=1)
            A[m:, :nfree] = np.eye(nfree)
            b[m:] = 2.0 * box
            c = np.zeros(nfree + 1)
            c[nfree] = 1.0
            try:
                x, obj = _simplex_max(A, b, c)
            except _SimplexFailure:
                if not best_effort:
                    raise
                undetermined.append((j, s))
                continue
            delta = x[nfree] - B
            if delta > worst:
                worst = delta
                nu = np.zeros(k)
                nu[free] = x[:nfree] - box
                nu[j] = s
                witness_nu = nu
            if delta >= 0:
                nu = np.zeros(k)
                nu[free] = x[:nfree] - box
                nu[j] = s
                return HullVerdict(interior=False, margin=float(-delta),
                                   direction=nu,
                                   evidence={"face": (j, s), "delta": float(delta),
                                             "box": box})
    lam = _feasible_combination(P)
    evidence = {"max_face_delta": float(worst), "box": box}
    if undetermined:
        evidence["undetermined_faces"] = undetermined
        return HullVerdict(interior=False, margin=0.0, direction=witness_nu,
                           evidence=evidence)
    if lam is None:
        # all face optima negative yet no convex certificate: numerically
        # inconsistent; report non-interior with the best direction found
        evidence["certificate"] = "missing"
        return HullVerdict(interior=False, margin=0.0, direction=witness_nu,
                           evidence=evidence)
    return HullVerdict(interior=True, margin=float(-worst),
                       convex_coefficients=lam, evidence=evidence)


# ---------------------------------------------------------------------------
# topological degree and tameness
# ---------------------------------------------------------------------------


def degree(f: Nonlinearity, probe_radius: float = 8.0,
           t_samples: int = 128) -> int:
    """(sgn f(+inf) - sgn f(-inf)) / 2 with t-uniform signs checked by probes.

    With this normalization a monotone proper nonlinearity has degree +-1
    and even-limit ones have degree 0.
    """
    t = np.arange(t_samples) / t_samples
    X = probe_radius
    for _ in range(60):
        with np.errstate(over="ignore"):
            plus1 = np.asarray(f.eval(t, X, 0))
            plus2 = np.asarray(f.eval(t, 2 * X, 0))
            minus1 = np.asarray(f.eval(t, -X, 0))
            minus2 = np.asarray(f.eval(t, -2 * X, 0))
        def usign(v):
            if np.all(v > 0):
                return 1
            if np.all(v < 0):
                return -1
            return 0
        sp, sp2 = usign(plus1), usign(plus2)
        sm, sm2 = usign(minus1), usign(minus2)
        if sp != 0 and sp == sp2 and sm != 0 and sm == sm2:
            return (sp - sm) // 2
        X *= 2.0
    raise PreconditionError(
        "sign of f not t-uniform at the probe radius; properness undetermined")


@dataclass(frozen=True)
class TamenessReport:
    """Diagnostic (never a certificate) for the reciprocal-growth integrals.

    ``plus``/``minus`` say whether BOTH integrals at that end look
    convergent ("converging" = wild signature at that end).
    """

    plus: str
    minus: str
    wild_suspected_at: tuple[str, ...]
    detail: dict

    @property
    def tame(self) -> bool:
        return len(self.wild_suspected_at) == 0


def tameness(f: Nonlinearity, s_max: float = 50.0,
             probe_points: int = 160, t_samples: int = 128) -> TamenessReport:
    """Quadrature-and-tail-slope diagnostic of wildness at both ends.

    An end is flagged wild when both integrands 1/max(1, sup_t f) and
    1/max(1, sup_t(-f)) appear to have convergent tails. Autonomous
    nonlinearities are reported tame unconditionally.
    """
    if s_max < 10:
        raise PreconditionError("s_max must be at least 10")
    if f.autonomous:
        return TamenessReport("diverging", "diverging", (),
                              {"basis": "autonomous"})
    t = np.arange(t_samples) / t_samples
    s = np.concatenate([np.linspace(0, 1, 17)[1:],
                        np.geomspace(1.0, s_max, probe_points)])

    def end_report(sgn):
        with np.errstate(over="ignore"):
            vals = np.asarray(f.eval(t[:, None], sgn * s[None, :], 0))
            sup_f = np.max(vals, axis=0)
            sup_negf = np.max(-vals, axis=0)
        conv_f = _tail_converges(s, 1.0 / np.maximum(1.0, sup_f))
        conv_negf = _tail_converges(s, 1.0 / np.maximum(1.0, sup_negf))
        return conv_f, conv_negf

    pf, pn = end_report(+1)
    mf, mn = end_report(-1)
    plus = "converging" if (pf and pn) else "diverging"
    minus = "converging" if (mf and mn) else "diverging"
    wild = tuple(lbl for lbl, flag in (("+inf", plus == "converging"),
                                       ("-inf", minus == "converging")) if flag)
    return TamenessReport(plus, minus, wild,
                          {"plus_integrals": (pf, pn),
                           "minus_integrals": (mf, mn), "s_max": s_max})


def _tail_converges(s: np.ndarray, psi: np.ndarray) -> bool:
    """Fit the log-log tail slope; convergent when it falls below -1."""
    tail = s >= s.max() / 8.0
    st, pt = s[tail], np.maximum(psi[tail], 1e-300)
    if np.all(pt <= 1e-250):
        return True
    slope = np.polyfit(np.log(st), np.log(pt), 1)[0]
    return bool(slope < -1.1)


# ---------------------------------------------------------------------------
# operator classification cascade
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OperatorClass:
    """Global verdict plus the hypotheses that were machine-checked."""

    verdict: str   # diffeomorphism | global_fold | global_cusp |
    #               has_higher_singularities | undetermined
    evidence: dict


def _real_roots(coeffs: np.ndarray) -> np.ndarray:
    """Real roots of a polynomial given by ascending coefficients."""
    c = np.trim_zeros(np.asarray(coeffs, dtype=float), "b")
    if len(c) <= 1:
        return np.array([])
    r = np.roots(c[::-1])
    real = r[np.abs(r.imag) <= 1e-9 * (1.0 + np.abs(r))]
    return np.sort(real.real)


def _poly_eval(coeffs, x):
    return np.polyval(np.asarray(coeffs, dtype=float)[::-1], x)


def _strictly_positive(coeffs: np.ndarray) -> bool:
    """Polynomial > 0 on all of R (no real roots, positive somewhere)."""
    c = np.trim_zeros(np.asarray(coeffs, dtype=float), "b")
    if len(c) == 0:
        return False
    if len(_real_roots(c)) > 0:
        return False
    return _poly_eval(c, 0.0) > 0


def _one_signed(coeffs: np.ndarray) -> int:
    """+1 / -1 if the polynomial is >= 0 / <= 0 on R with isolated roots, else 0."""
    c = np.trim_zeros(np.asarray(coeffs, dtype=float), "b")
    if len(c) <= 1:
        if len(c) == 0 or c[0] == 0.0:
            return 0  # identically zero: roots not isolated
        return 1 if c[0] > 0 else -1
    deg = len(c) - 1
    if deg % 2 == 1:
        return 0
    roots = _real_roots(c)
    probes = np.concatenate([roots, 0.5 * (roots[:-1] + roots[1:])]) \
        if len(roots) > 1 else roots
    xs = np.concatenate([probes, np.linspace(-1, 1, 41) * (1 + np.max(
        np.abs(roots), initial=1.0)), [1e3, -1e3]])
    vals = _poly_eval(c, xs)
    scale = np.max(np.abs(vals)) + 1.0
    if np.all(vals >= -1e-12 * scale):
        return 1
    if np.all(vals <= 1e-12 * scale):
        return -1
    return 0


def _takes_both_signs(coeffs: np.ndarray, x_lo: float, x_hi: float) -> bool:
    xs = np.linspace(x_lo, x_hi, 2001)
    vals = _poly_eval(np.asarray(coeffs), xs)
    return bool(vals.min() < 0.0 < vals.max())


def _k_good(f: Nonlinearity, k: int) -> bool:
    """gamma_k never vanishes and no arc lies in a hyperplane through 0."""
    derivs = [f.poly_coeffs(i) for i in range(1, k + 1)]
    width = max(len(d) for d in derivs)
    M = np.zeros((k, width))
    for i, d in enumerate(derivs):
        M[i, :len(d)] = d
    if np.linalg.matrix_rank(M, tol=1e-12 * (1 + np.max(np.abs(M)))) < k:
        return False
    base = _real_roots(derivs[0])
    for r in base:
        vals = [abs(_poly_eval(d, r)) for d in derivs]
        if max(vals) <= 1e-9 * (1.0 + abs(r)):
            return False
    return True


def classify_operator(f: Nonlinearity, x_lo: float = -4.0, x_hi: float = 4.0,
                      curve_samples: int = DEFAULT_CURVE_SAMPLES) -> OperatorClass:
    """Decision cascade for autonomous polynomial nonlinearities.

    Order of tests: strict monotonicity (diffeomorphism), strict convexity
    (global fold), the one-signed-third-derivative criterion (global cusp),
    then the hull dichotomy on gamma_2 for even proper growth, escalating
    to gamma_3 and gamma_4 for higher-order singularities. The supplied
    x-range must cover all real critical points of f', f'', f'''.
    """
    if f.builtin is not None or not f.autonomous:
        return OperatorClass("undetermined",
                             {"reason": "limit signs unverifiable for "
                                        "non-polynomial or time-dependent f"})
    try:
        c0 = f.poly_coeffs(0)
    except PreconditionError:
        return OperatorClass("undetermined", {"reason": "not a polynomial"})
    deg = len(np.trim_zeros(c0, "b")) - 1
    if deg < 1:
        return OperatorClass("undetermined", {"reason": "constant nonlinearity"})
    c1, c2, c3 = f.poly_coeffs(1), f.poly_coeffs(2), f.poly_coeffs(3)

    # widen the window so it covers every real critical point of f', f'', f'''
    crit = np.concatenate([_real_roots(c) for c in (c1, c2, c3)])
    if len(crit):
        x_lo = min(x_lo, float(crit.min()) - 2.0)
        x_hi = max(x_hi, float(crit.max()) + 2.0)

    if _strictly_positive(c1) or _strictly_positive(-c1):
        return OperatorClass("diffeomorphism",
                             {"criterion": "strictly monotone and proper",
                              "derivative_sign": 1 if _strictly_positive(c1) else -1})
    if _strictly_positive(c2) or _strictly_positive(-c2):
        return OperatorClass("global_fold",
                             {"criterion": "strictly convex (or concave) and proper",
                              "second_derivative_sign":
                                  1 if _strictly_positive(c2) else -1})
    third_sign = _one_signed(c3)
    if third_sign != 0 and _takes_both_signs(c1, x_lo, x_hi):
        return OperatorClass("global_cusp",
                             {"criterion": "one-signed third derivative with "
                                           "isolated roots, first derivative of "
                                           "both signs, proper",
                              "third_derivative_sign": third_sign})

    lead = np.trim_zeros(c0, "b")[-1]
    even_plus = (deg % 2 == 0 and lead > 0)
    good23 = _k_good(f, 2) and _k_good(f, 3)
    evidence: dict = {"degree": deg, "even_with_positive_leading": even_plus,
                      "two_three_good": good23}
    if not (even_plus and good23):
        return OperatorClass("undetermined", evidence | {
            "reason": "hull dichotomy needs 2,3-goodness and +inf limits"})
    curve2 = gamma_curve(f, 2, x_lo, x_hi, curve_samples)
    hull2 = hull_origin_test(curve2)
    evidence["hull_gamma2"] = hull2
    evidence["curve_gamma2"] = curve2
    if not hull2.interior:
        return OperatorClass("global_fold", evidence | {
            "criterion": "all critical points are folds (origin outside "
                         "the gamma_2 hull), even proper growth"})
    for k in (3, 4):
        curve_k = gamma_curve(f, k, x_lo, x_hi, curve_samples)
        hk = hull_origin_test(curve_k)
        evidence[f"hull_gamma{k}"] = hk
        evidence[f"curve_gamma{k}"] = curve_k
        if hk.interior:
            evidence["criterion"] = (
                f"origin interior to the gamma_{k} hull: order-{k} "
                "singularities of the simplified operator exist and "
                "transfer to the full operator")
            evidence["note"] = (
                "order-(k+1) singularities can exist even when the "
                "simplified criterion fails at k+1; locate them with the "
                "search module")
            return OperatorClass("has_higher_singularities", evidence)
    return OperatorClass("undetermined", evidence | {
        "reason": "cusps exist (gamma_2 interior) but no global normal "
                  "form criterion applies"})


# ---------------------------------------------------------------------------
# time reparametrization between the full and simplified strata
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ToSimplified:
    u: PeriodicFn


@dataclass(frozen=True)
class FromSimplified:
    v: PeriodicFn


@dataclass(frozen=True)
class TimeChange:
    """Circle reparametrization fixing 0, with node values of both maps."""

    forward: np.ndarray   # the map applied inside the returned composition
    inverse: np.ndarray
    params: dict


def _invert_monotone_ode(rhs, grid: Grid, substeps: int = 4) -> np.ndarray:
    """Integrate psi' = rhs(psi), psi(0) = 0 across one period, RK4."""
    n = grid.n
    h = 1.0 / (substeps * n)
    psi = 0.0
    out = np.zeros(n)
    for i in range(n):
        out[i] = psi
        for _ in range(substeps):
            k1 = rhs(psi)
            k2 = rhs(psi + 0.5 * h * k1)
            k3 = rhs(psi + 0.5 * h * k2)
            k4 = rhs(psi + h * k3)
            psi += (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return out


def reparam(f: Nonlinearity, direction) -> tuple[PeriodicFn, TimeChange]:
    """Conjugate by the circle diffeomorphism exchanging full and simplified
    second-order strata.

    ToSimplified(u): beta is the normalized running integral of the positive
    eigenfunction w(u); returns v = u o beta^{-1}. FromSimplified(v): solves
    for the unique constant A making the inverse time change alpha run over
    one full period, then returns u = v o alpha^{-1}. The two directions are
    mutually inverse.
    """
    if not f.autonomous:
        raise PreconditionError("reparametrization requires an autonomous f")
    if isinstance(direction, ToSimplified):
        return _to_simplified(f, direction.u)
    if isinstance(direction, FromSimplified):
        return _from_simplified(f, direction.v)
    raise PreconditionError(f"unknown direction {direction!r}")


def _to_simplified(f, u):
    grid = u.grid
    pair = eigen_w(f, u)
    w = pair.w
    wbar = mean(w)
    osc = spectral_antiderivative(w.values)
    beta_nodes = (wbar * grid.nodes + osc - osc[0]) / wbar

    chi = _invert_monotone_ode(lambda x: wbar / float(w.eval(x % 1.0)), grid)
    v = PeriodicFn(grid, u.eval(chi))
    tc = TimeChange(forward=beta_nodes, inverse=chi, params={"wbar": wbar})
    return v, tc


def _from_simplified(f, v):
    grid = v.grid
    n = grid.n
    gv = f.on_grid(v, 1)
    mu = float(np.mean(gv))
    osc = spectral_antiderivative(gv)
    osc_fn = PeriodicFn(grid, osc)

    def h_eval(x):
        return mu * x + float(osc_fn.eval(x % 1.0)) - osc[0]

    h_nodes = mu * grid.nodes + osc - osc[0]
    h_closed = np.concatenate([h_nodes, [mu]])   # h(1) = mu
    hmax = float(np.max(h_closed))

    def alpha_end_quadrature(A):
        vals = 1.0 / (A - h_closed)
        # composite Simpson on the n+1 closed-interval nodes (n even)
        s = vals[0] + vals[-1] + 4.0 * np.sum(vals[1:-1:2]) + 2.0 * np.sum(vals[2:-2:2])
        return s / (3.0 * n)

    # bracket A: alpha(1) decreases from +inf (A -> max h) to 0 (A -> inf)
    span = max(1.0, float(np.max(np.abs(h_closed))))
    lo = hmax + 1e-9 * span
    while alpha_end_quadrature(lo) < 1.0:
        lo = hmax + 0.1 * (lo - hmax)
        if lo - hmax < 1e-300:
            raise PreconditionError("time-change constant could not be bracketed")
    hi = hmax + span
    for _ in range(200):
        if alpha_end_quadrature(hi) < 1.0:
            break
        hi = hmax + 2.0 * (hi - hmax)
    else:
        raise PreconditionError("time-change constant could not be bracketed")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if alpha_end_quadrature(mid) >= 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * max(1.0, abs(mid)):
            break
    A = 0.5 * (lo + hi)

    # polish A on the ODE-based end condition psi_A(1) = 1
    def psi_end(Aval):
        psi = _invert_monotone_ode(lambda x: Aval - h_eval(x), grid)
        # advance the last node to t = 1
        h_sub = 1.0 / (4 * n)
        x = psi[-1]
        for _ in range(4):
            k1 = Aval - h_eval(x)
            k2 = Aval - h_eval(x + 0.5 * h_sub * k1)
            k3 = Aval - h_eval(x + 0.5 * h_sub * k2)
            k4 = Aval - h_eval(x + h_sub * k3)
            x += (h_sub / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        return psi, x

    psi, end = psi_end(A)
    A2 = A * (1.0 + 1e-7) + 1e-12
    psi2, end2 = psi_end(A2)
    for _ in range(3):
        if abs(end - 1.0) < 1e-12 or end2 == end:
            break
        A_new = A + (1.0 - end) * (A2 - A) / (end2 - end)
        A, A2, end2 = A_new, A, end
        psi, end = psi_end(A)
    u = PeriodicFn(grid, v.eval(psi % 1.0))
    # alpha itself at the nodes: running Simpson of 1/(A - h(t))
    integrand = 1.0 / (A - np.concatenate([h_nodes, [mu]]))
    alpha_nodes = _cumulative_simpson(integrand)[:-1]
    tc = TimeChange(forward=alpha_nodes, inverse=psi,
                    params={"A": A, "alpha_end": end})
    return u, tc


def _cumulative_simpson(vals: np.ndarray) -> np.ndarray:
    """Running integral over uniform nodes (len odd-or-even, spacing 1/(N-1))."""
    N = len(vals)
    dx = 1.0 / (N - 1)
    out = np.zeros(N)
    # Simpson on even pairs, trapezoid-corrected odd points
    for i in range(1, N):
        if i >= 2:
            out[i] = out[i - 2] + dx / 3.0 * (vals[i - 2] + 4 * vals[i - 1] + vals[i])
        else:
            out[i] = out[i - 1] + dx * 0.5 * (vals[i - 1] + vals[i]) \
                - dx / 12.0 * (vals[min(i + 1, N - 1)] - vals[i - 1])
    return out


# ---------------------------------------------------------------------------
# step-function seeds and the replicator
# ---------------------------------------------------------------------------


def _smootherstep(tau):
    return tau ** 3 * (10.0 - 15.0 * tau + 6.0 * tau ** 2)


@dataclass(frozen=True)
class SeedFunction:
    """Smoothed step function hitting prescribed anchor levels."""

    anchors: np.ndarray
    plateau_lengths: np.ndarray
    epsilon: float

    def eval(self, t):
        t = np.mod(np.asarray(t, dtype=float), 1.0)
        k2 = len(self.anchors)
        arc = self.epsilon / k2
        bounds = []
        pos = 0.0
        for j in range(k2):
            bounds.append((pos, pos + self.plateau_lengths[j], j, "plateau"))
            pos += self.plateau_lengths[j]
            bounds.append((pos, pos + arc, j, "arc"))
            pos += arc
        out = np.zeros_like(t)
        for lo, hi, j, kind in bounds:
            m = (t >= lo) & (t < hi)
            if not m.any():
                continue
            if kind == "plateau":
                out[m] = self.anchors[j]
            else:
                tau = (t[m] - lo) / (hi - lo)
                nxt = self.anchors[(j + 1) % k2]
                out[m] = self.anchors[j] + (nxt - self.anchors[j]) * _smootherstep(tau)
        return out

    def sample(self, grid: Grid | None = None) -> PeriodicFn:
        grid = grid or Grid()
        return PeriodicFn(grid, self.eval(grid.nodes))

    def replicate(self, N: int, grid: Grid | None = None) -> PeriodicFn:
        grid = grid or Grid()
        return PeriodicFn(grid, self.eval(N * grid.nodes))


def replicate(u: PeriodicFn, N: int) -> PeriodicFn:
    """Time compression t -> N t on the same grid (exact index striding)."""
    n = u.grid.n
    idx = (N * np.arange(n)) % n
    return PeriodicFn(u.grid, u.values[idx])


def seed_shat(f: Nonlinearity, k: int, anchors, epsilon: float = 0.05,
              arc_quadrature: int = 4096) -> SeedFunction:
    """Build a smoothed step function annihilating the first k simplified
    functionals.

    The plateau lengths solve the affine system (k mean conditions plus the
    total-length constraint) by non-negative least squares; the anchors must
    place the origin strictly inside the hull of their derivative vectors.
    """
    if not f.autonomous:
        raise PreconditionError("seeds require an autonomous nonlinearity")
    anchors = np.asarray(anchors, dtype=float)
    if len(anchors) != 2 * k:
        raise PreconditionError(f"need exactly {2 * k} anchors for k = {k}")
    if not 0 < epsilon < 0.5:
        raise PreconditionError("epsilon must lie in (0, 1/2)")
    pts = np.column_stack([np.asarray(f.eval(0.0, anchors, i))
                           for i in range(1, k + 1)])
    base = _feasible_combination(pts)
    if base is None:
        raise PreconditionError(
            "origin is not strictly inside the hull of the anchor vectors")

    # arc contributions: each joining arc has fixed length epsilon / 2k
    tau = (np.arange(arc_quadrature) + 0.5) / arc_quadrature
    shape = _smootherstep(tau)
    arc_vec = np.zeros(k)
    for j in range(2 * k):
        a0, a1 = anchors[j], anchors[(j + 1) % (2 * k)]
        arc_x = a0 + (a1 - a0) * shape
        for i in range(1, k + 1):
            arc_vec[i - 1] += float(np.mean(f.eval(0.0, arc_x, i)))
    arc_vec *= epsilon / (2 * k)

    # solve G a = rhs, a >= 0, near the hull combination
    G = np.vstack([pts.T, np.ones((1, 2 * k))])
    rhs = np.concatenate([-arc_vec, [1.0 - epsilon]])
    a0 = (1.0 - epsilon) * base
    a = _equality_nnls(G, rhs, a0)
    if a is None or np.linalg.norm(G @ a - rhs) > 1e-9 * (1 + np.linalg.norm(rhs)):
        raise PreconditionError(
            "anchors insufficient: no non-negative plateau lengths solve "
            "the seed system")
    return SeedFunction(anchors=anchors, plateau_lengths=a, epsilon=epsilon)


def _equality_nnls(G, rhs, a_init, max_iter=50):
    """min |a - a_init| s.t. G a = rhs, a >= 0, by active-set projection."""
    m = G.shape[1]
    active = np.zeros(m, dtype=bool)
    for _ in range(max_iter):
        free = ~active
        Gf = G[:, free]
        delta, *_ = np.linalg.lstsq(Gf, rhs - Gf @ a_init[free], rcond=None)
        a = np.zeros(m)
        a[free] = a_init[free] + delta
        if np.all(a >= -1e-12):
            return np.clip(a, 0.0, None)
        active |= (a < -1e-12) & free
        if active.all():
            return None
    return None
