"""Operator-level analysis: hull criterion, degree, tameness, classification.

The autonomous derivative curve gamma_k(x) = (f'(x), ..., f^(k)(x)) decides
whether order-k singularities of the simplified operator exist: they do
exactly when the origin lies in the interior of the convex hull of the
curve's image. The test is one linear program on power-of-two-scaled
points, and each verdict carries a machine-checkable certificate. On top of
this sit the topological degree, the wildness diagnostic, the operator
classification cascade, the time reparametrization linking the full and
simplified strata, and step-function seeds for the singularity search.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (MAX_X_DERIVATIVE, Grid, MorinodeError, Nonlinearity,
                   PeriodicFn, PreconditionError, cumulative, horner, mean)
from .morin import ZERO_TOL_FACTOR, eigen_w

DEFAULT_CURVE_SAMPLES = 401
_NEWTON_MAX_STEPS = 50
_NEWTON_TOL = 4 * np.finfo(float).eps   # relative step that ends Newton
_RATE_TAIL_TOL = 1e-8   # top-quarter rfft magnitude / mean coefficient
_WINDOW = 4.0           # classify_operator curves span at least [-4, 4]


# ---------------------------------------------------------------------------
# simplex on a condensed (Tucker) tableau: Dantzig's rule, Bland fallback,
# entering ties to the lowest label, ratio ties to the lowest row
# ---------------------------------------------------------------------------


class _SimplexFailure(MorinodeError):
    """A simplex solve that ended without a certified optimum."""


def _pivot(T: np.ndarray, entering: int, max_iter: int,
           bland_after: int) -> tuple[np.ndarray, int]:
    """Simplex pivots on the condensed (Tucker) tableau T in place.

    T is (m+1) x (n+1): row i gives basic label ``basic[i]`` in the n
    nonbasic labels, the last row their reduced costs and the last column
    the basic values; labels 0..n-1 start nonbasic, n..n+m-1 basic. Only
    labels below ``entering`` may enter. A pivot on p = T[i, j] swaps the
    two labels and forms the full tableau's products on the nonbasic
    columns, with 1/p and -T[r, j] * (1/p) in column j. Dantzig's rule picks
    the entering label (ties to the lowest), Bland's (lowest negative label)
    after ``bland_after`` pivots; ratio ties go to the lowest row. Returns
    the basic solution over all n+m labels and the pivot count. Raises
    _SimplexFailure when unbounded or when ``max_iter`` pivots end short of
    the optimum.
    """
    m, n = T.shape[0] - 1, T.shape[1] - 1
    nonbasic, basic = np.arange(n), np.arange(n, n + m)
    for it in range(max_iter + 1):
        row = np.where(nonbasic < entering, T[m, :n], np.inf)
        if it < bland_after:   # most negative, then lowest label
            j = int(np.lexsort((nonbasic, row))[0])
        else:                  # lowest label of a negative reduced cost
            j = int(np.argmin(np.where(row < -1e-11, nonbasic, n + m)))
        if row[j] >= -1e-11:
            break
        if it == max_iter:
            raise _SimplexFailure("iteration limit")
        col = T[:m, j]
        pos = col > 1e-12
        if not pos.any():
            raise _SimplexFailure("unbounded")
        i = int(np.divide(T[:m, n], col, out=np.full(m, np.inf),
                          where=pos).argmin())
        inv = 1.0 / T[i, j]
        T[i] /= T[i, j]
        factors = T[:, j].copy()
        factors[i] = 0.0
        T -= factors[:, None] * T[i]
        T[:, j] = -factors * inv
        T[i, j] = inv
        basic[i], nonbasic[j] = nonbasic[j], basic[i]
    x = np.zeros(n + m)
    x[basic] = T[:m, n]
    return x, it


def _simplex_max(A: np.ndarray, b: np.ndarray, c: np.ndarray,
                 max_iter: int = 5000):
    """max c.x s.t. A x <= b, x >= 0, requiring b >= 0 (slack basis start).

    Returns (x, objective, pivot count). Raises _SimplexFailure when
    unbounded or when ``max_iter`` pivots do not reach the optimum.
    """
    m, n = A.shape
    if np.any(b < 0):
        raise _SimplexFailure("negative RHS; slack start invalid")
    T = np.zeros((m + 1, n + 1))
    T[:m, :n], T[:m, n], T[m, :n] = A, b, -c
    x, pivots = _pivot(T, n + m, max_iter, max_iter // 2)
    return x[:n], float(T[m, n]), pivots


def _feasible_combination(P: np.ndarray,
                          work: Counter | None = None) -> np.ndarray | None:
    """lambda >= 0 with sum lambda = 1 and lambda . P = 0, by phase-1 simplex.

    P has one sample point per row. Returns None when infeasible. A phase 1
    that ends adds its pivots to ``work["phase1_pivots"]``.
    """
    m, k = P.shape
    G = np.vstack([P.T, np.ones((1, m))])           # (k+1) x m
    rhs = np.concatenate([np.zeros(k), [1.0]])
    scale = np.max(np.abs(G), axis=1)
    scale[scale == 0] = 1.0
    rows = k + 1
    # phase 1 from the artificial basis: minimize the sum of artificials,
    # whose labels m..m+k never re-enter; Dantzig's rule throughout
    T = np.zeros((rows + 1, m + 1))
    T[:rows, :m], T[:rows, m] = G / scale[:, None], rhs / scale
    T[rows] = -np.sum(T[:rows], axis=0)
    try:
        lam, pivots = _pivot(T, m, 4000, 4000)
    except _SimplexFailure:
        return None
    if work is not None:
        work["phase1_pivots"] += pivots
    if np.max(np.abs(lam[m:])) > 1e-9:
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
    """Sample the derivative curve of an autonomous nonlinearity.

    x_lo and x_hi must be finite.
    """
    if not (math.isfinite(x_lo) and math.isfinite(x_hi)):
        raise PreconditionError("the x-range must be finite")
    if not f.autonomous:
        raise PreconditionError("gamma curves require an autonomous nonlinearity")
    if not 1 <= k <= MAX_X_DERIVATIVE:
        raise PreconditionError(f"order {k} not in 1..{MAX_X_DERIVATIVE}")
    if count < 2 * k + 1:
        raise PreconditionError(f"need at least {2 * k + 1} sample points")
    xs = np.linspace(x_lo, x_hi, count)
    pts = np.column_stack([np.asarray(f.eval(0.0, xs, i)) for i in range(1, k + 1)])
    return GammaCurve(k=k, x_lo=x_lo, x_hi=x_hi, xs=xs, points=pts)


@dataclass(frozen=True)
class HullVerdict:
    """Origin-in-interior decision with its recomputable certificate.

    ``margin`` is the LP margin t (``_hull_test_box``), -inf for points in a
    hyperplane; ``diagnostics`` holds the LP and phase-1 pivots, the
    certificate residual on the scaled points beside its tolerance, and
    ``margin_decades`` = log10(|t| / (m (pivots + 1) eps)), how far |t|
    sits above the rounding bound at which the test raises (inf for a
    hyperplane).
    """

    interior: bool
    margin: float
    convex_coefficients: np.ndarray | None = None   # interior witness
    direction: np.ndarray | None = None             # separating direction
    diagnostics: dict = field(default_factory=dict)

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
    """Decide 0 in int conv(curve points) by one LP (``_hull_test_box``).

    An interior verdict carries phase-1 convex coefficients, the other a
    direction nu with nu . p_i >= 0. A test that cannot certify its verdict
    raises _SimplexFailure, a MorinodeError: the LP at its pivot cap, |t|
    within the rounding bound m (pivots + 1) eps (the origin on the hull
    boundary to rounding), no phase-1 combination although t > 0, or a
    certificate residual on the scaled points above 1e-9 (interior) or
    1e-12 (separating). The curve's points must be finite.
    """
    if curve.k > 5:
        raise PreconditionError("hull test supported for k <= 5")
    P = curve.points
    if not np.all(np.isfinite(P)):
        raise PreconditionError("the curve's points must be finite")
    m, k = P.shape
    if m < 2 * k + 1:
        raise PreconditionError(f"need at least {2 * k + 1} sample points")
    return _hull_test_box(P, Counter(lp_pivots=0, phase1_pivots=0))


def _hull_test_box(P: np.ndarray, work: Counter) -> HullVerdict:
    """One LP on the scaled points, phase 1 for a witness; pivots to ``work``.

    S is P with column j scaled by 2^-e_j, which puts its largest |entry| in
    [0.5, 1). With p the mean row of S and Q = S - p, the LP
    max -p.y s.t. Q y <= 1 (y free) starts feasible, and its dual makes the
    weights mu + t, t = (1 - optimum) / m, a convex combination at 0: the
    origin is interior exactly when t > 0. Else nu = -y has
    S nu >= -m t >= 0, and 2^-e nu separates P exactly. A Q of rank below k
    (the LP unbounded) separates by its null vector d, oriented so that
    p.d >= 0.
    """
    m, k = P.shape
    e = np.frexp(np.max(np.abs(P), axis=0))[1]
    S = np.ldexp(P, -e)
    pbar = S.mean(axis=0)
    Q = S - pbar
    _, sv, vt = np.linalg.svd(Q, full_matrices=False)
    if sv[-1] <= sv[0] * m * np.finfo(float).eps:
        nu, t = (vt[-1] if pbar @ vt[-1] >= 0 else -vt[-1]), -math.inf
        decades = math.inf
    else:
        x, opt, pivots = _simplex_max(np.hstack([Q, -Q]), np.ones(m),
                                      np.concatenate([-pbar, pbar]))
        work["lp_pivots"] += pivots
        nu, t = x[k:] - x[:k], (1.0 - opt) / m
        bound = m * (pivots + 1) * np.finfo(float).eps
        if abs(t) <= bound:
            raise _SimplexFailure(f"origin on the hull boundary to rounding: "
                                  f"t = {t:.2e}")
        decades = math.log10(abs(t) / bound)
    if t > 0:
        lam = _feasible_combination(S, work)
        if lam is None:
            raise _SimplexFailure("no phase-1 convex combination although "
                                  f"t = {t:.2e} > 0")
        verdict, tol = HullVerdict(True, t, convex_coefficients=lam), 1e-9
    else:
        verdict, tol = HullVerdict(False, t, direction=nu), 1e-12
    resid = verdict.certificate_residual(S)
    if not resid <= tol:
        raise _SimplexFailure(f"certificate residual {resid:.2e} exceeds "
                              f"{tol:g} on the scaled points (t = {t:.2e})")
    return replace(verdict, direction=None if t > 0 else np.ldexp(nu, -e),
                   diagnostics=dict(work, certificate_residual=resid,
                                    certificate_tol=tol,
                                    margin_decades=decades))


# ---------------------------------------------------------------------------
# topological degree and tameness
# ---------------------------------------------------------------------------


def degree(f: Nonlinearity) -> int:
    """(sgn f(+inf) - sgn f(-inf)) / 2 with t-uniform signs checked by probes.

    With this normalization a monotone proper nonlinearity has degree +-1
    and even-limit ones have degree 0.
    """
    t = np.arange(128) / 128
    X = 8.0
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


def tameness(f: Nonlinearity, s_max: float = 50.0) -> TamenessReport:
    """Quadrature-and-tail-slope diagnostic of wildness at both ends.

    An end is flagged wild when both integrands 1/max(1, sup_t f) and
    1/max(1, sup_t(-f)) appear to have convergent tails. Autonomous
    nonlinearities are reported tame unconditionally.
    """
    if not (math.isfinite(s_max) and s_max >= 10):
        raise PreconditionError(f"s_max must be finite and at least 10, "
                                f"got {s_max!r}")
    if f.autonomous:
        return TamenessReport("diverging", "diverging", (),
                              {"basis": "autonomous"})
    t = np.arange(128) / 128
    s = np.concatenate([np.linspace(0, 1, 17)[1:],
                        np.geomspace(1.0, s_max, 160)])

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


def _signs(coeffs: np.ndarray) -> tuple[np.ndarray, set[int]]:
    """Real roots of a polynomial (ascending coefficients) and its signs on R.

    The distinct real parts of all roots cut R; the sign is read at each
    midpoint between cuts and one unit beyond each outer cut, so no probe
    sits on a root. A value within Horner's rounding bound
    1e-12 sum |c_m| |x|^m is a rounding zero and adds no sign, so a double
    root that np.roots splits adds none. The zero polynomial has no signs.
    """
    c = np.trim_zeros(np.asarray(coeffs, dtype=float), "b")
    if len(c) == 0:
        return np.array([]), set()
    r = np.roots(c[::-1])
    real = np.sort(r[np.abs(r.imag) <= 1e-9 * (1.0 + np.abs(r))].real)
    cuts = np.sort(r.real)   # np.unique's first call costs ~1.3 MB of RSS
    cuts = cuts[np.diff(cuts, prepend=-np.inf) > 0]
    xs = np.concatenate([cuts[:1] - 1.0, 0.5 * (cuts[:-1] + cuts[1:]),
                         cuts[-1:] + 1.0]) if len(cuts) else np.zeros(1)
    vals = horner(c, xs)
    nonzero = np.abs(vals) > 1e-12 * horner(np.abs(c), np.abs(xs))
    return real, {int(v) for v in np.sign(vals[nonzero])}


def _k_good(f: Nonlinearity, k: int, base: np.ndarray) -> bool:
    """gamma_k never vanishes and no arc lies in a hyperplane through 0.

    ``base`` holds the real roots of f'.
    """
    derivs = [f.poly_coeffs(i) for i in range(1, k + 1)]
    width = max(len(d) for d in derivs)
    M = np.zeros((k, width))
    for i, d in enumerate(derivs):
        M[i, :len(d)] = d
    if np.linalg.matrix_rank(M, tol=1e-12 * (1 + np.max(np.abs(M)))) < k:
        return False
    for r in base:
        vals = [abs(horner(d, r)) for d in derivs]
        if max(vals) <= 1e-9 * (1.0 + abs(r)):
            return False
    return True


def classify_operator(f: Nonlinearity) -> OperatorClass:
    """Decision cascade for autonomous polynomial nonlinearities.

    Order of tests: strict monotonicity (diffeomorphism), strict convexity
    (global fold), a one-signed third derivative with a first derivative of
    both signs (global cusp), each read off the sign tables (``_signs``) of
    f', f'' and f'''; then the hull dichotomy on gamma_2 for even proper
    growth, escalating to gamma_3 and gamma_4 for higher-order
    singularities. The gamma curves span [-4, 4], widened to reach 2 beyond
    every real root of f', f'' and f'''.
    """
    if not f.autonomous:
        return OperatorClass("undetermined",
                             {"reason": "limit signs unverifiable for "
                                        "time-dependent f"})
    c0 = f.poly_coeffs(0)
    deg = len(np.trim_zeros(c0, "b")) - 1
    if deg < 1:
        return OperatorClass("undetermined", {"reason": "constant nonlinearity"})
    (r1, s1), (r2, s2), (r3, s3) = (_signs(f.poly_coeffs(i))
                                    for i in (1, 2, 3))

    if len(r1) == 0 and len(s1) == 1:
        return OperatorClass("diffeomorphism",
                             {"criterion": "strictly monotone and proper",
                              "derivative_sign": s1.pop()})
    if len(r2) == 0 and len(s2) == 1:
        return OperatorClass("global_fold",
                             {"criterion": "strictly convex (or concave) and proper",
                              "second_derivative_sign": s2.pop()})
    if len(s3) == 1 and len(s1) == 2:
        return OperatorClass("global_cusp",
                             {"criterion": "one-signed third derivative with "
                                           "isolated roots, first derivative of "
                                           "both signs, proper",
                              "third_derivative_sign": s3.pop()})

    lead = np.trim_zeros(c0, "b")[-1]
    even_plus = (deg % 2 == 0 and lead > 0)
    good23 = _k_good(f, 2, r1) and _k_good(f, 3, r1)
    evidence: dict = {"degree": deg, "even_with_positive_leading": even_plus,
                      "two_three_good": good23}
    if not (even_plus and good23):
        return OperatorClass("undetermined", evidence | {
            "reason": "hull dichotomy needs 2,3-goodness and +inf limits"})
    crit = np.concatenate([r1, r2, r3])
    x_lo = float(np.min(crit - 2.0, initial=-_WINDOW))
    x_hi = float(np.max(crit + 2.0, initial=_WINDOW))
    for k in (2, 3, 4):
        curve = gamma_curve(f, k, x_lo, x_hi)
        hull = hull_origin_test(curve)
        evidence[f"hull_gamma{k}"] = hull
        evidence[f"curve_gamma{k}"] = curve
        if k == 2 and not hull.interior:
            return OperatorClass("global_fold", evidence | {
                "criterion": "all critical points are folds (origin outside "
                             "the gamma_2 hull), even proper growth"})
        if k > 2 and hull.interior:
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
    params: dict          # time-change parameters, plain floats
    diagnostics: dict     # Newton step counts


def _solve_a(h: np.ndarray) -> tuple[float, int]:
    """The A > max h with mean(1/(A - h)) = 1, and the Newton step count.

    Newton runs on the harmonic mean H(A) = 1/mean(1/(A - h)), concave and
    increasing in A, from a start with H <= 1 (H <= n (A - max h) and
    H <= A - mean(h) give two), so the iterates rise onto the root and stay
    above max h. A last correction above 1e-12 (1 + |A|) raises
    PreconditionError.
    """
    A = max(float(np.max(h)) + 1.0 / h.size, float(np.mean(h)) + 1.0)
    for steps in range(_NEWTON_MAX_STEPS + 1):
        r = 1.0 / (A - h)
        m = float(np.mean(r))
        step = m * (m - 1.0) / float(np.mean(r * r))   # (1 - H) / H'
        if not step > _NEWTON_TOL * A or steps == _NEWTON_MAX_STEPS:
            break
        A += step
    if not abs(step) <= 1e-12 * (1.0 + abs(A)):
        raise PreconditionError(f"mean(1/(A - h)) = {m!r} at A = {A!r} "
                                f"after {steps} Newton steps")
    return A, steps


def _invert_monotone_ode(rate: PeriodicFn) -> tuple[np.ndarray, np.ndarray, int]:
    """The circle map t -> int_0^t rate / mean(rate), rate > 0, and its inverse.

    Returns both maps' node values and the Newton step count. The inverse
    nodes come from Newton on all nodes at once, on the spectral running
    integral ``cumulative(rate)`` with slope ``rate``, seeded by linear
    interpolation, until the step reaches a few ulps or stops falling; a
    residual above 1e-12 raises PreconditionError. So does a rate the grid
    does not resolve (its top quarter of rfft magnitudes above 1e-8 of the
    mean coefficient): its interpolant can dip below 0 between nodes, and
    the node residual would then pass on a map that is not monotone.
    """
    spectrum = np.abs(np.fft.rfft(rate.values))
    tail = float(np.max(spectrum[-(len(spectrum) // 4):])) / spectrum[0]
    if not tail <= _RATE_TAIL_TOL:
        raise PreconditionError(f"time change not resolved on n = "
                                f"{rate.grid.n}: spectral tail {tail:.2e} of "
                                f"the mean; refine the grid")
    forward = cumulative(rate)
    total = mean(rate)
    t = rate.grid.nodes
    nodes = forward.at_nodes / total
    x = np.interp(t, np.append(nodes, 1.0), np.append(t, 1.0))
    prev = math.inf
    for steps in range(1, _NEWTON_MAX_STEPS + 1):
        dx = (forward(x) - total * t) / rate.eval(x)
        x = x - dx
        size = float(np.max(np.abs(dx)))
        if size <= _NEWTON_TOL or size >= prev:
            break
        prev = size
    resid = float(np.max(np.abs(forward(x) / total - t)))
    if not resid <= 1e-12:
        raise PreconditionError(f"circle-map inverse residual {resid:.2e} "
                                f"after {steps} Newton steps")
    return nodes, x, steps


def reparam(f: Nonlinearity, direction) -> tuple[PeriodicFn, TimeChange]:
    """Conjugate by the circle diffeomorphism exchanging full and simplified
    second-order strata.

    ToSimplified(u): beta is the normalized running integral of the positive
    eigenfunction w(u); returns v = u o beta^{-1}. FromSimplified(v): with h
    the running integral of f_x(v), Newton solves mean(1/(A - h)) = 1 for
    the constant A > max h, so that alpha = int 1/(A - h) runs over one full
    period; returns u = v o alpha^{-1}. Both inverses are spectral (Newton
    on the running integral); ``diagnostics`` records the Newton step counts.

    FromSimplified needs v on the fold stratum mean(f_x(v)) = 0, where
    1/(A - h) is periodic, and raises PreconditionError elsewhere. As
    ToSimplified lands at mean(f_x(v)) = Sigma_1(u), the two directions are
    mutually inverse exactly when Sigma_1(u) = 0.
    """
    if not f.autonomous:
        raise PreconditionError("reparametrization requires an autonomous f")
    if isinstance(direction, ToSimplified):
        return _to_simplified(f, direction.u)
    if isinstance(direction, FromSimplified):
        return _from_simplified(f, direction.v)
    raise PreconditionError(f"unknown direction {direction!r}")


def _to_simplified(f, u):
    w = eigen_w(f, u).w
    beta, chi, steps = _invert_monotone_ode(w)
    v = PeriodicFn(u.grid, u.eval(chi))
    return v, TimeChange(beta, chi, {"wbar": mean(w)}, {"newton_steps": steps})


def _from_simplified(f, v):
    gv = f.on_grid(v, 1)
    mu = float(np.mean(gv))
    if abs(mu) > ZERO_TOL_FACTOR * (1.0 + float(np.max(np.abs(gv)))):
        raise PreconditionError("FromSimplified needs v on the fold stratum "
                                f"mean(f_x(v)) = 0, got {mu:.3e}")
    h = cumulative(PeriodicFn(v.grid, gv)).at_nodes
    A, a_steps = _solve_a(h)
    rate = PeriodicFn(v.grid, 1.0 / (A - h))
    alpha, psi, steps = _invert_monotone_ode(rate)
    u = PeriodicFn(v.grid, v.eval(psi))
    return u, TimeChange(alpha, psi, {"A": A, "alpha_end": mean(rate)},
                         {"newton_steps": steps, "a_newton_steps": a_steps})


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


def replicate(u: PeriodicFn, N: int) -> PeriodicFn:
    """Time compression t -> N t on the same grid (exact index striding)."""
    if not isinstance(N, (int, np.integer)) or N < 1:
        raise PreconditionError(f"replicate needs an integer N >= 1, got {N!r}")
    n = u.grid.n
    idx = (N * np.arange(n)) % n
    return PeriodicFn(u.grid, u.values[idx])


def seed_shat(f: Nonlinearity, k: int, anchors,
              epsilon: float = 0.05) -> SeedFunction:
    """Build a smoothed step function annihilating the first k simplified
    functionals.

    The plateau lengths solve the affine system (k mean conditions plus the
    total-length constraint) by non-negative least squares; the anchors must
    place the origin strictly inside the hull of their derivative vectors.
    """
    if not f.autonomous:
        raise PreconditionError("seeds require an autonomous nonlinearity")
    anchors = np.asarray(anchors, dtype=float)
    if len(anchors) != 2 * k or not np.all(np.isfinite(anchors)):
        raise PreconditionError(f"need exactly {2 * k} finite anchors for k = {k}")
    if not 0 < epsilon < 0.5:
        raise PreconditionError("epsilon must lie in (0, 1/2)")
    pts = np.column_stack([np.asarray(f.eval(0.0, anchors, i))
                           for i in range(1, k + 1)])
    base = _feasible_combination(pts)
    if base is None:
        raise PreconditionError(
            "origin is not strictly inside the hull of the anchor vectors")

    # arc contributions: each joining arc has fixed length epsilon / 2k
    tau = (np.arange(4096) + 0.5) / 4096
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


def _equality_nnls(G, rhs, a_init):
    """min |a - a_init| s.t. G a = rhs, a >= 0, by active-set projection."""
    m = G.shape[1]
    active = np.zeros(m, dtype=bool)
    for _ in range(m):  # each pass returns or pins one more a_i at 0
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
