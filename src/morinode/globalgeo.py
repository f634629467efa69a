"""Operator-level analysis: hull criterion, degree, tameness, classification.

The autonomous derivative curve gamma_k(x) = (f'(x), ..., f^(k)(x)) decides
whether order-k singularities of the simplified operator exist: they do
exactly when the origin lies in the interior of the convex hull of the
curve's image. On a range the test is one linear program on
power-of-two-scaled points, and each verdict carries a machine-checkable
certificate. On top of this sit the topological degree, tameness and the
operator classification cascade, whose polynomial signs Sturm counts decide
exactly (``_sturm``; f'' alone settles its hull step, on all of R), the
time reparametrization linking the full and simplified strata, and
step-function seeds for the singularity search.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .core import (MAX_X_DERIVATIVE, Grid, MorinodeError, Nonlinearity,
                   PeriodicFn, PreconditionError, cumulative, mean,
                   require_int)
from .morin import ZERO_TOL_FACTOR, eigen_w

DEFAULT_CURVE_SAMPLES = 401
_NEWTON_MAX_STEPS = 50
_NEWTON_TOL = 4 * np.finfo(float).eps   # relative step that ends Newton
_RATE_TAIL_TOL = 1e-8   # top-quarter rfft magnitude / mean coefficient


# ---------------------------------------------------------------------------
# simplex on a condensed (Tucker) tableau: Dantzig's rule, Bland fallback,
# entering ties to the lowest label, ratio ties to the lowest row
# ---------------------------------------------------------------------------


class _SimplexFailure(MorinodeError):
    """A simplex solve that ended without a certified optimum."""


def _pivot(T: np.ndarray, entering: int,
           max_iter: int) -> tuple[np.ndarray, int]:
    """Simplex pivots on the condensed (Tucker) tableau T in place.

    T is (m+1) x (n+1): row i gives basic label ``basic[i]`` in the n
    nonbasic labels, the last row their reduced costs and the last column
    the basic values; labels 0..n-1 start nonbasic, n..n+m-1 basic. Only
    labels below ``entering`` may enter. A pivot on p = T[i, j] swaps the
    two labels and forms the full tableau's products on the nonbasic
    columns, with 1/p and -T[r, j] * (1/p) in column j. Dantzig's rule picks
    the entering label (ties to the lowest), Bland's (lowest negative label)
    after ``max_iter // 2`` pivots; ratio ties go to the lowest row. Returns
    the basic solution over all n+m labels and the pivot count. Raises
    _SimplexFailure when unbounded or when ``max_iter`` pivots end short of
    the optimum.
    """
    m, n = T.shape[0] - 1, T.shape[1] - 1
    nonbasic, basic = np.arange(n), np.arange(n, n + m)
    for it in range(max_iter + 1):
        row = np.where(nonbasic < entering, T[m, :n], np.inf)
        if it < max_iter // 2:   # most negative, then lowest label
            j = int(np.lexsort((nonbasic, row))[0])
        else:                    # lowest label of a negative reduced cost
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
    x, pivots = _pivot(T, n + m, max_iter)
    return x[:n], float(T[m, n]), pivots


def _feasible_point(G: np.ndarray, rhs: np.ndarray,
                    work: Counter | None = None) -> np.ndarray | None:
    """a >= 0 with G a = rhs by phase-1 simplex, or None when infeasible.

    Each row is scaled by its largest |entry| and negated where rhs < 0, so
    the artificial basis starts feasible. A phase 1 that ends adds its
    pivots to ``work["phase1_pivots"]``.
    """
    rows, m = G.shape
    scale = np.max(np.abs(G), axis=1)
    scale[scale == 0] = 1.0
    sign = np.where(rhs < 0, -1.0, 1.0)
    # phase 1 from the artificial basis: minimize the sum of artificials,
    # whose labels m..m+rows-1 never re-enter
    T = np.zeros((rows + 1, m + 1))
    T[:rows, :m] = G / scale[:, None] * sign[:, None]
    T[:rows, m] = rhs / scale * sign
    T[rows] = -np.sum(T[:rows], axis=0)
    try:
        a, pivots = _pivot(T, m, 4000)
    except _SimplexFailure:
        return None
    if work is not None:
        work["phase1_pivots"] += pivots
    if np.max(np.abs(a[m:])) > 1e-9:
        return None
    return np.clip(a[:m], 0.0, None)


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
    k = require_int("order k", k, 1, MAX_X_DERIVATIVE)
    count = require_int("count", count, 2 * k + 1)
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
        lam = _feasible_point(np.vstack([S.T, np.ones(m)]), np.eye(k + 1)[k],
                              work)
        if lam is None:
            raise _SimplexFailure("no phase-1 convex combination although "
                                  f"t = {t:.2e} > 0")
        lam /= lam.sum()
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
# exact signs of polynomials, topological degree and tameness
# ---------------------------------------------------------------------------


def _derivative(p: list) -> list:
    return [j * c for j, c in enumerate(p)][1:]


def _remainder(a: list[int], b: list[int]) -> list[int]:
    """The remainder of a by b times a positive number, over the gcd of its
    coefficients: integer polynomials, ascending, no trailing zeros."""
    a = list(a)
    while len(a) >= len(b):
        lead = a[-1] if b[-1] > 0 else -a[-1]
        a = [abs(b[-1]) * c for c in a]
        for i, c in enumerate(b):
            a[len(a) - len(b) + i] -= lead * c
        while a and a[-1] == 0:   # the leading term is now exactly 0
            a.pop()
    g = math.gcd(*a)
    return [c // g for c in a]


def _sturm(p: list) -> tuple[int, int, set[int]]:
    """(n_0, n_1, signs on R) of an exact nonzero polynomial, ascending.

    Sturm's count on D_0 = p, then on D_(k+1) = gcd(D_k, D_k'), the last
    term of D_k's Sturm sequence, gives n_k, the number of distinct real
    roots of multiplicity > k. p changes sign, adding -sgn lc(p) to its
    signs, when sum (-1)^k n_k, its count of odd-multiplicity roots, is > 0.
    The sequences run on integers, from p times its common denominator.
    """
    den = math.lcm(*(c.denominator for c in p))
    counts, d = [], [int(c * den) for c in p]
    while len(d) > 1:
        seq = [d, _derivative(d)]
        while seq[-1]:
            seq.append([-c for c in _remainder(seq[-2], seq[-1])])
        seq.pop()
        at_plus = [q[-1] > 0 for q in seq]
        at_minus = [(q[-1] > 0) == (len(q) % 2 == 1) for q in seq]
        counts.append(sum(a != b for a, b in zip(at_minus, at_minus[1:]))
                      - sum(a != b for a, b in zip(at_plus, at_plus[1:])))
        d = seq[-1]
    lead = 1 if p[-1] > 0 else -1
    odd = sum((-1) ** k * n for k, n in enumerate(counts))
    counts += [0, 0]
    return counts[0], counts[1], {lead, -lead} if odd else {lead}


def _leading(f: Nonlinearity) -> tuple[int, bool, set[int]]:
    """(n, a_n vanishes on the circle, a_n's signs) for f's top power n
    whose coefficient a_n(t), summed exactly over f's terms, is not 0; f = 0
    gives (0, True, set()). At s = tan(pi t), e^(2 pi i j t) is
    (1 + i s)^(2j) / (1 + s^2)^j, so P(s) = (1 + s^2)^M a_n(t), M the most
    harmonics of those terms, has a_n's signs and a_n(1/2) as its s^(2M)
    coefficient: a_n vanishes when P has a real root or degree below 2M."""
    for n in sorted({t.power for t in f.terms}, reverse=True):
        series = [t.coeff for t in f.terms if t.power == n]
        M = max(c.harmonics for c in series)
        P = [Fraction(0)] * (2 * M + 1)
        for c in series:
            for j, (a, b) in enumerate([(c.a0, 0.0), *zip(c.a, c.b)]):
                ab = Fraction(float(a)), Fraction(float(b))
                for k in range(2 * j + 1):   # (1 + i s)^(2j), Re by a, Im by b
                    w = math.comb(2 * j, k) * (-1) ** (k // 2) * ab[k % 2]
                    for i in range(M - j + 1):   # times (1 + s^2)^(M - j)
                        P[k + 2 * i] += math.comb(M - j, i) * w
        while P and P[-1] == 0:
            P.pop()
        if P:
            roots, _, signs = _sturm(P)
            return n, roots > 0 or len(P) <= 2 * M, signs
    return 0, True, set()


def degree(f: Nonlinearity) -> int:
    """(sgn f(+inf) - sgn f(-inf)) / 2, from f's top power n and its
    coefficient a_n(t) (``_leading``): sgn a_n for odd n, 0 for even n, so
    +-1 for a monotone proper f. Raises PreconditionError when a_n vanishes
    on the circle (f = 0 too).
    """
    n, vanishes, signs = _leading(f)
    if vanishes:
        raise PreconditionError(f"the x^{n} coefficient vanishes on the circle")
    return signs.pop() if n % 2 else 0


@dataclass(frozen=True)
class TamenessReport:
    """Exact verdict on the reciprocal-growth integrals (``tameness``).

    ``plus``/``minus`` are "converging" at a wild end, where both integrals
    converge; ``detail`` holds f's top power n and its coefficient's signs."""

    plus: str
    minus: str
    wild_suspected_at: tuple[str, ...]
    detail: dict

    @property
    def tame(self) -> bool:
        return len(self.wild_suspected_at) == 0


def tameness(f: Nonlinearity) -> TamenessReport:
    """The wild ends of f, where both integrals of 1/max(1, sup_t f) and
    1/max(1, sup_t(-f)) converge, exactly from f's top power n and its
    coefficient a_n(t) (``_leading``). Tame when n <= 1 or a_n never
    vanishes; wild at both ends when n >= 2 and a_n takes both signs; tame
    when n = 2 and a_n is one-signed with zeros (then sup_t(-sgn(a_n) f)
    <= C (1 + |x|)). Raises PreconditionError when n >= 3 and a_n is
    one-signed with zeros: the lower terms decide there.
    """
    n, vanishes, signs = _leading(f)
    if n >= 3 and vanishes and len(signs) == 1:
        raise PreconditionError(f"the x^{n} coefficient is one-signed with "
                                "zeros on the circle")
    wild = n >= 2 and len(signs) == 2
    end = "converging" if wild else "diverging"
    return TamenessReport(end, end, ("+inf", "-inf") if wild else (),
                          {"n": n, "leading_signs": sorted(signs)})


# ---------------------------------------------------------------------------
# operator classification cascade
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OperatorClass:
    """Global verdict plus the hypotheses that were machine-checked."""

    verdict: str   # diffeomorphism | global_fold | global_cusp |
    #               has_higher_singularities | undetermined
    evidence: dict


def classify_operator(f: Nonlinearity) -> OperatorClass:
    """Decision cascade for autonomous polynomial nonlinearities.

    Order of tests, each exact (``_sturm``) on the derivatives of f's
    coefficients: strict monotonicity (diffeomorphism), strict convexity
    (global fold), a one-signed third derivative with a first derivative of
    both signs (global cusp); then, for 2,3-good f of even proper growth,
    the hull dichotomy on gamma_2 and gamma_3 over all of R, which the sign
    set of f'' decides. 2,3-good is "f' has no multiple real root" (so
    gamma_2, gamma_3 never vanish); its rank half, no arc in a hyperplane
    through 0, holds wherever it is read: every verdict above returns when
    deg f <= 2, and for deg f >= 3 f', f'' and f''' have distinct degrees.

    The hull step sees f of even degree n >= 4 with a positive leading
    coefficient, and a periodic u may take any bounded range, so 0 is
    outside int conv gamma_k(R) exactly when some nu != 0 has
    nu . gamma_k >= 0 on R. nu_1 != 0 leaves odd degree n - 1, which takes
    both signs, so at k = 2 separation means f'' >= 0 (global fold). At
    k = 3, nu_2 = 0 leaves nu_3 f''' of odd degree, nu_2 < 0 sends it to
    -inf, so separation means f'' + s f''' >= 0 for some s; but f'' attains
    its minimum at a root x* of f''', so an f'' negative somewhere gives
    f''(x*) + s * 0 < 0 for every s: order-3 singularities exist.
    """
    if not f.autonomous:
        return OperatorClass("undetermined",
                             {"reason": "limit signs unverifiable for "
                                        "time-dependent f"})
    exact = [Fraction(c) for c in np.trim_zeros(f.poly_coeffs(0), "b")]
    deg = len(exact) - 1
    if deg < 1:
        return OperatorClass("undetermined", {"reason": "constant nonlinearity"})
    d1 = _derivative(exact)
    roots1, multiple1, s1 = _sturm(d1)
    if not roots1:
        return OperatorClass("diffeomorphism",
                             {"criterion": "strictly monotone and proper",
                              "derivative_sign": s1.pop()})
    d2 = _derivative(d1)
    roots2, _, s2 = _sturm(d2)
    if not roots2:
        return OperatorClass("global_fold",
                             {"criterion": "strictly convex (or concave) and proper",
                              "second_derivative_sign": s2.pop()})
    _, _, s3 = _sturm(_derivative(d2))
    if len(s3) == 1 and len(s1) == 2:
        return OperatorClass("global_cusp",
                             {"criterion": "one-signed third derivative with "
                                           "isolated roots, first derivative of "
                                           "both signs, proper",
                              "third_derivative_sign": s3.pop()})

    even_plus = (deg % 2 == 0 and exact[-1] > 0)
    evidence: dict = {"degree": deg, "even_with_positive_leading": even_plus,
                      "two_three_good": multiple1 == 0}
    if not (even_plus and multiple1 == 0):
        return OperatorClass("undetermined", evidence | {
            "reason": "hull dichotomy needs 2,3-goodness and +inf limits"})
    evidence |= {"second_derivative_roots": roots2,
                 "second_derivative_signs": sorted(s2)}
    if s2 == {1}:
        return OperatorClass("global_fold", evidence | {
            "criterion": "all critical points are folds (f'' >= 0: origin "
                         "outside the gamma_2 hull on R), even proper growth"})
    return OperatorClass("has_higher_singularities", evidence | {
        "criterion": "f'' takes negative values: origin interior to the "
                     "gamma_3 hull on R, so order-3 singularities of the "
                     "simplified operator exist and transfer to the full "
                     "operator",
        "note": "order-4 singularities can exist even when the simplified "
                "criterion fails at k = 4; locate them with the search "
                "module"})


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
        """Samples at t mod 1: plateau j reads anchor j, and arc j rises
        from anchor j to anchor j + 1 (cyclically) by a smootherstep. A
        point past the last breakpoint, which may fall ulps short of 1,
        reads the last arc, whose end value is anchor 0."""
        t = np.mod(np.asarray(t, dtype=float), 1.0)
        k2 = len(self.anchors)
        lengths = np.empty(2 * k2)
        lengths[0::2] = self.plateau_lengths
        lengths[1::2] = self.epsilon / k2
        edges = np.concatenate(([0.0], np.cumsum(lengths)))
        i = np.minimum(np.searchsorted(edges, t, side="right") - 1, 2 * k2 - 1)
        j = i // 2
        start = self.anchors[j]
        tau = (t - edges[i]) / (edges[i + 1] - edges[i])
        rise = self.anchors[(j + 1) % k2] - start
        return np.where(i % 2 == 1, start + rise * _smootherstep(tau), start)

    def sample(self, grid: Grid | None = None) -> PeriodicFn:
        grid = grid or Grid()
        return PeriodicFn(grid, self.eval(grid.nodes))


def replicate(u: PeriodicFn, N: int) -> PeriodicFn:
    """Time compression t -> N t on the same grid (exact index striding)."""
    N = require_int("N", N, 1)
    n = u.grid.n
    idx = (N * np.arange(n)) % n
    return PeriodicFn(u.grid, u.values[idx])


def seed_shat(f: Nonlinearity, k: int, anchors,
              epsilon: float = 0.05) -> SeedFunction:
    """Build a smoothed step function annihilating the first k simplified
    functionals.

    The plateau lengths a >= 0 solve the linear system G a = rhs (k mean
    conditions plus the total-length constraint) by phase-1 simplex; the
    anchors must place the origin inside the hull of their derivative
    vectors.
    """
    if not f.autonomous:
        raise PreconditionError("seeds require an autonomous nonlinearity")
    k = require_int("k", k, 1, MAX_X_DERIVATIVE)
    anchors = np.asarray(anchors, dtype=float)
    if len(anchors) != 2 * k or not np.all(np.isfinite(anchors)):
        raise PreconditionError(f"need exactly {2 * k} finite anchors for k = {k}")
    if not 0 < epsilon < 0.5:
        raise PreconditionError("epsilon must lie in (0, 1/2)")
    pts = np.column_stack([np.asarray(f.eval(0.0, anchors, i))
                           for i in range(1, k + 1)])
    G = np.vstack([pts.T, np.ones(2 * k)])
    if _feasible_point(G, np.eye(k + 1)[k]) is None:
        raise PreconditionError(
            "origin is not in the hull of the anchor vectors")

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

    rhs = np.concatenate([-arc_vec, [1.0 - epsilon]])
    a = _feasible_point(G, rhs)
    if a is None or np.linalg.norm(G @ a - rhs) > 1e-9 * (1 + np.linalg.norm(rhs)):
        raise PreconditionError(
            "anchors insufficient: no non-negative plateau lengths solve "
            "the seed system")
    return SeedFunction(anchors=anchors, plateau_lengths=a, epsilon=epsilon)
