"""Singularity search and periodic-solution counting.

A search problem pairs a nonlinearity family with free scalar parameters,
a Fourier ansatz with a free/frozen coefficient mask, and a target for the
leading singularity functionals. Gauss-Newton iterations use the
minimum-norm pseudoinverse step (truncated SVD) on the exact Jacobian of
the functionals, whose columns are grid means against one reverse-mode
gradient per functional, reporting the smallest retained singular value
as the surjectivity check. The census scans the return map for
fixed points, brackets sign changes, refines each bracket by a safeguarded
Newton iteration on rho(x) - x (the variational flow gives rho' with every
value) that stops on the step or on Newton's quadratic model of the next
correction, and re-verifies the count at half the integration step. One
many-lane flow scans at h and at h/2 as two lane groups; each pass's
refinement flows then read that pass's stage table, whose order-1 rows
are built only when the pass has a bracket.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (Grid, Nonlinearity, PeriodicFn, PreconditionError,
                   Term, FourierAnsatz, require_int)
from .morin import _derivative_samples, _sigma_gradients, _sigma_values
# _flow_scalar is no longer called here but stays a module attribute: the
# benchmark's tracer (bench/spans.py) wraps search._flow_scalar
from .odeint import (_add_orders, _flow_scalar,  # noqa: F401
                     _flow_vector, _flow_with_variation, _stage_table,
                     _step_count)

SIGMA_GRID_N = 2048
MAX_GN_ITERATIONS = 100
SCAN_POINTS = 801
ROOT_REFINE_TOL = 1e-12
MAX_REFINE_FLOWS = 80
ROOT_DEDUP_TOL = 1e-9
PINV_TRUNCATION = 1e-10
# RK4's error falls about 16-fold when the step halves, while a nonzero
# g = rho(x) - x keeps its size: a scan whose max |g| falls at least this
# many times under halving holds only discretization error, a continuum
CONTINUUM_HALVING_DROP = 8.0


@dataclass(frozen=True)
class ParamFamily:
    """Nonlinearity family with named free scalar parameters.

    ``entries`` lists (power, coefficient) pairs where a coefficient is a
    float or a (name, scale) reference into the parameter vector.
    """

    entries: tuple
    names: tuple[str, ...]

    def build(self, params: np.ndarray) -> Nonlinearity:
        lookup = dict(zip(self.names, params))
        terms = []
        for power, coeff in self.entries:
            if isinstance(coeff, tuple):
                name, scale = coeff
                value = scale * lookup[name]
            else:
                value = float(coeff)
            if value != 0.0:
                terms.append(Term(power, FourierAnsatz(value)))
        return Nonlinearity(terms)

    def partial(self, name: str) -> Nonlinearity:
        """d f / d name: ``build`` is linear in the parameters, so this is
        the monomials that reference ``name``, each with its scale."""
        return Nonlinearity([Term(power, FourierAnsatz(coeff[1]))
                             for power, coeff in self.entries
                             if isinstance(coeff, tuple) and coeff[0] == name])

    @classmethod
    def fixed(cls, f: Nonlinearity) -> "ParamFamily":
        if not f.autonomous:
            raise PreconditionError("families require autonomous nonlinearities")
        entries = tuple((t.power, t.coeff.a0) for t in f.terms)
        return cls(entries, ())

    @classmethod
    def quartic_bc(cls) -> "ParamFamily":
        """x^4 - b x^2 + c x with free (b, c)."""
        return cls(((4, 1.0), (2, ("b", -1.0)), (1, ("c", 1.0))), ("b", "c"))


@dataclass
class SearchProblem:
    """Free coordinates = family parameters followed by the unfrozen ansatz
    coefficients in ``FourierAnsatz.names`` order (a0, a1, b1, a2, b2, ...);
    the b1 gauge is frozen automatically for autonomous families. The
    target (1 to 4 values), the family parameters and ``residual_tol``
    >= 0 must be finite, and every ``frozen`` name a coordinate or b1."""

    family: ParamFamily
    ansatz: FourierAnsatz
    target: np.ndarray
    family_params: np.ndarray = field(default_factory=lambda: np.zeros(0))
    frozen: tuple[str, ...] = ()        # e.g. ("b", "c", "b1")
    residual_tol: float = 1e-10

    def __post_init__(self):
        self.target = np.atleast_1d(np.asarray(self.target, dtype=float))
        self.family_params = np.atleast_1d(np.asarray(self.family_params,
                                                      dtype=float))
        if not 1 <= len(self.target) <= 4:
            raise PreconditionError("target dimension must be 1 to 4")
        for name in ("target", "family_params"):
            if not np.isfinite(getattr(self, name)).all():
                raise PreconditionError(f"{name} must be finite")
        if not 0.0 <= self.residual_tol < math.inf:
            raise PreconditionError("residual_tol must be finite and >= 0")
        names = self._coordinate_names()
        unknown = [nm for nm in self.frozen if nm not in names and nm != "b1"]
        if unknown:
            raise PreconditionError(f"unknown frozen names {unknown}; the "
                                    f"coordinates are {names}")

    # -- coordinate packing -------------------------------------------------

    def _coordinate_names(self) -> list[str]:
        return list(self.family.names) + self.ansatz.names()

    def free_mask(self) -> np.ndarray:
        names = self._coordinate_names()
        frozen = set(self.frozen)
        frozen.add("b1")  # time-translation gauge for autonomous families
        return np.array([nm not in frozen for nm in names])

    def pack(self) -> np.ndarray:
        return np.concatenate([self.family_params, self.ansatz.vector()])

    def unpack(self, x: np.ndarray) -> tuple[np.ndarray, FourierAnsatz]:
        nf = len(self.family.names)
        return x[:nf], FourierAnsatz.from_vector(x[nf:])

    def _point(self, x: np.ndarray) -> tuple[Nonlinearity, PeriodicFn]:
        """The nonlinearity and the sampled ansatz at coordinates x."""
        fam, ans = self.unpack(x)
        return self.family.build(fam), ans.sample(Grid(SIGMA_GRID_N))

    def sigma_at(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        """First len(target) functionals and the order-5 monitor."""
        sigma, _ = _sigma_values(*self._point(x))
        return sigma[:len(self.target)], float(sigma[4])


@dataclass(frozen=True)
class GaussNewtonResult:
    params: np.ndarray
    names: tuple[str, ...]
    residual_history: list[float]
    jacobian_svals: np.ndarray
    smallest_retained_sval: float
    sigma5: float
    converged: bool
    message: str
    diagnostics: dict   # work counters and the final residual

    def coefficient(self, name: str) -> float:
        return float(self.params[self.names.index(name)])


def gauss_newton(problem: SearchProblem) -> GaussNewtonResult:
    """Minimum-norm Gauss-Newton on the free coordinates.

    Steps are x <- x - lam J^+ (sigma(x) - target), J the exact Jacobian
    (``_jacobian``), J^+ its truncated-SVD pseudoinverse and lam the first
    of 1, 1/2, ..., 2^-11 that does not increase the residual. Stops on the
    residual tolerance, stagnation (relative decrease under 1e-3 over 10
    steps), a line search with no such lam, a Jacobian that vanishes (no
    singular value retained; ``smallest_retained_sval`` is then 0.0), or
    ``MAX_GN_ITERATIONS`` steps, and returns the last iterate, which is the
    best. A Jacobian at every iterate, the returned one included, gives
    the returned point's ``jacobian_svals`` (iterations + 1 builds). The
    accepted trial of a line search is the next iterate, with its
    functionals: each point is evaluated once. ``diagnostics`` counts
    iterations, line-search halvings, ``sigma_at`` evaluations and Jacobian
    builds, next to the final residual and ``residual_tol``.
    """
    x = problem.pack()
    mask = problem.free_mask()
    if mask.sum() < len(problem.target):
        raise PreconditionError("fewer free coordinates than target equations")
    names = tuple(problem._coordinate_names())
    work = {"sigma_evals": 0, "jacobian_builds": 0, "line_search_halvings": 0}

    def residual(x):
        work["sigma_evals"] += 1
        r, s5 = problem.sigma_at(x)
        r = r - problem.target
        return float(np.linalg.norm(r)), r, s5

    history: list[float] = []
    message = "iteration cap reached"
    converged = False
    rnorm, r, s5 = residual(x)
    for it in range(MAX_GN_ITERATIONS + 1):
        history.append(rnorm)
        work["jacobian_builds"] += 1
        U, svals, Vt = np.linalg.svd(_jacobian(problem, x, mask),
                                     full_matrices=False)
        keep = svals > PINV_TRUNCATION * svals[0]
        if rnorm <= problem.residual_tol:
            converged = True
            message = f"residual tolerance reached in {it} iterations"
            break
        if it == MAX_GN_ITERATIONS:
            break
        if len(history) > 10 and history[-11] > 0 and \
                (history[-11] - rnorm) / history[-11] < 1e-3:
            message = "residual stagnated; best iterate returned"
            break
        if not keep.any():
            message = "Jacobian vanishes; best iterate returned"
            break
        step_free = Vt[keep].T @ ((U[:, keep].T @ r) / svals[keep])
        step = np.zeros_like(x)
        step[mask] = step_free
        # halving line search: never accept a residual increase; the
        # accepted trial's residual is the next iterate's
        trials = 12
        for halvings in range(trials):
            trial = x - 0.5 ** halvings * step
            accepted = residual(trial)
            if accepted[0] <= rnorm:
                break
        else:
            halvings = trials
        work["line_search_halvings"] += halvings
        if halvings == trials:
            message = "line search found no decrease; best iterate returned"
            break
        x, (rnorm, r, s5) = trial, accepted
    work.update(iterations=len(history) - 1, residual=rnorm,
                residual_tol=problem.residual_tol)
    return GaussNewtonResult(params=x, names=names, residual_history=history,
                             jacobian_svals=svals,
                             smallest_retained_sval=float(svals[keep][-1])
                             if keep.any() else 0.0,
                             sigma5=s5, converged=converged, message=message,
                             diagnostics=work)


def _jacobian(problem: SearchProblem, x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Exact Jacobian of the targeted functionals on the free coordinates.

    Columns follow ``_coordinate_names``, each a grid mean against
    ``_sigma_gradients``: a family parameter perturbs D by the derivative
    samples of ``ParamFamily.partial``, an ansatz coefficient moves u.
    """
    f, u = problem._point(x)
    D = _derivative_samples(f, u)
    G = _sigma_gradients(D)[:len(problem.target)]
    params = [np.einsum("rin,in->r", G, _derivative_samples(
        problem.family.partial(name), u)[:4]) for name in problem.family.names]
    dus = FourierAnsatz.basis(u.grid, problem.ansatz.harmonics)
    coeffs = np.einsum("rin,in->rn", G, D[1:]) @ dus.T
    return np.column_stack(params + [coeffs])[:, mask] / u.grid.n


# ---------------------------------------------------------------------------
# solution census
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CensusRoot:
    """A refined fixed point of the return map.

    ``bracket_width`` is the size of the last refinement step: the Newton
    correction, or the bisection move where Newton would have left the sign
    bracket. When Newton's quadratic model stops the refinement it is the
    model's predicted next correction, and ``rho_prime`` is the last
    flow's slope extrapolated to x. For a simple root it bounds the
    distance to the fixed point of the discretized map. It is 0.0 when
    g = rho(x) - x evaluated to exactly 0.0 at x, which does not mean a
    zero-width bracket: the last sign bracket can still be wide (1.3e-5 to
    7.6e-4 on the bench census, seeds 0-9). Such a root sits in a float-noise zone in
    which rounding decides the sign of g. ``rounding_width`` =
    ulp(x) / |rho' - 1| is that zone's width, the root's move under a
    change of one ulp in rho(x); it is inf when rho' = 1.
    """

    x: float
    rho_prime: float
    bracket_width: float
    rounding_width: float


@dataclass(frozen=True)
class CensusPass:
    """One census pass at integration step ``h``: its scan, roots and work.

    ``count`` is None when the scan is flat or no lane survives.
    ``unresolved`` lists the brackets that touch a blow-up boundary or
    whose refinement blew up, or the whole range when no lane survives.
    ``work`` counts the scan's lane-steps (lanes x RK4 steps), then the
    refinement flows and their RK4 steps.
    """

    h: float
    g: np.ndarray  # rho(x) - x on the scan, nan where a lane escaped
    roots: tuple[CensusRoot, ...]
    count: int | None
    unresolved: tuple[tuple[float, float], ...]
    flows_per_bracket: tuple[int, ...]  # refinement flows, in scan order
    work: dict  # {"lane_steps", "flows", "steps"}

    @property
    def brackets(self) -> int:
        return len(self.flows_per_bracket)

    @property
    def refine_flows(self) -> int:
        return sum(self.flows_per_bracket)


@dataclass(frozen=True)
class SolutionCensus:
    """A census on ``scan_xs``. ``passes`` holds the pass at h and, when
    the half-step check ran and the pass at h is not a
    ``degenerate_continuum``, the pass at h/2. ``roots``, ``count``,
    ``unresolved_brackets`` and ``scan_g`` read the pass at h, and
    ``count_at_half_step`` the pass at h/2."""

    scan_xs: np.ndarray
    degenerate_continuum: bool
    passes: tuple[CensusPass, ...]

    @property
    def roots(self) -> tuple[CensusRoot, ...]:
        return self.passes[0].roots

    @property
    def count(self) -> int | None:
        return self.passes[0].count

    @property
    def unresolved_brackets(self) -> tuple[tuple[float, float], ...]:
        return self.passes[0].unresolved

    @property
    def scan_g(self) -> np.ndarray:
        return self.passes[0].g

    @property
    def count_at_half_step(self) -> int | None:
        return self.passes[1].count if len(self.passes) > 1 else None

    @property
    def stable_under_halving(self) -> bool:
        return self.count is not None and self.count == self.count_at_half_step


def count_solutions(f: Nonlinearity, v, x_lo: float, x_hi: float,
                    scan_n: int = SCAN_POINTS, h: float = 2e-4,
                    check_half_step: bool = True) -> SolutionCensus:
    """Count fixed points of the return map on [x_lo, x_hi].

    The scan evaluates g(x) = rho_v(x) - x at ``scan_n`` points with the
    compensated vector integrator and brackets sign changes between
    surviving neighbours. Each bracket is refined by a safeguarded Newton
    iteration (see ``_refine_root``) until the step, or the next correction
    that Newton's quadratic model predicts, is at most 1e-12, and roots
    are deduplicated within 1e-9. Brackets touching a blow-up boundary
    are reported unresolved and never counted; a pass in which no scan
    lane survives reports the whole range unresolved and counts None. The
    count is re-derived at h/2, from a scan made in the same
    ``_flow_vector`` call as the scan at h (``_census_pass``); the pass
    at h/2 is dropped when the pass at h is degenerate: max |g| within
    rounding of 0, or, with the check at h/2, falling at least
    ``CONTINUUM_HALVING_DROP``-fold under halving, as the RK4 error of a
    continuum of periodic solutions does. Each pass is one ``CensusPass``
    record of ``passes``: its scan, roots, count, unresolved brackets and
    work. The range and the step must be finite.
    """
    if not all(map(math.isfinite, (x_lo, x_hi, h))):
        raise PreconditionError("the range and the step must be finite")
    if not x_lo < x_hi:
        raise PreconditionError("need x_lo < x_hi")
    scan_n = require_int("scan_n", scan_n, 2)
    xs = np.linspace(x_lo, x_hi, scan_n)
    degenerate, passes = _census_pass(f, v, xs, h, check_half_step)
    return SolutionCensus(scan_xs=xs, degenerate_continuum=degenerate,
                          passes=tuple(passes))


def _census_pass(f: Nonlinearity, v, xs: np.ndarray, h: float,
                 check_half_step: bool):
    """(degenerate, passes): the passes at h and, with ``check_half_step``,
    at h/2.

    One ``_flow_vector`` call scans both steps as two lane groups, from
    order-0 stage tables that the scan and every refinement flow of the
    pass share. Each pass then brackets and refines its own scan
    (``_census_roots``) and releases its table. The pass at h is
    degenerate when its scan is flat (``_flat``) or, with both scans, when
    max |g| on the lanes finite in both falls at least
    ``CONTINUUM_HALVING_DROP``-fold from h to h/2; it is then not refined
    and is the only pass.
    """
    steps = (h, h / 2) if check_half_step else (h,)
    tables = [_stage_table(f, v, step) for step in steps]
    u_end, _ = _flow_vector(f, v, xs, h, tables[0],
                            [(xs, step, table) for step, table
                             in zip(steps[1:], tables[1:])])
    gs = [u - xs for u in np.split(u_end, len(steps))]
    if _flat(xs, gs[0]) or (check_half_step and _halving_continuum(*gs)):
        work = {"lane_steps": len(xs) * _step_count(0.0, 1.0, h)[0],
                "flows": 0, "steps": 0}
        return True, [CensusPass(h, gs[0], (), None, (), (), work)]
    return False, [_census_roots(f, v, xs, g, step, tables.pop(0))
                   for step, g in zip(steps, gs)]


def _flat(xs: np.ndarray, g: np.ndarray) -> bool:
    """Whether max |g| is at most 1e-12 max(1, max |x|) on two or more
    finite lanes: g within rounding of 0."""
    live = np.abs(g[np.isfinite(g)])
    return len(live) >= 2 and live.max() <= 1e-12 * max(1.0,
                                                          np.max(np.abs(xs)))


def _halving_continuum(g_h: np.ndarray, g_half: np.ndarray) -> bool:
    """Whether max |g| falls ``CONTINUUM_HALVING_DROP``-fold from h to h/2
    on the lanes finite in both scans, of which there must be two."""
    g_h, g_half = np.abs(g_h), np.abs(g_half)
    both = np.isfinite(g_h) & np.isfinite(g_half)
    return bool(both.sum() >= 2 and np.max(g_half[both])
                <= np.max(g_h[both]) / CONTINUUM_HALVING_DROP)


def _census_roots(f: Nonlinearity, v, xs: np.ndarray, g: np.ndarray,
                  h: float, table) -> CensusPass:
    """The ``CensusPass`` at step h of the scan g = rho(x) - x on ``xs``.

    ``table`` is the pass's order-0 ``_stage_table``; the order-1 rows
    the refinement flows read are added only when there is a bracket. A
    flat scan (``_flat``), which only the pass at h/2 can reach here, and
    a scan with no finite lane are not refined and count None.
    """
    work = {"lane_steps": len(xs) * _step_count(0.0, 1.0, h)[0],
            "flows": 0, "steps": 0}
    finite = np.isfinite(g)
    if not finite.any():  # no lane survives, so no root can be told apart
        return CensusPass(h, g, (), None, ((float(xs[0]), float(xs[-1])),),
                          (), work)
    if _flat(xs, g):
        return CensusPass(h, g, (), None, (), (), work)

    brackets, unresolved = [], []
    for i in range(len(xs) - 1):
        if finite[i] and finite[i + 1]:
            if g[i] == 0.0:
                brackets.append((xs[i], xs[i], g[i], g[i]))
            elif g[i] * g[i + 1] < 0:
                brackets.append((xs[i], xs[i + 1], g[i], g[i + 1]))
        elif finite[i] != finite[i + 1]:
            unresolved.append((float(xs[i]), float(xs[i + 1])))
    if finite[-1] and g[-1] == 0.0:
        brackets.append((xs[-1], xs[-1], 0.0, 0.0))

    if brackets:
        table = _add_orders(f, table, h, (1,))
    roots, flows = [], []
    for lo, hi, glo, ghi in brackets:
        root, nflows, steps = _refine_root(f, v, lo, hi, glo, ghi, h, table)
        flows.append(nflows)
        work["flows"] += nflows
        work["steps"] += steps
        if root is None:
            unresolved.append((float(lo), float(hi)))
        else:
            roots.append(root)
    out: list[CensusRoot] = []
    for root in sorted(roots, key=lambda r: r.x):
        if not out or root.x - out[-1].x > ROOT_DEDUP_TOL:
            out.append(root)
    return CensusPass(h, g, tuple(out), len(out), tuple(unresolved),
                      tuple(flows), work)


def _refine_root(f, v, lo, hi, glo, ghi, h, table):
    """Safeguarded Newton on g(x) = rho(x) - x inside the sign bracket.

    Starts from the secant point of [lo, hi]. Each iterate costs one
    variational flow, which gives g and g' = rho' - 1 together. The iterate
    replaces the bracket end of its sign; a Newton step that would leave
    the bracket is replaced by bisection. Stops when the step is at most
    ROOT_REFINE_TOL or g is exactly 0, or on Newton's quadratic model:
    after two Newton steps in a row, with c = g'' estimated from the last
    two slopes, the next correction is about a = |c| s^2 / (2 |g'|) for the
    step s just taken, and a <= ROOT_REFINE_TOL returns that step's point
    without another flow (a bisection clears the slope history). Returns
    (root, flows, their RK4 steps); the ``CensusRoot``'s ``bracket_width``
    is the step or a, and its rho' that of the last flow or, on the
    model's stop, extrapolated to x. root is None when a flow blows up
    inside the bracket. Every flow reads ``table``, the pass's
    ``_stage_table`` with orders 0 and 1.
    """
    nsteps = _step_count(0.0, 1.0, h)[0]
    if lo == hi:
        x = lo
    else:
        x = lo - glo * (hi - lo) / (ghi - glo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
    last = None  # (x, g') of the flow before, when it took a Newton step
    for flows in range(1, MAX_REFINE_FLOWS + 1):
        flow = _flow_with_variation(f, v, x, h, table)
        if flow.blew:
            return None, flows, (flows - 1) * nsteps + round(flow.time
                                                             * nsteps)
        der = flow.lanes[0]
        g = flow.u - x
        if g == 0.0 or lo == hi:
            width = 0.0
            break
        if (g < 0) == (glo < 0):
            lo, glo = x, g
        else:
            hi = x
        slope = der - 1.0
        nxt = x - g / slope if slope != 0.0 else lo
        newton = lo < nxt < hi
        if not newton:
            nxt = 0.5 * (lo + hi)
        width = abs(nxt - x)
        if width <= ROOT_REFINE_TOL:
            x = nxt
            break
        if newton and last:
            curv = (slope - last[1]) / (x - last[0])
            model = abs(curv) * width * width / (2.0 * abs(slope))
            if model <= ROOT_REFINE_TOL:
                x, width, der = nxt, model, der + curv * (nxt - x)
                break
        last = (x, slope) if newton else None
        x = nxt
    else:
        width = hi - lo
    slope = abs(der - 1.0)
    return CensusRoot(x=float(x), rho_prime=float(der),
                      bracket_width=float(width),
                      rounding_width=(math.ulp(x) / slope if slope
                                      else math.inf)), flows, flows * nsteps


# ---------------------------------------------------------------------------
# parameter sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepCell:
    params: dict
    result: dict | None
    error: str | None = None


def sweep(family: ParamFamily, grid_values: dict[str, list[float]],
          analysis, existing: dict[str, SweepCell] | None = None) -> dict[str, SweepCell]:
    """Run ``analysis(f, params)`` on the cartesian parameter grid.

    Per-cell failures are recorded as "<exception type>: <message>" and
    never abort the sweep. Returns the cells of this grid only; a cell
    whose key is in ``existing`` (from a previous run of the same
    analysis) is taken from there untouched.
    """
    names = list(grid_values.keys())
    missing = [n for n in names if n not in family.names]
    if missing:
        raise PreconditionError(f"grid names {missing} not in family parameters")
    existing = existing or {}
    table: dict[str, SweepCell] = {}
    for values in itertools.product(*(grid_values[n] for n in names)):
        point = {n: float(x) for n, x in zip(names, values)}
        key = ",".join(f"{n}={point[n]:.12g}" for n in names)
        if key in existing:
            table[key] = existing[key]
        else:
            params = np.array([point.get(n, 0.0) for n in family.names])
            try:
                f = family.build(params)
                table[key] = SweepCell(params=point, result=analysis(f, point))
            except Exception as exc:  # per-cell isolation is the contract
                table[key] = SweepCell(params=point, result=None,
                                       error=f"{type(exc).__name__}: {exc}")
    return table
