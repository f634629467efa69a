"""Fibres of the operator u -> u' + f(t,u): periodic solves and the W field.

For a fixed mean-zero right-hand side vtilde, the equation

    u' + f(t,u) = vtilde + nu

has, for each initial value c (tame f), exactly one nu admitting a periodic
solution. The solver is a safeguarded Newton iteration on nu, or on
(u(0), nu) for an average constraint, whose derivatives come from the
tangent lanes of the RK4 flow. nu belongs to the upper set when the
solution escapes to +infinity or lands at or above c at t=1, and to the
lower set symmetrically, so blow-up counts as membership by its sign.

The W field solves omega' + g omega = alpha, g = D2f(t,u), periodic with
mean m. With A the zero-mean antiderivative of g and gbar = mean(g) =
Sigma_1, p = exp(A(0) - A) > 0 is periodic and omega = alpha p R, R the
periodic solution of R' + gbar R = 1/p: the only one, as the homogeneous
exp(-gbar t) p is not periodic. R has the sign of gbar, so omega > 0 and
alpha has the sign of Sigma_1 m for every Sigma_1. On the critical set
|gbar| <= 1e-10 alpha is exactly 0 and omega is p, scaled to mean m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (Nonlinearity, PeriodicFn, PreconditionError,
                   TamenessViolationError, mean, require_int,
                   spectral_antiderivative)
from .odeint import _flow_scalar, _forcing_shifts, _stage_table

PERIODICITY_TOL = 1e-11
AVERAGE_TOL = 1e-12
MAX_BRACKET_DOUBLINGS = 60
MAX_SOLVE_FLOWS = 200


@dataclass(frozen=True)
class InitialValue:
    """Constraint u(0) = c; c must be finite."""
    c: float

    def __post_init__(self):
        if not math.isfinite(self.c):
            raise PreconditionError("the initial value must be finite")


@dataclass(frozen=True)
class Average:
    """Constraint mean(u) = a; a must be finite."""
    a: float

    def __post_init__(self):
        if not math.isfinite(self.a):
            raise PreconditionError("the average must be finite")


@dataclass(frozen=True)
class FibreDiagnostics:
    """Deterministic work and final gaps of one fibre solve."""

    flows: int
    newton_steps: int
    expansions: int
    bisections: int
    closure_gap: float  # |u(1) - u(0)| of the flow the samples come from
    mean_gap: float | None  # |mean(u) - a|; None for InitialValue


@dataclass(frozen=True)
class FibrePoint:
    """A periodic solution together with its image data (vtilde, nu)."""

    u: PeriodicFn
    nu: float
    vtilde: PeriodicFn
    phi_bar: float  # int f(t, u(t)) dt; equals nu for mean-zero vtilde
    diagnostics: FibreDiagnostics

    def residual(self, f: Nonlinearity) -> float:
        """Sup-norm of u' + f(t,u) - vtilde - nu on the grid."""
        r = (self.u.derivative().values + f.on_grid(self.u)
             - self.vtilde.values - self.nu)
        return float(np.max(np.abs(r)))


@dataclass(frozen=True)
class WField:
    """Periodic solution of omega' + D2f(t,u) omega = alpha with given mean."""

    omega: PeriodicFn
    alpha: float


def solve_periodic(f: Nonlinearity, vtilde: PeriodicFn,
                   constraint) -> FibrePoint:
    """Find the unique nu and periodic u for the given fibre constraint.

    ``constraint`` is InitialValue(c) or Average(a). Newton steps on
    tangent lanes of the RK4 flow (see ``_newton_solve``), which runs at
    the node step 1/n of ``vtilde``'s grid, so the samples of the flow
    that closed are u at the nodes; a finer step takes a finer grid.
    ``vtilde``'s mean must vanish to 1e-10 max(1, max |vtilde|). The
    solve fails when its best orbit closes no better than
    ``PERIODICITY_TOL`` max(1, max |u|), as rounding in u(1) grows with u.
    """
    if abs(mean(vtilde)) > 1e-10 * max(1.0, np.max(np.abs(vtilde.values))):
        raise PreconditionError("vtilde must have zero mean")
    if isinstance(constraint, InitialValue):
        return _solve_initial_value(f, vtilde, constraint.c)
    if isinstance(constraint, Average):
        return _solve_average(f, vtilde, constraint.a)
    raise PreconditionError(f"unknown constraint {constraint!r}")


def _classify(u_end, blew, sign, c):
    """Membership of nu in the upper (+1) / lower (-1) set for start value c."""
    if blew:
        return sign
    return 1 if u_end >= c else -1


class _Bracket:
    """Sign bracket (lo, hi) on one unknown; None marks an empty side."""

    def __init__(self, name: str, step: float):
        self.name, self.step = name, step
        self.lo = self.hi = None
        self.doublings = 0

    def next(self, x, newton, toward):
        """(next x, kind): the Newton point when it is inside the bracket,
        else the midpoint of a closed bracket, else a doubling step out of
        the open side (in direction ``toward`` when both are open)."""
        lo, hi = self.lo, self.hi
        if (math.isfinite(newton) and (lo is None or newton > lo)
                and (hi is None or newton < hi)):
            return newton, "newton_steps"
        if lo is not None and hi is not None:
            return 0.5 * (lo + hi), "bisections"
        self.doublings += 1
        if self.doublings > MAX_BRACKET_DOUBLINGS:
            side = "lower" if lo is None else "upper"
            raise TamenessViolationError(
                f"no {side} bracket for {self.name}; f may be wild")
        step, self.step = self.step, 2.0 * self.step
        if hi is not None:
            return hi - step, "expansions"
        if lo is not None:
            return lo + step, "expansions"
        return x + math.copysign(step, toward), "expansions"


def _solve_initial_value(f, vtilde, c):
    """Newton on g(nu) = u(1) - c, with g' = eta(1) > 0."""
    return _newton_solve(f, vtilde, float(c), None, None, None)


def _solve_average(f, vtilde, a, nu_hint=None, shifts=None):
    """2-D Newton on F(c, nu) = (u(1) - c, mean(u) - a) from c = a."""
    return _newton_solve(f, vtilde, float(a), float(a), nu_hint, shifts)


def _newton_solve(f, vtilde, c, a, nu_hint, shifts) -> FibrePoint:
    """Safeguarded Newton for nu at u(0) = c, or for (c, nu) when a is set.

    Each flow carries the tangent lanes xi = du/dc and eta = du/dnu and
    puts nu in a sign bracket for its c (``_classify``); after a blow-up
    only nu moves, by that bracket. With ``a`` the step solves the Jacobian
    [[xi(1) - 1, eta(1)], [mean(xi), mean(eta)]]; its c-step is Newton on
    the fibre average, which increases with c, and nu follows c linearly.
    As u increases with nu, a flow with u(1) >= c and mean(u) <= a puts c
    below the root, and one with u(1) <= c and mean(u) >= a above it. A
    step that leaves its bracket becomes a bisection or a doubling step.
    The first nu is ``nu_hint``, else that of the constant orbit u = c.
    Every flow runs at the node step 1/n and reads the stage table of
    vtilde that ``shifts`` (from ``_forcing_shifts``, built here if None)
    shifts to nu.
    """
    grid = vtilde.grid
    h = 1.0 / grid.n
    if shifts is None:
        shifts = _forcing_shifts(_stage_table(f, vtilde, h, (0, 1)))
    if nu_hint is None:  # the nu of the constant orbit u = c
        nu_hint = np.mean(f.eval(grid.nodes, c))
    nu = float(nu_hint)
    # the closure target sits well below PERIODICITY_TOL: the stored samples
    # are only periodic up to this gap, and spectral differentiation
    # amplifies it
    polish = 1e-14
    vnorm = float(np.max(np.abs(vtilde.values)))

    def nu_bracket(c):
        return _Bracket("nu", 1.0 + abs(c) + vnorm + f.abs_bound(abs(c) + 2.0))

    nus, cs = nu_bracket(c), _Bracket("u(0)", 1.0 + 0.1 * abs(c))
    work = dict.fromkeys(("newton_steps", "expansions", "bisections"), 0)
    flows, best = 0, None  # best: (score, nu, samples, gap, mean gap)
    merit, nested = math.inf, False
    while flows < MAX_SOLVE_FLOWS:
        flow = _flow_scalar(f, None, c, 0.0, 1.0, h, store=True,
                            table=shifts(nu), lanes=True)
        flows += 1
        if _classify(flow.u, flow.blew, flow.sign, c) > 0:
            nus.hi = nu
        else:
            nus.lo = nu
        new_c = c
        if flow.blew:
            nested = True
            new_nu, kind = nus.next(nu, math.nan, -flow.sign)
        else:
            xi1, eta1, su, sxi, seta = flow.lanes
            gap = flow.u - c
            mgap = 0.0 if a is None else su / grid.n - a
            score = max(abs(gap) / polish, abs(mgap) / AVERAGE_TOL)
            if best is None or score < best[0]:
                best = (score, nu, flow.samples, abs(gap), abs(mgap))
            if score <= 1.0:
                break
            if a is not None:
                mean_xi, mean_eta = sxi / grid.n, seta / grid.n
                # the mean gap carried to the fibre at c, and its c-slope
                reduced = mgap - mean_eta * gap / eta1
                slope = mean_xi + mean_eta * (1.0 - xi1) / eta1
                closed = abs(gap) <= max(polish, 1e-3 * abs(reduced))
                if gap >= 0.0 >= mgap or (closed and reduced < 0.0):
                    cs.lo = c
                elif gap <= 0.0 <= mgap or (closed and reduced > 0.0):
                    cs.hi = c
                # once a joint step fails to shrink the gaps, c moves only
                # from orbits closed at their own c
                nested = nested or abs(gap) + abs(mgap) >= merit
                merit = abs(gap) + abs(mgap)
            if a is None or (nested and not closed):
                new_nu, kind = nus.next(nu, nu - gap / eta1, -gap)
            else:
                new_c, kind = cs.next(c, c - reduced / slope, -reduced)
                new_nu = nu - (gap + (xi1 - 1.0) * (new_c - c)) / eta1
        if new_c == c and new_nu == nu:
            break  # no step left at float resolution
        work[kind] += 1
        if new_c != c:
            nus = nu_bracket(new_c)
        c, nu = new_c, new_nu
    if best is None or best[4] > 1e-7 or \
            best[3] > PERIODICITY_TOL * max(1.0, np.max(np.abs(best[2]))):
        raise TamenessViolationError(
            "fibre solve failed to close the orbit" if best is None else
            f"fibre solve stalled at gaps {best[3]:.3e}, {best[4]:.3e}")
    _, nu, samples, gap, _ = best
    u = PeriodicFn(grid, samples[:-1])
    diagnostics = FibreDiagnostics(
        flows=flows, **work, closure_gap=gap,
        mean_gap=None if a is None else abs(mean(u) - a))
    return FibrePoint(u=u, nu=nu, vtilde=vtilde,
                      phi_bar=float(np.mean(f.on_grid(u))),
                      diagnostics=diagnostics)


def trace_points(f: Nonlinearity, vtilde: PeriodicFn, a_lo: float, a_hi: float,
                 count: int) -> list[FibrePoint]:
    """The FibrePoints of ``trace_pairs``, without their averages."""
    return [fp for _, fp in trace_pairs(f, vtilde, a_lo, a_hi, count)]


def trace_pairs(f: Nonlinearity, vtilde: PeriodicFn, a_lo: float, a_hi: float,
                count: int) -> list[tuple[float, FibrePoint]]:
    """(a, FibrePoint) at ``count`` >= 1 averages evenly from a_lo to a_hi;
    the points share one stage table of ``vtilde`` at the node step 1/n,
    and each solve starts from the nu of the point before it
    (``_solve_average``'s hint). A point's ``phi_bar`` is
    Phi(u_a) = int f(t, u_a(t)) dt, the scalar map whose folds and cusps
    classify the operator on this fibre."""
    if not (math.isfinite(a_lo) and math.isfinite(a_hi) and a_lo < a_hi):
        raise PreconditionError("need finite a_lo < a_hi")
    count = require_int("count", count, 1)
    shifts = _forcing_shifts(_stage_table(f, vtilde, 1.0 / vtilde.grid.n,
                                          (0, 1)))
    out, nu = [], None
    for a in np.linspace(a_lo, a_hi, count):
        fp = _solve_average(f, vtilde, float(a), nu, shifts)
        out.append((float(a), fp))
        nu = fp.nu
    return out


# ---------------------------------------------------------------------------
# the W field (fibre tangent of prescribed average)
# ---------------------------------------------------------------------------


def solve_w(f: Nonlinearity, u: PeriodicFn, m: float = 1.0) -> WField:
    """Solve omega' + D2f(t,u) omega = alpha, periodic with finite mean m,
    by the module docstring's closed form: one rfft, a division by
    gbar + 2 pi i k per mode, one irfft and alpha = m / mean(p R). On the
    critical set |Sigma_1| <= 1e-10, alpha = 0.0 and omega = m p / mean(p)."""
    if not math.isfinite(m):
        raise PreconditionError("the mean m must be finite")
    g = f.on_grid(u, 1)
    gbar = float(np.mean(g))  # Sigma_1 along u
    osc = spectral_antiderivative(g)
    p = np.exp(osc[0] - osc)           # periodic factor, p(0) = 1, p > 0
    if abs(gbar) <= 1e-10:
        return WField(PeriodicFn(u.grid, m * p / np.mean(p)), 0.0)
    c = np.fft.rfft(1.0 / p)
    pR = p * np.fft.irfft(c / (gbar + 2j * np.pi * np.arange(len(c))), len(p))
    alpha = m / float(np.mean(pR))
    return WField(PeriodicFn(u.grid, alpha * pR), alpha)
