"""Fibres of the operator u -> u' + f(t,u): periodic solves and the W field.

For a fixed mean-zero right-hand side vtilde, the equation

    u' + f(t,u) = vtilde + nu

has, for each initial value c (tame f), exactly one nu admitting a periodic
solution. The solver is a safeguarded Newton iteration on nu, or on
(u(0), nu) for an average constraint, whose derivatives come from the
tangent lanes of the RK4 flow. nu belongs to the upper set when the
solution escapes to +infinity or lands at or above c at t=1, and to the
lower set symmetrically, so blow-up counts as membership by its sign.
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
    """
    if abs(mean(vtilde)) > 1e-10:
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
    if best is None or best[3] > PERIODICITY_TOL or best[4] > 1e-7:
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


def _exp_product_integral(sigma: float, q: np.ndarray) -> float:
    """int_0^1 e^(sigma*s) q(s) ds, spectrally, for periodic samples q."""
    n = len(q)
    c = np.fft.fft(q) / n
    kappa = 2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / n)
    if abs(sigma) < 1e-300:
        return float(c[0].real)
    return float(((math.exp(sigma) - 1.0) * np.sum(c / (sigma + 1j * kappa))).real)


def solve_w(f: Nonlinearity, u: PeriodicFn, m: float = 1.0) -> WField:
    """Solve omega' + D2f(t,u) omega = alpha, periodic with mean m.

    Closed form: with E(t) = exp(-int_0^t D2f), periodicity and the mean
    condition give two linear equations for (omega(0), alpha), solved in
    least-squares sense. Near the critical set (|Sigma_1| <= 1e-10) the
    system degenerates; alpha is then exactly 0 and omega is the scaled
    homogeneous solution, matching the positive-ratio identity.
    """
    g = f.on_grid(u, 1)
    gbar = float(np.mean(g))  # Sigma_1 along u
    grid = u.grid
    t = grid.nodes
    osc = spectral_antiderivative(g)
    p = np.exp(osc[0] - osc)           # periodic factor, p(0) = 1, p > 0
    E = np.exp(-gbar * t) * p          # E(t) = exp(-int_0^t g)

    if abs(gbar) <= 1e-10:
        omega_vals = m * E / np.mean(E)
        return WField(PeriodicFn(grid, omega_vals), 0.0)

    n = grid.n
    E1 = math.exp(-gbar)
    c = np.fft.fft(1.0 / p) / n
    kappa = 2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / n)
    coeffs = c / (gbar + 1j * kappa)
    R = np.fft.ifft(coeffs).real * n
    const = float(np.sum(coeffs).real)
    J = np.exp(gbar * t) * R - const                 # running int of 1/E
    J1 = (math.exp(gbar) - 1.0) * const              # int_0^1 1/E
    I_E = _exp_product_integral(-gbar, p)            # int_0^1 E
    # E*J = p*R - const*E splits into a periodic part and an exp part
    I_EJ = float(np.mean(p * R)) - const * I_E

    A = np.array([[1.0 - E1, -E1 * J1],
                  [I_E, I_EJ]])
    rhs = np.array([0.0, m])
    sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    omega0, alpha = float(sol[0]), float(sol[1])
    omega_vals = E * (omega0 + alpha * J)
    return WField(PeriodicFn(grid, omega_vals), alpha)
