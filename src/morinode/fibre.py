"""Fibres of the operator u -> u' + f(t,u): periodic solves and the W field.

For a fixed mean-zero right-hand side vtilde, the equation

    u' + f(t,u) = vtilde + nu

has, for each initial value c (tame f), exactly one nu admitting a periodic
solution. The solver brackets nu by the sign ordering: nu belongs to the
upper set when the solution escapes to +infinity or lands at or above c at
t=1, and to the lower set symmetrically, so blow-up counts as membership by
its sign. Bisection plus a bracket-confined secant polish drives
|u(1) - u(0)| below ``PERIODICITY_TOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (Nonlinearity, PeriodicFn, PreconditionError,
                   TamenessViolationError, InternalConsistencyError,
                   mean, spectral_antiderivative)
from .odeint import _flow_scalar, _shift_forcing, _stage_table

PERIODICITY_TOL = 1e-11
AVERAGE_TOL = 1e-9
MAX_BRACKET_DOUBLINGS = 60


@dataclass(frozen=True)
class InitialValue:
    """Constraint u(0) = c."""
    c: float


@dataclass(frozen=True)
class Average:
    """Constraint mean(u) = a."""
    a: float


@dataclass(frozen=True)
class FibrePoint:
    """A periodic solution together with its image data (vtilde, nu)."""

    u: PeriodicFn
    nu: float
    vtilde: PeriodicFn
    phi_bar: float  # int f(t, u(t)) dt; equals nu for mean-zero vtilde

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


def solve_periodic(f: Nonlinearity, vtilde: PeriodicFn, constraint,
                   h: float | None = None, nu_hint: float | None = None,
                   tol: float = PERIODICITY_TOL) -> FibrePoint:
    """Find the unique nu and periodic u for the given fibre constraint.

    ``constraint`` is InitialValue(c) or Average(a). The Average form wraps
    an outer root solve on c (the fibre average is strictly monotone in
    u(0)) around the inner nu solve.
    """
    if abs(mean(vtilde)) > 1e-10:
        raise PreconditionError("vtilde must have zero mean")
    if isinstance(constraint, InitialValue):
        return _solve_initial_value(f, vtilde, constraint.c, h, nu_hint, tol)
    if isinstance(constraint, Average):
        return _solve_average(f, vtilde, constraint.a, h, tol)
    raise PreconditionError(f"unknown constraint {constraint!r}")


def _classify(u_end, blew, sign, c):
    """Membership of nu in the upper (+1) / lower (-1) set for start value c."""
    if blew:
        return sign
    return 1 if u_end >= c else -1


def _solve_initial_value(f, vtilde, c, h, nu_hint, tol) -> FibrePoint:
    grid = vtilde.grid
    if h is None:
        h = 1.0 / grid.n

    # vtilde at the RK4 stage times, evaluated once per solve; each flow
    # adds its nu to a copy
    table = _stage_table(f, vtilde, h)

    def flow(nu):
        u_end, _, blew, sign, _ = _flow_scalar(
            f, None, c, 0.0, 1.0, h, table=_shift_forcing(table, nu))
        return u_end, blew, sign

    vnorm = float(np.max(np.abs(vtilde.values)))
    radius = 1.0 + abs(c) + vnorm + f.abs_bound(abs(c) + 2.0)

    if nu_hint is not None:
        width = 1e-3 * (1.0 + abs(nu_hint))
        lo, hi = nu_hint - width, nu_hint + width
    else:
        lo, hi = -radius, radius
    lo_res = flow(lo)
    for _ in range(MAX_BRACKET_DOUBLINGS):
        if _classify(*lo_res, c) < 0:
            break
        lo -= max(abs(lo), radius)
        lo_res = flow(lo)
    else:
        raise TamenessViolationError("no lower bracket for nu; f may be wild")
    hi_res = flow(hi)
    for _ in range(MAX_BRACKET_DOUBLINGS):
        if _classify(*hi_res, c) > 0:
            break
        hi += max(abs(hi), radius)
        hi_res = flow(hi)
    else:
        raise TamenessViolationError("no upper bracket for nu; f may be wild")

    # bisection on the sign ordering until the bracket is clean of blow-ups,
    # then a bracket-confined secant finishes the root of g(nu) = u(1) - c.
    # The polish target sits well below tol: the stored samples are only
    # periodic up to this gap, and spectral differentiation amplifies it.
    polish = max(1e-14, 1e-3 * tol)
    best_nu, best_gap = None, math.inf
    for _ in range(240):
        if not lo_res[1] and not hi_res[1]:
            nu, gap = _secant_in_bracket(flow, c, lo, hi,
                                         lo_res[0] - c, hi_res[0] - c, polish)
            if gap < best_gap:
                best_nu, best_gap = nu, gap
            break
        mid = 0.5 * (lo + hi)
        res = flow(mid)
        if not res[1]:
            gap = abs(res[0] - c)
            if gap < best_gap:
                best_nu, best_gap = mid, gap
        if _classify(*res, c) > 0:
            hi, hi_res = mid, res
        else:
            lo, lo_res = mid, res
        if hi - lo <= 1e-16 * max(1.0, abs(mid)):
            break
    if best_nu is None or best_gap > max(tol, 1e-8):
        raise TamenessViolationError(
            f"nu solve failed to close the orbit (gap {best_gap:.3e})")
    nu = best_nu

    # one re-integration from the converged nu emits the stored samples
    steps_per_node = max(int(round(1.0 / (h * grid.n))), 1)
    h_store = 1.0 / (steps_per_node * grid.n)
    if h_store != h:
        table = _stage_table(f, vtilde, h_store)
    _, samples, blew, _, _ = _flow_scalar(f, None, c, 0.0, 1.0, h_store,
                                          store=True,
                                          table=_shift_forcing(table, nu))
    if blew:
        raise InternalConsistencyError("re-integration at the converged nu blew up")
    u = PeriodicFn(grid, np.asarray(samples[:-1])[::steps_per_node])
    phi_bar = float(np.mean(f.on_grid(u)))
    return FibrePoint(u=u, nu=nu, vtilde=vtilde, phi_bar=phi_bar)


def _secant_in_bracket(flow, c, a, b, ga, gb, tol, max_iter=120):
    """Root of g(nu) = u_nu(1) - c on [a, b] with ga <= 0 <= gb.

    Illinois-weighted regula falsi: a stuck endpoint has its residual
    halved, which keeps convergence superlinear even when one endpoint is
    far from the root.
    """
    if abs(ga) <= tol:
        return a, abs(ga)
    if abs(gb) <= tol:
        return b, abs(gb)
    best_nu, best_gap = (a, abs(ga)) if abs(ga) < abs(gb) else (b, abs(gb))
    last_side = 0
    wa, wb = ga, gb   # Illinois-weighted residuals
    for _ in range(max_iter):
        if wb != wa:
            mid = b - wb * (b - a) / (wb - wa)
        else:
            mid = 0.5 * (a + b)
        if not (a < mid < b):
            mid = 0.5 * (a + b)
        u_end, blew, sign = flow(mid)
        if blew:
            # monotonicity makes this impossible in exact arithmetic; fall
            # back to shrinking the bracket on the blow-up side
            if sign > 0:
                b = mid
                wb = gb = math.inf
            else:
                a = mid
                wa = ga = -math.inf
            continue
        g = u_end - c
        if abs(g) < best_gap:
            best_nu, best_gap = mid, abs(g)
        if abs(g) <= tol:
            return best_nu, best_gap
        if g > 0:
            b, gb, wb = mid, g, g
            if last_side == +1:
                wa = 0.5 * wa
            last_side = +1
        else:
            a, ga, wa = mid, g, g
            if last_side == -1:
                wb = 0.5 * wb
            last_side = -1
        if b - a <= 1e-17 * max(1.0, abs(mid)):
            break
    return best_nu, best_gap


def fibre_trace(f: Nonlinearity, vtilde: PeriodicFn, a_lo: float, a_hi: float,
                count: int, h: float | None = None) -> list[tuple[float, float]]:
    """Sample (a, Phi(u_a)) along one fibre at ``count`` averages.

    Phi(u) = int f(t, u(t)) dt is the scalar map whose folds and cusps
    classify the operator on this fibre.
    """
    if not a_lo < a_hi:
        raise PreconditionError("need a_lo < a_hi")
    out = []
    nu_hint = None
    for a in np.linspace(a_lo, a_hi, count):
        fp = _solve_average(f, vtilde, float(a), h, PERIODICITY_TOL,
                            nu_hint=nu_hint)
        nu_hint = fp.nu
        out.append((float(a), fp.phi_bar))
    return out


def trace_points(f: Nonlinearity, vtilde: PeriodicFn, a_lo: float, a_hi: float,
                 count: int, h: float | None = None) -> list[FibrePoint]:
    """Like fibre_trace but returning the full FibrePoints."""
    if not a_lo < a_hi:
        raise PreconditionError("need a_lo < a_hi")
    out = []
    nu_hint = None
    for a in np.linspace(a_lo, a_hi, count):
        fp = _solve_average(f, vtilde, float(a), h, PERIODICITY_TOL,
                            nu_hint=nu_hint)
        nu_hint = fp.nu
        out.append(fp)
    return out


def _solve_average(f, vtilde, a, h, tol, nu_hint=None) -> FibrePoint:
    cache: dict[float, FibrePoint] = {}

    def eval_mean(c):
        fp = _solve_initial_value(f, vtilde, c, h, nu_hint, tol)
        cache[c] = fp
        return mean(fp.u) - a

    lo = float(a)
    g0 = eval_mean(lo)
    if abs(g0) <= AVERAGE_TOL:
        return cache[lo]
    step = 1.0 + 0.1 * abs(a)
    if g0 > 0:
        hi, g_hi = lo, g0
        for _ in range(MAX_BRACKET_DOUBLINGS):
            lo = lo - step
            g_lo = eval_mean(lo)
            step *= 2
            if g_lo <= 0:
                break
            hi, g_hi = lo, g_lo
        else:
            raise TamenessViolationError("no lower bracket for the average solve")
    else:
        g_lo = g0
        hi = lo
        for _ in range(MAX_BRACKET_DOUBLINGS):
            hi = hi + step
            g_hi = eval_mean(hi)
            step *= 2
            if g_hi >= 0:
                break
            lo, g_lo = hi, g_hi
        else:
            raise TamenessViolationError("no upper bracket for the average solve")
    if g_lo > 0 or g_hi < 0:
        raise InternalConsistencyError("fibre average is not monotone in u(0)")

    c_best, g_best = (lo, g_lo) if abs(g_lo) < abs(g_hi) else (hi, g_hi)
    for _ in range(120):
        if abs(g_best) <= AVERAGE_TOL:
            break
        if g_hi != g_lo:
            c_mid = hi - g_hi * (hi - lo) / (g_hi - g_lo)
            if not (lo < c_mid < hi):
                c_mid = 0.5 * (lo + hi)
        else:
            c_mid = 0.5 * (lo + hi)
        g_mid = eval_mean(c_mid)
        if abs(g_mid) < abs(g_best):
            c_best, g_best = c_mid, g_mid
        if g_mid >= 0:
            hi, g_hi = c_mid, g_mid
        else:
            lo, g_lo = c_mid, g_mid
        if hi - lo < 1e-15 * max(1.0, abs(c_mid)):
            break
    if abs(g_best) > max(AVERAGE_TOL, 1e-7):
        raise InternalConsistencyError(
            f"average solve stalled at |mean - a| = {abs(g_best):.3e}")
    return cache[c_best]


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
