"""Initial-value integration of u' = -f(t,u) + v(t) and the return map.

The integrator is classical fixed-step RK4 with Kahan-compensated state
updates. Blow-up is declared when |u| crosses ``U_MAX``; the sign of the
last finite sample and the first-crossing time are recorded. The return map
rho_v sends u(0) to u(1); its first derivative comes from the variational
equation xi' = -D2f(t,u) xi and is always positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BUILTINS, BracketError, Nonlinearity, PreconditionError

U_MAX = 1e6

FIXED_POINT_TOL = 1e-9

# half-widths for return-map derivative stencils, by derivative order;
# higher orders need wider stencils to stay above the rho-evaluation noise
_STENCIL_HALF_WIDTH = {2: 1e-3, 3: 1e-3, 4: 4e-3, 5: 8e-3, 6: 1.5e-2}


@dataclass(frozen=True)
class Trajectory:
    """Samples of one initial-value solve; ``blew_up`` marks early escape."""

    t0: float
    t1: float
    h: float
    times: np.ndarray
    samples: np.ndarray
    blew_up: bool
    blow_sign: int | None = None
    blow_time: float | None = None

    @property
    def completed(self) -> bool:
        return not self.blew_up

    def final(self) -> float:
        return float(self.samples[-1])


@dataclass(frozen=True)
class ReturnValue:
    """Outcome of following the flow over one period from a start value."""

    value: float | None
    blew_up: bool = False
    blow_sign: int | None = None
    blow_time: float | None = None
    derivative: float | None = None


def _rhs_tables(f: Nonlinearity, v, t0: float, nsteps: int, h: float,
                orders=(0,)):
    """Forcing values and x-derivative tables of f at the RK4 stage times.

    The stage times of step k are t_k, t_k + h/2 and t_k + h. Returns
    ``(vvals, stages)``: the forcing at those times, shape (3, nsteps), and
    for each requested x-derivative order an ``(evaluate, rows)`` pair with
    ``rows`` = (r0, rh, r1) stacked such that ``evaluate(r0[k], x)`` is
    d^order f/dx^order at (t_k, x). A polynomial row is its coefficient
    table at that time, evaluated by Horner; a builtin's row is the time.
    """
    times = t0 + h * np.arange(nsteps)
    stage_times = np.concatenate([times, times + h / 2, times + h])
    if v is None:
        vvals = np.zeros(stage_times.shape)
    else:  # a PeriodicFn calls its spectral interpolant
        vvals = np.asarray(v(stage_times), dtype=float)
    stages = []
    for order in orders:
        if f.builtin is not None:
            fn = BUILTINS[f.builtin]
            evaluate = lambda t, x, fn=fn, order=order: fn(t, x, order)
            rows = stage_times
        else:
            evaluate = _f_from_row
            rows = f.coeff_rows(stage_times, order=order)
        stages.append((evaluate, rows.reshape(3, nsteps, *rows.shape[1:])))
    return vvals.reshape(3, nsteps), stages


def _f_from_row(row, x):
    """Horner evaluation of the per-time polynomial row at x."""
    acc = row[-1]
    for m in range(len(row) - 2, -1, -1):
        acc = acc * x + row[m]
    return acc


def _step_count(t0: float, t1: float, h: float) -> tuple[int, float]:
    """Number of steps of about h across [t0, t1], and their exact size."""
    nsteps = int(round((t1 - t0) / h))
    if nsteps <= 0 or not (t0 < t1):
        raise PreconditionError("need t0 < t1 and a positive step")
    return nsteps, (t1 - t0) / nsteps


def _stage_table(f: Nonlinearity, v, h: float, orders=(0,), t0: float = 0.0,
                 t1: float = 1.0):
    """``_rhs_tables`` on [t0, t1] with the rows as plain-float lists.

    Returns ``(forcing, stages)``: the forcing array of ``_rhs_tables`` and,
    per requested order, ``(evaluate, (r0, rh, r1))`` as lists, which keep
    every stage in plain floats, not numpy scalars. Flows at the same
    (f, v, h) over [0, 1] can share one such table through their ``table``
    argument; each flow converts only the forcing to lists.
    """
    nsteps, h = _step_count(t0, t1, h)
    vvals, stages = _rhs_tables(f, v, t0, nsteps, h, orders)
    return vvals, [(evaluate, rows.tolist()) for evaluate, rows in stages]


def _shift_forcing(table, nu: float):
    """The same stage table with the constant ``nu`` added to the forcing."""
    forcing, stages = table
    return forcing + nu, stages


def _rk4_scalar(f: Nonlinearity, v, x0: float, t0: float, t1: float, h: float,
                store: bool = False, variation: bool = False, table=None):
    """Scalar RK4 with Kahan-compensated updates, the one single-lane loop.

    With ``variation`` a second lane z' = D2f(t,u) is accumulated from the
    same stages. ``table`` is a prebuilt ``_stage_table`` of (f, v) at h on
    [t0, t1], holding order 1 too when ``variation`` is set; f and v are
    then not evaluated. Returns (u_end, samples|None, z, blew, sign,
    blow_time).
    """
    nsteps, h = _step_count(t0, t1, h)
    if table is None:
        table = _stage_table(f, v, h, (0, 1) if variation else (0,), t0, t1)
    forcing, stages = table
    v0, vh, v1 = forcing.tolist()
    if len(v0) != nsteps:
        raise PreconditionError("stage table was built for another step")
    fx, (r0, rh, r1) = stages[0]
    if variation:
        gx, (d0, dh, d1) = stages[1]
    half, sixth = 0.5 * h, h / 6.0
    u = float(x0)
    z = comp = 0.0
    samples = [u] if store else None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(nsteps):
            k1 = v0[k] - fx(r0[k], u)
            u2 = u + half * k1
            k2 = vh[k] - fx(rh[k], u2)
            u3 = u + half * k2
            k3 = vh[k] - fx(rh[k], u3)
            u4 = u + h * k3
            k4 = v1[k] - fx(r1[k], u4)
            if variation:
                z += sixth * (gx(d0[k], u) + 2.0 * gx(dh[k], u2)
                              + 2.0 * gx(dh[k], u3) + gx(d1[k], u4))
            y = sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4) - comp
            s = u + y
            comp = (s - u) - y
            last = u
            u = s
            if not math.isfinite(u) or abs(u) > U_MAX:
                sign = -1 if (u if math.isfinite(u) else last) < 0 else 1
                return u, samples, z, True, sign, t0 + (k + 1) * h
            if store:
                samples.append(u)
    return u, samples, z, False, None, None


def _flow_scalar(f: Nonlinearity, v, x0: float, t0: float, t1: float, h: float,
                 store: bool = False, table=None):
    """Scalar RK4 flow; returns (u_end, samples|None, blow info).

    ``table`` is an optional prebuilt ``_stage_table(f, v, h)`` on [t0, t1].
    """
    u, samples, _, blew, sign, btime = _rk4_scalar(f, v, x0, t0, t1, h, store,
                                                   table=table)
    return u, samples, blew, sign, btime


def _flow_vector(f: Nonlinearity, v, x0: np.ndarray, h: float):
    """Vectorized RK4 over [0,1] for many start values simultaneously.

    Returns (u_end, alive, blow_sign, blow_time); dead components hold nan.
    """
    u = np.array(x0, dtype=float)
    nsteps, h = _step_count(0.0, 1.0, h)
    (v0, vh, v1), [(fx, (r0, rh, r1))] = _rhs_tables(f, v, 0.0, nsteps, h)
    comp = np.zeros_like(u)
    alive = np.ones(u.shape, dtype=bool)
    blow_sign = np.zeros(u.shape, dtype=int)
    blow_time = np.full(u.shape, np.nan)
    last = u.copy()
    with np.errstate(all="ignore"):
        for k in range(nsteps):
            k1 = v0[k] - fx(r0[k], u)
            k2 = vh[k] - fx(rh[k], u + 0.5 * h * k1)
            k3 = vh[k] - fx(rh[k], u + 0.5 * h * k2)
            k4 = v1[k] - fx(r1[k], u + h * k3)
            y = (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4) - comp
            s = u + y
            comp = (s - u) - y
            np.copyto(last, u, where=alive & np.isfinite(u))
            u = s
            dead = alive & (~np.isfinite(u) | (np.abs(u) > U_MAX))
            if dead.any():
                ref = np.where(np.isfinite(u), u, last)
                blow_sign[dead] = np.where(ref[dead] < 0, -1, 1)
                blow_time[dead] = (k + 1) * h
                alive &= ~dead
                u[~alive] = np.nan
                comp[~alive] = 0.0
    return u, alive, blow_sign, blow_time


def integrate(f: Nonlinearity, v, x0: float, t0: float = 0.0, t1: float = 1.0,
              h: float = 1e-3) -> Trajectory:
    """RK4 solve of u' + f(t,u) = v(t) from u(t0) = x0.

    ``v`` may be a PeriodicFn (interpolated spectrally between nodes), a
    callable of t, or None for zero forcing.
    """
    if h <= 0:
        raise PreconditionError("step must be positive")
    u_end, samples, blew, sign, btime = _flow_scalar(f, v, x0, t0, t1, h, store=True)
    samples = np.asarray(samples, dtype=float)
    times = t0 + _step_count(t0, t1, h)[1] * np.arange(len(samples))
    return Trajectory(t0=t0, t1=t1, h=h, times=times, samples=samples,
                      blew_up=blew, blow_sign=sign, blow_time=btime)


def return_map(f: Nonlinearity, v, x0: float, h: float = 1e-3,
               with_derivative: bool = False) -> ReturnValue:
    """rho_v(x0) = u(1) for the solve over [0,1], with optional derivative.

    The derivative is exp(-int_0^1 D2f(t,u(t)) dt), accumulated along the
    trajectory by integrating z' = D2f(t,u) with the same RK4 stages; it is
    positive whenever the solution survives.
    """
    der = None
    if with_derivative:
        val, der, blew, sign, btime = _flow_with_variation(f, v, x0, h)
    else:
        val, _, blew, sign, btime = _flow_scalar(f, v, x0, 0.0, 1.0, h)
    if blew:
        return ReturnValue(None, True, sign, btime)
    return ReturnValue(float(val), derivative=der)


def _flow_with_variation(f: Nonlinearity, v, x0: float, h: float, table=None):
    """Joint RK4 for u and z = int D2f(t,u); returns (u(1), exp(-z(1)), ...).

    ``table`` is an optional prebuilt ``_stage_table(f, v, h, (0, 1))``.
    """
    u, _, z, blew, sign, btime = _rk4_scalar(f, v, x0, 0.0, 1.0, h,
                                             variation=True, table=table)
    if blew:
        return None, None, True, sign, btime
    return float(u), float(math.exp(-z)), False, None, None


@dataclass(frozen=True)
class ContactReport:
    """Order of contact between the return map and the identity."""

    order: int | None
    exceeds_kmax: bool
    rho_prime: float
    derivatives: np.ndarray  # rho'', ..., rho^(kmax+1)


def contact_order(f: Nonlinearity, v, x0: float, kmax: int = 4,
                  h: float = 2e-4, fixed_tol: float = FIXED_POINT_TOL) -> ContactReport:
    """Largest k with rho' = 1 and rho'' = ... = rho^(k) = 0 at a fixed point.

    Derivatives beyond the first come from Richardson-extrapolated central
    differences of rho, with half-widths that grow with the derivative order.
    A derivative counts as zero when |rho^(i)| <= 1e-4 * max(1, |rho^(k+1)|).
    """
    if kmax < 1 or kmax > 5:
        raise PreconditionError("contact order supported for kmax in 1..5")
    rv = return_map(f, v, x0, h=h, with_derivative=True)
    if rv.blew_up:
        raise PreconditionError("trajectory blew up at the fixed point itself")
    if abs(rv.value - x0) > fixed_tol:
        raise PreconditionError(
            f"x0 is not a fixed point: |rho(x0)-x0| = {abs(rv.value - x0):.3e}")
    rho_prime = rv.derivative

    derivs = np.zeros(kmax)  # rho^(2) .. rho^(kmax+1)
    for i in range(2, kmax + 2):
        derivs[i - 2] = _rho_derivative_fd(f, v, x0, i, h)

    if abs(rho_prime - 1.0) > 1e-4 * max(1.0, float(np.max(np.abs(derivs)))):
        return ContactReport(order=0, exceeds_kmax=False,
                             rho_prime=rho_prime, derivatives=derivs)
    # largest k whose first nonvanishing derivative is rho^(k+1), tested
    # against the scale of that derivative
    for k in range(kmax, 0, -1):
        nxt = abs(derivs[k - 1])
        if nxt <= 1e-4 * max(1.0, nxt):
            continue
        if all(abs(derivs[i - 2]) <= 1e-4 * max(1.0, nxt)
               for i in range(2, k + 1)):
            return ContactReport(order=k, exceeds_kmax=False,
                                 rho_prime=rho_prime, derivatives=derivs)
    return ContactReport(order=None, exceeds_kmax=True,
                         rho_prime=rho_prime, derivatives=derivs)


def _rho_derivative_fd(f: Nonlinearity, v, x0: float, i: int, h: float) -> float:
    """i-th derivative of rho at x0 (i >= 2) by central FD with Richardson."""
    base = _STENCIL_HALF_WIDTH.get(i, 8e-3)
    for attempt in range(3):
        d = base / (2 ** attempt)  # shrink on blow-up inside the stencil
        try:
            c1 = _fd_once(f, v, x0, i, d, h)
            c2 = _fd_once(f, v, x0, i, d / 2, h)
        except BracketError:
            continue
        return float((4.0 * c2 - c1) / 3.0)
    raise BracketError("return map blew up inside every tried FD stencil")


_FD_WEIGHTS = {
    2: (np.array([1.0, -2.0, 1.0]), np.array([-1, 0, 1]), 1.0),
    3: (np.array([-1.0, 2.0, 0.0, -2.0, 1.0]) / 2.0, np.array([-2, -1, 0, 1, 2]), 1.0),
    4: (np.array([1.0, -4.0, 6.0, -4.0, 1.0]), np.array([-2, -1, 0, 1, 2]), 1.0),
    5: (np.array([-1.0, 4.0, -5.0, 0.0, 5.0, -4.0, 1.0]) / 2.0,
        np.array([-3, -2, -1, 0, 1, 2, 3]), 1.0),
    6: (np.array([1.0, -6.0, 15.0, -20.0, 15.0, -6.0, 1.0]),
        np.array([-3, -2, -1, 0, 1, 2, 3]), 1.0),
}


def _fd_once(f: Nonlinearity, v, x0: float, i: int, d: float, h: float) -> float:
    wts, offs, _ = _FD_WEIGHTS[i]
    xs = x0 + d * offs.astype(float)
    vals, alive, _, _ = _flow_vector(f, v, xs, h)
    if not alive.all():
        raise BracketError("blow-up in FD stencil")
    return float(np.dot(wts, vals) / d ** i)
