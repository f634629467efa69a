"""Initial-value integration of u' = -f(t,u) + v(t) and the return map.

The integrator is classical fixed-step RK4 with Kahan-compensated state
updates. All three loops declare blow-up by one test, not |u| <=
``U_MAX``, which nan fails too; only the scalar loop records the sign of
the first stage state of that step past ``U_MAX`` (of the last finite
sample when none is) and the first-crossing time. Every stage evaluates
a polynomial f through ``core.horner_kernel``, Horner's rule unrolled
for the row's width. The many-lane loop ``_flow_vector`` uses its
in-place array twin ``core.horner_array_kernel`` and writes every stage
into seven lane buffers, so a polynomial step allocates no array; its
test is one reduction over the lanes, which a dead lane, parked at 0,
passes. The return map rho_v sends u(0) to u(1); its first derivative is
carried through the same RK4 steps as the exact derivative of the
discrete flow, on the scalar loop's xi lane alone, while the fibre
solves carry eta = du/dnu and strided sums too. ``contact_order`` reads
rho and its derivatives up to order kmax + 1 from one flow on truncated
Taylor series in the start value (``_rk4_jet``): they are the exact jets
of the discrete RK4 map, not finite differences, and a derivative counts
as zero below ``CONTACT_ZERO_TOL`` = 1e-6 relative to the leading one.
The jet flow's stage field is straight-line code as well, its Cauchy
products unrolled and compiled once per jet order (``_jet_field``).
``_rho_derivative_fd`` and ``_fd_once`` remain as the tests'
finite-difference cross-check, and because the benchmark's tracer
(``bench/spans.py``) binds both by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .core import (MAX_X_DERIVATIVE, BracketError, Nonlinearity,
                   PreconditionError, horner_array_kernel,
                   horner_kernel)

U_MAX = 1e6

FIXED_POINT_TOL = 1e-9

# relative size below which contact_order counts a return-map derivative as
# zero: on the located fold, cusp and butterfly the jets put the vanishing
# ones at most 7.2e-12 of the scale they are tested against and the leading
# one at full scale, so 1e-6 leaves over five decades on either side
CONTACT_ZERO_TOL = 1e-6

# half-widths for the FD cross-check's stencils, by derivative order;
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
    """Stage table of (f, v): forcing and x-derivative rows at the RK4 stages.

    The stage times of step k are t_k, t_k + h/2 and t_k + h. Returns
    ``(forcing, stages)``: the forcing at those times, shape (3, nsteps),
    and per requested x-derivative order an ``(evaluate, (r0, rh, r1))``
    pair of plain-float lists such that ``evaluate(r0[k], x)`` is
    d^order f/dx^order at (t_k, x). A polynomial row is its ascending
    coefficients at that time, evaluated by the straight-line
    ``horner_kernel`` of the row's width; an autonomous f repeats one row
    per order by reference. A builtin's row is the time.
    Flows at the same (f, v, h) can share one through their ``table``.
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
            stages.append((partial(f.eval, order=order),
                           stage_times.reshape(3, nsteps).tolist()))
        elif f.autonomous:
            row = f.poly_coeffs(order).tolist()
            stages.append((horner_kernel(len(row)), ([row] * nsteps,) * 3))
        else:
            rows = f.coeff_rows(stage_times, order=order)
            stages.append((horner_kernel(rows.shape[1]),
                           rows.reshape(3, nsteps, -1).tolist()))
    return vvals.reshape(3, nsteps), stages


def _step_count(t0: float, t1: float, h: float) -> tuple[int, float]:
    """Number of steps of about h across [t0, t1], and their exact size."""
    if not (math.isfinite(t0) and math.isfinite(t1) and math.isfinite(h)):
        raise PreconditionError("t0, t1 and the step must be finite")
    nsteps = int(round((t1 - t0) / h)) if h > 0 else 0
    if nsteps <= 0 or not (t0 < t1):
        raise PreconditionError("need t0 < t1 and a positive step")
    return nsteps, (t1 - t0) / nsteps


def _stage_table(f: Nonlinearity, v, h: float, orders=(0,)):
    """``_rhs_tables`` on [0, 1] at the step size ``_step_count`` gives."""
    nsteps, h = _step_count(0.0, 1.0, h)
    return _rhs_tables(f, v, 0.0, nsteps, h, orders)


def _read_table(f: Nonlinearity, v, t0, t1, h, orders, table):
    """(nsteps, h, forcing lists, stages) of ``table``, built if None."""
    nsteps, h = _step_count(t0, t1, h)
    if table is None:
        table = _rhs_tables(f, v, t0, nsteps, h, orders)
    forcing, stages = table
    v0, vh, v1 = forcing.tolist()
    if len(v0) != nsteps:
        raise PreconditionError("stage table was built for another step")
    return nsteps, h, (v0, vh, v1), stages


def _shift_forcing(table, nu: float):
    """The same stage table with the constant ``nu`` added to the forcing."""
    forcing, stages = table
    return forcing + nu, stages


def _rk4_scalar(f: Nonlinearity, v, x0: float, t0: float, t1: float, h: float,
                store: bool = False, table=None, tangent_stride: int = 0,
                *, xi_only: bool = False):
    """Scalar RK4 with Kahan-compensated updates, the one single-lane loop.

    With ``tangent_stride`` s > 0 it also carries the exact derivatives of
    the discrete step, xi = du/du(t0) and eta = du/dnu for a constant nu
    added to v, and returns as ``lanes`` (xi, eta, sum u, sum xi, sum eta)
    at t1, with sums over every s-th step from t0. ``xi_only`` (with s >
    0) keeps the xi lane alone, in the same arithmetic, and returns
    ``lanes`` = (xi,): the return map's slope needs neither eta nor the
    sums, which only the fibre solves read. ``table`` is a prebuilt
    ``_stage_table`` of (f, v) at h, so [t0, t1] = [0, 1], holding order 1
    too for the lanes; f and v are then not evaluated. Returns (u_end,
    samples|None, blew, sign, blow_time, lanes|None).
    """
    nsteps, h, (v0, vh, v1), stages = _read_table(
        f, v, t0, t1, h, (0, 1) if tangent_stride else (0,), table)
    fx, (r0, rh, r1) = stages[0]
    if tangent_stride:
        gx, (d0, dh, d1) = stages[1]
    full = bool(tangent_stride) and not xi_only
    half, sixth = 0.5 * h, h / 6.0
    u = float(x0)
    comp = 0.0
    xi, eta = 1.0, 0.0
    su = sxi = seta = 0.0
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
            if tangent_stride:
                if full and k % tangent_stride == 0:
                    su += u
                    sxi += xi
                    seta += eta
                g1, g2 = gx(d0[k], u), gx(dh[k], u2)
                g3, g4 = gx(dh[k], u3), gx(d1[k], u4)
                a1 = -g1 * xi
                a2 = -g2 * (xi + half * a1)
                a3 = -g3 * (xi + half * a2)
                a4 = -g4 * (xi + h * a3)
                xi += sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
                if full:
                    b1 = 1.0 - g1 * eta
                    b2 = 1.0 - g2 * (eta + half * b1)
                    b3 = 1.0 - g3 * (eta + half * b2)
                    b4 = 1.0 - g4 * (eta + h * b3)
                    eta += sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            y = sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4) - comp
            s = u + y
            comp = (s - u) - y
            last = u
            u = s
            if not abs(u) <= U_MAX:
                w = next((w for w in (u2, u3, u4, u) if abs(w) > U_MAX), last)
                return u, samples, True, -1 if w < 0 else 1, t0 + (k + 1) * h, None
            if store:
                samples.append(u)
    lanes = None
    if tangent_stride:
        lanes = (xi, eta, su, sxi, seta) if full else (xi,)
    return u, samples, False, None, None, lanes


def _flow_scalar(f: Nonlinearity, v, x0: float, t0: float, t1: float, h: float,
                 store: bool = False, table=None, tangent_stride: int = 0):
    """``_rk4_scalar`` under the name the benchmark's tracer counts.

    ``bench/spans.py`` wraps this name to count scalar flows and their
    steps, so the fibre solves and ``integrate`` call it, while
    ``_flow_with_variation`` calls ``_rk4_scalar`` directly and its census
    refinement flows are not counted as scalar flows.
    """
    return _rk4_scalar(f, v, x0, t0, t1, h, store, table, tangent_stride)


@cache
def _jet_field(K: int):
    """``bind(e_0, ..., e_K)``, giving the stage field of ``_rk4_jet`` at K.

    ``bind(*evals)`` returns ``field(vk, rows, w)`` = [v_k - f(w_0), -a_1,
    ..., -a_K], the Taylor coefficients of v - f(w) on the jet w = w_0 + d,
    where ``evals[j](rows[j], w_0)`` is f^(j)(w_0) and a_n is the e^n
    coefficient of f(w) - f(w_0) = sum_j f^(j)(w_0)/j! d^j. The field is
    straight-line code compiled once per K with the Cauchy products
    unrolled: a_n = f^(1) w_n, each power p_j_n = 0.0 + p_(j-1)_(j-1)
    w_(n-j+1) + ... + p_(j-1)_(n-1) w_1 (with p_1 = w) summed left to
    right from zero, and a_n += (f^(j) * (1.0 / j!)) p_j_n for j = 2..K.
    Those are the operations of the list-comprehension field that the
    tests keep as its oracle, in that field's order, so every coefficient
    is the same bit for bit. The generated source holds only integer
    indices.
    """
    idx = range(K + 1)
    body = ["    def field(vk, rows, w):",
            f"        {', '.join(f'r{j}' for j in idx)}, = rows",
            f"        {', '.join(f'w{n}' for n in idx)}, = w",
            "        f1 = e1(r1, w0)"]
    body += [f"        a{n} = f1 * w{n}" for n in range(1, K + 1)]
    for j in range(2, K + 1):
        prev = "w" if j == 2 else f"p{j - 1}_"
        for n in range(j, K + 1):
            terms = "".join(f" + {prev}{i} * w{n - i}"
                            for i in range(j - 1, n))
            body.append(f"        p{j}_{n} = 0.0{terms}")
        body.append(f"        c = e{j}(r{j}, w0) * (1.0 / "
                    f"{math.factorial(j)})")
        body += [f"        a{n} += c * p{j}_{n}" for n in range(j, K + 1)]
    body.append("        return [vk - e0(r0, w0), "
                + ", ".join(f"-a{n}" for n in range(1, K + 1)) + "]")
    scope: dict = {}
    exec(f"def bind({', '.join(f'e{j}' for j in idx)}):\n"
         + "\n".join(body) + "\n    return field\n", scope)
    return scope["bind"]


def _rk4_jet(f: Nonlinearity, v, x0: float, h: float, K: int):
    """Scalar RK4 over [0, 1] on Taylor series truncated after e^K.

    Carries u(t; x0 + e) = u_0 + u_1 e + ... + u_K e^K through the steps,
    so the result is exactly the K-jet of the discrete RK4 map at x0 and
    rho^(j)(x0) = j! u_j(1). Each stage evaluates f on the jet by Faa di
    Bruno on its nilpotent part d: f(w_0 + d) = sum_j f^(j)(w_0)/j! d^j,
    with f^(j) from the order-j rows of one stage table, in the
    straight-line field ``_jet_field(K)`` compiles. u_0 and its Kahan
    compensation are ``_rk4_scalar``'s arithmetic and u_1 that of its xi
    lane, bit for bit. Returns [u_0, ..., u_K] at t = 1, or None if the
    flow blew up.
    """
    nsteps, h, (v0, vh, v1), stages = _read_table(f, v, 0.0, 1.0, h,
                                                  range(K + 1), None)
    field = _jet_field(K)(*(evaluate for evaluate, _ in stages))
    rows0, rowsh, rows1 = zip(*(rows for _, rows in stages))
    tail = range(1, K + 1)
    half, sixth = 0.5 * h, h / 6.0
    u = [float(x0), 1.0] + [0.0] * (K - 1)
    comp = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(nsteps):
            rkh = [r[k] for r in rowsh]
            k1 = field(v0[k], [r[k] for r in rows0], u)
            w2 = [a + half * b for a, b in zip(u, k1)]
            k2 = field(vh[k], rkh, w2)
            w3 = [a + half * b for a, b in zip(u, k2)]
            k3 = field(vh[k], rkh, w3)
            w4 = [a + h * b for a, b in zip(u, k3)]
            k4 = field(v1[k], [r[k] for r in rows1], w4)
            y = sixth * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]) - comp
            s = u[0] + y
            comp = (s - u[0]) - y
            if not abs(s) <= U_MAX:
                return None
            u = [s] + [u[n] + sixth * (k1[n] + 2.0 * k2[n] + 2.0 * k3[n] + k4[n])
                       for n in tail]
    return u


def _flow_vector(f: Nonlinearity, v, x0: np.ndarray, h: float, table=None):
    """Vectorized RK4 over [0,1] for many start values simultaneously.

    ``table`` is an optional prebuilt ``_stage_table(f, v, h)``. Returns
    (u_end, alive); dead components hold nan (no escape sign or time).
    A polynomial step allocates no array: seven lane buffers take every
    stage through ``out=`` and in-place ufuncs, and a row goes through
    ``core.horner_array_kernel``. A builtin's f.eval returns a fresh array,
    read into the same buffers. The stages make the additions and
    multiplications of ``k2 = v - f(u + (h/2) k1)``, ..., ``y = (h/6) (k1
    + 2 k2 + 2 k3 + k4) - comp`` in their order, some with their operands
    swapped, which IEEE arithmetic does not see; so every lane is bit for
    bit that of the loop of fresh arrays that the tests keep as oracle.
    The escape test is one NaN-propagating reduction, max |u| <=
    ``U_MAX``. A step that fails it marks the escaped lanes dead and parks
    them at 0, so later reductions pass them; they get nan at the end.
    """
    nsteps, h, (v0, vh, v1), [(fx, (r0, rh, r1)), *_] = _read_table(
        f, v, 0.0, 1.0, h, (0,), table)
    if f.builtin is None:
        fx = horner_array_kernel(len(r0[0]))
    else:
        fx = partial(_fresh_into, fx)
    half, sixth = 0.5 * h, h / 6.0
    u = np.array(x0, dtype=float)
    comp = np.zeros_like(u)
    w, k1, k2, k3, k4 = (np.empty_like(u) for _ in range(5))
    alive = np.ones(u.shape, dtype=bool)
    with np.errstate(all="ignore"):
        for k in range(nsteps):
            np.subtract(v0[k], fx(r0[k], u, k1), out=k1)
            np.multiply(k1, half, out=w)
            w += u
            np.subtract(vh[k], fx(rh[k], w, k2), out=k2)
            np.multiply(k2, half, out=w)
            w += u
            np.subtract(vh[k], fx(rh[k], w, k3), out=k3)
            np.multiply(k3, h, out=w)
            w += u
            np.subtract(v1[k], fx(r1[k], w, k4), out=k4)
            # w = y = (h/6) (k1 + 2 k2 + 2 k3 + k4) - comp, then k1 = u + y
            np.multiply(k2, 2.0, out=w)
            w += k1
            k3 *= 2.0
            w += k3
            w += k4
            w *= sixth
            w -= comp
            np.add(u, w, out=k1)
            np.subtract(k1, u, out=comp)
            comp -= w
            u, k1 = k1, u
            if not np.abs(u, out=w).max(initial=0.0) <= U_MAX:
                dead = ~(w <= U_MAX)
                alive &= ~dead
                u[dead] = 0.0
                comp[dead] = 0.0
    u[~alive] = np.nan
    return u, alive


def _fresh_into(evaluate, r, x, out):
    """A builtin's ``evaluate(r, x)`` under the array kernels' signature.

    It returns a fresh array and leaves out alone; ``_flow_vector`` reads
    whichever array a kernel returns.
    """
    return evaluate(r, x)


def integrate(f: Nonlinearity, v, x0: float, t0: float = 0.0, t1: float = 1.0,
              h: float = 1e-3) -> Trajectory:
    """RK4 solve of u' + f(t,u) = v(t) from u(t0) = x0.

    ``v`` may be a PeriodicFn (interpolated spectrally between nodes), a
    callable of t, or None for zero forcing. x0, t0, t1 and h must be
    finite.
    """
    if not math.isfinite(x0):
        raise PreconditionError("x0 must be finite")
    u_end, samples, blew, sign, btime, _ = _flow_scalar(f, v, x0, t0, t1, h,
                                                        store=True)
    samples = np.asarray(samples, dtype=float)
    times = t0 + _step_count(t0, t1, h)[1] * np.arange(len(samples))
    return Trajectory(t0=t0, t1=t1, h=h, times=times, samples=samples,
                      blew_up=blew, blow_sign=sign, blow_time=btime)


def return_map(f: Nonlinearity, v, x0: float, h: float = 1e-3,
               with_derivative: bool = False) -> ReturnValue:
    """rho_v(x0) = u(1) for the solve over [0,1], with optional derivative.

    The derivative is du(1)/du(0) of the discrete RK4 flow, from the
    tangent lane of the same steps. x0 and h must be finite.
    """
    if not (math.isfinite(x0) and math.isfinite(h)):
        raise PreconditionError("x0 and the step must be finite")
    der = None
    if with_derivative:
        val, der, blew, sign, btime = _flow_with_variation(f, v, x0, h)
    else:
        val, _, blew, sign, btime, _ = _flow_scalar(f, v, x0, 0.0, 1.0, h)
    if blew:
        return ReturnValue(None, True, sign, btime)
    return ReturnValue(float(val), derivative=der)


def _flow_with_variation(f: Nonlinearity, v, x0: float, h: float, table=None):
    """RK4 flow with its tangent lane; returns (u(1), du(1)/du(0), ...).

    ``table`` is an optional prebuilt ``_stage_table(f, v, h, (0, 1))``.
    """
    u, _, blew, sign, btime, lanes = _rk4_scalar(
        f, v, x0, 0.0, 1.0, h, table=table, tangent_stride=1, xi_only=True)
    if blew:
        return None, None, True, sign, btime
    return float(u), float(lanes[0]), False, None, None


@dataclass(frozen=True)
class ContactReport:
    """Order of contact between the return map and the identity."""

    order: int | None
    exceeds_kmax: bool
    rho_prime: float
    derivatives: np.ndarray  # rho'', ..., rho^(kmax+1)


def contact_order(f: Nonlinearity, v, x0: float, kmax: int = 4,
                  h: float = 2e-4) -> ContactReport:
    """Largest k with rho' = 1 and rho'' = ... = rho^(k) = 0 at a fixed point.

    rho(x0), rho' and rho'' ... rho^(kmax+1) are the exact jets of the
    discrete RK4 map, from one ``_rk4_jet`` flow of order kmax + 1. A
    derivative counts as zero when |rho^(i)| <= ``CONTACT_ZERO_TOL`` *
    max(1, |rho^(k+1)|), and rho' as one when |rho' - 1| is within
    ``CONTACT_ZERO_TOL`` * max(1, max_i |rho^(i)|). x0 and h must be
    finite.
    """
    if not math.isfinite(x0):
        raise PreconditionError("x0 must be finite")
    if kmax < 1 or kmax > 5:
        raise PreconditionError("contact order supported for kmax in 1..5")
    if f.builtin is not None and kmax + 1 > MAX_X_DERIVATIVE:
        raise PreconditionError(
            f"kmax = {kmax} needs x-derivative order {kmax + 1} of "
            f"{f.builtin!r}, which has 0..{MAX_X_DERIVATIVE}")
    jet = _rk4_jet(f, v, x0, h, kmax + 1)
    if jet is None:
        raise PreconditionError("trajectory blew up at the fixed point itself")
    if abs(jet[0] - x0) > FIXED_POINT_TOL:
        raise PreconditionError(
            f"x0 is not a fixed point: |rho(x0)-x0| = {abs(jet[0] - x0):.3e}")
    rho_prime = float(jet[1])
    # rho^(2) .. rho^(kmax+1)
    derivs = np.array([math.factorial(j) * jet[j] for j in range(2, kmax + 2)])

    tol = CONTACT_ZERO_TOL
    if abs(rho_prime - 1.0) > tol * max(1.0, float(np.max(np.abs(derivs)))):
        return ContactReport(order=0, exceeds_kmax=False,
                             rho_prime=rho_prime, derivatives=derivs)
    # largest k whose first nonvanishing derivative is rho^(k+1), tested
    # against the scale of that derivative
    for k in range(kmax, 0, -1):
        nxt = abs(derivs[k - 1])
        if nxt <= tol * max(1.0, nxt):
            continue
        if all(abs(derivs[i - 2]) <= tol * max(1.0, nxt)
               for i in range(2, k + 1)):
            return ContactReport(order=k, exceeds_kmax=False,
                                 rho_prime=rho_prime, derivatives=derivs)
    return ContactReport(order=None, exceeds_kmax=True,
                         rho_prime=rho_prime, derivatives=derivs)


def _rho_derivative_fd(f: Nonlinearity, v, x0: float, i: int, h: float) -> float:
    """i-th derivative of rho at x0 (i >= 2) by central FD with Richardson.

    Not used by the library: the tests' cross-check of ``_rk4_jet``.
    """
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
    vals, alive = _flow_vector(f, v, xs, h)
    if not alive.all():
        raise BracketError("blow-up in FD stencil")
    return float(np.dot(wts, vals) / d ** i)
