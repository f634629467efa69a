"""Initial-value integration of u' = -f(t,u) + v(t) and the return map.

The integrator is classical fixed-step RK4 with Kahan-compensated state
updates. A flow reads a stage table (``_rhs_tables``, ``_table``),
plain-float lists that only this module reads: the forcing at each
step's three stage times, and per x-derivative order one coefficient row
of an autonomous polynomial or the rows at every stage time of a
t-dependent one. f is always a polynomial in x. The table also records
whether its forcing holds a -0.0. A callable forcing must act pointwise
on an array of times: a table calls it once, at the distinct stage times
(``_at_stage_times``), and so do a t-dependent f's coefficients.
``_loop_key`` turns f and its table into the key of both generated
loops: f's kind, autonomous or t-dependent, its row widths and each
autonomous row's pattern (``_pattern``: "0" for a +0.0 that is not added,
"1" for 1.0, "x" for any other value; no value itself).

Every scalar flow is one straight-line loop (``_rk4_loop``), compiled
with ``exec`` once per key, jet order K, fibre lanes and stored samples;
``_rk4`` runs it and returns a ``Flow``. It carries the K-jet of the
flow in its start value by Taylor-mode propagation of the discrete RK4
map: K = 0 is the plain flow (``integrate``, ``return_map``), K = 1 adds
the exact derivative xi = du/du(0) that the census reads
(``_flow_with_variation``), the fibre lanes add eta = du/dnu and sums
over the steps, and ``contact_order`` reads rho and its derivatives up
to order kmax + 1 from one flow from the jet (x0, 1, 0, ..., 0), a
derivative counting as zero below ``CONTACT_ZERO_TOL`` relative to the
leading one. The many-lane loop ``_flow_vector`` is one generated loop
too (``_vector_loop``): positional ufunc calls into seven lane buffers,
shared by lane groups of their own steps and tables (the census's h and
h/2 scans) in every call but the forcing subtract and a t-dependent f's
evaluation.

Both loops inline Horner's rule and compute the textbook RK4 stages,
with four rewrites that change no float:
- Horner's rule skips the multiplication by a leading 1.0 and the
  addition of an interior +0.0; in the order-0 row it skips the addition
  of a +0.0 constant term too, unless a table the loop reads holds a
  -0.0 in its forcing (``_horner_steps``).
- The many-lane loop runs its escape reduction only in a step whose
  dot(u, u) passes (U_MAX/2)^2, which every step with a lane past
  ``U_MAX``, nan or inf fails.
- Its forcing subtracts take 0-d buffers that each step fills with the
  group's three stage-forcing values, not Python floats.
- A jet of order K >= 1 keeps the slopes of orders 1..K negated and
  subtracts them, with one negation left in each step's combination
  (``_rk4_loop``).

Both loops declare blow-up by one test that nan fails too, not -``U_MAX``
<= u <= ``U_MAX`` (scalar) or not max |u| <= ``U_MAX`` (vector, which a
dead lane, parked at 0, passes); the scalar loop records the sign of the
first stage state of that step past ``U_MAX`` (of the last finite sample
when none is) and the crossing time. ``_rho_derivative_fd`` and
``_fd_once`` remain as the tests' finite-difference cross-check, and
because the benchmark's tracer (``bench/spans.py``) binds both by name.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

from .core import BracketError, Nonlinearity, PreconditionError, require_int

U_MAX = 1e6

FIXED_POINT_TOL = 1e-9

# relative size below which contact_order counts a return-map derivative as
# zero; test_butterfly_margins_clear_the_contact_tolerance (tests/
# test_odeint.py) pins every verdict on the located butterfly more than
# four decades from it on either side
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


class Flow(NamedTuple):
    """The result of one scalar flow (``_rk4``), read by field name.

    ``u`` is the state at t1, or past ``U_MAX`` (or nan) when the flow
    ``blew`` with the escape's ``sign`` at ``time``; ``samples`` the
    stored states, or None; ``lanes`` the jet orders u1..uK at t1, then
    (eta, sum u, sum xi, sum eta) for the fibre lanes, or None.
    """

    u: float
    samples: list | None
    blew: bool
    sign: int | None
    time: float | None
    lanes: tuple | None


def _rhs_tables(f: Nonlinearity, v, t0: float, nsteps: int, h: float,
                orders=(0,)):
    """Stage table of (f, v): the forcing and f's data at the RK4 stages.

    The stage times of step k are t_k, t_k + h/2 and t_k + h. Returns
    the ``_table`` of the forcing at those times and of f's data
    (``_stage_rows``). A callable forcing (a PeriodicFn calls its spectral
    interpolant) must act pointwise on an array of times: it is called
    once per table, at the distinct stage times (``_at_stage_times``). A
    forcing value that is not finite raises ``PreconditionError``, since a
    flow would read it as an escape. Flows at the same (f, v, h) can share
    one through their ``table``.
    """
    stage_times = _stage_times(t0, nsteps, h)
    if v is None:
        vvals = np.zeros(stage_times.shape)
    else:
        vvals = _at_stage_times(v, stage_times, nsteps)
        if not np.isfinite(vvals).all():
            raise PreconditionError("the forcing must be finite at the "
                                    "stage times")
    return _table(vvals.reshape(3, nsteps),
                  _stage_rows(f, stage_times, nsteps, orders))


def _table(forcing: np.ndarray, rows):
    """The stage table ``(forcing, rows, minus_zero)`` that flows read.

    ``forcing`` is the (3, nsteps) array of the forcing at each step's
    stage times, stored as its three plain-float lists, and ``rows`` f's
    data. ``minus_zero`` records, once per table, whether the forcing
    holds a -0.0: only then may v - (p + 0.0) differ from v - p, so only
    then must a loop add an order-0 row's +0.0 constant term
    (``_pattern``). Only this module reads a table.
    """
    return (forcing.tolist(), rows,
            bool(np.any((forcing == 0.0) & np.signbit(forcing))))


def _stage_times(t0: float, nsteps: int, h: float) -> np.ndarray:
    """t_k, then t_k + h/2, then t_k + h, over the steps k from t0."""
    times = t0 + h * np.arange(nsteps)
    return np.concatenate([times, times + h / 2, times + h])


def _at_stage_times(fn, stage_times: np.ndarray, nsteps: int) -> np.ndarray:
    """fn at each of the ``_stage_times``, from one call at the distinct ones.

    fn must act pointwise on an array of times, giving one value (or row)
    per time. It is called once, at every t_k and t_k + h/2 and at each
    t_k + h that is not bitwise t_(k+1); a t_k + h that is takes the value
    computed at t_(k+1). A pointwise fn computes each time's value on its
    own, so every value is the one a call at all 3 nsteps times gives, bit
    for bit. Returns the values in ``stage_times`` order, as floats.
    """
    ends, nexts = stage_times[2 * nsteps:], stage_times[1:nsteps]
    fresh = np.append(ends[:-1] != nexts, True)
    values = np.asarray(fn(np.concatenate([stage_times[:2 * nsteps],
                                           ends[fresh]])), dtype=float)
    # where each stage time's value sits in fn's result: a shared end at
    # the next step's t_k, a fresh one after the 2 nsteps of t_k and t_k + h/2
    where = np.arange(3 * nsteps)
    where[2 * nsteps:] = np.where(fresh, 2 * nsteps - 1 + np.cumsum(fresh),
                                  np.arange(1, nsteps + 1))
    return values[where]


def _stage_rows(f: Nonlinearity, stage_times: np.ndarray, nsteps: int,
                orders):
    """f's table data for the x-derivative ``orders``.

    Per order, the ascending coefficients of d^order f/dx^order: one row
    for an autonomous polynomial, and for a t-dependent one three lists
    (r0, rh, r1) of the rows at each step's stage times, from one
    ``coeff_rows`` call at the distinct ones (``_at_stage_times``).
    """
    if f.autonomous:
        return [f.poly_coeffs(order).tolist() for order in orders]
    return [_at_stage_times(lambda t: f.coeff_rows(t, order=order),
                            stage_times, nsteps).reshape(3, nsteps, -1)
            .tolist() for order in orders]


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


def _add_orders(f: Nonlinearity, table, h: float, orders):
    """A ``_stage_table`` at h with the rows of further ``orders`` appended.

    The forcing is not evaluated again. ``table`` must hold the orders
    before ``orders``, since a flow reads order j from its j-th rows.
    """
    nsteps, h = _step_count(0.0, 1.0, h)
    forcing, rows, minus_zero = table
    return forcing, rows + _stage_rows(f, _stage_times(0.0, nsteps, h),
                                       nsteps, orders), minus_zero


def _read_table(f: Nonlinearity, v, t0, t1, h, orders, table):
    """(nsteps, h, forcing, rows, minus_zero) of ``table``, built if None."""
    nsteps, h = _step_count(t0, t1, h)
    if table is None:
        table = _rhs_tables(f, v, t0, nsteps, h, orders)
    forcing, rows, minus_zero = table
    if len(forcing[0]) != nsteps:
        raise PreconditionError("stage table was built for another step")
    return nsteps, h, forcing, rows, minus_zero


def _forcing_shifts(table):
    """nu -> ``table`` with the constant nu added to its forcing.

    The forcing is copied to one array here, and each shift makes the
    ``_table`` of (array + nu), so a fibre solve's flows at many nu share
    the table's f data and one array.
    """
    base, rows = np.array(table[0]), table[1]
    return lambda nu: _table(base + nu, rows)


def _escape_sign(states, last) -> int:
    """Sign of the first of ``states`` past ``U_MAX``, else that of last."""
    w = next((w for w in states if abs(w) > U_MAX), last)
    return -1 if w < 0 else 1


def _pattern(row, bare: bool) -> str:
    """The coefficient pattern of an autonomous row, one character each.

    "0" marks +0.0, which Horner's rule does not add, "1" marks 1.0 and
    "x" any other coefficient. A +0.0 constant term is "0" only in a
    ``bare`` row, the order-0 row under a forcing with no -0.0
    (``_loop_key``), and "x" otherwise. "" leaves the row unspecialised,
    which a row whose constant term is -0.0 needs. No value enters the
    pattern, so generated code still holds no data.
    """
    if row[0] == 0.0 and math.copysign(1.0, row[0]) < 0:
        return ""
    marks = ["1" if c == 1.0 else
             "0" if c == 0.0 and math.copysign(1.0, c) > 0 else "x"
             for c in row]
    if not bare and marks[0] == "0":
        marks[0] = "x"
    return "".join(marks)


# the scalar loop's Horner expression nests a parenthesis per coefficient,
# and CPython's parser takes 200 levels
MAX_LOOP_DEGREE = 199


def _loop_key(f: Nonlinearity, rows, K: int, minus_zero: bool):
    """(kind, widths, patterns) of f for both generated loops.

    ``kind`` is "autonomous" or "t-dependent". Per order 0..K of the
    table's f data ``rows``: the row width and an autonomous row's
    ``_pattern``, "" for a t-dependent one. The order-0 row is bare
    unless ``minus_zero``, the ``_table`` guard of every table the loop
    reads. A degree above ``MAX_LOOP_DEGREE`` raises
    ``PreconditionError``.
    """
    firsts = [r if f.autonomous else r[0][0] for r in rows[:K + 1]]
    if len(firsts[0]) - 1 > MAX_LOOP_DEGREE:
        raise PreconditionError(
            f"f has degree {len(firsts[0]) - 1}; the generated RK4 loops "
            f"take degree at most MAX_LOOP_DEGREE = {MAX_LOOP_DEGREE}")
    return ("autonomous" if f.autonomous else "t-dependent",
            tuple(map(len, firsts)),
            tuple(_pattern(r, not (j or minus_zero)) if f.autonomous else ""
                  for j, r in enumerate(firsts)))


def _horner_steps(pattern: str, width: int):
    """The (m, add) steps of Horner's rule under a coefficient pattern.

    Full Horner is ``acc = c[w-1]``, then ``acc = acc * x + c[m]`` for m
    from w-2 down. The pattern drops the multiplication by a leading 1.0,
    which gives ``acc = x`` bit for bit, and the addition of each +0.0 it
    marks "0", which can only leave a -0.0 where full Horner has +0.0.
    The two then stay equal up to the sign of a zero. An added constant
    term, never -0.0 (``_pattern``), makes that sign the one of full
    Horner. A bare row's +0.0 constant is not added: its value then
    reaches the loops only as the subtrahend of v - p, which no forcing v
    but -0.0 tells from v - (p + 0.0), and ``_loop_key`` keeps such rows
    from tables whose forcing holds a -0.0. Returns whether the leading
    coefficient is skipped and, per m, whether c[m] is added.
    """
    lead = width > 1 and pattern[-1:] == "1"
    return lead, [(m, pattern[m:m + 1] != "0")
                  for m in range(width - 2, -1, -1)]


def _horner_source(names, x: str, pattern: str) -> str:
    """Horner's rule on the named coefficients, ascending, as one expression.

    ``acc = c[w-1]`` and ``acc = acc * x + c[m]`` for m from w-2 down are
    ``core.horner``'s operations in its order, so its floats bit for bit,
    less what ``_horner_steps`` drops for the row's ``pattern``. It nests
    one parenthesis per coefficient, so ``_loop_key`` caps the degree.
    """
    lead, steps = _horner_steps(pattern, len(names))
    expr = None if lead else names[-1]
    for m, add in steps:
        expr = x if expr is None else f"({expr}) * {x}"
        if add:
            expr = f"{expr} + {names[m]}"
    return expr


def _horner_array_source(names, x: str, out: str,
                         pattern: str) -> tuple[list[str], str]:
    """Horner's rule on lane arrays as lines of positional ufunc calls.

    ``names`` name the coefficients, ascending. The lines are
    ``multiply(c[w-1], x, out)``, then ``add(out, c[m], out)`` and
    ``multiply(out, x, out)`` for m from w-2 down, ending with ``add(out,
    c[0], out)``: ``core.horner``'s multiplications and additions in its
    order, so every lane is its float bit for bit, less what
    ``_horner_steps`` drops for the row's ``pattern``, and no array is
    allocated. out must not be x. Returns (lines, the name of the value):
    out, or, needing no line, c[0] for width 1 and x for the bare row of
    f = x.
    """
    lead, steps = _horner_steps(pattern, len(names))
    if not steps:
        return [], names[0]
    lines, acc = [], None if lead else names[-1]
    for m, add in steps:
        if acc is None:
            acc = x
        else:
            lines.append(f"multiply({acc}, {x}, {out})")
            acc = out
        if add:
            lines.append(f"add({acc}, {names[m]}, {out})")
            acc = out
    return lines, acc


def _rk4_source(kind: str, widths: tuple, K: int, lanes: bool,
                store: bool, patterns: tuple) -> str:
    """Source of the ``run`` function ``_rk4_loop`` compiles for one key.

    Names and integer indices only: the coefficients, the forcing and the
    step arrive as arguments. The jet state is u0..uK, a stage's state
    w{s}_0..w{s}_K (stage 1 reads u), its slopes k{s}_0..k{s}_K, negated
    from k{s}_1 on (``_rk4_loop``); va, vb and vc are the step's forcing
    at its three stage times.
    """
    orders, tail = range(K + 1), range(1, K + 1)

    def value(j, tau, x):  # f^(j) at stage time tau (a, b, c) and state x
        at = "" if kind == "autonomous" else tau
        return _horner_source([f"c{j}{at}_{m}" for m in range(widths[j])], x,
                              patterns[j])

    head = ["def run(start, t0, h, nsteps, v0, vh, v1, rows):",
            "    half, sixth, umin, umax = 0.5 * h, h / 6.0, -U_MAX, U_MAX",
            f"    {', '.join(f'u{n}' for n in orders)}, = start",
            "    comp = 0.0"]
    for j in orders:
        if kind == "autonomous":
            names = ", ".join(f"c{j}_{m}" for m in range(widths[j]))
            head.append(f"    {names}, = rows[{j}]")
        else:
            head.append(f"    R{j}a, R{j}b, R{j}c = rows[{j}]")
    if lanes:
        head.append("    eta = su = sxi = seta = 0.0")
    if store:
        head.append("    samples = [u0]")
    head.append("    for k, va, vb, vc in zip(range(nsteps), v0, vh, v1):")
    body = []
    if lanes:
        body += ["su += u0", "sxi += u1", "seta += eta"]
    if kind == "t-dependent":
        for tau in "abc":
            for j in orders:
                names = ", ".join(f"c{j}{tau}_{m}" for m in range(widths[j]))
                body.append(f"{names}, = R{j}{tau}[k]")
    for s, tau in enumerate("abbc", 1):
        x = [f"u{n}" if s == 1 else f"w{s}_{n}" for n in orders]
        into = "h" if s == 4 else "half"
        if s > 1:
            body += [f"w{s}_{n} = u{n} {'-' if n else '+'} {into} * "
                     f"k{s - 1}_{n}" for n in orders]
        body.append(f"k{s}_0 = v{tau} - ({value(0, tau, x[0])})")
        if K:
            body.append(f"f1 = {value(1, tau, x[0])}")
        # k_n = -a_n, the e^n coefficient of f(w) - f(w_0) = sum_j
        # f^(j)(w_0)/j! d^j: a_n = f1 w_n + sum_j g_j p_j_n, with the
        # powers p_j_n of d summed left to right from zero; k{s}_n holds a_n
        for j in range(2, K + 1):
            body.append(f"g{j} = ({value(j, tau, x[0])}) * "
                        f"(1.0 / {math.factorial(j)})")
            for n in range(j, K + 1):
                terms = "".join(
                    f" + {x[i] if j == 2 else f'p{j - 1}_{i}'} * {x[n - i]}"
                    for i in range(j - 1, n))
                body.append(f"p{j}_{n} = 0.0{terms}")
        for n in tail:
            terms = "".join(f" + g{j} * p{j}_{n}" for j in range(2, n + 1))
            body.append(f"k{s}_{n} = f1 * {x[n]}{terms}")
        if lanes:
            body.append("b1 = 1.0 - f1 * eta" if s == 1 else
                        f"b{s} = 1.0 - f1 * (eta + {into} * b{s - 1})")
    kept = "samples" if store else "None"
    body += ["y = sixth * (k1_0 + 2.0 * k2_0 + 2.0 * k3_0 + k4_0) - comp",
             "s = u0 + y",
             "if not umin <= s <= umax:",
             f"    return Flow(s, {kept}, True, escape_sign((w2_0, w3_0, w4_0,"
             " s), u0), t0 + (k + 1) * h, None)",
             "comp = (s - u0) - y",
             "u0 = s"]
    body += [f"u{n} += sixth * (-k1_{n} - 2.0 * k2_{n} - 2.0 * k3_{n} - k4_{n})"
             for n in tail]
    if lanes:
        body.append("eta += sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)")
    if store:
        body.append("samples.append(s)")
    out = [f"u{n}" for n in tail] + ["eta", "su", "sxi", "seta"] * lanes
    result = f"({', '.join(out)},)" if out else "None"
    end = f"    return Flow(u0, {kept}, False, None, None, {result})"
    return "\n".join(head + ["        " + line for line in body] + [end]) + "\n"


@cache
def _rk4_loop(kind: str, widths: tuple, K: int, lanes: bool, store: bool,
              patterns: tuple):
    """The whole scalar RK4 loop as straight-line code, compiled per key.

    The key is ``_loop_key``'s kind, widths and patterns, the jet order K
    and the flags. An autonomous polynomial's rows of orders 0..K are
    unpacked into locals once, a t-dependent one's at every step, and
    Horner's rule is inlined for each row's pattern. The loop carries the
    K-jet u0..uK of the flow in its start value (Taylor mode, each stage
    evaluating f on the jet by Faa di Bruno on its nilpotent part, the
    Cauchy products unrolled), so K = 1 is the xi lane; ``lanes`` adds
    eta = du/dnu and the sums of u, xi and eta over the steps, and
    ``store`` the samples of u0. For n >= 1 a stage keeps its slope k_n
    negated, as a_n = -k_n, so the next stage state is u_n - (h/2) a_n
    (u_n - h a_n for the last), and the step adds (h/6) (-a1 - 2 a2 - 2
    a3 - a4): IEEE arithmetic makes x + (-y) and x - y one float, so
    every float is unchanged. The first negation stays, since -(a1 + 2 a2
    + 2 a3 + a4) makes -0.0 where the sum of the negated slopes makes
    +0.0.

    ``run(start, t0, h, nsteps, v0, vh, v1, rows)`` starts from the jet
    ``start`` and returns its ``Flow``. Every float is the one the
    interpreted loops the tests keep as oracles make, bit for bit.
    """
    scope = {"U_MAX": U_MAX, "escape_sign": _escape_sign, "Flow": Flow}
    exec(_rk4_source(kind, widths, K, lanes, store, patterns), scope)
    return scope["run"]


def _rk4(f: Nonlinearity, v, start: tuple, t0: float, t1: float, h: float,
         table=None, store: bool = False, lanes: bool = False) -> Flow:
    """``_rk4_loop``'s run for f, from the jet ``start`` of order K.

    ``table`` is a prebuilt ``_stage_table`` of (f, v) at h, so [t0, t1] =
    [0, 1], holding orders 0..K; f and v are then not evaluated. With
    ``start`` = (x0, 1, 0, ..., 0) the ``Flow``'s u and lanes u1..uK are
    the K-jet of the discrete RK4 map at x0: rho^(j)(x0) = j! u_j(1).
    """
    K = len(start) - 1
    nsteps, h, forcing, rows, minus_zero = _read_table(
        f, v, t0, t1, h, range(K + 1), table)
    kind, widths, patterns = _loop_key(f, rows, K, minus_zero)
    run = _rk4_loop(kind, widths, K, lanes, store, patterns)
    with np.errstate(over="ignore", invalid="ignore"):
        return run(start, t0, h, nsteps, *forcing, rows)


def _flow_scalar(f: Nonlinearity, v, x0: float, t0: float, t1: float, h: float,
                 store: bool = False, table=None, lanes: bool = False) -> Flow:
    """Scalar RK4 with Kahan-compensated updates: ``_rk4`` at K <= 1.

    With ``lanes`` it also carries the exact derivatives of the discrete
    step, xi = du/du(t0) and eta = du/dnu for a constant nu added to v,
    and the ``Flow``'s lanes are (xi, eta, sum u, sum xi, sum eta) at t1,
    summed over the steps from t0. ``bench/spans.py`` counts the flows of
    this name: the fibre solves, ``integrate`` and ``return_map``.
    """
    start = (float(x0), 1.0) if lanes else (float(x0),)
    return _rk4(f, v, start, t0, t1, h, table, store, lanes)


_VECTOR_SHARED = "u, comp, w, k1, k2, k3, k4, alive, half, step, sixth"


def _vector_source(kind: str, width: int, ngroups: int, pattern: str) -> str:
    """Source of the ``run`` function ``_vector_loop`` compiles for one key.

    Names and integer indices only: the lanes, the forcing, the rows and
    the steps arrive as arguments. Group g holds lanes lo{g} up to the next
    group's and runs n{g} steps; the groups come in ascending step counts,
    so the lanes still running are a suffix. Phase p runs steps n{p-1} to
    n{p} on the groups p and after, on views of that suffix named as in
    ``_VECTOR_SHARED``; u_{g}, k1_{g}, ... are group g's fixed views, and
    va_{g}, vb_{g} and vc_{g} the 0-d buffers of its step's forcing at
    the three stage times.
    """
    own = ["u", "k1", "k2", "k3", "k4", "w"]

    def body(running):
        lines = []
        if kind == "t-dependent":
            for g in running:
                for tau in "abc":
                    names = ", ".join(f"r{g}{tau}_{m}" for m in range(width))
                    lines.append(f"{names}, = R{g}{tau}[k]")
        for s, tau, vk, into in zip(range(1, 5), "abbc",
                                    ("v0", "vh", "vh", "v1"),
                                    (None, "half", "half", "step")):
            x, out = ("w" if into else "u"), f"k{s}"
            if into:
                lines += [f"multiply(k{s - 1}, {into}, w)", "add(w, u, w)"]
            if kind == "autonomous":
                shared, value = _horner_array_source(
                    [f"c{m}" for m in range(width)], x, out, pattern)
                lines += shared
            for g in running:
                if s != 3:  # the h/2 forcing serves stages 2 and 3
                    lines.append(f"v{tau}_{g}[()] = {vk}_{g}[k]")
                if kind == "t-dependent":
                    own_lines, value = _horner_array_source(
                        [f"r{g}{tau}_{m}" for m in range(width)],
                        f"{x}_{g}", f"{out}_{g}", "")
                    lines += own_lines
                lines.append(f"subtract(v{tau}_{g}, {value}"
                             f"{f'_{g}' * (value in (x, out))}, {out}_{g})")
        # w = y = (h/6) (k1 + 2 k2 + 2 k3 + k4) - comp, then k1 = u + y
        lines += ["multiply(k2, two, w)", "add(w, k1, w)",
                  "multiply(k3, two, k3)", "add(w, k3, w)", "add(w, k4, w)",
                  "multiply(w, sixth, w)", "subtract(w, comp, w)",
                  "add(u, w, k1)", "subtract(k1, u, comp)",
                  "subtract(comp, w, comp)"]
        pairs = [("u", "k1")] + [(f"u_{g}", f"k1_{g}") for g in running]
        lines += [", ".join(f"{a}, {b}" for a, b in pairs) + " = "
                  + ", ".join(f"{b}, {a}" for a, b in pairs),
                  "if not dot(u, u) <= usq:",
                  "    if not maximum.reduce(absolute(u, w), initial=0.0) "
                  "<= umax:",
                  "        dead = ~(w <= umax)",
                  "        alive &= ~dead",
                  "        u[dead] = 0.0",
                  "        comp[dead] = 0.0"]
        return lines

    src = [f"def run({_VECTOR_SHARED}, two, coeffs, groups):"]
    frows = "_" if kind == "autonomous" else "((R{g}a, R{g}b, R{g}c), *_)"
    if kind == "autonomous":
        src.append(f"    {', '.join(f'c{m}' for m in range(width))}, = coeffs")
    for g in range(ngroups):
        src.append(f"    lo{g}, n{g}, (v0_{g}, vh_{g}, v1_{g}), "
                   f"{frows.format(g=g)} = groups[{g}]")
        src.append(f"    va_{g}, vb_{g}, vc_{g} = empty(()), empty(()), "
                   "empty(())")
    src.append("    groups.clear()")
    for g in range(ngroups):
        end = f"lo{g + 1}" if g + 1 < ngroups else ""
        src.append(f"    {', '.join(f'{b}_{g}' for b in own)} = "
                   f"{', '.join(f'{b}[lo{g}:{end}]' for b in own)}")
    src.append("    ends = []")
    for p in range(ngroups):
        if p:
            src.append(f"    {_VECTOR_SHARED} = (" + ", ".join(
                f"{b}[lo{p} - lo{p - 1}:]" for b in _VECTOR_SHARED.split(", "))
                + ")")
        src.append(f"    for k in range({f'n{p - 1}' if p else '0'}, n{p}):")
        src += ["        " + line for line in body(range(p, ngroups))]
        src += [f"    ends.append(u_{p})", f"    del v0_{p}, vh_{p}, v1_{p}"
                + f", R{p}a, R{p}b, R{p}c" * (kind != "autonomous")]
    return "\n".join(src + ["    return ends"]) + "\n"


# the names a many-lane loop reads besides its arguments; a step whose
# sum of squares is at most usq = (U_MAX/2)^2 has every |u| <= U_MAX, and
# nan, inf and an overflowed sum fail the bound too. The method
# ndarray.dot skips the array-function dispatch of np.dot
_VECTOR_SCOPE = {"add": np.add, "multiply": np.multiply,
                 "subtract": np.subtract, "absolute": np.absolute,
                 "maximum": np.maximum, "dot": np.ndarray.dot,
                 "empty": np.empty, "umax": U_MAX, "usq": (U_MAX / 2) ** 2}


@cache
def _vector_loop(kind: str, width: int, ngroups: int, pattern: str):
    """The many-lane RK4 loop as straight-line code, compiled per key.

    ``kind``, ``width`` and ``pattern`` are ``_loop_key``'s for order 0,
    and ``ngroups`` is the number of lane groups, each with its own step
    and stage table. Every operation is a positional ``ufunc(a, b, out)`` on
    lane buffers. It is shared by all running groups, except the forcing
    subtract and, for a t-dependent polynomial, the f evaluation, which
    are made per group on its fixed views; the subtract takes the group's
    0-d buffer of the stage's forcing, written once per step and stage
    time. Horner's rule is inlined as
    ``_horner_array_source`` writes it for the pattern. A step makes the
    escape reduction only when ``dot(u, u)`` passes ``usq``
    (``_VECTOR_SCOPE``).

    ``run(u, comp, w, k1, k2, k3, k4, alive, half, step, sixth, two,
    coeffs, groups)`` takes the lane buffers, the lane arrays of each
    group's h/2, h and h/6, the 0-d array 2.0, ``coeffs`` (an autonomous
    f's coefficients as 0-d arrays, else nothing), and ``groups``, one
    (first lane, nsteps, forcing, rows) per group in ascending nsteps,
    which it empties: the forcing and rows of the group's
    ``_stage_table``, of which the loop reads a t-dependent f's order-0
    rows. It returns every group's final view of u.
    """
    scope = dict(_VECTOR_SCOPE)
    exec(_vector_source(kind, width, ngroups, pattern), scope)
    return scope["run"]


def _flow_vector(f: Nonlinearity, v, x0: np.ndarray, h: float, table=None,
                 more=()):
    """Vectorized RK4 over [0,1] for many start values simultaneously.

    ``table`` is an optional prebuilt ``_stage_table(f, v, h)``. ``more``
    adds lane groups, each an (x0, h, table) triple with its own step, run
    in the same ``_vector_loop`` calls. Returns (u_end, alive) over the
    lanes of every group, x0's first; dead components hold nan (no escape
    sign or time). The stages make the additions and multiplications of
    ``k2 = v - f(u + (h/2) k1)``, ..., ``y = (h/6) (k1 + 2 k2 + 2 k3 + k4)
    - comp`` in their order, some with their operands swapped, which IEEE
    arithmetic does not see, with 0-d and lane arrays holding each
    group's floats; so every lane is bit for bit that of the loop of fresh
    arrays that the tests keep as oracle, run on its group alone. Horner's
    rule leaves out what ``_horner_steps`` allows, the +0.0 constant term
    only when no group's table holds a -0.0 in its forcing. The escape test
    is one NaN-propagating reduction, max |u| <= ``U_MAX``, made only in a
    step whose dot(u, u) passes (U_MAX/2)^2, as every step with a lane past
    ``U_MAX``, nan or inf does. A step that fails it marks the escaped
    lanes dead and parks them at 0, so later reductions pass them; they get
    nan at the end.
    """
    read = [(np.asarray(x, dtype=float),
             *_read_table(f, v, 0.0, 1.0, step, (0,), tab))
            for x, step, tab in ((x0, h, table), *more)]
    order = sorted(range(len(read)), key=lambda g: read[g][1])
    sizes = [len(read[g][0]) for g in order]
    lo = [0, *itertools.accumulate(sizes)]
    steps = np.array([read[g][2] for g in order])
    u = np.concatenate([read[g][0] for g in order])
    comp = np.zeros_like(u)
    w, k1, k2, k3, k4 = (np.empty_like(u) for _ in range(5))
    alive = np.ones(u.shape, dtype=bool)
    kind, (width,), (pattern,) = _loop_key(f, read[0][4], 0,
                                           any(r[5] for r in read))
    coeffs = [np.array(c) for c in read[0][4][0]] if f.autonomous else ()
    groups = [(lo[i], read[g][1], *read[g][3:5])
              for i, g in enumerate(order)]
    del read
    run = _vector_loop(kind, width, len(groups), pattern)
    with np.errstate(all="ignore"):
        ends = run(u, comp, w, k1, k2, k3, k4, alive,
                   np.repeat(0.5 * steps, sizes),
                   np.repeat(steps, sizes), np.repeat(steps / 6.0, sizes),
                   np.array(2.0), coeffs, groups)
    out = [None] * len(order)
    for i, g in enumerate(order):
        out[g] = ends[i], alive[lo[i]:lo[i + 1]]
    u, alive = (np.concatenate(part) for part in zip(*out))
    u[~alive] = np.nan
    return u, alive


def integrate(f: Nonlinearity, v, x0: float, t0: float = 0.0, t1: float = 1.0,
              h: float = 1e-3) -> Trajectory:
    """RK4 solve of u' + f(t,u) = v(t) from u(t0) = x0.

    ``v`` may be a PeriodicFn (interpolated spectrally between nodes), a
    callable of t, or None for zero forcing. A callable must act pointwise
    on an array of times; it is called once, at the distinct RK4 stage
    times (``_rhs_tables``). x0, t0, t1 and h must be finite.
    """
    if not math.isfinite(x0):
        raise PreconditionError("x0 must be finite")
    flow = _flow_scalar(f, v, x0, t0, t1, h, store=True)
    samples = np.asarray(flow.samples, dtype=float)
    times = t0 + _step_count(t0, t1, h)[1] * np.arange(len(samples))
    return Trajectory(t0=t0, t1=t1, h=h, times=times, samples=samples,
                      blew_up=flow.blew, blow_sign=flow.sign,
                      blow_time=flow.time)


def return_map(f: Nonlinearity, v, x0: float, h: float = 1e-3,
               with_derivative: bool = False) -> ReturnValue:
    """rho_v(x0) = u(1) for the solve over [0,1], with optional derivative.

    The derivative is du(1)/du(0) of the discrete RK4 flow, from the
    tangent lane of the same steps. ``v`` is as in ``integrate``: a
    callable acts pointwise on an array of times and is called once, at
    the distinct stage times. x0 and h must be finite.
    """
    if not (math.isfinite(x0) and math.isfinite(h)):
        raise PreconditionError("x0 and the step must be finite")
    if with_derivative:
        flow = _flow_with_variation(f, v, x0, h)
    else:
        flow = _flow_scalar(f, v, x0, 0.0, 1.0, h)
    if flow.blew:
        return ReturnValue(None, True, flow.sign, flow.time)
    der = flow.lanes[0] if with_derivative else None
    return ReturnValue(float(flow.u), derivative=der)


def _flow_with_variation(f: Nonlinearity, v, x0: float, h: float,
                         table=None) -> Flow:
    """RK4 flow over [0, 1] with its tangent lane: the K = 1 jet of ``_rk4``.

    The ``Flow``'s lanes are (du(1)/du(0),): the return map's slope needs
    neither eta nor the lane sums of ``_flow_scalar``. ``table`` is an
    optional prebuilt ``_stage_table(f, v, h, (0, 1))``.
    """
    return _rk4(f, v, (float(x0), 1.0), 0.0, 1.0, h, table)


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
    discrete RK4 map, from one ``_rk4`` flow of order kmax + 1 from the
    start jet (x0, 1, 0, ..., 0). A derivative counts as zero when
    |rho^(i)| <= ``CONTACT_ZERO_TOL`` * max(1, |rho^(k+1)|), and rho' as
    one when |rho' - 1| is within ``CONTACT_ZERO_TOL`` * max(1, max_i
    |rho^(i)|). The report's ``order`` is 0 when rho' is not one, else
    the largest passing k, else None, which sets ``exceeds_kmax``. ``v``
    is as in ``integrate``: a callable acts pointwise on an array of
    times and is called once, at the distinct stage times. x0 and h must
    be finite.
    """
    if not math.isfinite(x0):
        raise PreconditionError("x0 must be finite")
    kmax = require_int("kmax", kmax, 1, 5)
    flow = _rk4(f, v, (float(x0), 1.0) + (0.0,) * kmax, 0.0, 1.0, h)
    if flow.blew:
        raise PreconditionError("trajectory blew up at the fixed point itself")
    if abs(flow.u - x0) > FIXED_POINT_TOL:
        raise PreconditionError(
            f"x0 is not a fixed point: |rho(x0)-x0| = {abs(flow.u - x0):.3e}")
    rho_prime = float(flow.lanes[0])
    # rho^(2) .. rho^(kmax+1), from the jet orders u2 .. u(kmax+1)
    derivs = np.array([math.factorial(j) * flow.lanes[j - 1]
                       for j in range(2, kmax + 2)])

    tol = CONTACT_ZERO_TOL
    off_one = abs(rho_prime - 1.0) > tol * max(1.0, float(np.max(np.abs(derivs))))
    zero = [tol * max(1.0, abs(d)) for d in derivs]  # zero test at each scale
    # 0 when rho' is off one, else the largest k whose first nonvanishing
    # derivative is rho^(k+1), at that derivative's scale, else None
    order = 0 if off_one else next(
        (k for k in range(kmax, 0, -1) if not abs(derivs[k - 1]) <= zero[k - 1]
         and all(abs(derivs[:k - 1]) <= zero[k - 1])), None)
    return ContactReport(order=order, exceeds_kmax=order is None,
                         rho_prime=rho_prime, derivatives=derivs)


def _rho_derivative_fd(f: Nonlinearity, v, x0: float, i: int, h: float) -> float:
    """i-th derivative of rho at x0 (i >= 2) by central FD with Richardson.

    Not used by the library: the tests' cross-check of the jet flow.
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
