import functools
import io
import itertools
import math
import operator
import tokenize
import warnings

import numpy as np
import pytest

from morinode import (Grid, Nonlinearity, PeriodicFn, contact_order,
                      count_solutions, integrate, odeint, return_map)
from morinode.core import FourierAnsatz, PreconditionError, Term, horner
from morinode.fibre import trace_pairs
from morinode.odeint import (Flow, _flow_scalar, _flow_vector,
                             _flow_with_variation, _forcing_shifts,
                             _rho_derivative_fd, _rk4_loop, _rk4_source,
                             _stage_table)
from tests.conftest import operator_rhs


IDENTITY = Nonlinearity.polynomial([0, 1])     # f(x) = x
SQUARE = Nonlinearity.polynomial([0, 0, 1])    # f(x) = x^2
ZERO = Nonlinearity.polynomial([])
# cos(2 pi t) x^2: 1/u = 1/u0 + sin(2 pi t)/(2 pi), so the flow escapes
# within the period from every |u0| >= 2 pi
WILD = Nonlinearity([Term(2, FourierAnsatz(0.0, [1.0]))])


def _stage_fns(f, rows, nsteps, orders):
    # per order of a stage table's f data, (evaluate, (r0, rh, r1)) with
    # evaluate(r0[k], x) = d^j f/dx^j at (t_k, x): core.horner on the
    # polynomial's coefficient rows
    if f.autonomous:
        return [(horner, ([rows[j]] * nsteps,) * 3) for j in orders]
    return [(horner, rows[j]) for j in orders]


def _interpreted_flow_scalar(f, v, x0, t0, t1, h, store=False, table=None,
                             lanes=False):
    # the interpreted scalar loop that odeint._rk4_loop's generated code
    # replaced, one Horner call per row per stage: the oracle of
    # _flow_scalar's bits, escape sign and time included
    orders = (0, 1) if lanes else (0,)
    nsteps, h, (v0, vh, v1), rows, _ = odeint._read_table(f, v, t0, t1, h,
                                                          orders, table)
    stages = _stage_fns(f, rows, nsteps, orders)
    fx, (r0, rh, r1) = stages[0]
    if lanes:
        gx, (d0, dh, d1) = stages[1]
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
            if lanes:
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
            if not abs(u) <= odeint.U_MAX:
                w = next((w for w in (u2, u3, u4, u) if abs(w) > odeint.U_MAX),
                         last)
                return u, samples, True, -1 if w < 0 else 1, t0 + (k + 1) * h, None
            if store:
                samples.append(u)
    return (u, samples, False, None, None,
            (xi, eta, su, sxi, seta) if lanes else None)


def _jet(f, v, x0, h, K):
    # [u_0, ..., u_K] at t = 1 of the K-jet flow from x0, odeint._rk4 from
    # the start jet (x0, 1, 0, ..., 0); None if it blew up
    flow = odeint._rk4(f, v, (float(x0), 1.0) + (0.0,) * (K - 1), 0.0, 1.0, h)
    return None if flow.blew else [flow.u, *flow.lanes]


def _comprehension_run(start, h, nsteps, forcing, rows, evals):
    # the list loop of the jet flow on the comprehension field, from the jet
    # start with order-j stage rows rows[j] read by evals[j]: the oracle of
    # the generated jet loop's bits; None on escape
    K = len(start) - 1
    field = _comprehension_field(K)(*evals)
    v0, vh, v1 = forcing
    rows0, rowsh, rows1 = zip(*rows)
    tail = range(1, K + 1)
    half, sixth = 0.5 * h, h / 6.0
    u = list(start)
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
            if not abs(s) <= odeint.U_MAX:
                return None
            u = [s] + [u[n] + sixth * (k1[n] + 2.0 * k2[n] + 2.0 * k3[n] + k4[n])
                       for n in tail]
    return u


def _comprehension_jet(f, v, x0, h, K):
    # _jet's K-jet from x0 through the comprehension oracle
    nsteps, h, forcing, rows, _ = odeint._read_table(f, v, 0.0, 1.0, h,
                                                     range(K + 1), None)
    evals, rows = zip(*_stage_fns(f, rows, nsteps, range(K + 1)))
    return _comprehension_run([float(x0), 1.0] + [0.0] * (K - 1), h, nsteps,
                              forcing, rows, evals)


def _comprehension_field(K):
    # the list-comprehension stage field that the generated jet loop
    # replaced, as a binder bind(e_0, ..., e_K): the oracle of its bits. Its
    # sums are the left fold from 0 that ``sum`` makes up to CPython 3.11;
    # from 3.12 on ``sum`` compensates, so the fold is spelled out
    scale = [1.0 / math.factorial(j) for j in range(K + 1)]
    tail = range(1, K + 1)

    def bind(*evals):
        def field(vk, rows, w):
            w0 = w[0]
            fj = [evaluate(row, w0) for evaluate, row in zip(evals, rows)]
            g = fj[1]
            acc = [g * x for x in w]
            p = w
            for j in range(2, K + 1):
                p = [0.0] * j + [
                    functools.reduce(operator.add, (p[i] * w[n - i]
                                                    for i in range(j - 1, n)), 0)
                    for n in range(j, K + 1)]
                c = fj[j] * scale[j]
                for n in range(j, K + 1):
                    acc[n] += c * p[n]
            return [vk - fj[0]] + [-acc[n] for n in tail]
        return field
    return bind


def _allocating_flow_vector(f, v, x0, h, table=None):
    # the batched RK4 step that made fresh arrays at every stage, before
    # _flow_vector's lane buffers and generated loop: the oracle of its bits
    u = np.array(x0, dtype=float)
    nsteps, h, (v0, vh, v1), rows, _ = odeint._read_table(f, v, 0.0, 1.0, h,
                                                          (0,), table)
    [(fx, (r0, rh, r1))] = _stage_fns(f, rows, nsteps, (0,))
    comp = np.zeros_like(u)
    alive = np.ones(u.shape, dtype=bool)
    with np.errstate(all="ignore"):
        for k in range(nsteps):
            k1 = v0[k] - fx(r0[k], u)
            k2 = vh[k] - fx(rh[k], u + 0.5 * h * k1)
            k3 = vh[k] - fx(rh[k], u + 0.5 * h * k2)
            k4 = v1[k] - fx(r1[k], u + h * k3)
            y = (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4) - comp
            s = u + y
            comp = (s - u) - y
            u = s
            dead = alive & (~np.isfinite(u) | (np.abs(u) > odeint.U_MAX))
            if dead.any():
                alive &= ~dead
                u[~alive] = np.nan
                comp[~alive] = 0.0
    return u, alive


def _bits(values):
    return None if values is None else [(type(x), float.hex(float(x)))
                                        for x in values]


def _deep_bits(x):
    # a result tuple with every float as its type and float.hex
    if isinstance(x, (float, np.floating)):
        return type(x), float.hex(float(x))
    if isinstance(x, (list, tuple)):
        return [_deep_bits(y) for y in x]
    return x


# autonomous rows mixing +0.0, -0.0, 1.0 and other values, widths 1 to 5;
# a -0.0 constant term leaves a row unspecialised (odeint._pattern)
SIGNED_ROWS = [
    [-0.0, 0.0, 1.0], [-0.0, 0.0, 0.0, 0.0, 1.0], [-0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, 0.0, 1.0], [0.0, -1.0, 0.0, 1.0],
    [-0.0, 1.0, 0.0, 1.0], [0.5, 0.0, 1.0, 0.0], [1.0, 1.0, 1.0, 1.0],
    [0.0, -0.0, 1.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [1.0], [-0.0],
    [0.0, -0.3, -4.0, 0.0, 1.0], [-0.0, 0.0, -4.0, 0.0, 1.0],
]
SIGNED_JETS = [0.0, -0.0, 0.7, -1.3, 1e200, -np.inf, np.nan]


def _row_table(rows, forcing, nsteps):
    # an autonomous stage table of constant forcing whose order-j row is
    # rows[j]
    return odeint._table(np.full((3, nsteps), forcing), list(rows))


def _mixed_rows(rng, K):
    # K + 1 rows of widths 1 to 5, each coefficient +0.0, -0.0, 1.0 or a
    # normal draw
    return [[float(rng.choice([0.0, -0.0, 1.0, rng.standard_normal()]))
             for _ in range(rng.integers(1, 6))] for _ in range(K + 1)]


class TestIntegrate:
    def test_zero_field_constant(self):
        traj = integrate(ZERO, None, 1.0, 0.0, 1.0, 1e-2)
        assert not traj.blew_up
        assert np.allclose(traj.samples, 1.0)

    def test_exponential_decay(self):
        traj = integrate(IDENTITY, None, 1.0, 0.0, 1.0, 1e-3)
        assert traj.final() == pytest.approx(np.exp(-1.0), abs=1e-10)

    def test_riccati_blowup(self):
        # u' = -u^2 from -2: u(t) = -2/(1 - 2t), escapes at t = 1/2
        traj = integrate(SQUARE, None, -2.0, 0.0, 1.0, 1e-4)
        assert traj.blew_up
        assert traj.blow_sign == -1
        assert traj.blow_time == pytest.approx(0.5, abs=1e-2)

    def test_order_four_convergence(self):
        # Riccati oracle: halving h cuts the endpoint error ~16x
        exact = 0.5 / 1.5
        errs = []
        for h in (2e-3, 1e-3):
            traj = integrate(SQUARE, None, 0.5, 0.0, 1.0, h)
            errs.append(abs(traj.final() - exact))
        rate = np.log2(errs[0] / errs[1])
        assert rate >= 3.5


class TestReturnMap:
    def test_identity_when_trivial(self):
        rv = return_map(ZERO, None, 0.37, h=1e-3, with_derivative=True)
        assert rv.value == pytest.approx(0.37, abs=1e-13)
        assert rv.derivative == pytest.approx(1.0, abs=1e-12)

    def test_riccati_value_and_derivative(self):
        rv = return_map(SQUARE, None, 0.5, h=1e-4, with_derivative=True)
        assert rv.value == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert rv.derivative == pytest.approx(1.0 / 1.5 ** 2, abs=1e-8)

    def test_riccati_fixed_point_at_zero(self):
        rv = return_map(SQUARE, None, 0.0, h=1e-3, with_derivative=True)
        assert rv.value == pytest.approx(0.0, abs=1e-13)
        assert rv.derivative == pytest.approx(1.0, abs=1e-12)

    def test_derivative_positive_on_survivors(self):
        rng = np.random.default_rng(5)
        f = Nonlinearity.polynomial([0.2, -1.0, 0.0, 1.0])
        v = PeriodicFn.from_callable(
            lambda t: 0.3 * np.cos(2 * np.pi * t) - 0.1 * np.sin(4 * np.pi * t))
        for x0 in rng.uniform(-1.5, 1.5, 12):
            rv = return_map(f, v, float(x0), h=1e-3, with_derivative=True)
            if not rv.blew_up:
                assert rv.derivative > 0

    def test_blowup_propagates(self):
        rv = return_map(SQUARE, None, -2.0, h=1e-3)
        assert rv.blew_up
        assert rv.blow_sign == -1
        assert rv.blow_time is not None and rv.blow_time <= 1.0

    def test_blowup_with_derivative_is_silent(self):
        # the variational flow guards overflow like the plain flow does
        plain = return_map(WILD, None, 7.0, h=1e-3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            joint = return_map(WILD, None, 7.0, h=1e-3, with_derivative=True)
        assert [str(w.message) for w in caught] == []
        assert plain.blew_up and joint.blew_up
        assert (joint.blow_sign, joint.blow_time) == (plain.blow_sign,
                                                      plain.blow_time)

    def test_one_step_overflow_keeps_its_sign(self):
        # WILD under forcing -1e154 overflows to -inf within the first step
        # from x0 = 0, so no finite sample carries the escape's sign
        u, _, blew, sign, btime, _ = _flow_scalar(WILD, _push, 0.0, 0.0, 1.0,
                                                  1e-3)
        assert blew and u == -np.inf
        assert (sign, btime) == (-1, 1e-3)
        _, alive = _flow_vector(WILD, _push, np.array([0.0, 0.5]), 1e-3)
        assert not alive.any()

    def test_surviving_set_is_interval(self):
        # no revival after blow-up when scanning upward through start values
        xs = np.linspace(-5.0, 2.0, 141)
        _, alive = _flow_vector(SQUARE, None, xs, 1e-3)
        idx = np.nonzero(alive)[0]
        assert len(idx) > 0
        assert np.array_equal(idx, np.arange(idx[0], idx[-1] + 1))


def _push(t):
    # a forcing whose stage states overflow WILD within the first step
    return np.full(np.shape(t), -1e154)


class TestVectorStep:
    # the in-place step against the allocating one, float.hex of every lane

    RE_ESCAPING = Nonlinearity.polynomial([-100.0, 0, -1.0])
    # under SQUARE the first seven escape at seven different steps
    ESCAPING = np.array([-5.0, -4.0, -3.0, -2.5, -2.0, -1.5, -1.2, np.nan,
                         0.5, np.inf, -np.inf, 0.0, -0.0])

    @pytest.mark.parametrize("f, v, xs, h", [
        pytest.param(Nonlinearity([Term(1, FourierAnsatz(-1.0, [], [0.2])),
                                   Term(3, FourierAnsatz(0.7, [0.05]))]),
                     lambda t: 0.3 * np.sin(2 * np.pi * t),
                     np.linspace(-3.0, 3.0, 61), 1e-3, id="t-dependent"),
        pytest.param(WILD, _push, np.array([0.0, 0.5, np.nan]), 1e-3,
                     id="one-step-overflow"),
        pytest.param(Nonlinearity.polynomial([0.7]),
                     lambda t: 0.3 * np.cos(2 * np.pi * t), ESCAPING, 1e-3,
                     id="width-1"),
        pytest.param(ZERO, None, ESCAPING, 1e-2, id="width-1-zero"),
        pytest.param(IDENTITY, lambda t: 0.3 * np.cos(2 * np.pi * t),
                     ESCAPING, 1e-3, id="width-2"),
        pytest.param(SQUARE, None, ESCAPING, 1e-3, id="escapes"),
        pytest.param(SQUARE, None, np.array([]), 1e-3, id="no-lanes"),
        # u' = u: +-367880 e^t passes U_MAX in the last step and stays
        # finite, so it ends as nan only if that step's escape test fires
        pytest.param(Nonlinearity.polynomial([0, -1.0]), None,
                     np.array([367880.0, 1.0, -367880.0]), 1e-3,
                     id="last-step-escape"),
        pytest.param(Nonlinearity.polynomial([0, 0, 0, 0, 0, -1.0]),
                     lambda t: 0.5 * np.cos(2 * np.pi * t),
                     np.linspace(-1.3, 1.3, 79), 1.0 / 256, id="x5-escapes"),
        # u' = u^2 + 100 escapes from 0 by t = pi/20, so a lane parked at 0
        # after its escape escapes again, several times over the period
        pytest.param(RE_ESCAPING, None, np.array([-50.0, -1.0, 0.0, 1.0,
                                                  np.nan]), 1e-3,
                     id="re-escapes"),
        # the census quartic unforced on [-2, 2]: its outer lanes escape
        pytest.param(Nonlinearity.quartic(4.0, -0.3), None,
                     np.linspace(-2.0, 2.0, 801), 2e-4, id="quartic-scan"),
        # lanes past 1e154, whose squares overflow the escape prefilter's
        # sum to inf, escape at once or turn inf and nan within their
        # first step; the rest stay in bounds
        pytest.param(SQUARE, None, np.array([1e154, -1e154, 2e154, -3e155,
                                             1e153, 0.5, -0.0, np.nan]),
                     1e-3, id="past-1e154"),
        # lanes between U_MAX/2 and U_MAX fail the prefilter at every step
        # and pass the escape test, next to lanes past U_MAX that escape
        pytest.param(ZERO, None, np.array([6e5, -9e5, 1e6, -1e6, 1.5e6,
                                           0.25]),
                     1e-2, id="under-u-max"),
    ])
    def test_in_place_step_is_the_allocating_step_bitwise(self, f, v, xs, h):
        u, alive = _flow_vector(f, v, xs, h)
        expect_u, expect_alive = _allocating_flow_vector(f, v, xs, h)
        assert _bits(u) == _bits(expect_u)
        assert alive.tolist() == expect_alive.tolist()

    def test_escaping_lanes_leave_at_different_steps(self):
        # so the cases above mix dead and live lanes over many steps
        times = {_flow_scalar(SQUARE, None, float(x), 0.0, 1.0, 1e-3)[4]
                 for x in self.ESCAPING[:7]}
        assert len(times) == 7 and max(times) < 1.0
        _, alive = _flow_vector(Nonlinearity.polynomial([0, 0, 0, 0, 0, -1.0]),
                                lambda t: 0.5 * np.cos(2 * np.pi * t),
                                np.linspace(-1.3, 1.3, 79), 1.0 / 256)
        assert 0 < alive.sum() < 79

    def test_parked_lanes_escape_again(self):
        # so the cases above park lanes: from 0 the re-escaping field leaves
        # within half a period, and 8 lanes of the quartic scan escape
        assert _flow_scalar(self.RE_ESCAPING, None, 0.0, 0.0, 1.0,
                            1e-3)[4] < 0.5
        _, alive = _flow_vector(Nonlinearity.quartic(4.0, -0.3), None,
                                np.linspace(-2.0, 2.0, 801), 2e-4)
        assert np.nonzero(~alive)[0].tolist() == list(range(8))

    def test_census_scan_is_the_allocating_scan_bitwise(self, quartic,
                                                         six_root_ansatz):
        v = operator_rhs(quartic, six_root_ansatz)
        xs = np.linspace(-0.4, 0.4, 801)
        table = _stage_table(quartic, v, 2e-4, (0, 1))
        u, alive = _flow_vector(quartic, v, xs, 2e-4, table)
        expect_u, expect_alive = _allocating_flow_vector(quartic, v, xs,
                                                         2e-4, table)
        assert _bits(u) == _bits(expect_u)
        assert alive.tolist() == expect_alive.tolist()

    @pytest.mark.parametrize("row", SIGNED_ROWS, ids=str)
    def test_specialised_step_is_the_allocating_step_bitwise(self, row):
        # the loop specialised on the row's zero and unit coefficients, from
        # signed zeros, overflow, inf and nan under forcing 0.5, +0.0 and
        # -0.0, in lane groups of which some are empty; a -0.0 in either
        # group's forcing keeps the +0.0 constant term of both
        xs = np.array(SIGNED_JETS * 2)
        none = np.array([])
        for forcing in ((0.5, 0.5), (0.0, 0.0), (-0.0, -0.0), (0.0, -0.0),
                        (-0.0, 0.0)):
            tables = {n: _row_table([row], v, n)
                      for n, v in zip((3, 5), forcing)}
            for groups in ([(xs, 3), (xs[::-1], 5)], [(xs, 3), (none, 5)],
                           [(none, 3), (xs, 5)], [(none, 3), (none, 5)]):
                (x0, n), *more = groups
                u, alive = _flow_vector(
                    IDENTITY, None, x0, 1.0 / n, tables[n],
                    [(x, 1.0 / m, tables[m]) for x, m in more])
                expect_u, expect_alive = (np.concatenate(part) for part in zip(
                    *(_allocating_flow_vector(IDENTITY, None, x, 1.0 / m,
                                              tables[m]) for x, m in groups)))
                assert _bits(u) == _bits(expect_u), (forcing, groups)
                assert alive.tolist() == expect_alive.tolist()

    def test_census_iteration_ufunc_calls(self, monkeypatch):
        # one iteration of the census quartic's two-group loop makes 44
        # ufunc calls and one dot, 56 and one dot unspecialised: x^4 - 4x^2
        # - 0.3x drops the multiplication by its leading 1.0 and the
        # additions of its zero x^3 coefficient and of its zero constant
        # term in each of the four stages. The escape reduction runs only
        # in a step whose sum of squares passes (U_MAX/2)^2: once for a
        # lane from 6e5, which escapes in its first step
        quartic = Nonlinearity.quartic(4.0, -0.3)
        pattern = odeint._pattern(quartic.poly_coeffs(0).tolist(), True)
        assert pattern == "0xx01"
        calls = []

        class Counted:
            def __init__(self, ufunc):
                self.ufunc = ufunc

            def __call__(self, *args):
                calls.append(self.ufunc.__name__)
                return self.ufunc(*args)

            def reduce(self, *args, **kwargs):
                calls.append(self.ufunc.__name__ + ".reduce")
                return self.ufunc.reduce(*args, **kwargs)

        def counted_loop(kind, width, ngroups, key_pattern):
            scope = dict(odeint._VECTOR_SCOPE)
            for name in ("add", "multiply", "subtract", "absolute",
                         "maximum", "dot"):
                scope[name] = Counted(scope[name])
            exec(odeint._vector_source(kind, width, ngroups, key_pattern),
                 scope)
            return scope["run"]

        xs = np.linspace(-0.4, 0.4, 5)
        for key_pattern, per_step in ((pattern, 44), ("", 56)):
            monkeypatch.setattr(odeint, "_vector_loop", lambda *key: (
                counted_loop(*key[:3], key_pattern)))
            for lanes, escapes in ((xs, 0), (np.append(xs, 6e5), 1)):
                calls.clear()
                _flow_vector(quartic, None, lanes, 1.0 / 8, None,
                             [(lanes, 1.0 / 8, None)])
                assert calls.count("dot") == 8
                assert calls.count("maximum.reduce") == escapes
                assert calls.count("absolute") == escapes
                assert len(calls) == 8 * (per_step + 1) + 2 * escapes, (
                    key_pattern, escapes)

    # lane groups as (x0, h): the first, shorter groups take an odd number
    # of steps, so they end with u and k1 swapped against the longer ones
    @pytest.mark.parametrize("f, v, groups", [
        pytest.param(Nonlinearity.quartic(4.0, -0.3),
                     lambda t: 0.4 * np.cos(2 * np.pi * t),
                     [(np.linspace(-2.0, 2.0, 41), 1.0 / 37),
                      (np.linspace(-2.0, 2.0, 41), 1e-2)],
                     id="autonomous-odd-shorter"),
        # the longer group first: the lanes are laid out by step count
        pytest.param(Nonlinearity.quartic(4.0, -0.3), None,
                     [(np.linspace(-1.0, 1.0, 9), 1e-2),
                      (np.linspace(-1.0, 1.0, 5), 1.0 / 7),
                      (np.linspace(-1.0, 1.0, 7), 1.0 / 40)],
                     id="three-groups"),
        # SQUARE's escaping starts in the shorter group only, the longer
        # one runs on past its escapes; then the other way round
        pytest.param(SQUARE, None, [(ESCAPING, 1.0 / 333),
                                    (np.array([0.5, 0.0, 1.0]), 1e-3)],
                     id="escape-in-shorter"),
        pytest.param(SQUARE, None, [(np.array([0.5, -0.0, 1.0]), 1.0 / 333),
                                    (ESCAPING, 1e-3)],
                     id="escape-in-longer"),
        pytest.param(Nonlinearity([Term(1, FourierAnsatz(-1.0, [], [0.2])),
                                   Term(3, FourierAnsatz(0.7, [0.05]))]),
                     lambda t: 0.3 * np.sin(2 * np.pi * t),
                     [(np.linspace(-3.0, 3.0, 31), 1.0 / 501),
                      (np.linspace(-3.0, 3.0, 61), 1e-3)],
                     id="t-dependent"),
        pytest.param(Nonlinearity.polynomial([0.7]),
                     lambda t: 0.3 * np.cos(2 * np.pi * t),
                     [(ESCAPING, 1.0 / 3), (ESCAPING, 1e-3)], id="width-1"),
        pytest.param(Nonlinearity([Term(0, FourierAnsatz(0.7, [0.2]))]),
                     None, [(ESCAPING, 1.0 / 3), (ESCAPING, 1e-3)],
                     id="t-dependent-width-1"),
    ])
    def test_lane_groups_are_the_allocating_step_bitwise(self, f, v, groups):
        # one flow over every group, each group's lanes bit for bit those
        # of the allocating loop run on that group alone
        (x0, h), *more = groups
        u, alive = _flow_vector(f, v, x0, h, None,
                                [(x, step, None) for x, step in more])
        expect_u, expect_alive = (np.concatenate(part) for part in zip(
            *(_allocating_flow_vector(f, v, x, step) for x, step in groups)))
        assert _bits(u) == _bits(expect_u)
        assert alive.tolist() == expect_alive.tolist()

    def test_vector_loop_has_no_data(self, monkeypatch):
        # the generated source holds names and integer indices only, every
        # key is made of ints, bools and strings, and a key compiles once
        coeffs = [0.123456789, -0.234567891, 0.345678912, 0.456789123]
        f = Nonlinearity.polynomial(coeffs)
        g = Nonlinearity([Term(1, FourierAnsatz(0.567891234, [0.678912345])),
                          Term(2, FourierAnsatz(0.789123456))])
        # zero and unit coefficients specialise the loop
        units = Nonlinearity.polynomial([0.912345678, 0.0, 1.0, 0.0, 1.0])
        data = coeffs + [0.567891234, 0.678912345, 0.789123456, 0.891234567,
                         0.912345678,
                         0.5 * 0.01, 0.01 / 6.0, 0.5 * 0.02, 0.02 / 6.0]

        def forcing(t):
            return 0.891234567 * np.cos(2 * np.pi * t)

        keys = []
        real = odeint._vector_loop

        def spy(*key):
            keys.append(key)
            return real(*key)

        monkeypatch.setattr(odeint, "_vector_loop", spy)
        real.cache_clear()
        xs = np.linspace(-0.5, 0.5, 5)

        def flows():
            for fn in (f, g, units):
                _flow_vector(fn, forcing, xs, 1e-2)
                _flow_vector(fn, forcing, xs, 1e-2, None,
                             [(xs, 0.02, None)])

        flows()
        compiled = real.cache_info().misses
        flows()
        assert real.cache_info().misses == compiled == len(set(keys)) == 6
        assert {key[3] for key in keys} == {"", "xxxx", "x0101"}
        for key in keys:
            assert {type(a) for a in key} <= {int, bool, str}, key
            source = odeint._vector_source(*key)
            for value in data:
                for text in (repr(value), repr(-value), str(value)[2:8]):
                    assert text not in source, (key, text)


class TestTangentLanes:
    # x^3 - x under 0.4 cos(2 pi t) + nu, one RK4 step per node of a
    # 256-point grid, so the lane sums are node sums
    F = Nonlinearity.polynomial([0, -1, 0, 1])
    H, NODES = 1.0 / 256, 256

    def flow(self, table, c, nu, lanes=True):
        return _flow_scalar(self.F, None, c, 0.0, 1.0, self.H, store=True,
                            table=_forcing_shifts(table)(nu), lanes=lanes)

    @pytest.fixture(scope="class")
    def table(self):
        vt = PeriodicFn.from_callable(lambda t: 0.4 * np.cos(2 * np.pi * t),
                                      Grid(self.NODES))
        return _stage_table(self.F, vt, self.H, (0, 1))

    def test_lanes_leave_u_unchanged(self, table):
        with_lanes = self.flow(table, 0.4, -0.2)
        assert with_lanes[:5] == self.flow(table, 0.4, -0.2, lanes=False)[:5]
        assert with_lanes.lanes[2] == pytest.approx(
            sum(with_lanes.samples[:-1]), rel=1e-15)

    def test_lanes_match_central_differences(self, table):
        # the lanes are the exact derivatives of the discrete flow, so
        # central differences of u(1) and of the node mean of u approach
        # them at O(d^2): halving d divides the error by four
        c, nu = 0.4, -0.2
        xi, eta, _, sum_xi, sum_eta = self.flow(table, c, nu).lanes

        def errors(d):
            up, dn = self.flow(table, c, nu + d), self.flow(table, c, nu - d)
            right, left = self.flow(table, c + d, nu), self.flow(table, c - d, nu)
            return np.abs([
                (up.u - dn.u) / (2 * d) - eta,
                (up.lanes[2] - dn.lanes[2]) / (2 * d) - sum_eta,
                (right.u - left.u) / (2 * d) - xi,
                (right.lanes[2] - left.lanes[2]) / (2 * d) - sum_xi]) / [
                    1, self.NODES, 1, self.NODES]

        coarse, fine = errors(4e-3), errors(2e-3)
        assert np.all(coarse <= 5.0 * 4e-3 ** 2)
        assert np.all((coarse / fine > 3.6) & (coarse / fine < 4.4))
        assert eta > 0 and xi > 0

    # (xi, eta, sum u, sum xi, sum eta) of x^3 - x under 0.3 - 0.6 t from
    # c at h = 1/512, recorded from the loop before the xi-only lane split;
    # the forcing is plain arithmetic, so these bits hold on every machine
    PINNED = {
        0.4: ("0x1.9393b4435a9b4p-1", "0x1.98909625bc7aep-1",
              "0x1.440c2bc9951cep+8", "0x1.fe36fedf37118p+8",
              "0x1.d5c4400c1e259p+7"),
        -1.2: ("0x1.7cefaf6c7ab2fp-4", "0x1.95ab399aff7d8p-2",
               "-0x1.0f59248a314afp+9", "0x1.6ebe37ef16966p+7",
               "0x1.0f76f69ecc851p+7"),
    }

    @pytest.mark.parametrize("c", list(PINNED))
    def test_full_lanes_unchanged(self, c):
        lanes = _flow_scalar(self.F, lambda t: 0.3 - 0.6 * t, c, 0.0, 1.0,
                             1.0 / 512, lanes=True).lanes
        assert tuple(x.hex() for x in lanes) == self.PINNED[c]

    @pytest.mark.parametrize("f, v, x0, h", [
        (F, lambda t: 0.3 - 0.6 * t, 0.4, H),
        (F, lambda t: 0.3 - 0.6 * t, -1.2, H),
        (Nonlinearity([Term(1, FourierAnsatz(-1.0, [], [0.2])),
                       Term(3, FourierAnsatz(0.7, [0.05]))]),
         lambda t: 0.3 * np.sin(2 * np.pi * t), -0.6, 1e-3),
        (SQUARE, None, -2.0, 1e-3),
        (WILD, None, 7.0, 1e-3),
        (WILD, _push, 0.0, 1e-3),
    ], ids=["cubic", "cubic-low", "t-dependent", "riccati-escape",
            "wild-escape", "one-step-overflow"])
    def test_xi_only_lane_is_the_full_lanes_xi(self, f, v, x0, h):
        # _flow_with_variation's whole Flow, escape sign and time included,
        # is what the full-lane flow reads: the K = 1 loop without eta and
        # the lane sums is the full-lane loop's xi
        full = _flow_scalar(f, v, x0, 0.0, 1.0, h, lanes=True)
        got = _flow_with_variation(f, v, x0, h)
        assert type(got) is Flow
        assert _deep_bits(got._replace(lanes=None)) == _deep_bits(
            full._replace(lanes=None))
        assert _deep_bits(got.lanes) == _deep_bits(
            None if full.blew else full.lanes[:1])

    def test_return_map_derivative_is_the_xi_lane(self, table):
        # the census reads rho' from the same lane as the fibre solver
        flow = _flow_with_variation(self.F, None, 0.4, self.H, table)
        full = self.flow(table, 0.4, 0.0)
        assert not flow.blew
        assert (flow.u, flow.lanes[0]) == (full.u, full.lanes[0])


T_DEPENDENT = Nonlinearity([Term(1, FourierAnsatz(-1.0, [], [0.2])),
                            Term(3, FourierAnsatz(0.7, [0.05]))])


class TestGeneratedLoops:
    # _flow_scalar's generated loops against the interpreted loop,
    # float.hex of the whole result tuple, for every f shape and loop
    # variant; the xi lane alone is the full lanes' xi (TestTangentLanes)

    FLOWS = [
        pytest.param(Nonlinearity.polynomial([0, -1, 0, 1]),
                     PeriodicFn.from_callable(
                         lambda t: 0.4 * np.cos(2 * np.pi * t)),
                     0.4, 1.0 / 512, id="autonomous"),
        pytest.param(Nonlinearity.quartic(4.0, -0.3), lambda t: 0.3 - 0.6 * t,
                     -0.0, 1e-3, id="autonomous-from-minus-zero"),
        pytest.param(Nonlinearity.polynomial([0.7]),
                     lambda t: 0.3 * np.cos(2 * np.pi * t), 0.2, 1e-2,
                     id="width-1"),
        pytest.param(T_DEPENDENT, lambda t: 0.3 * np.sin(2 * np.pi * t), -0.6,
                     1e-3, id="t-dependent"),
        pytest.param(SQUARE, None, -2.0, 1e-3, id="riccati-escape"),
        pytest.param(Nonlinearity([Term(2, FourierAnsatz(1.0, [0.3]))]), None,
                     -3.0, 1e-3, id="t-dependent-escape"),
        pytest.param(WILD, None, 7.0, 1e-3, id="wild-escape"),
        pytest.param(WILD, _push, 0.0, 1e-3, id="one-step-overflow"),
    ]
    VARIANTS = [dict(), dict(store=True), dict(lanes=True),
                dict(lanes=True, store=True)]

    @pytest.mark.parametrize("f, v, x0, h", FLOWS)
    def test_scalar_loop_is_the_interpreted_loop_bitwise(self, f, v, x0, h):
        for window in ((0.0, 1.0), (0.25, 1.25)):
            for kw in self.VARIANTS:
                got = _flow_scalar(f, v, x0, *window, h, **kw)
                expect = _interpreted_flow_scalar(f, v, x0, *window, h, **kw)
                assert _deep_bits(got) == _deep_bits(expect), (window, kw)

    def test_escape_cases_escape(self):
        # so the escape cases above compare an escape's sign and time
        for f, v, x0, h in [(SQUARE, None, -2.0, 1e-3),
                            (Nonlinearity([Term(2, FourierAnsatz(1.0, [0.3]))]),
                             None, -3.0, 1e-3),
                            (WILD, None, 7.0, 1e-3), (WILD, _push, 0.0, 1e-3)]:
            assert _flow_scalar(f, v, x0, 0.0, 1.0, h, lanes=True).blew

    def test_nan_escape_takes_the_last_sign(self):
        # a nan forcing shift (the fibre's nu) makes every stage state nan,
        # so none is past U_MAX and the escape takes the sign of the last
        # finite sample
        table = _forcing_shifts(_stage_table(SQUARE, None, 1e-2,
                                             (0, 1)))(np.nan)
        for kw in self.VARIANTS:
            got = _flow_scalar(SQUARE, None, -0.5, 0.0, 1.0, 1e-2, table=table,
                               **kw)
            expect = _interpreted_flow_scalar(SQUARE, None, -0.5, 0.0, 1.0,
                                              1e-2, table=table, **kw)
            assert _deep_bits(got) == _deep_bits(expect)
            assert got[2:5] == (True, -1, 1e-2)

    def test_cubic_stage_drops_its_unit_and_zero_coefficients(self):
        # x^3 - x: no multiplication by the leading 1.0 and no addition of
        # the zero x^2 coefficient; the zero constant term's addition only
        # where the forcing holds a -0.0. The xi lane keeps its slopes
        # negated and so needs only the combination's first negation
        f = Nonlinearity.polynomial([0, -1, 0, 1])
        rows = [f.poly_coeffs(j).tolist() for j in (0, 1)]
        for forcing, pattern, constant in ((0.5, "0x01", ""),
                                           (-0.0, "xx01", " + c0_0")):
            table = _row_table(rows, forcing, 4)
            key = odeint._loop_key(f, table[1], 1, table[2])
            assert key[2] == (pattern, "x0x")
            source = _rk4_source("autonomous", (4, 3), 1, False, False,
                                 key[2])
            assert (f"k1_0 = va - (((u0) * u0 + c0_1) * u0{constant})"
                    in source)
            assert "f1 = ((c1_2) * u0) * u0 + c1_0" in source
            loop = source[source.index("for k"):]
            assert "c0_3" not in loop and "c0_2" not in loop
            assert "c1_1" not in loop
            assert ("c0_0" in loop) == bool(constant)
            assert "k1_1 = f1 * u1" in loop
            assert "w4_1 = u1 - h * k3_1" in loop
            assert ("u1 += sixth * (-k1_1 - 2.0 * k2_1 - 2.0 * k3_1 - k4_1)"
                    in loop)
            assert loop.count("-(") == 0

    def test_no_data_in_generated_code(self, monkeypatch):
        # the generated source holds names and integer indices only, every
        # key is made of ints, bools and strings, and a key compiles once
        coeffs = [0.123456789, -0.234567891, 0.345678912, 0.456789123]
        f = Nonlinearity.polynomial(coeffs)
        g = Nonlinearity([Term(1, FourierAnsatz(0.567891234, [0.678912345])),
                          Term(2, FourierAnsatz(0.789123456))])
        # zero and unit coefficients specialise the loop
        units = Nonlinearity.polynomial([0.912345678, 0.0, 1.0, 0.0, 1.0])
        data = coeffs + [0.567891234, 0.678912345, 0.789123456, 0.891234567,
                         0.912345678]

        def forcing(t):
            return 0.891234567 * np.cos(2 * np.pi * t)

        keys = []
        real = odeint._rk4_loop

        def spy(*key):
            keys.append(key)
            return real(*key)

        monkeypatch.setattr(odeint, "_rk4_loop", spy)
        real.cache_clear()

        def flows():
            for fn in (f, g, units):
                _flow_scalar(fn, forcing, 0.1, 0.0, 1.0, 1e-2, store=True)
                _flow_scalar(fn, forcing, 0.1, 0.0, 1.0, 1e-2, lanes=True)
                _flow_with_variation(fn, forcing, 0.1, 1e-2)
                _jet(fn, forcing, 0.1, 1e-2, 4)

        flows()
        compiled = real.cache_info().misses
        flows()
        assert real.cache_info().misses == compiled == len(set(keys)) == 12
        assert ("autonomous", (5, 4, 3, 2, 1), 4, False, False,
                ("x0101", "xx0x", "x0x", "xx", "x")) in keys

        def atoms(x):
            return ([a for y in x for a in atoms(y)]
                    if isinstance(x, tuple) else [x])
        for key in keys:
            assert {type(a) for a in atoms(key)} <= {int, bool, str}, key
            source = _rk4_source(*key)
            for value in data:
                for text in (repr(value), repr(-value), str(value)[2:8]):
                    assert text not in source, (key, text)


class TestJetFlow:
    def test_riccati_closed_form(self):
        # u' = -u^2 gives rho(x) = x/(1+x): rho^(n)(0) = (-1)^(n+1) n!
        jet = _jet(SQUARE, None, 0.0, 1e-3, 6)
        for n in range(2, 7):
            exact = (-1) ** (n + 1) * math.factorial(n)
            assert math.factorial(n) * jet[n] == pytest.approx(exact,
                                                               rel=1e-10)

    @pytest.mark.parametrize("f, v, x0, h", [
        (Nonlinearity.polynomial([0, -1, 0, 1]),
         PeriodicFn.from_callable(lambda t: 0.4 * np.cos(2 * np.pi * t)),
         0.4, 1.0 / 512),
        (Nonlinearity([Term(1, FourierAnsatz(-1.0, [], [0.2])),
                       Term(3, FourierAnsatz(0.7, [0.05]))]),
         lambda t: 0.3 * np.sin(2 * np.pi * t), -0.6, 1e-3),
    ], ids=["cubic", "t-dependent"])
    def test_value_and_slope_match_the_tangent_lane(self, f, v, x0, h):
        # u_0 and u_1 are _flow_with_variation's u and xi, bit for bit
        jet = _jet(f, v, x0, h, 4)
        flow = _flow_with_variation(f, v, x0, h)
        assert not flow.blew and (jet[0], jet[1]) == (flow.u, flow.lanes[0])

    def test_blowup_gives_none(self):
        flow = odeint._rk4(SQUARE, None, (-2.0, 1.0, 0.0, 0.0), 0.0, 1.0, 1e-3)
        assert flow.blew and flow.lanes is None

    JET_CASES = [
        pytest.param(SQUARE, None, 0.0, 1e-3, range(1, 7), id="riccati"),
        pytest.param(Nonlinearity.polynomial([0, -1, 0, 1]),
                     PeriodicFn.from_callable(
                         lambda t: 0.4 * np.cos(2 * np.pi * t)),
                     0.4, 1.0 / 512, range(1, 7), id="cubic"),
        pytest.param(Nonlinearity([Term(1, FourierAnsatz(-1.0, [], [0.2])),
                                   Term(3, FourierAnsatz(0.7, [0.05]))]),
                     lambda t: 0.3 * np.sin(2 * np.pi * t), -0.6, 1e-3,
                     range(1, 7), id="t-dependent"),
        pytest.param(SQUARE, None, -2.0, 1e-3, range(1, 7), id="blow-up"),
    ]

    @pytest.mark.parametrize("f, v, x0, h, orders", JET_CASES)
    def test_compiled_field_is_the_comprehension_bitwise(self, f, v, x0, h,
                                                          orders):
        got = [_bits(_jet(f, v, x0, h, K)) for K in orders]
        assert got == [_bits(_comprehension_jet(f, v, x0, h, K))
                       for K in orders]

    def test_butterfly_jet_is_the_comprehension_bitwise(self,
                                                        refined_butterfly):
        f, ans, _ = refined_butterfly
        v, x0 = operator_rhs(f, ans), float(ans.eval(0.0))
        assert (_bits(_jet(f, v, x0, 2e-4, 5))
                == _bits(_comprehension_jet(f, v, x0, 2e-4, 5)))

    @pytest.mark.parametrize("K", range(1, 7))
    def test_compiled_field_on_signed_zeros_and_non_finite_jets(self, K):
        # the generated loop from start jets over -0.0, overflow, inf and
        # nan, with random order-j rows, takes the comprehension's path
        # too: every such jet up to K = 3, sampled above
        rng = np.random.default_rng(K)
        nsteps, h = 2, 0.25
        rows = rng.standard_normal((K + 1, 4)).tolist()
        evals, stage_rows = [horner] * (K + 1), [([row] * nsteps,) * 3
                                                 for row in rows]
        forcing = ([0.5] * nsteps,) * 3
        run = _rk4_loop("autonomous", (4,) * (K + 1), K, False, False,
                        ("",) * (K + 1))
        values = [0.0, -0.0, 0.7, -1.3, 1e200, -np.inf, np.nan]
        jets = (itertools.product(values, repeat=K + 1) if K <= 3 else
                rng.choice(values, (3000, K + 1)).tolist())
        for w in jets:
            u, _, blew, _, _, tail = run(tuple(w), 0.0, h, nsteps, *forcing,
                                         rows)
            expect = _comprehension_run(list(w), h, nsteps, forcing,
                                        stage_rows, evals)
            assert _bits(None if blew else [u, *tail]) == _bits(expect)

    @pytest.mark.parametrize("K", range(1, 4))
    def test_specialised_loop_on_signed_zeros_and_units(self, K):
        # the loops specialised on rows mixing +0.0, -0.0, 1.0 and other
        # values, from every start jet over signed zeros, overflow, inf and
        # nan under forcing 0.5, +0.0 and -0.0, take the comprehension's
        # path bit for bit. Specialising a row with a -0.0 constant term
        # too would change some of them, so these cases can tell
        rng = np.random.default_rng(K)
        row_sets = [SIGNED_ROWS[:K + 1]] + [_mixed_rows(rng, K)
                                            for _ in range(3)]
        nsteps, compared, changed = 2, 0, 0
        for rows in row_sets:
            careless = tuple("".join(
                "1" if c == 1.0 else "0" if c == 0.0 and
                math.copysign(1.0, c) > 0 else "x" for c in r) for r in rows)
            unruled = _rk4_loop("autonomous", tuple(map(len, rows)), K, False,
                                False, careless)
            for forcing in (0.5, 0.0, -0.0):
                table = _row_table(rows, forcing, nsteps)
                lists = table[0]
                evals, stage_rows = zip(*_stage_fns(IDENTITY, rows, nsteps,
                                                    range(K + 1)))
                for w in itertools.product(SIGNED_JETS, repeat=K + 1):
                    u, _, blew, _, _, tail = odeint._rk4(
                        IDENTITY, None, w, 0.0, 1.0, 1.0 / nsteps, table)
                    expect = _bits(_comprehension_run(
                        list(w), 1.0 / nsteps, nsteps, lists, stage_rows,
                        evals))
                    assert _bits(None if blew else [u, *tail]) == expect, (
                        rows, forcing, w)
                    u, _, blew, _, _, tail = unruled(
                        w, 0.0, 1.0 / nsteps, nsteps, *lists, rows)
                    changed += _bits(None if blew else [u, *tail]) != expect
                    compared += 1
        assert compared == 4 * 3 * 7 ** (K + 1)
        assert changed > 0

    # order-0 rows with a +0.0 constant term, which a loop leaves unadded
    # unless the forcing holds a -0.0
    BARE_ROWS = [[0.0, 1.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0, 1.0],
                 [0.0, -0.0, 1.0, 1.0], [0.0, 0.0, 0.0, 2.0]]

    @pytest.mark.parametrize("K", range(4))
    def test_guarded_constant_on_signed_zeros(self, K):
        # under forcing tables with and without -0.0, every start jet over
        # signed zeros, overflow, inf and nan takes the oracle's path bit
        # for bit: the comprehension's for K >= 1, the interpreted loop's
        # for K = 0 and for the fibre lanes. Leaving the constant unadded
        # under a -0.0 too would change some of them, so these cases can
        # tell
        nsteps, h = 2, 0.5
        signed = np.full((3, nsteps), -0.0)
        signed[1, 0] = 0.0
        mixed = np.zeros((3, nsteps))
        mixed[0, 0] = -0.0
        tables = {name: np.full((3, nsteps), v) for name, v in
                  (("half", 0.5), ("plus", 0.0), ("minus", -0.0))}
        tables.update(signed=signed, mixed=mixed)
        rng = np.random.default_rng(K)
        compared, changed = 0, 0
        for row0 in self.BARE_ROWS:
            rows = [row0] + SIGNED_ROWS[1:K + 1]
            evals, stage_rows = zip(*_stage_fns(IDENTITY, rows, nsteps,
                                                range(K + 1)))
            # the loop that leaves the constant unadded under any forcing
            kind, widths, patterns = odeint._loop_key(IDENTITY, rows, K,
                                                      False)
            careless = _rk4_loop(kind, widths, K, False, not K, patterns)
            for name, forcing in tables.items():
                table = odeint._table(forcing, rows)
                assert table[2] == (name in ("minus", "signed", "mixed"))
                jets = (itertools.product(SIGNED_JETS, repeat=K + 1) if K < 3
                        else rng.choice(SIGNED_JETS, (400, K + 1)).tolist())
                for w in map(tuple, jets):
                    got = odeint._rk4(IDENTITY, None, w, 0.0, 1.0, h, table,
                                      store=not K)
                    if K:
                        expect = _bits(_comprehension_run(
                            list(w), h, nsteps, table[0], stage_rows, evals))
                        bits = _bits(None if got.blew
                                     else [got.u, *got.lanes])
                    else:
                        expect = _deep_bits(_interpreted_flow_scalar(
                            IDENTITY, None, w[0], 0.0, 1.0, h, store=True,
                            table=table))
                        bits = _deep_bits(got)
                    assert bits == expect, (row0, name, w)
                    if K == 1:  # the fibre lanes, eta and the sums
                        assert _deep_bits(_flow_scalar(
                            IDENTITY, None, w[0], 0.0, 1.0, h, table=table,
                            lanes=True)) == _deep_bits(
                                _interpreted_flow_scalar(
                                    IDENTITY, None, w[0], 0.0, 1.0, h,
                                    table=table, lanes=True)), w
                    with np.errstate(over="ignore", invalid="ignore"):
                        blind = careless(w, 0.0, h, nsteps, *table[0], rows)
                    changed += _deep_bits(blind) != _deep_bits(got)
                    compared += 1
        assert changed > 0 and compared > 0

    def test_field_compiled_once_per_order(self):
        key = ("autonomous", (5, 4, 3, 2, 1, 1), 5, False, False, ("",) * 6)
        assert _rk4_loop(*key) is _rk4_loop(*key)
        assert _rk4_loop(*key) is not _rk4_loop("autonomous", key[1][:5], 4,
                                                False, False, ("",) * 5)

    def test_butterfly_jets_within_fd_error(self, refined_butterfly,
                                            monkeypatch):
        # the FD error is the spread of _rho_derivative_fd between stencil
        # half-widths d and 2d; each jet lies within it of one of the two
        f, ans, _ = refined_butterfly
        v, x0, h = operator_rhs(f, ans), float(ans.eval(0.0)), 2e-4
        jet = _jet(f, v, x0, h, 5)
        flow = _flow_with_variation(f, v, x0, h)
        assert (jet[0], jet[1]) == (flow.u, flow.lanes[0])
        orders = range(2, 6)
        narrow = [_rho_derivative_fd(f, v, x0, i, h) for i in orders]
        for i in orders:
            monkeypatch.setitem(odeint._STENCIL_HALF_WIDTH, i,
                                2.0 * odeint._STENCIL_HALF_WIDTH[i])
        wide = [_rho_derivative_fd(f, v, x0, i, h) for i in orders]
        for i, a, b in zip(orders, narrow, wide):
            rho = math.factorial(i) * jet[i]
            assert min(abs(rho - a), abs(rho - b)) <= abs(a - b), i
        # the first nonvanishing derivative is the butterfly's rho^(5)
        assert abs(math.factorial(5) * jet[5]) > 10.0


class TestContactOrder:
    def test_fold_of_riccati(self):
        rep = contact_order(SQUARE, None, 0.0, kmax=3, h=1e-3)
        assert rep.order == 1
        # rho(x) = x/(1+x) has rho''(0) = -2
        assert rep.derivatives[0] == pytest.approx(-2.0, rel=1e-3)

    def test_requires_fixed_point(self):
        with pytest.raises(PreconditionError):
            contact_order(SQUARE, None, 0.5, kmax=2, h=1e-3)

    def test_order_zero_off_the_identity(self):
        # f = x: rho is the RK4 map's 100-step factor on u' = -u, so rho'
        # is far from 1 and the contact order is 0
        h = 1e-2
        rep = contact_order(IDENTITY, None, 0.0, kmax=2, h=h)
        assert rep.order == 0 and not rep.exceeds_kmax
        factor = (1 - h + h ** 2 / 2 - h ** 3 / 6 + h ** 4 / 24) ** 100
        assert rep.rho_prime == pytest.approx(factor, rel=1e-15)

    def test_butterfly_contact_order_four(self, refined_butterfly):
        f, ans, _ = refined_butterfly
        x0 = float(ans.eval(0.0))
        rep = contact_order(f, operator_rhs(f, ans), x0, kmax=4, h=2e-4)
        assert rep.order == 4
        assert rep.rho_prime == pytest.approx(1.0, abs=1e-8)

    def test_butterfly_margins_clear_the_contact_tolerance(self,
                                                          refined_butterfly):
        # every verdict behind the butterfly's order 4 sits more than four
        # decades from its CONTACT_ZERO_TOL threshold: rho^(2) to rho^(4)
        # below the zero threshold, rho^(5) above it, and |rho' - 1| below
        # the threshold of rho' = 1
        f, ans, _ = refined_butterfly
        rep = contact_order(f, operator_rhs(f, ans), float(ans.eval(0.0)),
                            kmax=4, h=2e-4)
        tol, derivs = odeint.CONTACT_ZERO_TOL, np.abs(rep.derivatives)
        zero = tol * max(1.0, derivs[-1])
        margins = [math.log10(zero / d) for d in derivs[:-1]]
        margins.append(math.log10(derivs[-1] / zero))
        margins.append(math.log10(tol * max(1.0, max(derivs))
                                  / abs(rep.rho_prime - 1.0)))
        assert rep.order == 4
        assert min(margins) > 4.0, margins

    def test_polynomial_kmax_five(self):
        # rho^(6) needs f's order-6 rows, past MAX_X_DERIVATIVE = 5: a
        # polynomial's coefficient rows have no bound
        rep = contact_order(SQUARE, None, 0.0, kmax=5, h=1e-3)
        assert rep.order == 1
        assert rep.derivatives[-1] == pytest.approx(-720.0, rel=1e-10)


class TestStageTables:
    # the stage table is data that only odeint reads, and one key function
    # picks the generated loops of both drivers

    @staticmethod
    def _keys(monkeypatch):
        # the key of every scalar and many-lane loop a flow asks for
        keys = {"_rk4_loop": [], "_vector_loop": []}
        for name, seen in keys.items():
            def spy(*key, real=getattr(odeint, name), seen=seen):
                seen.append(key)
                return real(*key)
            monkeypatch.setattr(odeint, name, spy)
        return keys

    @pytest.mark.parametrize("f", [Nonlinearity.quartic(4.0, -0.3),
                                   T_DEPENDENT],
                             ids=["autonomous", "t-dependent"])
    def test_table_holds_only_data(self, f):
        nsteps = 8
        forcing, rows, minus_zero = _stage_table(f, lambda t: np.cos(t),
                                                 1.0 / nsteps, (0, 1, 2))

        def entries(x):
            yield x
            if isinstance(x, (list, tuple)):
                for y in x:
                    yield from entries(y)
        assert not any(callable(x) for x in entries((forcing, rows)))
        assert [len(lists) for lists in forcing] == [nsteps] * 3
        assert minus_zero is False
        if f.autonomous:  # one coefficient row per order
            assert rows == [f.poly_coeffs(j).tolist() for j in range(3)]
        else:  # per order, the rows at each stage time of every step
            assert [[len(r) for r in order] for order in rows] == [
                [nsteps] * 3] * 3

    # a table evaluates the forcing once, at the distinct stage times: the
    # last stage time t_k + h of a step that is bitwise t_(k+1) takes the
    # value at t_(k+1), which a pointwise forcing makes the same bits
    STEPS = [1 / 1024, 2e-4, 1e-4, 1e-2, 0.3]
    FORCINGS = [
        pytest.param(PeriodicFn(Grid(256), np.where(Grid(256).nodes < 0.5,
                                                    0.3, -0.3)),
                     id="square-wave"),
        pytest.param(lambda t: 0.5 * np.cos(2 * np.pi * t)
                     + 0.3 * np.sin(6 * np.pi * t) + 0.3, id="callable"),
        pytest.param(None, id="none")]

    @staticmethod
    def _direct(v, t0, nsteps, h):
        # the forcing evaluated at every stage time, shared ones included
        times = odeint._stage_times(t0, nsteps, h)
        return np.zeros(times.shape) if v is None else v(times)

    @pytest.mark.parametrize("h", STEPS)
    @pytest.mark.parametrize("v", FORCINGS)
    def test_forcing_is_the_direct_evaluation_bitwise(self, v, h):
        nsteps, step = odeint._step_count(0.0, 1.0, h)
        forcing, _, _ = _stage_table(IDENTITY, v, h)
        direct = self._direct(v, 0.0, nsteps, step).reshape(3, nsteps).tolist()
        assert [_bits(row) for row in forcing] == [_bits(row)
                                                   for row in direct]

    @pytest.mark.parametrize("v", FORCINGS)
    def test_forcing_from_a_later_start_is_the_direct_evaluation(
            self, v, monkeypatch):
        tables = []
        build = odeint._rhs_tables

        def spy(*args):
            tables.append((args[2:5], build(*args)))
            return tables[-1][1]
        monkeypatch.setattr(odeint, "_rhs_tables", spy)
        integrate(IDENTITY, v, 0.2, t0=0.3, t1=1.7, h=1e-3)
        [((t0, nsteps, h), (forcing, _, _))] = tables
        assert (t0, nsteps) == (0.3, 1400)
        direct = self._direct(v, t0, nsteps, h).reshape(3, nsteps).tolist()
        assert [_bits(row) for row in forcing] == [_bits(row)
                                                   for row in direct]

    @pytest.mark.parametrize("h, points", [(1 / 1024, 2049), (2e-4, 11_325)])
    def test_forcing_called_once_at_the_distinct_stage_times(self, h, points):
        calls = []

        def v(t):
            calls.append(np.array(t))
            return np.cos(2 * np.pi * t)
        _stage_table(SQUARE, v, h)
        nsteps, step = odeint._step_count(0.0, 1.0, h)
        [times] = calls
        assert len(times) == points == len(np.unique(times))
        assert np.array_equal(np.unique(times), np.unique(
            odeint._stage_times(0.0, nsteps, step)))

    @pytest.mark.parametrize("h", STEPS)
    def test_t_dependent_rows_are_the_direct_rows_bitwise(self, h):
        nsteps, step = odeint._step_count(0.0, 1.0, h)
        times = odeint._stage_times(0.0, nsteps, step)
        rows = _stage_table(T_DEPENDENT, None, h, (0, 1, 2))[1]
        assert _deep_bits(rows) == _deep_bits(
            [T_DEPENDENT.coeff_rows(times, order=j).reshape(3, nsteps, -1)
             .tolist() for j in range(3)])

    # at h = 1/1024 the last stage time of step 511 is t_512 = 0.5
    def test_non_finite_forcing_at_a_shared_time_raises(self):
        assert 511 / 1024 + 1 / 1024 == 0.5
        with pytest.raises(PreconditionError, match="finite"):
            _stage_table(IDENTITY, lambda t: np.where(t == 0.5, np.nan, 1.0),
                         1 / 1024)

    def test_minus_zero_at_a_shared_time_is_recorded(self):
        forcing, _, minus_zero = _stage_table(
            IDENTITY, lambda t: np.where(t == 0.5, -0.0, 1.0), 1 / 1024)
        assert minus_zero is True
        assert [_bits([forcing[0][512], forcing[2][511]])] == [
            _bits([-0.0, -0.0])]

    def test_shifts_record_their_own_minus_zero(self):
        # each shift of a fibre table records whether its own forcing holds
        # a -0.0: only a -0.0 shift keeps the table's -0.0 values, and the
        # lanes loop reads the shifted table as the interpreted loop does
        forcing = np.array([[-0.0, 1.0], [0.5, -0.0], [0.0, 2.0]])
        rows = [[0.0, 1.0], [1.0]]
        shifts = _forcing_shifts(odeint._table(forcing, rows))
        assert [shifts(nu)[2] for nu in (-0.0, 0.0, -1.0, np.nan)] == [
            True, False, False, False]
        for nu, x0 in itertools.product((-0.0, 0.0), (-0.0, 0.0)):
            table = shifts(nu)
            assert _deep_bits(_flow_scalar(
                IDENTITY, None, x0, 0.0, 1.0, 0.5, table=table,
                lanes=True)) == _deep_bits(_interpreted_flow_scalar(
                    IDENTITY, None, x0, 0.0, 1.0, 0.5, table=table,
                    lanes=True)), (nu, x0)

    @pytest.mark.parametrize("f, table", [
        (Nonlinearity.quartic(4.0, -0.3), None),
        (IDENTITY, _row_table([[-0.0, 1.0, 0.0, 1.0]], 0.5, 100)),
        (T_DEPENDENT, None),
    ], ids=["autonomous", "minus-zero-constant", "t-dependent"])
    def test_scalar_and_many_lane_loops_share_a_key(self, f, table,
                                                    monkeypatch):
        keys = self._keys(monkeypatch)
        _flow_scalar(f, None, 0.1, 0.0, 1.0, 1e-2, table=table)
        _flow_vector(f, None, np.array([0.1, -0.1]), 1e-2, table)
        [(kind, widths, _, _, _, patterns)] = keys["_rk4_loop"]
        [(vkind, width, _, pattern)] = keys["_vector_loop"]
        assert (kind, widths[0], patterns[0]) == (vkind, width, pattern)
        if table is not None:  # a -0.0 constant leaves the row unspecialised
            assert (kind, width, pattern) == ("autonomous", 4, "")

    def test_generated_code_holds_no_float_data(self, monkeypatch, quartic,
                                                six_root_ansatz):
        # every loop that a small census, a fibre trace and contact_order
        # compile holds no float literal but the RK4 weights, 0.0, 1.0 and
        # the 1.0 of the 1/j! factors: the data arrive as arguments
        keys = self._keys(monkeypatch)
        v = operator_rhs(quartic, six_root_ansatz)
        count_solutions(quartic, v, -0.35, 0.15, scan_n=21, h=1e-2)
        trace_pairs(Nonlinearity.polynomial([0, -1, 0, 1]),
                    PeriodicFn.from_callable(lambda t: 0.4 * np.cos(
                        2 * np.pi * t), Grid(64)), -0.5, 0.5, 2)
        contact_order(SQUARE, None, 0.0, kmax=3, h=1e-2)
        contact_order(WILD, lambda t: WILD.eval(t, 0.0), 0.0, kmax=2, h=1e-2)
        assert len(keys["_vector_loop"]) >= 1 and len(keys["_rk4_loop"]) >= 4
        sources = ([_rk4_source(*key) for key in set(keys["_rk4_loop"])]
                   + [odeint._vector_source(*key)
                      for key in set(keys["_vector_loop"])])
        for source in sources:
            floats = {tok.string for tok in tokenize.generate_tokens(
                io.StringIO(source).readline)
                if tok.type == tokenize.NUMBER and not tok.string.isdigit()}
            assert floats <= {"0.0", "0.5", "1.0", "2.0", "6.0"}, floats

    # the scalar loop nests one parenthesis per coefficient, which CPython
    # parses up to 200 deep: past the cap both drivers raise the library's
    # error before any code is compiled
    @staticmethod
    def _polynomial(degree):
        return Nonlinearity.polynomial([0.0, 1.0] + [0.01] * (degree - 1))

    def test_degree_at_the_cap_runs(self):
        f = self._polynomial(odeint.MAX_LOOP_DEGREE)
        assert odeint.MAX_LOOP_DEGREE == 199
        assert integrate(f, None, 0.3, h=0.05).final() < 0.3
        census = count_solutions(f, None, -0.5, 0.5, scan_n=5, h=0.05,
                                 check_half_step=False)
        assert [r.x for r in census.roots] == [0.0]

    def test_degree_past_the_cap_raises(self):
        f = self._polynomial(200)
        for run in (lambda: integrate(f, None, 0.3, h=0.05),
                    lambda: count_solutions(f, None, -0.5, 0.5, scan_n=5,
                                            h=0.05)):
            with pytest.raises(PreconditionError,
                               match="degree 200.*MAX_LOOP_DEGREE = 199"):
                run()
