import functools
import itertools
import math
import operator
import warnings

import numpy as np
import pytest

from morinode import (Grid, Nonlinearity, PeriodicFn, contact_order,
                      integrate, odeint, return_map)
from morinode.core import FourierAnsatz, PreconditionError, Term
from morinode.odeint import (_flow_scalar, _flow_vector, _flow_with_variation,
                             _jet_field, _rho_derivative_fd, _rk4_jet,
                             _shift_forcing, _stage_table)
from tests.conftest import operator_rhs


IDENTITY = Nonlinearity.polynomial([0, 1])     # f(x) = x
SQUARE = Nonlinearity.polynomial([0, 0, 1])    # f(x) = x^2
ZERO = Nonlinearity.polynomial([])
WILD = Nonlinearity.from_builtin("cosh2_cos")


def _comprehension_field(K):
    # the list-comprehension stage field that _jet_field's compiled one
    # replaced, as a binder of the same shape: the oracle of its bits. Its
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


def _bits(values):
    return None if values is None else [(type(x), float.hex(float(x)))
                                        for x in values]


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
        wild = Nonlinearity.from_builtin("cosh2_cos")
        plain = return_map(wild, None, 0.1, h=1e-3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            joint = return_map(wild, None, 0.1, h=1e-3, with_derivative=True)
        assert [str(w.message) for w in caught] == []
        assert plain.blew_up and joint.blew_up
        assert (joint.blow_sign, joint.blow_time) == (plain.blow_sign,
                                                      plain.blow_time)

    def test_one_step_overflow_keeps_its_sign(self):
        # cosh^2 under forcing -1e6 overflows to -inf within the first step
        # from x0 = 0, so no finite sample carries the escape's sign
        wild = Nonlinearity.from_builtin("cosh2_cos")

        def push(t):
            return np.full(np.shape(t), -1e6)
        u, _, blew, sign, btime, _ = _flow_scalar(wild, push, 0.0, 0.0, 1.0, 1e-3)
        assert blew and u == -np.inf
        assert (sign, btime) == (-1, 1e-3)
        _, alive = _flow_vector(wild, push, np.array([0.0, 0.5]), 1e-3)
        assert not alive.any()

    def test_surviving_set_is_interval(self):
        # no revival after blow-up when scanning upward through start values
        xs = np.linspace(-5.0, 2.0, 141)
        _, alive = _flow_vector(SQUARE, None, xs, 1e-3)
        idx = np.nonzero(alive)[0]
        assert len(idx) > 0
        assert np.array_equal(idx, np.arange(idx[0], idx[-1] + 1))


class TestTangentLanes:
    # x^3 - x under 0.4 cos(2 pi t) + nu, two RK4 steps per node of a
    # 256-point grid, so the lane sums are node sums
    F = Nonlinearity.polynomial([0, -1, 0, 1])
    H, STRIDE, NODES = 1.0 / 512, 2, 256

    def flow(self, table, c, nu, lanes=True):
        return _flow_scalar(self.F, None, c, 0.0, 1.0, self.H, store=True,
                            table=_shift_forcing(table, nu),
                            tangent_stride=self.STRIDE if lanes else 0)

    @pytest.fixture(scope="class")
    def table(self):
        vt = PeriodicFn.from_callable(lambda t: 0.4 * np.cos(2 * np.pi * t),
                                      Grid(self.NODES))
        return _stage_table(self.F, vt, self.H, (0, 1))

    def test_lanes_leave_u_unchanged(self, table):
        with_lanes = self.flow(table, 0.4, -0.2)
        assert with_lanes[:5] == self.flow(table, 0.4, -0.2, lanes=False)[:5]
        samples = with_lanes[1]
        assert with_lanes[5][2] == pytest.approx(
            sum(samples[:-1][::self.STRIDE]), rel=1e-15)

    def test_lanes_match_central_differences(self, table):
        # the lanes are the exact derivatives of the discrete flow, so
        # central differences of u(1) and of the node mean of u approach
        # them at O(d^2): halving d divides the error by four
        c, nu = 0.4, -0.2
        _, _, _, _, _, (xi, eta, _, sum_xi, sum_eta) = self.flow(table, c, nu)

        def errors(d):
            up, dn = self.flow(table, c, nu + d), self.flow(table, c, nu - d)
            right, left = self.flow(table, c + d, nu), self.flow(table, c - d, nu)
            return np.abs([
                (up[0] - dn[0]) / (2 * d) - eta,
                (up[5][2] - dn[5][2]) / (2 * d) - sum_eta,
                (right[0] - left[0]) / (2 * d) - xi,
                (right[5][2] - left[5][2]) / (2 * d) - sum_xi]) / [
                    1, self.NODES, 1, self.NODES]

        coarse, fine = errors(4e-3), errors(2e-3)
        assert np.all(coarse <= 5.0 * 4e-3 ** 2)
        assert np.all((coarse / fine > 3.6) & (coarse / fine < 4.4))
        assert eta > 0 and xi > 0

    def test_return_map_derivative_is_the_xi_lane(self, table):
        # the census reads rho' from the same lane as the fibre solver
        u_end, der, blew, _, _ = _flow_with_variation(self.F, None, 0.4,
                                                      self.H, table)
        lanes = self.flow(table, 0.4, 0.0)
        assert not blew and (u_end, der) == (lanes[0], lanes[5][0])


class TestJetFlow:
    def test_riccati_closed_form(self):
        # u' = -u^2 gives rho(x) = x/(1+x): rho^(n)(0) = (-1)^(n+1) n!
        jet = _rk4_jet(SQUARE, None, 0.0, 1e-3, 6)
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
        # u = 0.2 solves the builtin under v = f(t, 0.2), and 0.25 survives
        (WILD, lambda t: WILD.eval(t, 0.2), 0.25, 1e-2),
    ], ids=["cubic", "t-dependent", "builtin"])
    def test_value_and_slope_match_the_tangent_lane(self, f, v, x0, h):
        # u_0 and u_1 are _rk4_scalar's u and xi arithmetic, bit for bit
        jet = _rk4_jet(f, v, x0, h, 4)
        u_end, der, blew, _, _ = _flow_with_variation(f, v, x0, h)
        assert not blew and (jet[0], jet[1]) == (u_end, der)

    def test_blowup_gives_none(self):
        assert _rk4_jet(SQUARE, None, -2.0, 1e-3, 3) is None

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
        pytest.param(WILD, lambda t: WILD.eval(t, 0.2), 0.25, 1e-2,
                     range(1, 5), id="builtin"),
    ]

    @pytest.mark.parametrize("f, v, x0, h, orders", JET_CASES)
    def test_compiled_field_is_the_comprehension_bitwise(self, f, v, x0, h,
                                                          orders, monkeypatch):
        got = [_bits(_rk4_jet(f, v, x0, h, K)) for K in orders]
        monkeypatch.setattr(odeint, "_jet_field", _comprehension_field)
        assert got == [_bits(_rk4_jet(f, v, x0, h, K)) for K in orders]

    def test_butterfly_jet_is_the_comprehension_bitwise(self, refined_butterfly,
                                                        monkeypatch):
        f, ans, _ = refined_butterfly
        v, x0 = operator_rhs(f, ans), float(ans.eval(0.0))
        got = _bits(_rk4_jet(f, v, x0, 2e-4, 5))
        monkeypatch.setattr(odeint, "_jet_field", _comprehension_field)
        assert got == _bits(_rk4_jet(f, v, x0, 2e-4, 5))

    @pytest.mark.parametrize("K", range(1, 7))
    def test_compiled_field_on_signed_zeros_and_non_finite_jets(self, K):
        # -0.0, overflow, inf and nan take the comprehension's path too:
        # every jet over these values up to K = 3, sampled above
        rng = np.random.default_rng(K)
        evals = [odeint.horner_kernel(4)] * (K + 1)
        rows = rng.standard_normal((K + 1, 4)).tolist()
        values = [0.0, -0.0, 0.7, -1.3, 1e200, -np.inf, np.nan]
        jets = (itertools.product(values, repeat=K + 1) if K <= 3 else
                rng.choice(values, (3000, K + 1)).tolist())
        got, expect = _jet_field(K)(*evals), _comprehension_field(K)(*evals)
        for w in jets:
            assert _bits(got(0.5, rows, w)) == _bits(expect(0.5, rows, w))

    def test_field_compiled_once_per_order(self):
        assert _jet_field(5) is _jet_field(5)
        assert _jet_field(5) is not _jet_field(6)

    def test_butterfly_jets_within_fd_error(self, refined_butterfly,
                                            monkeypatch):
        # the FD error is the spread of _rho_derivative_fd between stencil
        # half-widths d and 2d; each jet lies within it of one of the two
        f, ans, _ = refined_butterfly
        v, x0, h = operator_rhs(f, ans), float(ans.eval(0.0)), 2e-4
        jet = _rk4_jet(f, v, x0, h, 5)
        assert (jet[0], jet[1]) == _flow_with_variation(f, v, x0, h)[:2]
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

    def test_butterfly_contact_order_four(self, refined_butterfly):
        f, ans, _ = refined_butterfly
        x0 = float(ans.eval(0.0))
        rep = contact_order(f, operator_rhs(f, ans), x0, kmax=4, h=2e-4)
        assert rep.order == 4
        assert rep.rho_prime == pytest.approx(1.0, abs=1e-8)

    def test_polynomial_kmax_five(self):
        # rho^(6) needs f's order-6 rows, past MAX_X_DERIVATIVE = 5: a
        # polynomial's coefficient rows have no bound
        rep = contact_order(SQUARE, None, 0.0, kmax=5, h=1e-3)
        assert rep.order == 1
        assert rep.derivatives[-1] == pytest.approx(-720.0, rel=1e-10)

    def test_builtin_kmax_five_raises_before_any_flow(self):
        def forcing(t):
            raise AssertionError("contact_order started a flow")
        with pytest.raises(PreconditionError, match="order 6"):
            contact_order(WILD, forcing, 0.0, kmax=5)
