"""Cross-validate the six-root census with an independent integrator stack.

The library counts fixed points of the return map with its own fixed-step
RK4; here the same count is reproduced from scratch with scipy's adaptive
RK45 and brentq root refinement, sharing no integration code with the
library path.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from morinode import Grid, Nonlinearity, PeriodicFn, count_solutions, odeint
from morinode.core import FourierAnsatz, PreconditionError, Term
from morinode.odeint import (_flow_scalar, _flow_vector, _flow_with_variation,
                             _forcing_shifts, _stage_table)
from tests.conftest import operator_rhs
from tests.test_odeint import _allocating_flow_vector, _interpreted_flow_scalar


@pytest.fixture(scope="module")
def rhs(quartic, six_root_ansatz):
    return operator_rhs(quartic, six_root_ansatz)


def test_six_roots_via_scipy(quartic, rhs):
    def field(t, y):
        return rhs(t) - quartic.eval(t, y, 0)

    def g(x0):
        sol = solve_ivp(field, (0.0, 1.0), [x0], method="RK45",
                        rtol=1e-12, atol=1e-13, dense_output=False)
        assert sol.success
        return float(sol.y[0, -1]) - x0

    xs = np.linspace(-0.35, 0.15, 51)
    vals = np.array([g(x) for x in xs])
    brackets = [(xs[i], xs[i + 1]) for i in range(len(xs) - 1)
                if vals[i] * vals[i + 1] < 0]
    roots = sorted(brentq(g, lo, hi, xtol=1e-10) for lo, hi in brackets)
    assert len(roots) == 6

    expected = [-0.285774, -0.249993, -0.224023, -0.197058, -0.121017,
                0.118933]
    assert np.allclose(roots, expected, atol=2e-5)


def test_vector_and_scalar_flows_agree(quartic, rhs):
    xs = np.array([-0.3, -0.1, 0.0, 0.2])
    vec, alive = _flow_vector(quartic, rhs, xs, 1e-3)
    assert alive.all()
    for x, expect in zip(xs, vec):
        flow = _flow_scalar(quartic, rhs, float(x), 0.0, 1.0, 1e-3)
        assert not flow.blew
        assert flow.u == pytest.approx(expect, abs=1e-13)


def test_prebuilt_table_is_bitwise_identical(quartic, rhs):
    # a shared stage table only skips rebuilding it: same floats, same order
    plain = _stage_table(quartic, rhs, 1e-3)
    joint = _stage_table(quartic, rhs, 1e-3, (0, 1))
    for x in (-0.3, -0.1, 0.0, 0.2, 2.5):
        assert (_flow_scalar(quartic, rhs, x, 0.0, 1.0, 1e-3, store=True)
                == _flow_scalar(quartic, None, x, 0.0, 1.0, 1e-3, store=True,
                                table=plain))
        assert (_flow_with_variation(quartic, rhs, x, 1e-3)
                == _flow_with_variation(quartic, None, x, 1e-3, joint))
    xs = np.array([-0.3, -0.1, 0.0, 0.2, 2.5])
    built = _flow_vector(quartic, rhs, xs, 1e-3)
    for table in (plain, joint):
        shared = _flow_vector(quartic, None, xs, 1e-3, table)
        for a, b in zip(built, shared):
            assert np.array_equal(a, b, equal_nan=True)
    with pytest.raises(PreconditionError):
        _flow_scalar(quartic, None, 0.0, 0.0, 1.0, 2e-3, table=plain)
    with pytest.raises(PreconditionError):
        _flow_vector(quartic, None, xs, 2e-3, plain)


def test_shared_autonomous_rows_are_bitwise_identical(quartic, rhs):
    # an autonomous polynomial's table holds one row per order, the
    # coefficient row at every stage time, and no callable; flows through
    # it are the interpreted loops' on that row, evaluated by core.horner
    h, nsteps = 1e-3, 1000
    forcing, rows, minus_zero = _stage_table(quartic, rhs, h, (0, 1))
    times = h * np.arange(nsteps)
    stage_times = np.concatenate([times, times + h / 2, times + h])
    assert forcing == np.reshape(rhs(stage_times), (3, nsteps)).tolist()
    assert len(rows) == 2 and minus_zero is False
    for order, row in enumerate(rows):
        assert all(isinstance(c, float) for c in row)
        assert {tuple(map(float.hex, r)) for r in
                quartic.coeff_rows(stage_times, order).tolist()} == {
                    tuple(map(float.hex, row))}
    shared = (forcing, rows, minus_zero)
    for x in (-0.3, -0.1, 0.0, 0.2, 2.5):
        assert (_flow_scalar(quartic, None, x, 0.0, 1.0, h, store=True,
                             table=shared)
                == _interpreted_flow_scalar(quartic, None, x, 0.0, 1.0, h,
                                            store=True, table=shared))
        u, _, blew, sign, btime, lanes = _interpreted_flow_scalar(
            quartic, None, x, 0.0, 1.0, h, table=shared, lanes=True)
        assert _flow_with_variation(quartic, None, x, h, shared) == (
            u, None, blew, sign, btime, None if blew else lanes[:1])
    xs = np.array([-0.3, -0.1, 0.0, 0.2, 2.5])
    for a, b in zip(_flow_vector(quartic, None, xs, h, shared),
                    _allocating_flow_vector(quartic, None, xs, h, shared)):
        assert np.array_equal(a, b, equal_nan=True)


def test_census_builds_one_table_per_pass(quartic, rhs, monkeypatch):
    # the scan and every refinement flow of a pass read one stage table
    calls = []
    build = odeint._rhs_tables

    def counted(*args, **kwargs):
        calls.append(args[3])
        return build(*args, **kwargs)
    monkeypatch.setattr(odeint, "_rhs_tables", counted)
    census = count_solutions(quartic, rhs, -0.35, 0.15, scan_n=51, h=1e-3)
    assert census.count == census.count_at_half_step == 6
    assert calls == [1000, 2000]


def test_order_one_rows_only_for_a_pass_with_brackets(quartic, rhs,
                                                      monkeypatch):
    # both scans read order-0 tables; a pass adds the order-1 rows its
    # refinement flows read only when it has a bracket, so a census of a
    # t-dependent f with none never holds two tables of both orders
    rows = []
    build = odeint._stage_rows

    def counted(f, stage_times, nsteps, orders):
        rows.append((nsteps, tuple(orders)))
        return build(f, stage_times, nsteps, orders)
    monkeypatch.setattr(odeint, "_stage_rows", counted)
    assert count_solutions(quartic, rhs, -0.35, 0.15, scan_n=51,
                           h=1e-3).count == 6
    assert rows == [(1000, (0,)), (2000, (0,)), (1000, (1,)), (2000, (1,))]
    rows.clear()
    f = Nonlinearity([Term(4, FourierAnsatz(1.0, [0.2])),
                      Term(2, FourierAnsatz(-4.0, [], [0.3])),
                      Term(1, FourierAnsatz(-0.3))])
    census = count_solutions(f, lambda t: 0.5 * np.cos(2 * np.pi * t), -0.4,
                             0.4, scan_n=51, h=1e-3)
    assert census.count == census.count_at_half_step == 0
    assert rows == [(1000, (0,)), (2000, (0,))]


def test_shifted_table_matches_shifted_forcing():
    # the fibre solver adds nu to a table of vtilde instead of evaluating
    # vtilde + nu at every stage time of every flow
    f = Nonlinearity.polynomial([0, -1, 0, 1])
    square = PeriodicFn.from_callable(lambda t: np.where(t < 0.5, 0.3, -0.3),
                                      Grid(256))
    h, nu = 1.0 / 256, 0.0123
    base = _stage_table(f, square, h)
    for x in (-0.5, 0.0, 0.7):
        assert (_flow_scalar(f, lambda t: square.eval(t) + nu, x, 0.0, 1.0, h,
                             store=True)
                == _flow_scalar(f, None, x, 0.0, 1.0, h, store=True,
                                table=_forcing_shifts(base)(nu)))


def test_wild_blowups_agree_across_drivers():
    # u' = -cos(2 pi t) u^2 has 1/u = 1/x0 + sin(2 pi t)/(2 pi), which first
    # reaches 0 at t_star from every |x0| > 2 pi; all three flows must agree
    # that it escapes, the scalar and variational flows on where and in
    # which direction, and the step that passes U_MAX ends within h of
    # t_star
    wild = Nonlinearity([Term(2, FourierAnsatz(0.0, [1.0]))])
    xs = np.array([-10.0, -7.0, 7.0, 10.0])
    expected = [(-1, 0.109), (-1, 0.178), (1, 0.678), (1, 0.609)]
    _, alive = _flow_vector(wild, None, xs, 1e-3)
    assert not alive.any()
    for x, (esign, etime) in zip(xs, expected):
        flow = _flow_scalar(wild, None, float(x), 0.0, 1.0, 1e-3)
        sign, btime = flow.sign, flow.time
        assert flow.blew
        assert sign == esign and btime == pytest.approx(etime, abs=1e-12)
        t_star = ((0.5 if x > 0 else 0.0)
                  + math.asin(2 * math.pi / abs(x)) / (2 * math.pi))
        assert abs(btime - t_star) < 1e-3
        joint = _flow_with_variation(wild, None, float(x), 1e-3)
        assert joint.blew and (joint.sign, joint.time) == (sign, btime)
