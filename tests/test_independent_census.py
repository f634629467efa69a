"""Cross-validate the six-root census with an independent integrator stack.

The library counts fixed points of the return map with its own fixed-step
RK4; here the same count is reproduced from scratch with scipy's adaptive
RK45 and brentq root refinement, sharing no integration code with the
library path.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from morinode import Grid, Nonlinearity, PeriodicFn, count_solutions, odeint
from morinode.core import PreconditionError, horner, horner_kernel
from morinode.odeint import (_flow_scalar, _flow_vector, _flow_with_variation,
                             _shift_forcing, _stage_table)
from tests.conftest import operator_rhs


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
        u_end, _, blew, _, _, _ = _flow_scalar(quartic, rhs, float(x),
                                               0.0, 1.0, 1e-3)
        assert not blew
        assert u_end == pytest.approx(expect, abs=1e-13)


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
    # an autonomous polynomial's table holds one row per order, shared by
    # every stage; flows read the same floats as from a full table of
    # coefficient rows at every stage time
    h, nsteps = 1e-3, 1000
    shared = _stage_table(quartic, rhs, h, (0, 1))
    times = h * np.arange(nsteps)
    stage_times = np.concatenate([times, times + h / 2, times + h])
    full = (shared[0], [
        (horner, quartic.coeff_rows(stage_times, order)
         .reshape(3, nsteps, -1).tolist()) for order in (0, 1)])
    assert np.array_equal(shared[0],
                          np.reshape(rhs(stage_times), (3, nsteps)))
    for (evaluate, rows), (_, full_rows) in zip(shared[1], full[1]):
        assert evaluate is horner_kernel(len(rows[0][0]))
        assert rows[0] is rows[1] is rows[2]
        assert all(row is rows[0][0] for row in rows[0])
        assert list(rows) == full_rows
    for x in (-0.3, -0.1, 0.0, 0.2, 2.5):
        assert (_flow_scalar(quartic, None, x, 0.0, 1.0, h, store=True,
                             table=shared)
                == _flow_scalar(quartic, None, x, 0.0, 1.0, h, store=True,
                                table=full))
        assert (_flow_with_variation(quartic, None, x, h, shared)
                == _flow_with_variation(quartic, None, x, h, full))
    xs = np.array([-0.3, -0.1, 0.0, 0.2, 2.5])
    for a, b in zip(_flow_vector(quartic, None, xs, h, shared),
                    _flow_vector(quartic, None, xs, h, full)):
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
                                table=_shift_forcing(base, nu)))


def test_builtin_blowups_agree_across_drivers():
    # cosh^2(x) * 2 pi cos(2 pi t) escapes from every start value; all three
    # flows must agree that it does, and the scalar and variational flows
    # on where and in which direction
    wild = Nonlinearity.from_builtin("cosh2_cos")
    xs = np.array([-0.5, -0.1, 0.0, 0.1, 0.5])
    expected = [(-1, 0.091), (-1, 0.179), (1, 0.738), (1, 0.679), (1, 0.591)]
    _, alive = _flow_vector(wild, None, xs, 1e-3)
    assert not alive.any()
    for x, (esign, etime) in zip(xs, expected):
        _, _, blew, sign, btime, _ = _flow_scalar(wild, None, float(x), 0.0,
                                                  1.0, 1e-3)
        assert blew
        assert sign == esign and btime == pytest.approx(etime, abs=1e-12)
        _, _, blew, s, t = _flow_with_variation(wild, None, float(x), 1e-3)
        assert blew and (s, t) == (sign, btime)
