"""Edge paths of the public contracts not covered by the main suites."""

import dataclasses
import json

import numpy as np
import pytest

from morinode import (Average, FourierAnsatz, Grid, Nonlinearity, PeriodicFn,
                      contact_order, count_solutions, cumulative, gamma_curve,
                      hull_origin_test, integrate, mean, return_map,
                      seed_shat, solve_periodic, InitialValue)
from morinode.cli import EXIT_OK, execute
from morinode.core import PreconditionError

TWO_PI = 2 * np.pi
ZERO = Nonlinearity.polynomial([])
SQUARE = Nonlinearity.polynomial([0, 0, 1])
CUBIC = Nonlinearity.polynomial([0, -1, 0, 1])


def _curve_with_point(x):
    # the gamma_2 curve of x^3 - x on [-2, 2] with one coordinate set to x
    curve = gamma_curve(CUBIC, 2, -2.0, 2.0)
    points = curve.points.copy()
    points[7, 1] = x
    return dataclasses.replace(curve, points=points)


class TestIntegrateEdges:
    def test_absolute_time_window(self):
        # v evaluated at absolute times: integrate over [0.25, 1.25]
        v = PeriodicFn.from_callable(lambda t: np.cos(TWO_PI * t))
        traj = integrate(ZERO, v, 0.0, 0.25, 1.25, 1e-3)
        # u(t) = int_{0.25}^t cos = (sin(2 pi t) - 1) / (2 pi)
        expect = (np.sin(TWO_PI * traj.times) - 1.0) / TWO_PI
        assert np.max(np.abs(traj.samples - expect)) < 1e-9

    def test_requires_forward_window(self):
        with pytest.raises(PreconditionError):
            integrate(ZERO, None, 0.0, 1.0, 0.5, 1e-3)

    def test_callable_and_sampled_rhs_agree(self):
        fn = lambda t: 0.7 + 0.2 * np.sin(TWO_PI * np.asarray(t))
        v = PeriodicFn.from_callable(fn)
        r1 = return_map(SQUARE, fn, 0.1, h=1e-3)
        r2 = return_map(SQUARE, v, 0.1, h=1e-3)
        assert r1.value == pytest.approx(r2.value, abs=1e-12)


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     -float("inf")])
    @pytest.mark.parametrize("call", [
        pytest.param(lambda x: return_map(SQUARE, None, x), id="return-map-x0"),
        pytest.param(lambda x: return_map(SQUARE, None, 0.1, h=x,
                                          with_derivative=True),
                     id="return-map-step"),
        pytest.param(lambda x: count_solutions(SQUARE, None, -1.0, x),
                     id="census-range"),
        pytest.param(lambda x: count_solutions(SQUARE, None, -1.0, 1.0, h=x),
                     id="census-step"),
        pytest.param(lambda x: Nonlinearity.polynomial([0.0, x, 1.0]),
                     id="polynomial"),
        pytest.param(lambda x: FourierAnsatz(x), id="ansatz-a0"),
        pytest.param(lambda x: FourierAnsatz(0.0, [0.1, x]), id="ansatz-cos"),
        pytest.param(lambda x: FourierAnsatz(0.0, [0.1], [x]),
                     id="ansatz-sin"),
        pytest.param(lambda x: integrate(SQUARE, None, x), id="integrate-x0"),
        pytest.param(lambda x: integrate(SQUARE, None, 0.1, h=x),
                     id="integrate-step"),
        pytest.param(lambda x: integrate(SQUARE, None, 0.1, t0=x),
                     id="integrate-t0"),
        pytest.param(lambda x: integrate(SQUARE, None, 0.1, t1=x),
                     id="integrate-t1"),
        pytest.param(lambda x: contact_order(SQUARE, None, x, kmax=2, h=1e-3),
                     id="contact-x0"),
        pytest.param(lambda x: contact_order(SQUARE, None, 0.0, kmax=2, h=x),
                     id="contact-step"),
        pytest.param(lambda x: gamma_curve(CUBIC, 2, x, 1.0), id="gamma-lo"),
        pytest.param(lambda x: gamma_curve(CUBIC, 2, -1.0, x), id="gamma-hi"),
        pytest.param(lambda x: hull_origin_test(_curve_with_point(x)),
                     id="hull-points"),
        pytest.param(lambda x: solve_periodic(SQUARE, PeriodicFn.constant(0.0),
                                              InitialValue(x)),
                     id="fibre-initial-value"),
        pytest.param(lambda x: solve_periodic(SQUARE, PeriodicFn.constant(0.0),
                                              Average(x)),
                     id="fibre-average"),
        pytest.param(lambda x: solve_periodic(SQUARE, PeriodicFn.constant(0.0),
                                              InitialValue(0.1), nu_hint=x),
                     id="fibre-nu-hint"),
        pytest.param(lambda x: solve_periodic(SQUARE, PeriodicFn.constant(0.0),
                                              InitialValue(0.1), h=x),
                     id="fibre-step"),
    ])
    def test_entry_points_reject_non_finite_numbers(self, call, bad):
        # a nan or an infinity is a precondition violation, not an answer
        with pytest.raises(PreconditionError, match="finite"):
            call(bad)


class TestContactEdges:
    def test_identity_map_exceeds_kmax(self):
        # f = 0: the return map is the identity, every derivative vanishes
        rep = contact_order(ZERO, None, 0.3, kmax=3, h=1e-2)
        assert rep.exceeds_kmax
        assert rep.order is None

    def test_kmax_bounds(self):
        with pytest.raises(PreconditionError):
            contact_order(SQUARE, None, 0.0, kmax=6)


class TestCumulativeOffNode:
    def test_off_node_evaluation(self):
        u = PeriodicFn.from_callable(lambda t: np.cos(TWO_PI * t))
        c = cumulative(u)
        ts = np.array([0.1234, 0.5678, 0.9012])
        assert np.allclose(c(ts), np.sin(TWO_PI * ts) / TWO_PI, atol=1e-10)


class TestAnsatzEdges:
    def test_from_periodic_needs_resolution(self):
        u = PeriodicFn.constant(1.0, Grid(64))
        with pytest.raises(PreconditionError):
            FourierAnsatz.from_periodic(u, 32)

    def test_grid_validation(self):
        with pytest.raises(PreconditionError):
            Grid(8)
        with pytest.raises(PreconditionError):
            Grid(100)


class TestSeedEdges:
    def test_epsilon_domain(self):
        with pytest.raises(PreconditionError):
            seed_shat(SQUARE, 1, [-1.0, 1.0], epsilon=0.6)


class TestSolveEdges:
    def test_nu_hint_speeds_same_answer(self):
        vt = PeriodicFn.from_callable(lambda t: np.cos(TWO_PI * t))
        f = Nonlinearity.polynomial([0, 1])
        fp1 = solve_periodic(f, vt, InitialValue(0.5))
        fp2 = solve_periodic(f, vt, InitialValue(0.5), nu_hint=fp1.nu)
        assert fp2.nu == pytest.approx(fp1.nu, abs=1e-10)

    def test_nonzero_mean_rhs_rejected(self):
        bad = PeriodicFn.constant(0.5)
        with pytest.raises(PreconditionError):
            solve_periodic(SQUARE, bad, InitialValue(0.0))


class TestCliEdges:
    @pytest.fixture()
    def files(self, tmp_path):
        (tmp_path / "xsq.json").write_text(
            json.dumps({"terms": [{"power": 2, "a0": 1.0}]}))
        (tmp_path / "u.json").write_text(
            json.dumps({"a0": 0.2, "cos": [0.1], "sin": [0.0]}))
        return tmp_path

    def test_fibre_trace_command(self, files, capsys):
        code = execute(["fibre", "--problem", str(files / "xsq.json"),
                        "--trace", "-0.5", "0.5", "3"])
        out = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        trace = out["result"]["trace"]
        assert len(trace) == 3
        for row in trace:
            assert row["phi"] == pytest.approx(row["average"] ** 2, abs=1e-6)

    def test_classify_point_command(self, files, capsys):
        code = execute(["classify-point", "--problem", str(files / "xsq.json"),
                        "--ansatz", str(files / "u.json")])
        out = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert out["result"]["order"]["kind"] == "regular"

    def test_tameness_precondition(self, files, capsys):
        code = execute(["tameness", "--problem", str(files / "xsq.json"),
                        "--s-max", "5"])
        assert code == 2
