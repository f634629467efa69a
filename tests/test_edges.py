"""Edge paths of the public contracts not covered by the main suites."""

import dataclasses
import json

import numpy as np
import pytest

from morinode import (Average, FourierAnsatz, Grid, Nonlinearity, ParamFamily,
                      PeriodicFn, SearchProblem, contact_order,
                      count_solutions, cumulative, gamma_curve,
                      hull_origin_test, integrate, mean, replicate,
                      return_map, seed_shat, sigma_hat, solve_periodic,
                      InitialValue)
from morinode.cli import EXIT_OK, execute
from morinode.core import PreconditionError, Term
from morinode.fibre import _solve_average, trace_pairs

TWO_PI = 2 * np.pi
ZERO = Nonlinearity.polynomial([])
SQUARE = Nonlinearity.polynomial([0, 0, 1])
CUBIC = Nonlinearity.polynomial([0, -1, 0, 1])
VTILDE = PeriodicFn.from_callable(lambda t: 0.3 * np.cos(TWO_PI * t))


def _constant(x):
    # a forcing callable of the constant value x
    return lambda t: np.full(np.shape(t), x)


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
        pytest.param(lambda x: return_map(SQUARE, _constant(x), 0.0, h=1e-2),
                     id="return-map-forcing"),
        pytest.param(lambda x: return_map(SQUARE, _constant(x), 0.0, h=1e-2,
                                          with_derivative=True),
                     id="return-map-derivative-forcing"),
        pytest.param(lambda x: integrate(SQUARE, _constant(x), 0.1),
                     id="integrate-forcing"),
        pytest.param(lambda x: contact_order(SQUARE, _constant(x), 0.0,
                                             kmax=2, h=1e-2),
                     id="contact-forcing"),
        pytest.param(lambda x: count_solutions(SQUARE, _constant(x), -1.0,
                                               1.0, h=1e-2),
                     id="census-forcing"),
        pytest.param(lambda x: gamma_curve(CUBIC, 2, x, 1.0), id="gamma-lo"),
        pytest.param(lambda x: gamma_curve(CUBIC, 2, -1.0, x), id="gamma-hi"),
        pytest.param(lambda x: hull_origin_test(_curve_with_point(x)),
                     id="hull-points"),
        pytest.param(lambda x: trace_pairs(CUBIC, VTILDE, x, 1.0, 3),
                     id="trace-lo"),
        pytest.param(lambda x: trace_pairs(CUBIC, VTILDE, -1.0, x, 3),
                     id="trace-hi"),
        pytest.param(lambda x: seed_shat(SQUARE, 1, [-1.0, x]),
                     id="seed-anchor"),
        pytest.param(lambda x: solve_periodic(SQUARE, PeriodicFn.constant(0.0),
                                              InitialValue(x)),
                     id="fibre-initial-value"),
        pytest.param(lambda x: solve_periodic(SQUARE, PeriodicFn.constant(0.0),
                                              Average(x)),
                     id="fibre-average"),
        pytest.param(lambda x: _search_problem(target=[x, 0.0]),
                     id="search-target"),
        pytest.param(lambda x: _search_problem(family_params=[0.5, x]),
                     id="search-family-params"),
        pytest.param(lambda x: _search_problem(residual_tol=x),
                     id="search-residual-tol"),
    ])
    def test_entry_points_reject_non_finite_numbers(self, call, bad):
        # a nan or an infinity is a precondition violation, not an answer
        with pytest.raises(PreconditionError, match="finite"):
            call(bad)


class TestSearchProblemEdges:
    @pytest.mark.parametrize("field, value", [
        ("target", [0.0, float("nan")]),
        ("family_params", [float("inf"), 0.1]),
        ("residual_tol", float("nan")),
        ("residual_tol", -1e-10),
    ])
    def test_message_names_the_field(self, field, value):
        # a nan target or parameter would otherwise surface one SVD step
        # later as a complaint about the ansatz's coefficients
        with pytest.raises(PreconditionError, match=field):
            _search_problem(**{field: value})

    def test_finite_fields_build(self):
        problem = _search_problem(residual_tol=0.0)
        assert problem.target.tolist() == [0.0, 0.0]


def _search_problem(**fields):
    # a quartic (b, c) problem with two targets, ``fields`` replaced
    kw = dict(family=ParamFamily.quartic_bc(),
              ansatz=FourierAnsatz(0.1, [0.2]), target=[0.0, 0.0],
              family_params=[0.5, 0.1])
    return SearchProblem(**{**kw, **fields})


class TestContactEdges:
    def test_identity_map_exceeds_kmax(self):
        # f = 0: the return map is the identity, every derivative vanishes
        rep = contact_order(ZERO, None, 0.3, kmax=3, h=1e-2)
        assert rep.exceeds_kmax
        assert rep.order is None

    def test_kmax_bounds(self):
        with pytest.raises(PreconditionError):
            contact_order(SQUARE, None, 0.0, kmax=6)

    @pytest.mark.parametrize("kmax", [2.5, True, 2.0, "2"])
    def test_kmax_must_be_an_integer(self, kmax):
        with pytest.raises(PreconditionError, match="integer kmax"):
            contact_order(SQUARE, None, 0.0, kmax=kmax, h=1e-2)


class TestIntegerArguments:
    # integer arguments go through core.require_int: a bool, an integral
    # float or a string is no integer (kmax, replicate's N and a trace's
    # count are checked by their own tests)
    @pytest.mark.parametrize("bad", [2.5, 3.0, True, "3"])
    @pytest.mark.parametrize("call", [
        pytest.param(lambda n: gamma_curve(CUBIC, n, -1.0, 1.0),
                     id="gamma-k"),
        pytest.param(lambda n: gamma_curve(CUBIC, 2, -1.0, 1.0, count=n),
                     id="gamma-count"),
        pytest.param(lambda n: count_solutions(SQUARE, None, -1.0, 1.0,
                                               scan_n=n, h=1e-2),
                     id="census-scan-n"),
        pytest.param(lambda n: sigma_hat(SQUARE, PeriodicFn.constant(0.1), n),
                     id="sigma-hat-k"),
        pytest.param(lambda n: seed_shat(SQUARE, n, [-1.0, 1.0]),
                     id="seed-k"),
        pytest.param(lambda n: FourierAnsatz.from_periodic(
            PeriodicFn.constant(0.1), n), id="from-periodic-harmonics"),
        pytest.param(lambda n: Term(n, FourierAnsatz(1.0)), id="term-power"),
        pytest.param(lambda n: CUBIC.eval(0.0, 1.0, n), id="eval-order"),
        pytest.param(lambda n: CUBIC.coeff_rows(np.zeros(2), order=n),
                     id="coeff-rows-order"),
    ])
    def test_non_integer_raises(self, call, bad):
        with pytest.raises(PreconditionError, match="need an integer"):
            call(bad)

    @pytest.mark.parametrize("call", [
        pytest.param(lambda: Term(-1, FourierAnsatz(1.0)), id="term-power"),
        pytest.param(lambda: CUBIC.eval(0.0, 1.0, -1), id="eval-order"),
        pytest.param(lambda: CUBIC.coeff_rows(np.zeros(2), order=-1),
                     id="coeff-rows-order"),
    ])
    def test_negative_raises(self, call):
        with pytest.raises(PreconditionError, match="need an integer"):
            call()

    @pytest.mark.parametrize("n", [16.0, True, 32.5, "16"])
    def test_grid_size(self, n):
        with pytest.raises(PreconditionError, match="integer grid size"):
            Grid(n)


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

    @pytest.mark.parametrize("a, b", [([[0.5, 0.2]], ()), ([0.5], [[0.2]]),
                                      (np.zeros((2, 2)), np.zeros((2, 2)))])
    def test_coefficients_must_be_1d(self, a, b):
        with pytest.raises(PreconditionError, match="1-D"):
            FourierAnsatz(1.0, a, b)

    @pytest.mark.parametrize("coeff", [3.0, 3, np.float64(3.0), None,
                                       [1.0, 0.5]])
    def test_term_coefficient_must_be_a_series(self, coeff):
        # rejected where it is built, before Nonlinearity reads the
        # coefficient as a series
        with pytest.raises(PreconditionError, match="FourierAnsatz"):
            Nonlinearity([Term(2, coeff)])

    def test_grid_validation(self):
        with pytest.raises(PreconditionError):
            Grid(8)
        with pytest.raises(PreconditionError):
            Grid(100)


class TestSeedEdges:
    def test_epsilon_domain(self):
        with pytest.raises(PreconditionError):
            seed_shat(SQUARE, 1, [-1.0, 1.0], epsilon=0.6)

    @pytest.mark.parametrize("N", [0, -3, 2.5, float("nan"), True])
    def test_replicate_needs_an_integer_of_one_or_more(self, N):
        with pytest.raises(PreconditionError, match="integer N >= 1"):
            replicate(PeriodicFn.constant(0.0), N)


class TestSolveEdges:
    def test_nu_hint_speeds_same_answer(self):
        # the hint trace_pairs passes from one point to the next
        vt = PeriodicFn.from_callable(lambda t: np.cos(TWO_PI * t))
        f = Nonlinearity.polynomial([0, 1])
        fp1 = _solve_average(f, vt, 0.5)
        fp2 = _solve_average(f, vt, 0.5, fp1.nu)
        assert fp2.nu == pytest.approx(fp1.nu, abs=1e-10)
        assert fp2.diagnostics.flows <= fp1.diagnostics.flows

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
