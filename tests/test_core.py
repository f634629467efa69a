import json

import numpy as np
import pytest

from morinode import (FourierAnsatz, Grid, Nonlinearity, ParamFamily,
                      PeriodicFn, SearchProblem, core, cumulative, mean,
                      odeint)
from morinode.core import (MalformedFileError, PreconditionError, Term,
                           UnsupportedOrderError, ansatz_from_json,
                           ansatz_to_json, nonlinearity_from_json)


class TestEvalF:
    def test_power_rule(self):
        f = Nonlinearity.polynomial([0, 0, 1])          # x^2
        assert f.eval(0.0, 3.0, 1) == pytest.approx(6.0, abs=0)

    def test_quartic_first_derivative_at_zero(self, quartic):
        assert quartic.eval(0.0, 0.0, 1) == pytest.approx(-0.3, abs=0)

    def test_quartic_third_derivative(self, quartic):
        assert quartic.eval(0.0, 1.0, 3) == pytest.approx(24.0, abs=0)

    def test_order_above_five_rejected(self, quartic):
        with pytest.raises(UnsupportedOrderError):
            quartic.eval(0.0, 1.0, 6)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        f = Nonlinearity([Term(0, FourierAnsatz(0.5, [0.3], [0.1])),
                          Term(1, FourierAnsatz(-1.0, [], [0.2])),
                          Term(3, FourierAnsatz(0.7, [0.05]))])
        for _ in range(25):
            t = float(rng.uniform(0, 1))
            x = float(rng.uniform(-2, 2))
            for k in range(1, 6):
                d = 1e-2 if k >= 3 else 1e-4
                grid_pts = x + d * np.arange(-3, 4)
                vals = np.array([f.eval(t, xx, k - 1) for xx in grid_pts])
                fd = (vals[4] - vals[2]) / (2 * d)
                exact = f.eval(t, x, k)
                assert fd == pytest.approx(exact, rel=1e-4, abs=1e-6)

    def test_builtin_cosh(self):
        f = Nonlinearity.from_builtin("cosh2_cos")
        t, x = 0.1, 0.7
        base = 2 * np.pi * np.cos(2 * np.pi * t)
        assert f.eval(t, x, 0) == pytest.approx(base * np.cosh(x) ** 2)
        assert f.eval(t, x, 1) == pytest.approx(base * np.sinh(2 * x))
        assert f.eval(t, x, 2) == pytest.approx(base * 2 * np.cosh(2 * x))
        assert not f.autonomous

    def test_autonomous_flag(self, quartic):
        assert quartic.autonomous
        g = Nonlinearity([Term(1, FourierAnsatz(0.0, [1.0]))])
        assert not g.autonomous


def _horner_loop(coeffs, x):
    # Horner's rule as a loop: the oracle of core.horner and of the
    # generated kernels
    acc = coeffs[-1]
    for m in range(len(coeffs) - 2, -1, -1):
        acc = acc * x + coeffs[m]
    return acc


def _hex(values, shape):
    return [float.hex(float(x)) for x in np.broadcast_to(values, shape)]


class TestHornerKernel:
    @pytest.mark.parametrize("width", [*range(1, 13), 300])
    def test_bitwise_equal_to_the_loop(self, width):
        rng = np.random.default_rng(width)
        row = (rng.standard_normal(width) * 10.0 ** rng.uniform(-3, 3, width))
        xs = np.array([0.0, -0.0, 0.37, -1.9, 3.5, 1e3, -1e120, 1e200,
                       np.inf, -np.inf, np.nan])
        with np.errstate(all="ignore"):
            for coeffs in (row.tolist(), row):
                for x in (*xs.tolist(), *xs, xs):
                    got, expect = core.horner(coeffs, x), _horner_loop(coeffs,
                                                                       x)
                    assert type(got) is type(expect)
                    assert np.array_equal(got, expect, equal_nan=True)

    @pytest.mark.parametrize("width", [*range(1, 13), 300])
    def test_array_twin_bitwise_equal_to_the_loop(self, width):
        rng = np.random.default_rng(width)
        row = (rng.standard_normal(width) * 10.0 ** rng.uniform(-3, 3, width))
        # and a row of signed zeros, whose sums keep the sign of each step,
        # and one of signed zeros, units and other values, which
        # odeint._pattern specialises the kernels on; not bare, so a +0.0
        # constant term is added, as full Horner's rule adds it
        zeros = np.where(rng.random(width) < 0.5, -0.0, 0.0)
        units = rng.choice([0.0, -0.0, 1.0, 1.0, -2.5], width)
        xs = np.array([0.0, -0.0, 0.37, -1.9, 3.5, 1e3, -1e120, 1e200,
                       np.inf, -np.inf, np.nan])
        names = [f"r[{m}]" for m in range(width)]
        with np.errstate(all="ignore"):
            for floats in (row, zeros, units):
                floats = floats.tolist()
                for pattern in ("", odeint._pattern(floats, False)):
                    # the lines odeint's many-lane loop inlines, on
                    # coefficients r[0] .. r[w-1]: there Python floats or
                    # 0-d arrays; and the scalar loop's expression
                    lines, value = odeint._horner_array_source(
                        names, "x", "out", pattern)
                    scope = {"add": np.add, "multiply": np.multiply}
                    exec("def kernel(r, x, out):\n"
                         + "".join(f"    {line}\n" for line in lines)
                         + f"    return {value}\n", scope)
                    kernel = scope["kernel"]
                    for coeffs in (floats, tuple(map(np.array, floats))):
                        out = np.empty_like(xs)
                        got = kernel(coeffs, xs, out)
                        expect = _horner_loop(coeffs, xs)
                        # width 1 returns the float r[0], as core.horner
                        # does
                        assert (got is out if width > 1
                                else type(got) is type(expect))
                        assert _hex(got, xs.shape) == _hex(expect, xs.shape)
                    # one parenthesis per coefficient, up to the loops' cap
                    if width <= odeint.MAX_LOOP_DEGREE + 1:
                        scalar = eval("lambda r, x: " + odeint._horner_source(
                            names, "x", pattern))
                        assert _hex([scalar(floats, x) for x in xs.tolist()],
                                    xs.shape) == _hex(expect, xs.shape)


class TestMean:
    def test_constant(self):
        assert mean(PeriodicFn.constant(5.0)) == 5.0

    def test_zero_mean_harmonic(self):
        u = PeriodicFn.from_callable(lambda t: np.cos(2 * np.pi * t))
        assert abs(mean(u)) < 1e-15

    def test_sin_squared(self):
        u = PeriodicFn.from_callable(lambda t: np.sin(2 * np.pi * t) ** 2)
        assert mean(u) == pytest.approx(0.5, abs=1e-12)


class TestCumulative:
    def test_constant_is_linear(self):
        c = cumulative(PeriodicFn.constant(1.0))
        t = np.linspace(0, 1, 11)
        assert np.allclose(c(t), t, atol=1e-14)

    def test_cosine_antiderivative(self):
        u = PeriodicFn.from_callable(lambda t: np.cos(2 * np.pi * t))
        c = cumulative(u)
        t = Grid().nodes
        expect = np.sin(2 * np.pi * t) / (2 * np.pi)
        assert np.max(np.abs(c.at_nodes - expect)) < 1e-6

    def test_value_at_one_is_mean(self):
        rng = np.random.default_rng(3)
        vals = rng.standard_normal(1024)
        u = PeriodicFn(Grid(), vals)
        c = cumulative(u)
        assert c(1.0) == pytest.approx(mean(u), abs=1e-12)


class TestSeries:
    @pytest.mark.parametrize("M", [1, 4, 8])
    def test_coordinates(self, M):
        x = np.random.default_rng(M).standard_normal(1 + 2 * M)
        ans = FourierAnsatz.from_vector(x)
        assert np.array_equal(ans.vector(), x)
        grid = Grid(256)
        gap = ans.sample(grid).values - x @ FourierAnsatz.basis(grid, M)
        assert np.max(np.abs(gap)) <= 1e-13
        problem = SearchProblem(family=ParamFamily.quartic_bc(), ansatz=ans,
                                target=np.zeros(2), family_params=[4.0, -0.3])
        assert problem._coordinate_names()[-(1 + 2 * M):] == ans.names()
        with pytest.raises(PreconditionError):
            FourierAnsatz.from_vector(x[:-1])

    def test_unequal_lists_are_zero_padded(self):
        ans = FourierAnsatz(0.5, [1.0, 2.0], [3.0])
        assert ans.names() == ["a0", "a1", "b1", "a2", "b2"]
        assert ans.vector().tolist() == [0.5, 1.0, 3.0, 2.0, 0.0]

    def test_coefficients_are_read_only(self, butterfly_ansatz):
        with pytest.raises(ValueError):
            butterfly_ansatz.a[0] = 0.0
        with pytest.raises(ValueError):
            butterfly_ansatz.b[0] = 0.0


class TestSpectral:
    def test_ansatz_roundtrip(self):
        rng = np.random.default_rng(11)
        M = 100  # < n/4
        ans = FourierAnsatz(rng.standard_normal(),
                            rng.standard_normal(M), rng.standard_normal(M))
        u = ans.sample(Grid(1024))
        back = FourierAnsatz.from_periodic(u, M)
        assert abs(back.a0 - ans.a0) < 1e-12
        assert np.max(np.abs(back.a - ans.a)) < 1e-12
        assert np.max(np.abs(back.b - ans.b)) < 1e-12

    def test_offgrid_eval_band_limited(self):
        ans = FourierAnsatz(0.3, np.array([1.0, 0.0, -0.5]),
                            np.array([0.0, 0.25, 0.0]))
        u = ans.sample(Grid(256))
        t = np.array([0.03, 0.41, 0.777])
        assert np.allclose(u.eval(t), ans.eval(t), atol=1e-12)

    def test_blocked_eval_matches_pointwise(self):
        # 1,500 points are summed in blocks of EVAL_BUDGET // harmonics
        # points, the last one partial; each point's sum is the one-point
        # sum, bit for bit
        u = PeriodicFn.from_callable(lambda t: np.where(t < 0.5, 0.3, -0.3),
                                     Grid(1024))
        block = core.EVAL_BUDGET // len(u._fourier[0])
        assert 1 < block < 1500 and 1500 % block
        t = np.linspace(-0.2, 1.3, 1500)
        pointwise = np.array([u.eval(x) for x in t])
        for shape in ((1500,), (30, 50)):
            vals = u.eval(t.reshape(shape))
            assert vals.shape == shape
            assert np.array_equal(vals.ravel(), pointwise)

    @pytest.mark.parametrize("fn", [
        lambda t: np.where(t < 0.5, 0.3, -0.3),
        # harmonics 0 to 4
        lambda t: (0.1 + 0.4 * np.cos(2 * np.pi * t)
                   + 0.2 * np.cos(4 * np.pi * t)
                   + 0.05 * np.sin(6 * np.pi * t)
                   - 0.1 * np.sin(8 * np.pi * t))],
        ids=["square-wave", "five-harmonics"])
    def test_eval_blocks_do_not_change_the_sums(self, fn, monkeypatch):
        # a point's row sum does not depend on how many rows its block has
        u = PeriodicFn.from_callable(fn, Grid(1024))
        t = np.linspace(-0.2, 1.3, 1500)
        expect = u.eval(t)
        for budget in (1, 7 * len(u._fourier[0]), 10 ** 7):
            monkeypatch.setattr(core, "EVAL_BUDGET", budget)
            assert np.array_equal(u.eval(t), expect), budget

    def test_spectral_derivative(self):
        u = PeriodicFn.from_callable(lambda t: np.sin(2 * np.pi * t))
        du = u.derivative()
        expect = 2 * np.pi * np.cos(2 * np.pi * Grid().nodes)
        assert np.max(np.abs(du.values - expect)) < 1e-9


class TestPeriodicFn:
    @pytest.mark.parametrize("values", [np.zeros(15), np.zeros((16, 1)),
                                        np.zeros(32)], ids=["short", "2-d",
                                                            "long"])
    def test_wrong_shape_rejected(self, values):
        with pytest.raises(PreconditionError, match="expected 16 samples"):
            PeriodicFn(Grid(16), values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected(self, bad):
        values = np.zeros(16)
        values[5] = bad
        with pytest.raises(PreconditionError, match="must be finite"):
            PeriodicFn(Grid(16), values)

    def test_samples_are_a_read_only_copy(self):
        values = np.arange(16.0)
        u = PeriodicFn(Grid(16), values)
        values[0] = 7.0
        assert u.values[0] == 0.0
        with pytest.raises(ValueError):
            u.values[0] = 1.0
        with pytest.raises(AttributeError):
            u.values = np.zeros(16)

    def test_equality_is_identity(self):
        u = PeriodicFn.constant(1.0, Grid(16))
        assert u != PeriodicFn.constant(1.0, Grid(16))
        assert {u: 1}[u] == 1
        assert repr(u) == "PeriodicFn(n=16, mean=1)"


class TestJson:
    def test_nonlinearity_roundtrip(self, quartic):
        # the document of x^4 - 4x^2 - 0.3x reads as the quartic
        f2 = nonlinearity_from_json(json.loads(
            '{"terms": [{"power": 4, "a0": 1.0}, {"power": 2, "a0": -4.0},'
            ' {"power": 1, "a0": -0.3}]}'))
        xs = np.linspace(-2, 2, 7)
        assert np.allclose(f2.eval(0.0, xs, 0), quartic.eval(0.0, xs, 0))

    def test_time_dependent_nonlinearity_roundtrip(self):
        # cosine and sine lists of different lengths, either way round or
        # left out
        f = Nonlinearity([Term(0, FourierAnsatz(0.5, [0.3, -0.2], [0.1])),
                          Term(1, FourierAnsatz(-1.0, [], [0.2, 0.4])),
                          Term(4, FourierAnsatz(0.7))])
        f2 = nonlinearity_from_json(json.loads(
            '{"terms": [{"power": 0, "a0": 0.5, "cos": [0.3, -0.2],'
            ' "sin": [0.1]}, {"power": 1, "a0": -1.0, "cos": [],'
            ' "sin": [0.2, 0.4]}, {"power": 4, "a0": 0.7}]}'))
        assert not f2.autonomous
        t, x = np.meshgrid(np.linspace(0, 1, 17), np.linspace(-2, 2, 9))
        for order in range(6):
            assert np.array_equal(f2.eval(t, x, order), f.eval(t, x, order))

    def test_integral_float_power_reads_as_int(self):
        f = nonlinearity_from_json({"terms": [{"power": 2.0, "a0": 1.0}]})
        assert [(type(t.power), t.power) for t in f.terms] == [(int, 2)]

    @pytest.mark.parametrize("doc", [[1, 2], {"terms": [7]}])
    def test_nonlinearity_not_an_object(self, doc):
        with pytest.raises(MalformedFileError):
            nonlinearity_from_json(doc)

    def test_ansatz_roundtrip(self, butterfly_ansatz):
        doc = ansatz_to_json(butterfly_ansatz)
        a2 = ansatz_from_json(json.loads(json.dumps(doc)))
        assert a2.a0 == butterfly_ansatz.a0
        assert np.array_equal(a2.a, butterfly_ansatz.a)
