import numpy as np
import pytest

from morinode import (Average, FourierAnsatz, Grid, InitialValue,
                      Nonlinearity, PeriodicFn, Term, eigen_w, integrate, mean,
                      solve_periodic, solve_w)
from morinode.core import PreconditionError, TamenessViolationError
from morinode.fibre import (MAX_BRACKET_DOUBLINGS, PERIODICITY_TOL, _Bracket,
                            trace_pairs, trace_points)
from morinode.odeint import _flow_scalar

IDENTITY = Nonlinearity.polynomial([0, 1])
CUBIC_MINUS = Nonlinearity.polynomial([0, -1, 0, 1])   # x^3 - x
SQUARE = Nonlinearity.polynomial([0, 0, 1])

TWO_PI = 2 * np.pi


def cos_forcing(grid_n=1024):
    return PeriodicFn.from_callable(lambda t: np.cos(TWO_PI * t), Grid(grid_n))


# (nu, u(0)) along the 5g trace of x^3 - x over 0.4 cos(2 pi t) at averages
# linspace(-1.2, 1.2, 20), from the bisection and regula falsi solver that
# preceded the Newton iteration, run with its average tolerance at 1e-13
TRACE_5G_REFERENCE = (
    (-0.5336993160929409, -1.1741134375752398),
    (-0.16971367244770735, -1.0524287853512697),
    (0.09173197824284303, -0.9316221599626663),
    (0.2626979273077452, -0.8110898152814566),
    (0.35521465728131074, -0.6902541742237865),
    (0.3813077244072704, -0.568701653332872),
    (0.35301660590684203, -0.44621639863271995),
    (0.2824016733979486, -0.32273560987015104),
    (0.18154228384682108, -0.1982793981061612),
    (0.06253121367641615, -0.07289084163056128),
    (-0.06253121367642331, 0.05340239361109178),
    (-0.181542283846855, 0.18060621681179947),
    (-0.2824016733979537, 0.3087610738182076),
    (-0.35301660590686973, 0.43792505402273235),
    (-0.3813077244072705, 0.5681344983457595),
    (-0.3552146572813438, 0.6993386990753476),
    (-0.2626979273077486, 0.8313192839513033),
    (-0.0917319782429064, 0.9636345030354936),
    (0.1697136724474957, 1.0956531587292),
    (0.5336993160927355, 1.2267133628525053),
)


@pytest.fixture(scope="module")
def trace_5g():
    vt = PeriodicFn.from_callable(lambda t: 0.4 * np.cos(TWO_PI * t))
    return trace_points(CUBIC_MINUS, vt, -1.2, 1.2, 20)


class TestSolvePeriodic:
    def test_linear_closed_form(self):
        # u' + u = cos(2 pi t) + nu with u(0) = 0.5:
        # u = nu + (cos + 2 pi sin)/(1 + 4 pi^2), nu = 0.5 - 1/(1 + 4 pi^2)
        vt = cos_forcing()
        fp = solve_periodic(IDENTITY, vt, InitialValue(0.5))
        denom = 1.0 + 4 * np.pi ** 2
        assert fp.nu == pytest.approx(0.5 - 1.0 / denom, abs=1e-9)
        t = Grid().nodes
        expect = fp.nu + (np.cos(TWO_PI * t) + TWO_PI * np.sin(TWO_PI * t)) / denom
        assert np.max(np.abs(fp.u.values - expect)) < 1e-8

    def test_constant_fibre(self):
        vt = PeriodicFn.constant(0.0)
        f = CUBIC_MINUS
        fp = solve_periodic(f, vt, Average(0.7))
        assert np.max(np.abs(fp.u.values - 0.7)) < 1e-8
        assert fp.nu == pytest.approx(0.7 ** 3 - 0.7, abs=1e-8)

    def test_recovers_butterfly_solution(self, refined_butterfly):
        f, ans, _ = refined_butterfly
        grid = Grid(1024)
        u = ans.sample(grid)
        t = grid.nodes
        v_vals = ans.derivative_eval(t) + f.on_grid(u)
        vt = PeriodicFn(grid, v_vals - np.mean(v_vals))
        fp = solve_periodic(f, vt, InitialValue(float(u.values[0])))
        assert np.max(np.abs(fp.u.values - u.values)) < 1e-5
        assert fp.nu == pytest.approx(np.mean(v_vals), abs=1e-7)

    def test_uniqueness_between_constraints(self):
        vt = cos_forcing()
        f = CUBIC_MINUS
        fp1 = solve_periodic(f, vt, InitialValue(0.3))
        fp2 = solve_periodic(f, vt, Average(mean(fp1.u)))
        assert fp2.nu == pytest.approx(fp1.nu, abs=1e-7)
        assert np.max(np.abs(fp1.u.values - fp2.u.values)) < 1e-6

    def test_wild_nonlinearity_raises(self):
        # cos(2 pi t) x^2 escapes from 7 within the period, so no nu closes
        # the orbit through u(0) = 7
        wild = Nonlinearity([Term(2, FourierAnsatz(0.0, [1.0]))])
        vt = PeriodicFn.constant(0.0, Grid(1024))
        with pytest.raises(TamenessViolationError):
            solve_periodic(wild, vt, InitialValue(7.0))

    def test_stalled_closure_above_periodicity_tol_raises(self):
        # this solve stalls with a best closure gap of 8.6e-11 after 27
        # flows; a gap above PERIODICITY_TOL is a failed solve, not an answer
        f = Nonlinearity.polynomial([0.5619, 1.3948, 0.3537, -1.5119,
                                     -1.0423, 0.328])
        grid = Grid(256)
        t = grid.nodes
        v = 2.5765 * (np.cos(TWO_PI * t + 4.0374)
                      + 0.16365 * np.sin(2 * TWO_PI * t))
        vt = PeriodicFn(grid, v - np.mean(v))
        with pytest.raises(TamenessViolationError, match="stalled"):
            solve_periodic(f, vt, InitialValue(1.6012))

    def test_zero_mean_is_relative_to_the_forcing(self):
        # a forcing of size 5e6 made mean-zero keeps a mean of -2.3e-10 from
        # rounding, above an absolute 1e-10; a real offset is still refused
        grid = Grid(1024)
        v = FourierAnsatz(0.0, [5e6, 1e6, 2e5], [1e6, 0.0, 5e5]).sample(grid)
        vt = PeriodicFn(grid, v.values - mean(v))
        assert abs(mean(vt)) > 1e-10
        fp = solve_periodic(Nonlinearity.polynomial([0, 1000.0]), vt,
                            InitialValue(0.0))
        assert fp.diagnostics.flows == 3
        assert fp.diagnostics.closure_gap <= PERIODICITY_TOL
        with pytest.raises(PreconditionError, match="zero mean"):
            solve_periodic(IDENTITY, PeriodicFn(grid, vt.values + 1e-2),
                           InitialValue(0.0))

    def test_closure_tolerance_scales_with_the_orbit(self):
        # u' + u = v with max |u| = 4.6e5: rounding in u(1) keeps the best
        # closure at 1.0e-11, above PERIODICITY_TOL but far below its
        # scaled bound PERIODICITY_TOL max |u|
        grid = Grid(1024)
        v = FourierAnsatz(0.0, [2e6, 1e6, 3e5], [1e6, 0.0, 5e5]).sample(grid)
        fp = solve_periodic(IDENTITY, PeriodicFn(grid, v.values - mean(v)),
                            InitialValue(0.0))
        scale = np.max(np.abs(fp.u.values))
        assert scale > 4e5 and fp.diagnostics.flows == 8
        assert PERIODICITY_TOL < fp.diagnostics.closure_gap \
            <= PERIODICITY_TOL * scale

    def test_stored_samples_match_forcing_plus_nu(self):
        # the solve tabulates vtilde once and adds nu per flow; the stored
        # orbit is the flow of vtilde + nu evaluated at every stage time,
        # at the grid's node step
        grid = Grid(256)
        square = PeriodicFn(grid, np.where(grid.nodes < 0.5, 0.3, -0.3))
        fp = solve_periodic(CUBIC_MINUS, square, InitialValue(0.25))
        flow = _flow_scalar(CUBIC_MINUS, lambda t: square.eval(t) + fp.nu,
                            0.25, 0.0, 1.0, 1.0 / 256, store=True)
        assert not flow.blew
        assert np.array_equal(fp.u.values, np.asarray(flow.samples[:-1]))

    def test_periodicity_residual(self):
        vt = cos_forcing()
        fp = solve_periodic(SQUARE, vt, InitialValue(0.2))
        # the sup-norm equation residual on the grid
        assert fp.residual(SQUARE) < 1e-9


class TestNewtonSolves:
    def test_trace_matches_reference(self, trace_5g):
        for fp, (nu, u0) in zip(trace_5g, TRACE_5G_REFERENCE):
            assert abs(fp.nu - nu) <= 1e-10
            assert abs(float(fp.u.values[0]) - u0) <= 1e-10

    def test_trace_closes_and_hits_averages(self, trace_5g):
        for a, fp in zip(np.linspace(-1.2, 1.2, 20), trace_5g):
            assert abs(mean(fp.u) - a) <= 1e-12
            assert fp.diagnostics.mean_gap == abs(mean(fp.u) - a)
            assert fp.diagnostics.closure_gap <= PERIODICITY_TOL
            assert fp.residual(CUBIC_MINUS) <= 1e-9

    def test_trace_work(self, trace_5g):
        flows = [fp.diagnostics.flows for fp in trace_5g]
        assert max(flows) <= 15
        for fp in trace_5g:
            d = fp.diagnostics
            assert d.flows == 1 + d.newton_steps + d.expansions + d.bisections

    def test_cold_average_solve(self):
        # no nu hint: the start is the constant orbit's nu at c = a
        vt = PeriodicFn.from_callable(lambda t: 0.4 * np.cos(TWO_PI * t))
        fp = solve_periodic(CUBIC_MINUS, vt, Average(0.9))
        assert abs(mean(fp.u) - 0.9) <= 1e-12
        assert fp.diagnostics.closure_gap <= PERIODICITY_TOL
        assert fp.residual(CUBIC_MINUS) <= 1e-9
        assert fp.diagnostics.flows <= 15

    def test_cold_square_wave_initial_value(self):
        # rough forcing: the orbit of vtilde + nu re-integrated on its own
        # closes, whatever the spectral residual says
        grid = Grid()
        square = PeriodicFn(grid, np.where(grid.nodes < 0.5, 0.3, -0.3))
        for c in (-0.5, 0.0, 0.5):
            fp = solve_periodic(CUBIC_MINUS, square, InitialValue(c))
            traj = integrate(CUBIC_MINUS, lambda t: square.eval(t) + fp.nu,
                             c, h=1.0 / grid.n)
            assert abs(traj.final() - c) <= 1e-8
            assert fp.diagnostics.closure_gap <= PERIODICITY_TOL
            assert fp.diagnostics.mean_gap is None
            assert fp.diagnostics.flows <= 15


    def test_stiff_quintic_average(self):
        # u' + u^5 = 0.5 cos(2 pi t) + nu at h = 1/256: bracket doubling out
        # to |nu| ~ f(|c| + 2) reaches flows that overflow within a step, so
        # the solve has to stay near its Newton iterates
        quintic = Nonlinearity.polynomial([0, 0, 0, 0, 0, 1])
        grid = Grid(256)
        vt = PeriodicFn.from_callable(lambda t: 0.5 * np.cos(TWO_PI * t),
                                      grid)
        fp = solve_periodic(quintic, vt, Average(1.2))
        assert abs(mean(fp.u) - 1.2) <= 1e-12
        u0 = float(fp.u.values[0])
        traj = integrate(quintic, lambda t: vt.eval(t) + fp.nu, u0,
                         h=1.0 / grid.n)
        assert abs(traj.final() - u0) <= 1e-11


class TestBracket:
    # the open-side steps of the sign bracket, without a flow
    def test_doubles_out_of_a_lower_end(self):
        b = _Bracket("nu", 1.0)
        b.lo = 0.0
        assert b.next(0.0, np.nan, 1.0) == (1.0, "expansions")
        assert b.next(1.0, np.nan, 1.0) == (2.0, "expansions")
        assert b.doublings == 2

    def test_both_ends_open_steps_toward(self):
        b = _Bracket("u(0)", 1.0)
        assert b.next(0.5, np.nan, -1.0) == (-0.5, "expansions")

    def test_doubling_cap_raises(self):
        b = _Bracket("nu", 1.0)
        b.lo = 0.0
        for _ in range(MAX_BRACKET_DOUBLINGS):
            b.next(0.0, np.nan, 1.0)
        with pytest.raises(TamenessViolationError,
                           match="no upper bracket for nu"):
            b.next(0.0, np.nan, 1.0)


class TestFibreGeometry:
    def test_monotone_average_in_initial_value(self):
        vt = cos_forcing()
        f = CUBIC_MINUS
        cs = np.linspace(-1.2, 1.2, 20)
        means = [mean(solve_periodic(f, vt, InitialValue(float(c))).u)
                 for c in cs]
        assert np.all(np.diff(means) > 0)

    def test_escape_along_fibre(self):
        # min_t u_a grows without bound as the average grows
        vt = cos_forcing()
        f = CUBIC_MINUS
        pts = trace_points(f, vt, 2.0, 6.0, 5)
        mins = [float(np.min(fp.u.values)) for fp in pts]
        assert mins[-1] > 1.5
        assert np.all(np.diff(mins) > 0)

    def test_adapted_coordinates_identity(self):
        # the mean-zero part of F(u_a) equals vtilde along the whole trace
        vt = cos_forcing()
        f = CUBIC_MINUS
        pts = trace_points(f, vt, -1.0, 1.0, 8)
        for fp in pts:
            assert fp.residual(f) < 1e-9

    def test_trace_constants_fibre_squares(self):
        vt = PeriodicFn.constant(0.0)
        for a, fp in trace_pairs(SQUARE, vt, -1.0, 1.0, 9):
            assert fp.phi_bar == pytest.approx(a ** 2, abs=1e-7)

    def test_trace_cubic_two_folds(self):
        vt = PeriodicFn.constant(0.0)
        for a, fp in trace_pairs(CUBIC_MINUS, vt, -1.5, 1.5, 13):
            assert fp.phi_bar == pytest.approx(a ** 3 - a, abs=1e-7)

    def test_trace_deforms_continuously(self):
        f = CUBIC_MINUS
        averages = np.linspace(-1.5, 1.5, 9)
        base = np.array([a ** 3 - a for a in averages])
        for eps in (0.2, 0.05):
            vt = PeriodicFn.from_callable(lambda t: eps * np.cos(TWO_PI * t))
            trace = trace_pairs(f, vt, -1.5, 1.5, 9)
            dist = max(abs(fp.phi_bar - b) for (_, fp), b in zip(trace, base))
            assert dist < 2.0 * eps

    @pytest.mark.parametrize("count", [0, -3, 2.5, 3.0, True])
    def test_trace_needs_an_integer_count_of_one_or_more(self, count):
        with pytest.raises(PreconditionError, match="integer count"):
            trace_pairs(SQUARE, PeriodicFn.constant(0.0), -1.0, 1.0, count)


class TestSolveW:
    # on a constant u, omega = m and alpha = Sigma_1 m = f'(u) m
    @pytest.mark.parametrize("f", [CUBIC_MINUS] + [
        Nonlinearity.polynomial([0.0, s]) for s in (1e-9, -40.0, -800.0, 800.0)
    ], ids=["-0.25", "1e-9", "-40", "-800", "800"])
    def test_constant_solution(self, f):
        u = PeriodicFn.constant(0.5)
        wf = solve_w(f, u, m=1.0)
        sigma_1 = float(f.eval(0.0, 0.5, 1))
        assert np.max(np.abs(wf.omega.values - 1.0)) <= 1e-13
        assert abs(wf.alpha - sigma_1) <= 1e-13 * abs(sigma_1)

    def test_residual_far_from_the_critical_set(self):
        f = Nonlinearity.polynomial([0.0, -40.0, 0.5])   # Sigma_1 = -40
        u = PeriodicFn.from_callable(lambda t: np.cos(TWO_PI * t))
        wf = solve_w(f, u, m=1.0)
        w = wf.omega.values
        resid = wf.omega.derivative().values + f.on_grid(u, 1) * w - wf.alpha
        assert np.max(np.abs(resid)) <= 1e-8
        assert abs(mean(wf.omega) - 1.0) <= 1e-10

    @pytest.mark.parametrize("m", [np.nan, np.inf, -np.inf])
    def test_non_finite_mean_raises(self, m):
        with pytest.raises(PreconditionError, match="mean m"):
            solve_w(SQUARE, PeriodicFn.constant(0.5), m=m)

    def test_residual_of_ode(self):
        rng = np.random.default_rng(17)
        f = Nonlinearity.polynomial([0.1, -0.5, 0.2, 0.3])
        for _ in range(5):
            u = PeriodicFn.from_callable(
                lambda t: rng.normal() + 0.5 * np.cos(TWO_PI * t)
                + 0.3 * np.sin(2 * TWO_PI * t))
            wf = solve_w(f, u, m=1.0)
            gv = f.on_grid(u, 1)
            resid = wf.omega.derivative().values + gv * wf.omega.values - wf.alpha
            assert np.max(np.abs(resid)) < 1e-8
            assert mean(wf.omega) == pytest.approx(1.0, abs=1e-10)

    def test_linearity_in_mean(self):
        f = SQUARE
        u = PeriodicFn.from_callable(lambda t: 0.4 + 0.2 * np.sin(TWO_PI * t))
        w1 = solve_w(f, u, m=1.0)
        w2 = solve_w(f, u, m=2.0)
        assert np.allclose(w2.omega.values, 2 * w1.omega.values, atol=1e-9)
        assert w2.alpha == pytest.approx(2 * w1.alpha, abs=1e-9)

    def test_critical_point_matches_eigenvector(self, refined_butterfly):
        # on the critical set, alpha = 0 and omega is w normalized to mean 1
        f, ans, _ = refined_butterfly
        u = ans.sample(Grid(1024))
        wf = solve_w(f, u, m=1.0)
        assert wf.alpha == 0.0
        pair = eigen_w(f, u)
        expect = pair.w.values / mean(pair.w)
        assert np.max(np.abs(wf.omega.values - expect)) < 1e-7

    def test_positivity(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            coeffs = rng.normal(size=4) * np.array([0.5, 1.0, 0.5, 0.3])
            f = Nonlinearity.polynomial(coeffs)
            u = PeriodicFn.from_callable(
                lambda t: rng.normal() * 0.5
                + 0.4 * np.cos(TWO_PI * t + rng.uniform(0, TWO_PI)))
            wf = solve_w(f, u, m=1.0)
            assert np.min(wf.omega.values) > 0
