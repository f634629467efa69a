import math

import numpy as np
import pytest

from morinode import (FourierAnsatz, Grid, Nonlinearity, ParamFamily,
                      PeriodicFn, SearchProblem, count_solutions, degree,
                      gauss_newton, odeint, search, sweep)
from morinode.core import PreconditionError, Term
from tests.conftest import (BUTTERFLY_B, BUTTERFLY_C, BUTTERFLY_COEFFS,
                            SIX_ROOT_COEFFS, ansatz_from, operator_rhs)

SQUARE = Nonlinearity.polynomial([0, 0, 1])
ZERO = Nonlinearity.polynomial([])


def rhs_from_ansatz(f, ans, n=1024):
    grid = Grid(n)
    t = grid.nodes
    return PeriodicFn(grid, ans.derivative_eval(t)
                      + np.asarray(f.eval(t, ans.eval(t), 0)))


class TestGaussNewton:
    def test_constant_root_of_squares(self):
        # one harmonic present but frozen: effectively the constants search
        problem = SearchProblem(
            family=ParamFamily.fixed(SQUARE),
            ansatz=FourierAnsatz(0.4, np.zeros(1), np.zeros(1)),
            target=np.array([0.0]), frozen=("a1", "b1"))
        res = gauss_newton(problem)
        assert res.converged
        assert res.coefficient("a0") == pytest.approx(0.0, abs=1e-10)

    def test_butterfly_reconvergence(self, butterfly_ansatz):
        b = butterfly_ansatz.b + 1e-3
        b[0] = 0.0  # gauge coordinate stays frozen at zero
        seed = FourierAnsatz(butterfly_ansatz.a0 + 1e-3,
                             butterfly_ansatz.a + 1e-3, b)
        problem = SearchProblem(
            family=ParamFamily.quartic_bc(), ansatz=seed, target=np.zeros(4),
            family_params=np.array([BUTTERFLY_B + 1e-3, BUTTERFLY_C + 1e-3]))
        res = gauss_newton(problem)
        assert res.converged
        assert res.residual_history[-1] < 1e-10
        assert len(res.residual_history) <= 100
        assert res.smallest_retained_sval > 1e-6
        assert abs(res.sigma5) > 1.0
        # one Jacobian per iterate, the converged one included, whose
        # singular values are the ones reported (from the same SVD call:
        # compute_uv=False rounds them differently, by about 1e-16)
        assert res.diagnostics["jacobian_builds"] == \
            res.diagnostics["iterations"] + 1 > 1
        _, own, _ = np.linalg.svd(search._jacobian(problem, res.params,
                                                   problem.free_mask()),
                                  full_matrices=False)
        assert np.array_equal(res.jacobian_svals, own)
        # minimum-norm steps keep the solution near the published point;
        # the perturbation's tangent component survives (about 1.4e-3)
        printed = np.concatenate([[BUTTERFLY_B, BUTTERFLY_C],
                                  [BUTTERFLY_COEFFS["a0"]],
                                  [BUTTERFLY_COEFFS["a1"], 0.0],
                                  [BUTTERFLY_COEFFS["a2"], BUTTERFLY_COEFFS["b2"]],
                                  [BUTTERFLY_COEFFS["a3"], BUTTERFLY_COEFFS["b3"]],
                                  [BUTTERFLY_COEFFS["a4"], BUTTERFLY_COEFFS["b4"]]])
        assert np.max(np.abs(res.params - printed)) < 5e-3

    def test_nearby_six_root_point(self, butterfly_ansatz):
        # frozen family, perturbed leading-functional targets: converges to
        # a nearby point on the same solution manifold
        problem = SearchProblem(
            family=ParamFamily.quartic_bc(), ansatz=butterfly_ansatz,
            target=np.array([-5e-7, 0.0, 8e-5, 0.0]),
            family_params=np.array([BUTTERFLY_B, BUTTERFLY_C]),
            frozen=("b", "c"), residual_tol=1e-12)
        res = gauss_newton(problem)
        assert res.converged
        assert res.residual_history[-1] < 1e-12
        published = ansatz_from(SIX_ROOT_COEFFS)
        got = np.concatenate([[res.coefficient("a0")],
                              res.params[3::2][:4], res.params[4::2][:4]])
        ref = np.concatenate([[published.a0], published.a, published.b])
        assert np.max(np.abs(got - ref)) < 1e-3

    def test_monotone_residuals(self, butterfly_ansatz):
        seed = FourierAnsatz(butterfly_ansatz.a0 + 1e-3,
                             butterfly_ansatz.a + 1e-3,
                             butterfly_ansatz.b + 1e-3)
        problem = SearchProblem(
            family=ParamFamily.quartic_bc(), ansatz=seed, target=np.zeros(4),
            family_params=np.array([BUTTERFLY_B, BUTTERFLY_C]))
        res = gauss_newton(problem)
        hist = res.residual_history
        assert all(b <= a * (1 + 1e-12) for a, b in zip(hist[3:], hist[4:]))

    def test_iteration_cap_returns_last_iterate(self, butterfly_ansatz,
                                                monkeypatch):
        # the bench's butterfly relocation stopped after two steps: the last
        # iterate is the best one, returned as evaluated
        monkeypatch.setattr(search, "MAX_GN_ITERATIONS", 2)
        b = butterfly_ansatz.b + 1e-3
        b[0] = 0.0
        problem = SearchProblem(
            family=ParamFamily.quartic_bc(),
            ansatz=FourierAnsatz(butterfly_ansatz.a0 + 1e-3,
                                 butterfly_ansatz.a + 1e-3, b),
            target=np.zeros(4), residual_tol=1e-13,
            family_params=np.array([BUTTERFLY_B + 1e-3, BUTTERFLY_C + 1e-3]))
        res = gauss_newton(problem)
        assert not res.converged and res.message == "iteration cap reached"
        hist = res.residual_history
        assert len(hist) == 3 and hist[-1] < 1e-8
        assert res.diagnostics["residual"] == min(hist)
        assert np.linalg.norm(problem.sigma_at(res.params)[0]) == min(hist)

    def test_vanishing_jacobian_stops(self):
        # f = x: Sigma_1 = 1 at every u and every higher derivative is 0, so
        # the Jacobian is 0 and no singular value is retained
        problem = SearchProblem(
            family=ParamFamily(((1, 1.0),), ()),
            ansatz=ansatz_from(BUTTERFLY_COEFFS), target=np.zeros(1))
        res = gauss_newton(problem)
        assert not res.converged
        assert res.message == "Jacobian vanishes; best iterate returned"
        assert res.smallest_retained_sval == 0.0
        assert res.jacobian_svals.tolist() == [0.0]
        assert res.residual_history == [1.0]
        assert np.array_equal(res.params, problem.pack())

    def test_seed_at_tolerance_gets_its_rank_tested(self):
        # f = x^2 at u = 0: Sigma_1 = 2 mean(u) meets the target 0 at the
        # seed, and the Jacobian there, (2, 0) in (a0, a1), is still built
        problem = SearchProblem(
            family=ParamFamily(((2, 1.0),), ()),
            ansatz=FourierAnsatz(0.0, np.zeros(1), np.zeros(1)),
            target=np.zeros(1))
        res = gauss_newton(problem)
        assert res.converged and res.residual_history == [0.0]
        assert res.jacobian_svals.tolist() == [2.0]
        assert res.smallest_retained_sval == 2.0
        assert res.diagnostics["jacobian_builds"] == 1

    def test_empty_target_raises(self):
        with pytest.raises(PreconditionError, match="target dimension"):
            SearchProblem(family=ParamFamily.fixed(SQUARE),
                          ansatz=FourierAnsatz(0.4), target=np.zeros(0))

    def test_unknown_frozen_names_raise(self, butterfly_ansatz):
        with pytest.raises(PreconditionError) as err:
            SearchProblem(family=ParamFamily.quartic_bc(),
                          ansatz=butterfly_ansatz, target=np.zeros(4),
                          frozen=("b", "c", "bogus", "a9"))
        assert "['bogus', 'a9']" in str(err.value)
        assert "['b', 'c', 'a0', 'a1', 'b1', 'a2'" in str(err.value)
        # the b1 gauge is always accepted, a coordinate or not
        SearchProblem(family=ParamFamily.fixed(SQUARE),
                      ansatz=FourierAnsatz(0.4), target=np.zeros(1),
                      frozen=("b1",))

    def test_too_few_free_coordinates(self):
        problem = SearchProblem(
            family=ParamFamily.fixed(SQUARE),
            ansatz=FourierAnsatz(0.0, np.zeros(1), np.zeros(1)),
            target=np.zeros(3), frozen=("a0", "a1", "b1"))
        with pytest.raises(PreconditionError):
            gauss_newton(problem)


def _spy_vector_groups(monkeypatch):
    """Record the steps of the lane groups of every census scan."""
    calls = []
    flow = search._flow_vector

    def spy(f, v, x0, h, table=None, more=()):
        calls.append([h] + [step for _, step, _ in more])
        return flow(f, v, x0, h, table, more)
    monkeypatch.setattr(search, "_flow_vector", spy)
    return calls


class TestCountSolutions:
    def test_degenerate_continuum(self):
        census = count_solutions(ZERO, PeriodicFn.constant(0.0),
                                 -1.0, 1.0, scan_n=101, h=1e-2,
                                 check_half_step=False)
        assert census.degenerate_continuum
        assert census.count is None

    def test_degenerate_pass_drops_the_half_step_scan(self, monkeypatch):
        # the scan at h/2 runs in the same flow as the scan at h, and is
        # dropped with the pass at h: one pass, no count at h/2
        groups = _spy_vector_groups(monkeypatch)
        census = count_solutions(ZERO, PeriodicFn.constant(0.0),
                                 -1.0, 1.0, scan_n=101, h=1e-2)
        assert groups == [[1e-2, 5e-3]]
        assert census.degenerate_continuum and census.count is None
        assert census.count_at_half_step is None
        assert census.passes[1:] == ()
        assert [(p.h, p.flows_per_bracket, p.work) for p in census.passes] \
            == [(1e-2, (), {"lane_steps": 10_100, "flows": 0, "steps": 0})]

    def test_continuum_at_a_coarse_step_is_degenerate(self):
        # every orbit of u' = -cos(2 pi t) u^2 from |u0| < 2 pi closes, so
        # g = rho(x) - x is only the RK4 error: 2.2e-10 at h = 1e-2 is far
        # above the rounding bound, but it falls 32-fold at h/2 where a
        # nonzero g would keep its size
        wild = Nonlinearity([Term(2, FourierAnsatz(0.0, [1.0]))])
        census = count_solutions(wild, None, -1.0, 1.0, scan_n=41, h=1e-2)
        assert census.degenerate_continuum and census.count is None
        assert census.count_at_half_step is None and census.roots == ()
        assert not census.stable_under_halving
        assert len(census.passes) == 1
        scan = np.max(np.abs(census.scan_g))
        assert 1e-10 < scan < 1e-9
        # without the half-step scan only the rounding bound decides; the
        # root's rho' is exactly 1, so its rounding width is inf
        census = count_solutions(wild, None, -1.0, 1.0, scan_n=41, h=1e-2,
                                 check_half_step=False)
        assert not census.degenerate_continuum and census.count == 1
        [root] = census.roots
        assert (root.x, root.rho_prime, root.rounding_width) == (
            0.0, 1.0, math.inf)

    def test_no_surviving_lane_counts_none(self):
        # u' = 2e6 - u has the solution u = 2e6, but every scan lane starts
        # past U_MAX and dies: the census cannot rule out a root, so the
        # whole range is unresolved and neither pass has a count
        census = count_solutions(Nonlinearity.polynomial([-2e6, 1.0]), None,
                                 1.5e6, 2.5e6, scan_n=21, h=1e-3)
        assert census.count is None and census.count_at_half_step is None
        assert census.unresolved_brackets == ((1.5e6, 2.5e6),)
        assert census.roots == () and not census.degenerate_continuum
        assert not census.stable_under_halving
        assert len(census.passes) == 2
        assert census.passes[1].unresolved == ((1.5e6, 2.5e6),)

    def test_single_step_census_runs_one_group(self, monkeypatch):
        groups = _spy_vector_groups(monkeypatch)
        census = count_solutions(SQUARE, PeriodicFn.constant(1.0),
                                 -2.0, 2.0, scan_n=201, h=1e-3,
                                 check_half_step=False)
        assert groups == [[1e-3]]
        assert census.count == 2 and len(census.passes) == 1
        assert census.passes[0].work["lane_steps"] == 201_000

    def test_each_pass_converts_its_forcing_once(self, monkeypatch):
        # the scan and every refinement flow of a pass read one list copy
        # of its forcing, made by the pass, not one conversion per flow
        reads = []
        read = odeint._read_table

        def spy(f, v, t0, t1, h, orders, table):
            reads.append(table[0])
            return read(f, v, t0, t1, h, orders, table)
        monkeypatch.setattr(odeint, "_read_table", spy)
        census = count_solutions(SQUARE, PeriodicFn.constant(1.0),
                                 -2.0, 2.0, scan_n=201, h=1e-3)
        flows = sum(p.work["flows"] for p in census.passes)
        assert census.count == census.count_at_half_step == 2
        assert len(reads) == 2 + flows and flows > 0
        assert all(isinstance(forcing, list) for forcing in reads)
        assert len({id(forcing) for forcing in reads}) == 2

    def test_two_constant_orbits(self):
        # u' = 1 - u^2 has exactly the two equilibria u = +-1
        census = count_solutions(SQUARE, PeriodicFn.constant(1.0),
                                 -2.0, 2.0, scan_n=201, h=1e-3)
        assert census.count == 2
        xs = sorted(r.x for r in census.roots)
        assert xs[0] == pytest.approx(-1.0, abs=1e-8)
        assert xs[1] == pytest.approx(1.0, abs=1e-8)
        assert census.stable_under_halving

    def test_roots_reclose(self):
        census = count_solutions(SQUARE, PeriodicFn.constant(1.0),
                                 -2.0, 2.0, scan_n=201, h=1e-3,
                                 check_half_step=False)
        from morinode import return_map
        for r in census.roots:
            rv = return_map(SQUARE, PeriodicFn.constant(1.0), r.x, h=1e-3)
            assert abs(rv.value - r.x) <= 1e-8

    def test_census_sensitivity_near_order_four_point(self, quartic):
        # the six-root structure lives on a quintic-degenerate scale: moving
        # the generator's mean coefficient by 1e-6 destroys four solutions
        import numpy as np

        def census_for(da):
            coeffs = dict(SIX_ROOT_COEFFS)
            coeffs["a0"] += da
            v = operator_rhs(quartic, ansatz_from(coeffs))
            return count_solutions(quartic, v, -0.4, 0.4, scan_n=801,
                                   h=2e-4, check_half_step=False)

        assert census_for(0.0).count == 6
        assert census_for(-1e-6).count == 2

    def test_parity_matches_degree(self):
        # signed fixed-point count sum(sgn(1 - rho')) equals the degree
        cases = [
            (SQUARE, 1.0, (-3.0, 3.0)),
            (Nonlinearity.polynomial([0, 1, 0, 1]), 0.5, (-3.0, 3.0)),
            (Nonlinearity.polynomial([0, 0, 0, -1]), 0.4, (-3.0, 3.0)),
            (Nonlinearity.polynomial([0, -1, 0, 1]), 0.05, (-2.0, 2.0)),
        ]
        for f, const, (lo, hi) in cases:
            census = count_solutions(f, PeriodicFn.constant(const), lo, hi,
                                     scan_n=401, h=1e-3, check_half_step=False)
            signed = sum(int(np.sign(1.0 - r.rho_prime)) for r in census.roots)
            assert signed == degree(f)
            parity_even = degree(f) % 2 == 0
            assert (census.count % 2 == 0) == parity_even


# the six-root census (scan 801, h = 2e-4) as refined by 80-step bisection,
# at h and at h/2; Newton must land on the same fixed points
BISECTION_ROOTS = {
    2e-4: (-0.2857740528509022, -0.24999272027611735, -0.22402305865287786,
           -0.19705842965841297, -0.12101675793714822, 0.1189331861208193),
    1e-4: (-0.28577482037246227, -0.2499874347150326, -0.22403245443105702,
           -0.19705293965339657, -0.12101739089377225, 0.1189332065670751),
}


class TestCensusRefinement:
    def test_roots_match_bisection(self, six_root_census):
        census, _ = six_root_census
        for h, roots in ((2e-4, census.roots),
                         (1e-4, census.passes[1].roots)):
            xs = sorted(r.x for r in roots)
            assert len(xs) == 6
            assert np.max(np.abs(np.subtract(xs, BISECTION_ROOTS[h]))) <= 1e-10

    def test_rho_prime_from_last_flow(self, quartic, six_root_ansatz,
                                      six_root_census):
        from morinode import return_map
        census, _ = six_root_census
        v = operator_rhs(quartic, six_root_ansatz)
        for h, roots in ((2e-4, census.roots),
                         (1e-4, census.passes[1].roots)):
            for r in roots:
                rv = return_map(quartic, v, r.x, h=h, with_derivative=True)
                assert abs(r.rho_prime - rv.derivative) <= 1e-9
                assert 0.0 <= r.bracket_width <= 1e-12

    def test_rounding_width(self, six_root_census):
        # ulp(x) / |rho' - 1|: the five flat roots (|rho' - 1| < 1e-5) sit
        # in float-noise zones 1e-12 to 6e-11 wide, widest near -0.224
        # where rho' - 1 = 5e-7; the steep root near 0.119 in one of 3e-14
        census, _ = six_root_census
        for roots in (census.roots, census.passes[1].roots):
            widths = [r.rounding_width for r in roots]
            assert widths == [math.ulp(r.x) / abs(r.rho_prime - 1.0)
                              for r in roots]
            flat = [w for r, w in zip(roots, widths)
                    if abs(r.rho_prime - 1.0) < 1e-5]
            assert len(flat) == 5 and 1e-12 < min(flat)
            assert max(flat) == pytest.approx(5.55e-11, rel=1e-3)
            assert widths[-1] == pytest.approx(3.06e-14, rel=1e-2)

    def test_flows_per_bracket(self, six_root_census):
        passes = six_root_census[0].passes
        assert [p.h for p in passes] == [2e-4, 1e-4]
        for p in passes:
            assert p.brackets == 6
            assert max(p.flows_per_bracket) <= 8
            assert p.refine_flows == sum(p.flows_per_bracket)
        assert [p.flows_per_bracket for p in passes] == [(2,) * 6, (2,) * 6]

    def test_work_record(self, six_root_census):
        # 801 scan lanes over 5,000 and 10,000 steps, then the refinement
        # flows of each pass and their steps, all of which run to t = 1
        passes = six_root_census[0].passes
        assert [p.work for p in passes] == [
            {"lane_steps": 4_005_000, "flows": 12, "steps": 60_000},
            {"lane_steps": 8_010_000, "flows": 12, "steps": 120_000}]

    def test_quadratic_model_stops_a_simple_root(self):
        # u' = 1 - u^2: after two Newton steps the model's next correction
        # is far below 1e-12, so each root costs two flows (three without
        # the model), and rho' is the slope extrapolated to the returned
        # root: the discrete multiplier R(-2 x h)^(1/h), R RK4's growth
        # factor; the last flow's own slope is off by 1.8e-6 relative
        census = count_solutions(SQUARE, PeriodicFn.constant(1.0), -2.0, 2.0,
                                 scan_n=200, h=1e-3)
        assert [p.flows_per_bracket for p in census.passes] == [(2, 2),
                                                                (2, 2)]
        for h, roots in ((1e-3, census.roots),
                         (5e-4, census.passes[1].roots)):
            assert len(roots) == 2
            for r, fixed in zip(roots, (-1.0, 1.0)):
                assert abs(r.x - fixed) <= 1e-12
                assert 0.0 <= r.bracket_width <= 1e-12
                z = -2.0 * fixed * h
                multiplier = (1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24) \
                    ** round(1 / h)
                assert r.rho_prime == pytest.approx(multiplier, rel=1e-8)

    def test_linear_convergence_keeps_its_flows(self):
        # at the multiple fixed point 0 of u' = -u^3 and u' = -u^5 Newton
        # converges linearly, so the model's correction stays large and
        # never stops the refinement
        for power, lo, hi, flows in ((3, -0.7, 1.3, [(52,), (50,)]),
                                     (5, -0.9, 1.1, [(21,), (19,)])):
            f = Nonlinearity.polynomial([0.0] * power + [1.0])
            census = count_solutions(f, None, lo, hi, scan_n=200, h=1e-3)
            assert [p.flows_per_bracket for p in census.passes] == flows

    def test_blown_refinement_flow_counts_its_steps(self, monkeypatch):
        # u' = -u^2 from the secant point -2.5 of a bracket blows up at
        # t = 0.4 and passes U_MAX in RK4 step 401 of 1000: the bracket is
        # unresolved (no root), and its one flow counts the steps it took
        starts = []
        flow = search._flow_with_variation
        monkeypatch.setattr(search, "_flow_with_variation",
                            lambda f, v, x, h, table: starts.append(x)
                            or flow(f, v, x, h, table))
        table = search._add_orders(
            SQUARE, search._stage_table(SQUARE, None, 1e-3), 1e-3, (1,))
        assert search._refine_root(SQUARE, None, -3.0, -2.0, -1.0, 1.0,
                                   1e-3, table) == (None, 1, 401)
        assert starts == [-2.5]

    def test_exact_zero_on_the_scan_grid(self):
        # u' = -u^2 + 1 has g(+-1) = 0 on a grid through +-1: each root is
        # its own bracket and costs one flow, for rho'
        census = count_solutions(SQUARE, PeriodicFn.constant(1.0), -2.0, 2.0,
                                 scan_n=5, h=1e-3, check_half_step=False)
        assert [r.x for r in census.roots] == [-1.0, 1.0]
        assert [r.bracket_width for r in census.roots] == [0.0, 0.0]
        assert census.passes[0].flows_per_bracket == (1, 1)
        assert census.roots[0].rho_prime == pytest.approx(np.exp(2.0),
                                                          rel=1e-9)


class TestSweep:
    def test_empty_grid(self):
        table = sweep(ParamFamily.quartic_bc(), {"b": [], "c": []},
                      lambda f, p: {"ok": True})
        assert table == {}

    def test_cells_in_row_major_order(self):
        # the last grid name varies fastest; an empty axis gives no cells
        seen = []
        table = sweep(ParamFamily.quartic_bc(),
                      {"b": [1.0, 2.0], "c": [0.0, 0.5, -1.0]},
                      lambda f, p: seen.append(p) or {})
        assert list(table) == [f"b={b:.12g},c={c:.12g}" for b in (1.0, 2.0)
                               for c in (0.0, 0.5, -1.0)]
        assert seen == [cell.params for cell in table.values()]
        assert sweep(ParamFamily.quartic_bc(), {"b": [1.0], "c": []},
                     lambda f, p: {}) == {}

    def test_single_cell_classification(self):
        from morinode import classify_operator
        table = sweep(ParamFamily.quartic_bc(),
                      {"b": [BUTTERFLY_B], "c": [BUTTERFLY_C]},
                      lambda f, p: {"verdict": classify_operator(f).verdict})
        assert len(table) == 1
        cell = next(iter(table.values()))
        assert cell.result["verdict"] == "has_higher_singularities"

    def test_convex_dominant_cells_fold(self):
        # b = 0: the second derivative 12x^2 >= 0 vanishes only at one
        # point, so every c != 0 gives a global fold
        from morinode import classify_operator
        table = sweep(ParamFamily.quartic_bc(),
                      {"b": [0.0], "c": [-0.5, -0.1, 0.4]},
                      lambda f, p: {"verdict": classify_operator(f).verdict})
        for cell in table.values():
            assert cell.result["verdict"] == "global_fold"

    def test_errors_recorded_not_raised(self):
        def analysis(f, p):
            raise ValueError("boom")
        table = sweep(ParamFamily.quartic_bc(), {"b": [1.0], "c": [0.0]},
                      analysis)
        cell = next(iter(table.values()))
        assert cell.error == "ValueError: boom"
        assert cell.result is None

    def test_error_records_exception_type(self):
        # a fibre solve on a wild nonlinearity fails inside the cell; the
        # cell keeps the exception type with the message
        from morinode import Grid, InitialValue, solve_periodic
        from morinode.core import TamenessViolationError

        def analysis(f, p):
            wild = Nonlinearity([Term(2, FourierAnsatz(0.0, [1.0]))])
            vt = PeriodicFn.constant(0.0, Grid(1024))
            solve_periodic(wild, vt, InitialValue(7.0))
        table = sweep(ParamFamily.quartic_bc(), {"b": [1.0], "c": [0.0]},
                      analysis)
        cell = next(iter(table.values()))
        assert cell.result is None
        assert cell.error.startswith(TamenessViolationError.__name__ + ": ")
        assert len(cell.error) > len(TamenessViolationError.__name__) + 2

    def test_resume_skips_existing(self):
        calls = []

        def analysis(f, p):
            calls.append(p)
            return {"n": len(calls)}
        t1 = sweep(ParamFamily.quartic_bc(), {"b": [1.0, 2.0], "c": [0.0]},
                   analysis)
        assert len(calls) == 2
        t2 = sweep(ParamFamily.quartic_bc(), {"b": [1.0, 2.0], "c": [0.0]},
                   analysis, existing=t1)
        assert len(calls) == 2
        assert t2 == t1
