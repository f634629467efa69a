import numpy as np
import pytest

from morinode import (Grid, Nonlinearity, ParamFamily, PeriodicFn,
                      SearchProblem, classify_point, contact_order, eigen_w,
                      mean, sigma_hat, sigma_vec)
from morinode.core import FourierAnsatz, PreconditionError, Term
from morinode.morin import (_derivative_samples, _sigma_jacobian,
                            _sigma_values, _u_directions)
from morinode.search import _jacobian
from tests.conftest import BUTTERFLY_B, BUTTERFLY_C, operator_rhs

TWO_PI = 2 * np.pi

SQUARE = Nonlinearity.polynomial([0, 0, 1])
CUBIC_MINUS = Nonlinearity.polynomial([0, -1, 0, 1])


def random_polynomial(rng, scale=0.6):
    return Nonlinearity.polynomial(rng.normal(size=5) *
                                   np.array([1.0, 1.0, scale, scale, 0.2]))


def random_periodic(rng, grid=None):
    grid = grid or Grid()
    t = grid.nodes
    vals = (rng.normal() + 0.6 * np.cos(TWO_PI * t + rng.uniform(0, TWO_PI))
            + 0.3 * np.sin(2 * TWO_PI * t + rng.uniform(0, TWO_PI)))
    return PeriodicFn(grid, vals)


class TestEigen:
    def test_constant_solution(self):
        u = PeriodicFn.constant(0.7)
        pair = eigen_w(CUBIC_MINUS, u)
        assert np.max(np.abs(pair.w.values - 1.0)) < 1e-14
        assert pair.lam == pytest.approx(3 * 0.49 - 1, abs=1e-12)

    def test_residual_oracle(self):
        u = PeriodicFn.from_callable(lambda t: np.sin(TWO_PI * t))
        pair = eigen_w(SQUARE, u)
        assert pair.residual(SQUARE, u) < 1e-8

    def test_eigenvalue_is_mean(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            f = random_polynomial(rng)
            u = random_periodic(rng)
            pair = eigen_w(f, u)
            assert pair.lam == pytest.approx(float(np.mean(f.on_grid(u, 1))),
                                             abs=1e-12)

    def test_residual_bound_random(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            f = random_polynomial(rng)
            u = random_periodic(rng)
            pair = eigen_w(f, u)
            bound = 1e-8 * (1.0 + float(np.max(np.abs(f.on_grid(u, 1)))))
            assert pair.residual(f, u) < bound

    def test_positivity(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            f = random_polynomial(rng)
            u = random_periodic(rng)
            assert np.min(eigen_w(f, u).w.values) > 0

    def test_butterfly_eigenvalue_near_zero(self, refined_butterfly):
        f, ans, _ = refined_butterfly
        pair = eigen_w(f, ans.sample(Grid(2048)))
        assert abs(pair.lam) < 1e-12


class TestSigmaValues:
    def test_closed_forms_on_constants(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            f = random_polynomial(rng, scale=1.0)
            c = float(rng.uniform(-1.5, 1.5))
            u = PeriodicFn.constant(c)
            rep = sigma_vec(f, u)
            d = [float(f.eval(0.0, c, i)) for i in range(6)]
            expect = np.array([
                d[1], d[2], d[3],
                d[4] - d[3] * d[2],
                d[5] - 2.5 * d[4] * d[2] + (5.0 / 3.0) * d[3] * d[2] ** 2])
            scale = np.maximum(1.0, np.abs(expect))
            assert np.max(np.abs(rep.sigma - expect) / scale) < 1e-10

    def test_fold_of_squares(self):
        rep = sigma_vec(SQUARE, PeriodicFn.constant(0.0))
        assert rep.sigma[0] == pytest.approx(0.0, abs=1e-14)
        assert rep.sigma[1] == pytest.approx(2.0, abs=1e-12)

    def test_butterfly_first_four_vanish(self, refined_butterfly):
        f, ans, _ = refined_butterfly
        rep = sigma_vec(f, ans.sample(Grid(2048)))
        assert np.max(np.abs(rep.sigma[:4])) < 1e-11
        assert abs(rep.sigma[4]) > 1.0

    def test_sign_ratio_identity(self):
        # Sigma_a, Sigma_b, Sigma_c share sign; ratios positive and bounded
        rng = np.random.default_rng(10)
        checked = 0
        while checked < 100:
            f = random_polynomial(rng)
            u = random_periodic(rng)
            rep = sigma_vec(f, u)
            sa, sb, sc = rep.sigma_abc
            if abs(sa) < 1e-6:
                continue
            checked += 1
            assert sb / sa > 0
            assert sc / sa > 0
            assert sb / sa < 1e3
            assert sc / sa < 1e3


# central differences are the test oracle of the exact derivative; their
# O(eps^2) truncation and O(macheps / eps) rounding sit far below 1e-6
FD_EPS = 1e-6
FD_RTOL = 1e-6


def _central_difference(sigma_of, count):
    cols = [(sigma_of(FD_EPS, j) - sigma_of(-FD_EPS, j)) / (2 * FD_EPS)
            for j in range(count)]
    return np.column_stack(cols)


def _assert_rows_agree(exact, oracle):
    for i, (row, ref) in enumerate(zip(exact, oracle)):
        err = np.max(np.abs(row - ref)) / np.max(np.abs(ref))
        assert err <= FD_RTOL, f"dSigma_{i + 1}: relative error {err:.2e}"


def _assert_u_rows_agree(f, u):
    dirs = FourierAnsatz.basis(u.grid, 8)
    D = _derivative_samples(f, u)
    exact = _sigma_jacobian(D, _u_directions(D, dirs))

    def sigma_of(eps, j):
        moved = PeriodicFn(u.grid, u.values + eps * dirs[j])
        return _sigma_values(f, moved)[0][:4]

    _assert_rows_agree(exact, _central_difference(sigma_of, len(dirs)))


class TestSigmaJacobian:
    def test_u_directions_on_butterfly(self, refined_butterfly):
        f, ans, _ = refined_butterfly
        _assert_u_rows_agree(f, ans.sample(Grid(2048)))

    def test_u_directions_on_located_cusp(self, located_cusp):
        f, u, _ = located_cusp
        _assert_u_rows_agree(f, u)

    def test_u_directions_t_dependent_polynomial(self):
        f = Nonlinearity([Term(4, FourierAnsatz(0.5)),
                          Term(3, FourierAnsatz(0.2, [0.7], [0.3])),
                          Term(2, FourierAnsatz(-1.0, [0.4])),
                          Term(1, FourierAnsatz(0.0, [], [1.5]))])
        assert not f.autonomous
        _assert_u_rows_agree(f, random_periodic(np.random.default_rng(14)))

    def test_u_directions_on_builtin(self):
        f = Nonlinearity.from_builtin("cosh2_cos")
        u = PeriodicFn.from_callable(lambda t: 0.3 + 0.4 * np.cos(TWO_PI * t)
                                     - 0.2 * np.sin(2 * TWO_PI * t))
        _assert_u_rows_agree(f, u)

    def test_family_parameter_columns(self, butterfly_ansatz):
        # all coordinates but the b1 gauge free: the quartic_bc partials
        # (b, c) and the ansatz coefficients, in _coordinate_names order
        problem = SearchProblem(
            family=ParamFamily.quartic_bc(), ansatz=butterfly_ansatz,
            target=np.zeros(4),
            family_params=np.array([BUTTERFLY_B, BUTTERFLY_C]))
        x = problem.pack()
        mask = problem.free_mask()
        free = np.nonzero(mask)[0]
        exact = _jacobian(problem, x, mask)

        def sigma_of(eps, j):
            xj = x.copy()
            xj[free[j]] += eps
            return problem.sigma_at(xj)[0]

        _assert_rows_agree(exact, _central_difference(sigma_of, len(free)))


class TestSigmaHat:
    def test_constants(self):
        u = PeriodicFn.constant(0.4)
        out = sigma_hat(CUBIC_MINUS, u, 3)
        expect = [CUBIC_MINUS.eval(0.0, 0.4, i) for i in (1, 2, 3)]
        assert np.allclose(out, expect, atol=1e-12)

    def test_first_entry_equals_sigma1(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            f = random_polynomial(rng)
            u = random_periodic(rng)
            assert sigma_hat(f, u, 1)[0] == sigma_vec(f, u).sigma[0]

    def test_requires_autonomous(self):
        g = Nonlinearity([Term(1, FourierAnsatz(0.0, [1.0]))])
        with pytest.raises(PreconditionError):
            sigma_hat(g, PeriodicFn.constant(0.0), 2)


class TestClassifyPoint:
    def test_fold(self):
        rep = classify_point(SQUARE, PeriodicFn.constant(0.0))
        assert rep.order.kind == "morin" and rep.order.k == 1

    def test_regular(self):
        rep = classify_point(SQUARE, PeriodicFn.constant(1.0))
        assert rep.order.kind == "regular"

    def test_butterfly(self, refined_butterfly):
        f, ans, _ = refined_butterfly
        rep = classify_point(f, ans.sample(Grid(2048)))
        assert rep.order.kind == "morin" and rep.order.k == 4
        assert rep.jacobian_svals is not None
        assert rep.jacobian_svals[-1] > 1e-6 * rep.jacobian_svals[0]

    def test_located_cusp(self, located_cusp):
        f, u, _ = located_cusp
        rep = classify_point(f, u)
        assert rep.order.kind == "morin" and rep.order.k == 2
        assert rep.sigma[2] > 0  # the cubic family only has positive Sigma_3

    def test_degenerate_when_the_rank_test_fails(self):
        # x^3 at u = 0: Sigma_1 = Sigma_2 = 0 and Sigma_3 = 6, but Sigma_1 =
        # mean(3 u^2) has a zero derivative there, so the cusp is not
        # transversal
        rep = classify_point(Nonlinearity.polynomial([0, 0, 0, 1]),
                             PeriodicFn.constant(0.0, Grid(256)))
        assert rep.order.kind == "degenerate"
        assert rep.order.reason.startswith("rank test failed at k=2")
        assert rep.jacobian_svals.tolist() == [0.0]

    def test_exceeds_when_every_functional_vanishes(self):
        rep = classify_point(Nonlinearity.polynomial([]),
                             PeriodicFn.constant(0.0, Grid(256)))
        assert rep.order.kind == "exceeds"
        assert rep.order.reason == "all five functionals vanish"
        assert rep.sigma.tolist() == [0.0] * 5


class TestContactAgreement:
    def test_fold_agreement(self):
        # constant fold of the squares family: both routes give order 1
        rep = classify_point(SQUARE, PeriodicFn.constant(0.0))
        con = contact_order(SQUARE, None, 0.0, kmax=3, h=1e-3)
        assert rep.order.k == con.order == 1

    def test_cusp_agreement(self, located_cusp):
        f, u, ans = located_cusp
        rep = classify_point(f, u)
        con = contact_order(f, operator_rhs(f, ans), float(ans.eval(0.0)),
                            kmax=3, h=5e-4)
        assert rep.order.k == con.order == 2

    def test_butterfly_agreement(self, refined_butterfly):
        f, ans, _ = refined_butterfly
        con = contact_order(f, operator_rhs(f, ans), float(ans.eval(0.0)),
                            kmax=4, h=2e-4)
        rep = classify_point(f, ans.sample(Grid(2048)))
        assert rep.order.k == con.order == 4
