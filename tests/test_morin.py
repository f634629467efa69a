import numpy as np
import pytest

from morinode import (Grid, Nonlinearity, ParamFamily, PeriodicFn,
                      SearchProblem, classify_point, contact_order, eigen_w,
                      mean, morin, sigma_hat, sigma_vec)
from morinode.core import (FourierAnsatz, PreconditionError, Term,
                           integral_weighted_t, spectral_antiderivative)
from morinode.morin import (MorinOrder, _derivative_samples, _sigma_gradients,
                            _sigma_stages, _sigma_values)
from morinode.search import _jacobian
from tests.conftest import BUTTERFLY_B, BUTTERFLY_C, operator_rhs

TWO_PI = 2 * np.pi

SQUARE = Nonlinearity.polynomial([0, 0, 1])
CUBIC_MINUS = Nonlinearity.polynomial([0, -1, 0, 1])
T_DEPENDENT = Nonlinearity([Term(4, FourierAnsatz(0.5)),
                            Term(3, FourierAnsatz(0.2, [0.7], [0.3])),
                            Term(2, FourierAnsatz(-1.0, [0.4])),
                            Term(1, FourierAnsatz(0.0, [], [1.5]))])


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

    def test_sign_ratio_far_from_the_critical_set(self, butterfly_ansatz):
        # Sigma_1 = -40.01 on the butterfly ansatz
        f = Nonlinearity.polynomial([0.0, -40.0, 0.5])
        sa, sb, sc = sigma_vec(f, butterfly_ansatz.sample(Grid())).sigma_abc
        assert sa == pytest.approx(-40.01173378, abs=1e-10)
        assert sb / sa > 0
        assert sc / sa > 0


# central differences are the test oracle of the exact derivative; their
# O(eps^2) truncation and O(macheps / eps) rounding sit far below 1e-6
FD_EPS = 1e-6
FD_RTOL = 1e-6


def _central_difference(sigma_of, count):
    cols = [(sigma_of(FD_EPS, j) - sigma_of(-FD_EPS, j)) / (2 * FD_EPS)
            for j in range(count)]
    return np.column_stack(cols)


def _assert_rows_agree(exact, oracle, rtol=FD_RTOL):
    assert exact.shape == oracle.shape
    for i, (row, ref) in enumerate(zip(exact, oracle)):
        err = np.max(np.abs(row - ref)) / np.max(np.abs(ref))
        assert err <= rtol, f"dSigma_{i + 1}: relative error {err:.2e}"


def _u_jacobian(D, dirs):
    """Rows dSigma_1..dSigma_4 along each du in ``dirs``: grid means of du
    against the u-gradients sum_i G[:, i] D_(i+1)."""
    grad_u = np.einsum("rin,in->rn", _sigma_gradients(D), D[1:])
    return grad_u @ dirs.T / len(D[0])


def _assert_u_rows_agree(f, u):
    dirs = FourierAnsatz.basis(u.grid, 8)
    D = _derivative_samples(f, u)
    exact = _u_jacobian(D, dirs)

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
        assert not T_DEPENDENT.autonomous
        _assert_u_rows_agree(T_DEPENDENT,
                             random_periodic(np.random.default_rng(14)))

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


def _forward_jacobian(D, directions):
    """Forward-mode oracle: (4, d) for d perturbations (dD_1, .., dD_4).

    Each column differentiates every stage of ``_sigma_values`` on its own:
    with a the zero-mean antiderivative of dD_1, dw = -w a,
    dq = w (dD_2 - D_2 a), dpsi3 = w^2 (dD_3 - 2 D_3 a) and
    dpsi4 = w^3 (dD_4 - 3 D_4 a).
    """
    w, qbar, P, psi3, psi4 = _sigma_stages(D)
    t_psi3 = integral_weighted_t(psi3)
    cols = []
    for d1, d2, d3, d4 in directions:
        a = spectral_antiderivative(d1)
        dq = w * (d2 - D[1] * a)
        dqbar = float(np.mean(dq))
        daq = spectral_antiderivative(dq)
        dpsi3 = w ** 2 * (d3 - 2.0 * D[2] * a)
        dpsi4 = w ** 3 * (d4 - 3.0 * D[3] * a)
        ds4 = (float(np.mean(dpsi4))
               - 2.0 * (float(np.mean(dpsi3 * P + psi3 * (daq - daq[0])))
                        + dqbar * t_psi3 + qbar * integral_weighted_t(dpsi3)))
        cols.append((float(np.mean(d1)), dqbar, float(np.mean(dpsi3)), ds4))
    return np.array(cols).T


# the gradients and the forward sweep are the same closed form, summed in
# another order, so they agree to rounding
GRADIENT_RTOL = 1e-13


def _assert_u_rows_match_forward(f, u):
    dirs = FourierAnsatz.basis(u.grid, 8)
    D = _derivative_samples(f, u)
    oracle = _forward_jacobian(D, [[D[i] * du for i in range(1, 5)]
                                   for du in dirs])
    _assert_rows_agree(_u_jacobian(D, dirs), oracle, GRADIENT_RTOL)


class TestSigmaGradients:
    def test_butterfly_rank_test_directions(self, refined_butterfly):
        f, ans, _ = refined_butterfly
        _assert_u_rows_match_forward(f, ans.sample(Grid(2048)))

    def test_located_cusp(self, located_cusp):
        f, u, _ = located_cusp
        _assert_u_rows_match_forward(f, u)

    def test_t_dependent_polynomial(self):
        _assert_u_rows_match_forward(T_DEPENDENT,
                                     random_periodic(np.random.default_rng(14)))

    def test_family_and_ansatz_columns(self, butterfly_ansatz):
        # every coordinate free, the b1 gauge included
        problem = SearchProblem(
            family=ParamFamily.quartic_bc(), ansatz=butterfly_ansatz,
            target=np.zeros(4),
            family_params=np.array([BUTTERFLY_B, BUTTERFLY_C]))
        x = problem.pack()
        f, u = problem._point(x)
        D = _derivative_samples(f, u)
        params = [[problem.family.partial(name).on_grid(u, i)
                   for i in range(1, 5)] for name in problem.family.names]
        dus = FourierAnsatz.basis(u.grid, problem.ansatz.harmonics)
        oracle = _forward_jacobian(D, params + [[D[i] * du for i in range(1, 5)]
                                                for du in dus])
        _assert_rows_agree(_jacobian(problem, x, np.ones(len(x), bool)),
                           oracle, GRADIENT_RTOL)


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


def _classify_record(f, u, order):
    """classify_point(f, u), with every field of its record pinned: the
    functionals of ``sigma_vec``, ``order``, ``tol_zero`` always, and
    ``jacobian_svals`` and ``tol_rank`` only where the rank test ran (k >= 2
    and below the exceeds exit)."""
    rep = classify_point(f, u)
    ref = sigma_vec(f, u)
    assert np.array_equal(rep.sigma, ref.sigma)
    assert rep.sigma_abc == ref.sigma_abc
    assert rep.tol_zero == morin.ZERO_TOL_FACTOR * (
        1.0 + float(np.max(np.abs(rep.sigma))))
    if order.kind in ("regular", "exceeds") or order.k == 1:
        assert rep.jacobian_svals is None and rep.tol_rank is None
    else:
        assert rep.tol_rank == morin.RANK_TOL_FACTOR * rep.jacobian_svals[0]
    assert rep.order == order
    return rep


class TestClassifyPoint:
    def test_fold(self):
        rep = _classify_record(SQUARE, PeriodicFn.constant(0.0),
                               MorinOrder("morin", k=1))
        assert rep.sigma.tolist() == [0.0, 2.0, 0.0, 0.0, 0.0]

    def test_regular(self):
        rep = _classify_record(SQUARE, PeriodicFn.constant(1.0),
                               MorinOrder("regular"))
        assert rep.sigma[0] == 2.0

    def test_butterfly(self, refined_butterfly):
        f, ans, _ = refined_butterfly
        rep = classify_point(f, ans.sample(Grid(2048)))
        assert rep.order.kind == "morin" and rep.order.k == 4
        assert rep.jacobian_svals is not None
        assert rep.jacobian_svals[-1] > 1e-6 * rep.jacobian_svals[0]

    def test_located_cusp(self, located_cusp):
        f, u, _ = located_cusp
        rep = _classify_record(f, u, MorinOrder("morin", k=2))
        assert rep.jacobian_svals.shape == (1,)
        assert rep.jacobian_svals[-1] > rep.tol_rank
        assert rep.sigma[2] > 0  # the cubic family only has positive Sigma_3

    def test_degenerate_when_the_rank_test_fails(self):
        # x^3 at u = 0: Sigma_1 = Sigma_2 = 0 and Sigma_3 = 6, but Sigma_1 =
        # mean(3 u^2) has a zero derivative there, so the cusp is not
        # transversal
        rep = _classify_record(Nonlinearity.polynomial([0, 0, 0, 1]),
                               PeriodicFn.constant(0.0, Grid(256)),
                               MorinOrder("degenerate", reason=(
                                   "rank test failed at k=2: "
                                   "smin=0.000e+00 <= 0.000e+00")))
        assert rep.jacobian_svals.tolist() == [0.0] and rep.tol_rank == 0.0

    def test_exceeds_when_every_functional_vanishes(self):
        rep = _classify_record(
            Nonlinearity.polynomial([]), PeriodicFn.constant(0.0, Grid(256)),
            MorinOrder("exceeds", reason="all five functionals vanish"))
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
