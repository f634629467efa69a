from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from morinode import (FromSimplified, Grid, Nonlinearity, PeriodicFn,
                      ToSimplified, classify_operator, degree, gamma_curve,
                      hull_origin_test, mean, replicate, reparam, seed_shat,
                      sigma_hat, sigma_vec, tameness)
from morinode.core import MorinodeError, PreconditionError
from morinode import globalgeo
from morinode.globalgeo import _simplex_max
from tests.conftest import HULL_FAULTS

TWO_PI = 2 * np.pi

SQUARE = Nonlinearity.polynomial([0, 0, 1])
CUBIC_PLUS = Nonlinearity.polynomial([0, 1, 0, 1])     # x^3 + x
CUBIC_MINUS = Nonlinearity.polynomial([0, -1, 0, 1])   # x^3 - x
NEG_CUBIC = Nonlinearity.polynomial([0, 0, 0, -1])     # -x^3
GENERIC_U = PeriodicFn.from_callable(
    lambda t: 0.3 + 0.5 * np.cos(TWO_PI * t) + 0.2 * np.sin(2 * TWO_PI * t))


def _row_loop_simplex_max(A, b, c):
    """Reference simplex: Dantzig's rule, tableau updated row by row."""
    m, n = A.shape
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n], T[:m, n:n + m], T[:m, -1], T[m, :n] = A, np.eye(m), b, -c
    basis = list(range(n, n + m))
    while True:
        j = int(np.argmin(T[m, :-1]))
        if T[m, j] >= -1e-11:
            break
        pos = T[:m, j] > 1e-12
        ratios = np.full(m, np.inf)
        ratios[pos] = T[:m, -1][pos] / T[:m, j][pos]
        i = int(np.argmin(ratios))
        T[i] /= T[i, j]
        for r in range(m + 1):
            if r != i and T[r, j] != 0.0:
                T[r] -= T[r, j] * T[i]
        basis[i] = j
    x = np.zeros(n + m)
    x[basis] = T[:m, -1]
    return x[:n], float(T[m, -1])


class TestHull:
    def test_squares_not_interior(self):
        curve = gamma_curve(SQUARE, 2, -2.0, 2.0)
        verdict = hull_origin_test(curve)
        assert not verdict.interior
        nu = verdict.direction
        # the constant-positive second coordinate separates: nu = (0, 1)
        assert nu is not None
        assert np.min(curve.points @ nu) >= -1e-12
        assert nu[1] == pytest.approx(1.0, abs=1e-12)
        assert abs(nu[0]) < 1e-9

    def test_cubic_interior_with_brute_force_oracle(self):
        curve = gamma_curve(CUBIC_MINUS, 2, -2.0, 2.0)
        verdict = hull_origin_test(curve)
        assert verdict.interior
        # oracle: no separating direction among many random unit vectors
        rng = np.random.default_rng(0)
        dirs = rng.normal(size=(10_000, 2))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        worst = np.max(np.min(dirs @ curve.points.T, axis=1))
        assert worst < 0

    def test_quartic_interior(self, quartic):
        curve = gamma_curve(quartic, 2, -3.0, 3.0)
        assert hull_origin_test(curve).interior

    def test_interior_certificate_recomputes(self, quartic):
        for f, rng_pair in ((CUBIC_MINUS, (-2.0, 2.0)), (quartic, (-3.0, 3.0))):
            curve = gamma_curve(f, 2, *rng_pair)
            verdict = hull_origin_test(curve)
            assert verdict.interior
            lam = verdict.convex_coefficients
            assert np.all(lam >= 0)
            assert lam.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(lam @ curve.points) < 1e-9
            assert verdict.certificate_residual(curve.points) < 1e-9
            assert verdict.margin > 0

    def test_not_interior_certificate_recomputes(self):
        curve = gamma_curve(SQUARE, 2, -2.0, 2.0)
        verdict = hull_origin_test(curve)
        assert verdict.certificate_residual(curve.points) <= 1e-12

    def test_matches_scipy_linprog(self):
        # independent LP oracle on random point clouds
        from scipy.optimize import linprog
        rng = np.random.default_rng(42)
        agreements = 0
        for trial in range(30):
            k = int(rng.integers(2, 5))
            pts = rng.normal(size=(25, k)) + rng.normal(size=(1, k)) * 0.8

            class FakeCurve:
                pass
            c = FakeCurve()
            c.k, c.points = k, pts
            verdict = hull_origin_test(c)
            # oracle: 0 interior iff max_nu min_i nu.p_i < 0 over the box
            worst = -np.inf
            for j in range(k):
                for s in (1.0, -1.0):
                    free = [l for l in range(k) if l != j]
                    # max delta: minimize -delta over (nu_free, delta)
                    A_ub = np.zeros((len(pts), len(free) + 1))
                    A_ub[:, :-1] = -pts[:, free]
                    A_ub[:, -1] = 1.0
                    b_ub = s * pts[:, j]
                    res = linprog(
                        c=np.concatenate([np.zeros(len(free)), [-1.0]]),
                        A_ub=A_ub, b_ub=b_ub,
                        bounds=[(-1, 1)] * len(free) + [(None, None)],
                        method="highs")
                    if res.status == 0:
                        worst = max(worst, -res.fun)
            assert verdict.interior == bool(worst < 0)
            agreements += 1
        assert agreements == 30

    def test_rank_one_pivot_matches_row_loop(self):
        # the condensed pivot forms the full tableau's products on its
        # nonbasic columns (the leaving column as -a_rj * (1/p)) and makes
        # the same label-ordered choices, so a row-by-row update of the full
        # tableau must reach the identical optimum; HiGHS confirms the value
        from scipy.optimize import linprog
        rng = np.random.default_rng(7)
        for trial in range(20):
            m, n = int(rng.integers(5, 40)), int(rng.integers(2, 6))
            A = np.vstack([rng.normal(size=(m, n)), np.eye(n)])
            b = np.concatenate([rng.uniform(0.5, 2.0, m), np.ones(n)])
            c = rng.normal(size=n)
            x, obj, _ = _simplex_max(A, b, c)
            x_ref, obj_ref = _row_loop_simplex_max(A, b, c)
            assert np.array_equal(x, x_ref)
            assert obj == obj_ref
            res = linprog(-c, A_ub=A, b_ub=b, method="highs")
            assert res.status == 0
            assert abs(obj + res.fun) <= 1e-9

    def test_every_face_lp_matches_row_loop(self, quartic):
        # all 2k face LPs of a 401-sample gamma_4, including the faces the
        # hull test skips once it finds a separating one
        P = gamma_curve(quartic, 4, -3.0, 3.0).points
        m, k = P.shape
        B = 1.0 + float(np.max(np.sum(np.abs(P), axis=1)))
        for j in range(k):
            for s in (+1.0, -1.0):
                free = [l for l in range(k) if l != j]
                A = np.vstack([np.column_stack([-P[:, free], np.ones(m)]),
                               np.eye(k - 1, k)])
                b = np.concatenate([B + s * P[:, j] - P[:, free].sum(axis=1),
                                    np.full(k - 1, 2.0)])
                c = np.eye(k)[-1]
                x, obj, _ = _simplex_max(A, b, c)
                x_ref, obj_ref = _row_loop_simplex_max(A, b, c)
                assert np.array_equal(x, x_ref)
                assert obj == obj_ref

    def test_iteration_limit_raises(self):
        # Beale's LP cycles under Dantzig's rule; the cap must not return
        # the cycling basis as if it were optimal, and Bland's rule must
        # escape the cycle once it takes over
        A = np.array([[0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0],
                      [0.0, 0.0, 1.0, 0.0]])
        b = np.array([0.0, 0.0, 1.0])
        c = np.array([0.75, -150.0, 0.02, -6.0])
        with pytest.raises(globalgeo._SimplexFailure, match="iteration limit"):
            _simplex_max(A, b, c, max_iter=3)
        for cap in (20, 5000):
            x, obj, _ = _simplex_max(A, b, c, max_iter=cap)
            assert obj == pytest.approx(0.05, abs=1e-12)
            assert np.allclose(x, [0.04, 0.0, 1.0, 0.0], rtol=0, atol=1e-12)

    def test_diagnostics_count_the_solve(self, quartic):
        interior = hull_origin_test(gamma_curve(quartic, 2, -3.0, 3.0))
        d = interior.diagnostics
        assert interior.interior and d["face_lps"] == 4
        assert d["face_pivots"] >= d["face_lps"] and d["phase1_pivots"] >= 1
        assert d["max_face_delta"] == -interior.margin
        assert d["certificate_residual"] <= d["certificate_tol"] == 1e-9
        curve = gamma_curve(SQUARE, 2, -2.0, 2.0)
        separating = hull_origin_test(curve)
        d = separating.diagnostics
        assert not separating.interior and d["phase1_pivots"] == 0
        assert d["certificate_residual"] == separating.certificate_residual(
            curve.points) <= d["certificate_tol"] == 1e-12

    def test_face_lps_match_row_loop(self, quartic, monkeypatch):
        # the face LPs are filled by slicing; filling them sample by sample
        # must give the same A and b, bit for bit, in the same face order
        P = gamma_curve(quartic, 4, -3.0, 3.0).points
        m, k = P.shape
        B = 1.0 + float(np.max(np.sum(np.abs(P), axis=1)))
        seen = []

        def record(A, b, c):
            seen.append((A.copy(), b.copy()))
            return _simplex_max(A, b, c)

        monkeypatch.setattr(globalgeo, "_simplex_max", record)
        globalgeo._hull_test_box(P, Counter())
        faces = [(j, s) for j in range(k) for s in (+1.0, -1.0)]
        assert 0 < len(seen) <= len(faces)
        for (A, b), (j, s) in zip(seen, faces):
            free = [l for l in range(k) if l != j]
            nfree = len(free)
            A_ref = np.zeros((m + nfree, nfree + 1))
            b_ref = np.zeros(m + nfree)
            for i in range(m):
                A_ref[i, :nfree] = -P[i, free]
                A_ref[i, nfree] = 1.0
                b_ref[i] = B + s * P[i, j] - np.sum(P[i, free])
            for li in range(nfree):
                A_ref[m + li, li] = 1.0
                b_ref[m + li] = 2.0
            assert np.array_equal(A, A_ref)
            assert np.array_equal(b, b_ref)

    @pytest.mark.parametrize("inject", HULL_FAULTS)
    def test_uncertified_pass_raises(self, quartic, inject, monkeypatch):
        # the butterfly quartic has singularities of order 4 (gamma_2
        # interior); a hull pass left without its certificate must raise,
        # not read as a separated gamma_2 and so as a global fold
        inject(monkeypatch)
        with pytest.raises(MorinodeError):
            classify_operator(quartic)


class TestDegree:
    def test_even_zero(self):
        assert degree(SQUARE) == 0

    def test_monotone_plus_one(self):
        assert degree(CUBIC_PLUS) == 1

    def test_mirrored_minus_one(self):
        assert degree(NEG_CUBIC) == -1

    def test_sign_not_uniform_raises(self):
        wild = Nonlinearity.from_builtin("cosh2_cos")
        with pytest.raises(PreconditionError):
            degree(wild)


class TestTameness:
    def test_autonomous_always_tame(self, quartic):
        rep = tameness(quartic)
        assert rep.tame
        assert rep.detail["basis"] == "autonomous"

    def test_wild_builtin(self):
        rep = tameness(Nonlinearity.from_builtin("cosh2_cos"))
        assert rep.wild_suspected_at == ("+inf", "-inf")
        assert not rep.tame

    def test_cubic_with_forcing_tame(self):
        from morinode.core import FourierAnsatz, Term
        f = Nonlinearity([Term(3, FourierAnsatz(1.0)),
                          Term(0, FourierAnsatz(0.0, [1.0]))])
        rep = tameness(f)
        assert rep.tame


def _derivative(p):
    return [j * c for j, c in enumerate(p)][1:]


def _remainder(a, b):
    """Remainder of a by b; exact polynomials, ascending coefficients."""
    a = list(a)
    while len(a) >= len(b):
        q = a[-1] / b[-1]
        for i, c in enumerate(b):
            a[len(a) - len(b) + i] -= q * c
        a.pop()   # the leading term is now exactly zero
        while a and a[-1] == 0:
            a.pop()
    return a


def _sturm(p):
    """(distinct real roots, squarefree) of an exact polynomial p of degree
    >= 1, by Sturm's theorem: sign variations of the sequence p, p',
    -rem(...) at -inf minus those at +inf; its last term is gcd(p, p')."""
    seq = [p, _derivative(p)]
    while seq[-1]:
        seq.append([-c for c in _remainder(seq[-2], seq[-1])])
    seq.pop()

    def variations(positive):
        return sum(a != b for a, b in zip(positive, positive[1:]))

    at_plus = [q[-1] > 0 for q in seq]
    at_minus = [(q[-1] > 0) == (len(q) % 2 == 1) for q in seq]
    return variations(at_minus) - variations(at_plus), len(seq[-1]) == 1


class TestClassifyOperator:
    def test_table(self, quartic):
        assert classify_operator(CUBIC_PLUS).verdict == "diffeomorphism"
        assert classify_operator(SQUARE).verdict == "global_fold"
        assert classify_operator(CUBIC_MINUS).verdict == "global_cusp"
        assert classify_operator(quartic).verdict == "has_higher_singularities"
        # f''' = -210 x^2 (x^2 - 1) is positive on (-1, 0) and (0, 1)
        hump = Nonlinearity.polynomial([0, 210, 0, 0, 0, 3.5, 0, -1])
        assert classify_operator(hump).verdict != "global_cusp"
        # f''' = 180 x^2: an exact double root keeps f''' one-signed
        oc = classify_operator(Nonlinearity.polynomial([-2, 2, 4, 0, 0, 3]))
        assert oc.verdict == "global_cusp"
        assert oc.evidence["third_derivative_sign"] == 1
        # f' = -(x - 2)^2 (x - 3) has a real root, so f is no diffeomorphism
        touch = Nonlinearity.polynomial([0, 12, -8, 7 / 3, -0.25])
        assert classify_operator(touch).verdict != "diffeomorphism"

    def test_sign_verdicts_against_sturm_oracle(self):
        # exact oracle on random integer polynomials of degree 5 to 7 whose
        # f', f'' and f''' are squarefree, so that every real root is simple
        # and a sign change: each sign-table verdict must hold exactly
        rng = np.random.default_rng(11)
        checked, verdicts = 0, Counter()
        while checked < 200:
            coeffs = [int(c) for c in rng.integers(-9, 10,
                                                   size=rng.integers(6, 9))]
            if coeffs[-1] == 0:
                continue
            c1 = _derivative([Fraction(c) for c in coeffs])
            c2 = _derivative(c1)
            (n1, sf1), (n2, sf2), (n3, sf3) = map(
                _sturm, (c1, c2, _derivative(c2)))
            if not (sf1 and sf2 and sf3):
                continue
            checked += 1
            oc = classify_operator(Nonlinearity.polynomial(coeffs))
            verdicts[oc.verdict] += 1
            if oc.verdict == "global_cusp":
                assert n3 == 0 and n1 > 0, coeffs
            elif oc.verdict == "diffeomorphism":
                assert n1 == 0, coeffs
            elif "second_derivative_sign" in oc.evidence:
                assert n2 == 0, coeffs
        assert verdicts["global_cusp"] and verdicts["diffeomorphism"]

    def test_evidence_is_checkable(self, quartic):
        oc = classify_operator(quartic)
        hull2 = oc.evidence["hull_gamma2"]
        assert hull2.interior and hull2.margin > 0
        hull3 = oc.evidence["hull_gamma3"]
        assert hull3.interior

    def test_non_polynomial_undetermined(self):
        oc = classify_operator(Nonlinearity.from_builtin("cosh2_cos"))
        assert oc.verdict == "undetermined"


class TestReparam:
    def test_constant_is_identity(self):
        u = PeriodicFn.constant(0.4)
        v, tc = reparam(CUBIC_MINUS, ToSimplified(u))
        assert np.max(np.abs(v.values - 0.4)) < 1e-12
        assert np.max(np.abs(tc.forward - Grid().nodes)) < 1e-12

    def test_cusp_transfers_to_simplified(self, located_cusp):
        f, u, _ = located_cusp
        v, _ = reparam(f, ToSimplified(u))
        hat = sigma_hat(f, v, 2)
        assert np.max(np.abs(hat)) < 1e-7

    @pytest.mark.parametrize("n", [64, 256, 1024, 4096])
    def test_roundtrip_identity(self, located_cusp, n):
        f, _, ans = located_cusp
        u = ans.sample(Grid(n))
        v, _ = reparam(f, ToSimplified(u))
        back, _ = reparam(f, FromSimplified(v))
        assert np.max(np.abs(back.values - u.values)) < 1e-12

    def test_directions_return_the_same_maps(self, located_cusp):
        f, u, _ = located_cusp
        v, to = reparam(f, ToSimplified(u))
        _, back = reparam(f, FromSimplified(v))
        assert np.max(np.abs(back.forward - to.inverse)) <= 1e-12
        assert np.max(np.abs(back.inverse - to.forward)) <= 1e-12
        assert abs(back.params["alpha_end"] - 1.0) <= 1e-14
        for steps in (to.diagnostics["newton_steps"],
                      back.diagnostics["newton_steps"],
                      back.diagnostics["a_newton_steps"]):
            assert 1 <= steps <= 10

    @pytest.mark.parametrize("amplitude", [0.5, 3.0, 10.0])
    def test_large_amplitude_fold_stratum(self, amplitude):
        # f = x^2, v = a cos(2 pi t): h = (a / pi) sin(2 pi t), and the
        # solved A sits 0.85 ... 0.15 above max h; Newton must not step
        # below max h, where 1/(A - h) has poles
        v = PeriodicFn.from_callable(
            lambda t: amplitude * np.cos(TWO_PI * t), Grid(1024))
        u, tc = reparam(SQUARE, FromSimplified(v))
        assert tc.params["A"] > amplitude / np.pi
        assert abs(tc.params["alpha_end"] - 1.0) <= 1e-14
        assert np.all(np.diff(tc.inverse) > 0)
        assert 1 <= tc.diagnostics["a_newton_steps"] <= 10
        back, _ = reparam(SQUARE, ToSimplified(u))
        assert np.max(np.abs(back.values - v.values)) < 1e-12

    def test_from_simplified_needs_fold_stratum(self):
        # ToSimplified lands at mean(f_x(v)) = Sigma_1(u) = -0.295 here
        v, _ = reparam(CUBIC_MINUS, ToSimplified(GENERIC_U))
        with pytest.raises(PreconditionError, match="fold stratum"):
            reparam(CUBIC_MINUS, FromSimplified(v))

    @pytest.mark.parametrize("amplitude", [10.0, 500.0])
    def test_under_resolved_time_change_raises(self, amplitude):
        # on n = 64 the rate 1/(A - h) of f = x^2, v = a cos(2 pi t) is not
        # resolved: its interpolant dips below 0 between nodes, and the
        # round trip was off by 2.2e-3 (a = 10) and 611 (a = 500)
        v = PeriodicFn.from_callable(
            lambda t: amplitude * np.cos(TWO_PI * t), Grid(64))
        with pytest.raises(PreconditionError, match="not resolved"):
            reparam(SQUARE, FromSimplified(v))

    def test_beta_gauge(self):
        _, tc = reparam(CUBIC_MINUS, ToSimplified(GENERIC_U))
        beta = tc.forward
        assert beta[0] == pytest.approx(0.0, abs=1e-14)
        assert np.all(np.diff(beta) > 0)
        # beta(1) = 1: the node array stops short of 1, check via the mean rule
        assert beta[-1] < 1.0


class TestSeeds:
    def test_symmetric_plateaus_for_squares(self):
        seed = seed_shat(SQUARE, 1, [-1.0, 1.0], epsilon=0.1)
        a = seed.plateau_lengths
        assert a[0] == pytest.approx(a[1], abs=1e-12)
        assert a.sum() == pytest.approx(0.9, abs=1e-12)
        hat = sigma_hat(SQUARE, seed.sample(Grid(2048)), 1)
        assert abs(hat[0]) < 1e-6

    def test_cubic_seed_annihilates_two(self):
        curve = gamma_curve(CUBIC_MINUS, 2, -1.6, 1.6, count=33)
        verdict = hull_origin_test(curve)
        assert verdict.interior
        lam = verdict.convex_coefficients
        anchors = _anchor_spread(curve.xs, lam, 4)
        seed = seed_shat(CUBIC_MINUS, 2, anchors, epsilon=0.08)
        hat = sigma_hat(CUBIC_MINUS, seed.sample(Grid(4096)), 2)
        assert np.max(np.abs(hat)) < 1e-6

    def test_replicated_seed_approaches_simplified(self):
        curve = gamma_curve(CUBIC_MINUS, 2, -1.6, 1.6, count=33)
        lam = hull_origin_test(curve).convex_coefficients
        anchors = _anchor_spread(curve.xs, lam, 4)
        seed = seed_shat(CUBIC_MINUS, 2, anchors, epsilon=0.08)
        grid = Grid(8192)
        rep = replicate(seed.sample(grid), 8)
        hat = sigma_hat(CUBIC_MINUS, rep, 2)
        full = sigma_vec(CUBIC_MINUS, rep)
        assert abs(full.sigma[0] - hat[0]) < 0.05
        assert abs(full.sigma[1] - hat[1]) < 0.05

    def test_replicate_index_trick(self):
        u = PeriodicFn.from_callable(lambda t: np.cos(TWO_PI * t))
        r = replicate(u, 4)
        expect = np.cos(TWO_PI * 4 * Grid().nodes)
        assert np.max(np.abs(r.values - expect)) < 1e-12

    def test_bad_anchors_raise(self):
        with pytest.raises(PreconditionError):
            seed_shat(SQUARE, 2, [0.5, 1.0, 1.5, 2.0], epsilon=0.1)


def _anchor_spread(xs, lam, count):
    """Representative anchor levels from the hull certificate support."""
    idx = np.argsort(lam)[::-1]
    picks = []
    for i in idx:
        if all(abs(xs[i] - xs[j]) > 0.15 for j in picks):
            picks.append(i)
        if len(picks) == count:
            break
    return sorted(float(xs[i]) for i in picks)


class TestIdentitiesAndFibreClaims:
    def test_cubic_quadrature_identity(self):
        # (b-a)(g'(a)+g'(b)) - 2(g(b)-g(a)) = -int_a^b (t-a)(t-b) g'''(t) dt
        rng = np.random.default_rng(14)
        for _ in range(100):
            g = rng.normal(size=4)
            a, b = sorted(rng.uniform(-3, 3, size=2))
            if b - a < 1e-3:
                continue
            gp = np.polynomial.polynomial.polyder(g)
            ga, gb = np.polynomial.polynomial.polyval([a, b], g)
            gpa, gpb = np.polynomial.polynomial.polyval([a, b], gp)
            lhs = (b - a) * (gpa + gpb) - 2 * (gb - ga)
            # Simpson quadrature; the integrand is quadratic so it is exact
            ts = np.linspace(a, b, 201)
            integrand = (ts - a) * (ts - b) * 6.0 * g[3]
            rhs = -_simpson(integrand, ts[1] - ts[0])
            assert lhs == pytest.approx(rhs, abs=1e-10 * max(1, abs(lhs)))

    def test_at_most_two_critical_points_per_fibre(self):
        # the sign of Sigma_1 along any fibre of x^3 - x changes at most twice
        from morinode import solve_periodic, Average
        f = CUBIC_MINUS
        for eps in (0.0, 0.25, 0.6):
            vt = PeriodicFn.from_callable(lambda t: eps * np.cos(TWO_PI * t))
            averages = np.linspace(-1.4, 1.4, 15)
            signs = []
            for a in averages:
                fp = solve_periodic(f, vt, Average(float(a)))
                s1 = sigma_vec(f, fp.u).sigma[0]
                signs.append(np.sign(s1))
            flips = sum(1 for i in range(len(signs) - 1)
                        if signs[i] != signs[i + 1])
            assert flips <= 2


def _simpson(vals, dx):
    return dx / 3.0 * (vals[0] + vals[-1] + 4 * np.sum(vals[1:-1:2])
                       + 2 * np.sum(vals[2:-2:2]))
