import dataclasses
import itertools
import json
import math
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from morinode import (FromSimplified, Grid, Nonlinearity, PeriodicFn,
                      ToSimplified, classify_operator, degree, gamma_curve,
                      hull_origin_test, mean, replicate, reparam, seed_shat,
                      sigma_hat, sigma_vec, tameness)
from morinode.core import FourierAnsatz, MorinodeError, PreconditionError, Term
from morinode import globalgeo
from morinode.cli import execute
from morinode.globalgeo import _simplex_max
from tests.conftest import HULL_FAULTS

TWO_PI = 2 * np.pi

SQUARE = Nonlinearity.polynomial([0, 0, 1])
CUBIC_PLUS = Nonlinearity.polynomial([0, 1, 0, 1])     # x^3 + x
CUBIC_MINUS = Nonlinearity.polynomial([0, -1, 0, 1])   # x^3 - x
NEG_CUBIC = Nonlinearity.polynomial([0, 0, 0, -1])     # -x^3
WILD = Nonlinearity([Term(2, FourierAnsatz(0.0, [1.0]))])  # cos(2 pi t) x^2
# (1 + cos(2 pi t)) x^3 + x
ONE_SIGNED_CUBIC = Nonlinearity([Term(3, FourierAnsatz(1.0, [1.0])),
                                 Term(1, FourierAnsatz(1.0))])
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


def _column_scale(P):
    """Per column, the power of two that puts its largest |entry| in
    [0.5, 1); 1 for a zero column."""
    return np.array([math.ldexp(1.0, -math.frexp(float(max(abs(col))))[1])
                     for col in P.T])


def _seeded_corpus(per_degree):
    """Even-degree polynomials with coefficients over five decades and a
    positive leading one: ``per_degree`` each of degree 4, 6 and 8."""
    rng = np.random.default_rng(7)
    for deg in (4, 6, 8):
        for _ in range(per_degree):
            c = rng.normal(size=deg + 1)
            c *= 10.0 ** rng.uniform(-2, 3, deg + 1)
            c[-1] = abs(c[-1])
            yield Nonlinearity.polynomial(c)


def _sampling_window(f):
    """The x-range of the boundary cases and the corpus below: [-4, 4],
    widened to reach 2 beyond every real root (imaginary part
    within 1e-9 (1 + |r|)) that ``np.roots`` places for f', f'' and f'''."""
    r = np.concatenate([np.roots(np.trim_zeros(f.poly_coeffs(i), "b")[::-1])
                        for i in (1, 2, 3)])
    crit = r[np.abs(r.imag) <= 1e-9 * (1.0 + np.abs(r))].real
    return (float(np.min(crit - 2.0, initial=-4.0)),
            float(np.max(crit + 2.0, initial=4.0)))


# the bench's 4 x 4 classify sweep of x^4 - b x^2 + c x
SWEEP_CELLS = list(itertools.product(np.linspace(3.5, 4.5, 4),
                                     np.linspace(-0.5, 0.4, 4)))


# rounded coefficients of four large-scale operators on which the box-face
# hull test answered without a valid certificate or raised "negative RHS",
# the gamma_k and the x-range (``_sampling_window``) of the curve the one
# LP stops at, and the margin t it finds there: each lies within the
# rounding bound m (pivots + 1) eps
BOUNDARY_CASES = [
    pytest.param([-1275, 441.4, 172.6, -4395, 0.1706, 15660, 1.508, 8.463,
                  0.004355], 2, (-1702.9971995906405, 4.0), 2.5e-15,
                 id="uncertified-fold"),
    pytest.param([-0.05063, 5489, 3416, -56.69, 0.3209, 142.9, 0.02231],
                 2, (-5339.664377006151, 4.0), -7.8e-14,
                 id="big-m-negative-rhs"),
    pytest.param([-575.2, 7564, 2205, -3227, -550.1, 4260, -3394, -1443,
                  7.329], 3, (-4.725630255930298, 176.25909841841414),
                 6.1e-13, id="absolute-tolerance"),
    pytest.param([-0.06025, 6.385, -0.004779, 1031, -0.0126, 543.6,
                  0.005399], 2, (-83906.42677779934, 4.0), -1.1e-18,
                 id="gamma-1e23"),
]


class TestHull:
    def test_squares_not_interior(self):
        curve = gamma_curve(SQUARE, 2, -2.0, 2.0)
        verdict = hull_origin_test(curve)
        assert not verdict.interior
        nu = verdict.direction
        # the points lie on the line f'' = 2, so the direction is the null
        # vector of the centred points, oriented by their mean: nu = (0, +)
        assert nu is not None
        assert np.min(curve.points @ nu) >= -1e-12
        assert nu[0] == 0.0 and nu[1] > 0
        assert verdict.margin == -np.inf

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
        # the 2k big-M box-face LPs of a 401-sample gamma_4, a degenerate
        # family: the condensed pivots must match the row loop on each
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
        curve = gamma_curve(quartic, 2, -3.0, 3.0)
        interior = hull_origin_test(curve)
        d = interior.diagnostics
        assert set(d) == {"lp_pivots", "phase1_pivots",
                          "certificate_residual", "certificate_tol",
                          "margin_decades"}
        assert interior.interior and 0 < interior.margin <= 1 / 401
        assert d["margin_decades"] == math.log10(
            interior.margin
            / (401 * (d["lp_pivots"] + 1) * np.finfo(float).eps))
        assert d["lp_pivots"] >= 1 and d["phase1_pivots"] >= 1
        S = curve.points * _column_scale(curve.points)
        assert d["certificate_residual"] == interior.certificate_residual(S)
        assert d["certificate_residual"] <= d["certificate_tol"] == 1e-9
        # separating by the LP (x^4 + x: f'' >= 0 and f' > 0 where f'' = 0)
        curve = gamma_curve(Nonlinearity.polynomial([0, 1, 0, 0, 1]), 2,
                            -2.0, 2.0)
        separating = hull_origin_test(curve)
        d = separating.diagnostics
        assert not separating.interior and separating.margin < 0
        assert d["lp_pivots"] >= 1 and d["phase1_pivots"] == 0
        assert d["margin_decades"] == math.log10(
            -separating.margin
            / (401 * (d["lp_pivots"] + 1) * np.finfo(float).eps))
        # the direction maps back exactly: its residual on the raw points
        # is the one on the scaled points
        assert d["certificate_residual"] == separating.certificate_residual(
            curve.points) <= d["certificate_tol"] == 1e-12
        # separating by the null vector of points in a line: no LP
        separating = hull_origin_test(gamma_curve(SQUARE, 2, -2.0, 2.0))
        assert separating.diagnostics["lp_pivots"] == 0
        assert separating.diagnostics["phase1_pivots"] == 0
        assert separating.margin == -math.inf
        assert separating.diagnostics["margin_decades"] == math.inf

    def test_classify_sweep_margins_clear_the_rounding_bound(self):
        # the 32 hull verdicts on gamma_2 and gamma_3 over [-4, 4] of the
        # sweep's 16 quartics have t of 2.6e-4 to 3.5e-4, about 8.4 to 9.1
        # decades above the bound at which the test raises
        decades = [hull_origin_test(gamma_curve(Nonlinearity.quartic(b, c),
                                                k, -4.0, 4.0))
                   .diagnostics["margin_decades"]
                   for b, c in SWEEP_CELLS for k in (2, 3)]
        assert len(decades) == 32 and min(decades) > 6

    def test_column_scaling_by_powers_of_two(self):
        # the test runs on the points scaled column by column by powers of
        # two, so such a scaling of the input leaves its answer bitwise
        # unchanged, and no column scale over- or underflows, not even for
        # a subnormal column or a zero one
        curve = gamma_curve(CUBIC_MINUS, 2, -2.0, 2.0)

        def scaled(s):
            return hull_origin_test(dataclasses.replace(
                curve, points=curve.points * [1.0, s]))

        base = hull_origin_test(curve)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for s in (2.0 ** -1000, 2.0 ** 1000):
                verdict = scaled(s)
                assert verdict.margin == base.margin
                assert np.array_equal(verdict.convex_coefficients,
                                      base.convex_coefficients)
            assert scaled(2.0 ** -1060).interior
            flat = scaled(0.0)
        assert not flat.interior and flat.margin == -np.inf
        assert np.array_equal(np.abs(flat.direction), [0.0, 1.0])

    def test_lp_matches_row_loop_fill(self, quartic, monkeypatch):
        # the one LP is filled by slicing; scaling and filling it sample by
        # sample must give the same A, b and c, bit for bit
        seen = []

        def record(A, b, c):
            seen.append((A.copy(), b.copy(), c.copy()))
            return _simplex_max(A, b, c)

        monkeypatch.setattr(globalgeo, "_simplex_max", record)
        for k in (2, 3):
            P = gamma_curve(quartic, k, -3.0, 3.0).points
            m = len(P)
            seen.clear()
            globalgeo._hull_test_box(P, Counter())
            assert len(seen) == 1
            A, b, c = seen[0]
            scale = _column_scale(P)
            top = np.max(np.abs(P), axis=0) * scale
            assert np.all((0.5 <= top) & (top < 1.0))
            S = np.zeros_like(P)
            for i in range(m):
                for j in range(k):
                    S[i, j] = P[i, j] * scale[j]
            pbar = S.mean(axis=0)
            A_ref = np.zeros((m, 2 * k))
            for i in range(m):
                for j in range(k):
                    A_ref[i, j] = S[i, j] - pbar[j]
                    A_ref[i, k + j] = -(S[i, j] - pbar[j])
            assert np.array_equal(A, A_ref)
            assert np.array_equal(b, np.ones(m))
            assert np.array_equal(c, np.concatenate([-pbar, pbar]))

    def test_lp_optimum_and_margin_match_oracles(self, quartic, monkeypatch):
        # the LP's optimum equals the row loop's bit for bit and HiGHS's to
        # 1e-9, and its margin t = (1 - optimum) / m equals the one HiGHS
        # reads off the dual min sum mu s.t. Q^T mu = -pbar, mu >= 0
        from scipy.optimize import linprog
        seen = []

        def record(A, b, c):
            seen.append((A, b, c))
            return _simplex_max(A, b, c)

        monkeypatch.setattr(globalgeo, "_simplex_max", record)
        curves = [gamma_curve(quartic, k, -3.0, 3.0) for k in (2, 3)]
        curves.append(gamma_curve(Nonlinearity.polynomial([0, 1, 0, 0, 1]),
                                  2, -2.0, 2.0))
        for curve in curves:
            seen.clear()
            verdict = hull_origin_test(curve)
            (A, b, c), = seen
            m, k = curve.points.shape
            x, obj, _ = _simplex_max(A, b, c)
            x_ref, obj_ref = _row_loop_simplex_max(A, b, c)
            assert np.array_equal(x, x_ref) and obj == obj_ref
            res = linprog(-c, A_ub=A, b_ub=b, method="highs")
            assert res.status == 0 and abs(obj + res.fun) <= 1e-9
            assert verdict.margin == (1.0 - obj) / m
            Q, pbar = A[:, :k], -c[:k]
            dual = linprog(np.ones(m), A_eq=Q.T, b_eq=-pbar,
                           bounds=(0, None), method="highs")
            assert dual.status == 0
            assert abs(verdict.margin - (1.0 - dual.fun) / m) <= 1e-9 / m

    @pytest.mark.parametrize("inject", HULL_FAULTS)
    def test_uncertified_pass_raises(self, quartic, inject, monkeypatch):
        # gamma_2 of the butterfly quartic on [-3, 3] is interior; a hull
        # pass left without its certificate must raise, not read as a
        # separation
        inject(monkeypatch)
        with pytest.raises(MorinodeError):
            hull_origin_test(gamma_curve(quartic, 2, -3.0, 3.0))

    @pytest.mark.parametrize("coeffs, k, window, t", BOUNDARY_CASES)
    def test_boundary_to_rounding_raises(self, coeffs, k, window, t):
        f = Nonlinearity.polynomial(coeffs)
        assert _sampling_window(f) == window
        with pytest.raises(globalgeo._SimplexFailure,
                           match="boundary to rounding") as caught:
            hull_origin_test(gamma_curve(f, k, *window))
        found = float(str(caught.value).rpartition("t = ")[2])
        assert found == pytest.approx(t, rel=0.02)
        # f'' takes both signs on R, so the cascade answers with no LP
        assert classify_operator(f).verdict == "has_higher_singularities"

    def test_seeded_corpus_certificates_hold_on_scaled_points(self):
        # on gamma_2..gamma_4 over ``_sampling_window``, every verdict
        # meets its tolerance on the scaled points, and every raise is the
        # boundary rule
        outcomes = Counter()
        for f in _seeded_corpus(20):
            lo, hi = _sampling_window(f)
            for k in (2, 3, 4):
                curve = gamma_curve(f, k, lo, hi)
                P = curve.points
                try:
                    verdict = hull_origin_test(curve)
                except globalgeo._SimplexFailure as exc:
                    assert "boundary to rounding" in str(exc)
                    outcomes["boundary"] += 1
                    continue
                d = verdict.diagnostics
                if verdict.interior:
                    resid = verdict.certificate_residual(P * _column_scale(P))
                else:   # S nu = P (2^-e nu) exactly
                    resid = verdict.certificate_residual(P)
                assert resid == d["certificate_residual"]
                assert resid <= d["certificate_tol"]
                assert (verdict.margin > 0) == verdict.interior
                outcomes[verdict.interior] += 1
        assert min(outcomes.values()) >= 1 and sum(outcomes.values()) == 180


class TestDegree:
    def test_even_zero(self):
        assert degree(SQUARE) == 0

    def test_monotone_plus_one(self):
        assert degree(CUBIC_PLUS) == 1

    def test_mirrored_minus_one(self):
        assert degree(NEG_CUBIC) == -1

    def test_sign_not_uniform_raises(self):
        with pytest.raises(PreconditionError):
            degree(WILD)

    def test_leading_power_summed_exactly(self):
        # x^3 - x^3 + x^2: the cubic terms cancel, so f is an even square
        f = Nonlinearity([Term(3, FourierAnsatz(1.0)),
                          Term(3, FourierAnsatz(-1.0)),
                          Term(2, FourierAnsatz(1.0))])
        assert degree(f) == 0

    def test_leading_coefficient_with_zeros_raises(self):
        # (1 + cos 2 pi t) x^3 + x: a_3 >= 0 vanishes at t = 1/2, where the
        # lower terms decide the limit signs
        with pytest.raises(PreconditionError, match="coefficient vanishes"):
            degree(ONE_SIGNED_CUBIC)

    def test_zero_raises(self):
        with pytest.raises(PreconditionError):
            degree(Nonlinearity())


class TestTameness:
    def test_autonomous_always_tame(self, quartic):
        rep = tameness(quartic)
        assert rep.tame
        assert rep.detail == {"n": 4, "leading_signs": [1]}

    def test_wild_polynomial(self):
        rep = tameness(WILD)
        assert rep.wild_suspected_at == ("+inf", "-inf")
        assert rep.plus == rep.minus == "converging"
        assert rep.detail == {"n": 2, "leading_signs": [-1, 1]}
        assert not rep.tame

    def test_cubic_with_forcing_tame(self):
        f = Nonlinearity([Term(3, FourierAnsatz(1.0)),
                          Term(0, FourierAnsatz(0.0, [1.0]))])
        rep = tameness(f)
        assert rep.tame

    @pytest.mark.parametrize("f", [
        # the constant x^4 coefficient decides both ends, however far out
        # the x^2 term dominates
        pytest.param(Nonlinearity([Term(2, FourierAnsatz(0.0, [1.0])),
                                   Term(4, FourierAnsatz(1e-6))]),
                     id="small-quartic-over-wild-square"),
        # a_2 = 1 + cos 2 pi t >= 0 with a zero: sup_t(-f) <= C (1 + |x|)
        pytest.param(Nonlinearity([Term(2, FourierAnsatz(1.0, [1.0]))]),
                     id="one-signed-square"),
        pytest.param(Nonlinearity([Term(1, FourierAnsatz(0.0, [1.0]))]),
                     id="wild-linear"),
        pytest.param(Nonlinearity(), id="zero"),
    ])
    def test_tame(self, f):
        rep = tameness(f)
        assert rep.tame and rep.plus == rep.minus == "diverging"

    def test_one_signed_cubic_with_zeros_raises(self):
        with pytest.raises(PreconditionError, match="one-signed with zeros"):
            tameness(ONE_SIGNED_CUBIC)

    @pytest.mark.parametrize("series, signs, vanishes", [
        # sin 2 pi t: both signs, zeros at t = 0 (s = 0) and t = 1/2
        # (P = 2 s of degree 1 < 2)
        ((0.0, [0.0], [1.0]), {-1, 1}, True),
        # 1 + cos 2 pi t: its only zero is t = 1/2, P(s) = 2 of degree 0 < 2
        ((1.0, [1.0]), {1}, True),
        # 1.5 + cos 2 pi t - 0.25 sin 4 pi t stays above 0.25
        ((1.5, [1.0, 0.0], [0.0, -0.25]), {1}, False),
        # 2^-30 - 1 + cos 2 pi t is positive only on a tiny arc about t = 0
        ((2.0 ** -30 - 1.0, [1.0]), {-1, 1}, True),
        ((-2.0, [0.5, 0.5], [0.5, 0.5]), {-1}, False),
    ])
    def test_leading_coefficient_on_the_circle(self, series, signs, vanishes):
        f = Nonlinearity([Term(2, FourierAnsatz(*series)),
                          Term(1, FourierAnsatz(3.0))])
        assert globalgeo._leading(f) == (2, vanishes, signs)
        t = np.arange(4096) / 4096
        values = FourierAnsatz(*series)(t)
        assert set(np.sign(values[values != 0]).astype(int)) <= signs


def _derivative(p):
    return [j * c for j, c in enumerate(p)][1:]


def _product(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


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

    @pytest.mark.parametrize("derivative, expect", [
        # (x - 10^6)^2 - 0.909 is negative on (10^6 - 0.95, 10^6 + 0.95)
        ([1e12 - 0.909, -2e6, 1.0], (2, 0, {-1, 1})),
        # (x - 2^-20)^2 + 2^-90 has no real root
        ([2.0 ** -40 + 2.0 ** -90, -2.0 ** -19, 1.0], (0, 0, {1})),
        # 5 (x - 1)^4: one real root, of multiplicity 4, and no sign change
        ([5, -20, 30, -20, 5], (1, 1, {1})),
    ])
    def test_exact_sign_tables(self, derivative, expect):
        # (distinct real roots, multiple real roots, sign set)
        assert globalgeo._sturm([Fraction(c) for c in derivative]) == expect

    def test_positive_derivative_near_a_double_root_is_monotone(self):
        # f' = 3 ((x - 2^-20)^2 + 2^-90), exactly: f is strictly monotone
        f = Nonlinearity.polynomial([0, 3 * (2.0 ** -40 + 2.0 ** -90),
                                     -3 * 2.0 ** -20, 1])
        oc = classify_operator(f)
        assert oc.verdict == "diffeomorphism"
        assert oc.evidence["derivative_sign"] == 1

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
            assert (oc.verdict == "diffeomorphism") == (n1 == 0), coeffs
            if oc.verdict == "global_cusp":
                assert n3 == 0 and n1 > 0, coeffs
            elif "second_derivative_sign" in oc.evidence:
                assert n2 == 0, coeffs
            if "two_three_good" in oc.evidence:
                assert oc.evidence["two_three_good"], coeffs
        assert verdicts["global_cusp"] and verdicts["diffeomorphism"]

    def test_sign_verdicts_on_squared_factors_against_sturm_oracle(self):
        # f' = 420 g h^2 of degree 6, with random integer g and h and g h
        # squarefree: every real root of h is a double root of f' and no
        # sign change, every real root of g a simple one; f = int f' has
        # integer coefficients (420 = lcm(1..7)). f'' and f''' are kept
        # squarefree, so the oracle's root counts decide their verdicts
        rng = np.random.default_rng(13)
        checked, verdicts, good = 0, Counter(), Counter()
        while checked < 150:
            h = [int(c) for c in rng.integers(-4, 5, size=rng.integers(2, 4))]
            g = [int(c) for c in rng.integers(-9, 10, size=9 - 2 * len(h))]
            if h[-1] == 0 or g[-1] == 0:
                continue
            c1 = [Fraction(420 * c) for c in _product(g, _product(h, h))]
            c2 = _derivative(c1)
            (n_gh, sf_gh), (n_g, _), (n_h, _), (n2, sf2), (n3, sf3) = map(
                _sturm, ([Fraction(c) for c in _product(g, h)],
                         [Fraction(c) for c in g], [Fraction(c) for c in h],
                         c2, _derivative(c2)))
            if not (sf_gh and sf2 and sf3):
                continue
            checked += 1
            coeffs = [0.0] + [float(c / (j + 1)) for j, c in enumerate(c1)]
            assert all(c.is_integer() for c in coeffs)
            oc = classify_operator(Nonlinearity.polynomial(coeffs))
            verdicts[oc.verdict] += 1
            assert (oc.verdict == "diffeomorphism") == (n_gh == 0), coeffs
            if n_gh:
                assert (oc.verdict == "global_cusp") == (n3 == 0
                                                         and n_g > 0), coeffs
            if "two_three_good" in oc.evidence:
                good[oc.evidence["two_three_good"]] += 1
                assert oc.evidence["two_three_good"] == (n_h == 0), coeffs
        assert verdicts["global_cusp"] and verdicts["diffeomorphism"]
        assert good[True] and good[False]

    def test_evidence_is_checkable(self, quartic):
        # f'' = 12 x^2 - 8 has two real roots and both signs: negative at
        # 0, the root of f''', so the gamma_3 hull holds the origin
        oc = classify_operator(quartic)
        assert oc.verdict == "has_higher_singularities"
        assert oc.evidence["second_derivative_roots"] == 2
        assert oc.evidence["second_derivative_signs"] == [-1, 1]
        assert quartic.eval(0.0, 0.0, 2) == -8.0
        # x^4 + 0.4 x: f'' = 12 x^2 >= 0 has one (double) root
        oc = classify_operator(Nonlinearity.quartic(0.0, 0.4))
        assert oc.verdict == "global_fold"
        assert oc.evidence["second_derivative_roots"] == 1
        assert oc.evidence["second_derivative_signs"] == [1]

    def test_hull_step_against_roots_of_the_third_derivative(self):
        # independent oracle: for f of even degree with a positive leading
        # coefficient, f'' attains its minimum on R at a real root of f'''
        # (np.roots), so the answer is has_higher_singularities exactly when
        # f'' < 0 at one of them (evaluated exactly at the float root), and
        # global_fold when f'' >= 0 at all of them. The corpus sample holds
        # 20 polynomials whose gamma_2 separates on ``_sampling_window``
        # although f'' takes both signs
        folds = [Nonlinearity.quartic(0.0, c) for c in (-0.5, 0.4)]
        # f'' = 30 (x^2 - 1)^2
        folds.append(Nonlinearity.polynomial([0, 1, 15, 0, -5, 0, 1]))
        verdicts = Counter()
        for f in [*_seeded_corpus(40), *folds]:
            exact = [Fraction(c) for c in f.poly_coeffs(0)]
            d2 = [j * (j - 1) * c for j, c in enumerate(exact)][2:]
            r = np.roots(np.trim_zeros(f.poly_coeffs(3), "b")[::-1])
            real = r[np.abs(r.imag) <= 1e-9 * (1.0 + np.abs(r))].real
            lowest = min(sum(c * Fraction(x) ** j for j, c in enumerate(d2))
                         for x in real)
            verdict = classify_operator(f).verdict
            assert verdict == ("global_fold" if lowest >= 0
                               else "has_higher_singularities"), exact
            verdicts[verdict] += 1
        assert verdicts == {"global_fold": 19, "has_higher_singularities": 104}
        # on a range, the LP still finds the origin interior to the gamma_3
        # hull of the sweep's quartics and the butterfly quartic
        for b, c in [*SWEEP_CELLS, (4.0, -0.3)]:
            f = Nonlinearity.quartic(b, c)
            assert hull_origin_test(gamma_curve(f, 3, -4.0, 4.0)).interior
            assert classify_operator(f).verdict == "has_higher_singularities"

    def test_cascade_runs_no_lp(self, tmp_path, monkeypatch, capsys):
        # the hull step reads the sign set of f'': neither simplex may run,
        # in the library or in a classify sweep over the bench's grid
        def no_lp(*args, **kwargs):
            raise AssertionError("LP in the classification cascade")

        monkeypatch.setattr(globalgeo, "_simplex_max", no_lp)
        monkeypatch.setattr(globalgeo, "_feasible_point", no_lp)
        for f in _seeded_corpus(40):
            classify_operator(f)
        family = tmp_path / "family.json"
        family.write_text(json.dumps({"kind": "quartic_bc"}))
        assert execute(["sweep", "--family", str(family), "--grid",
                        "b=3.5:4.5:4", "c=-0.5:0.4:4",
                        "--analysis", "classify"]) == 0
        cells = json.loads(capsys.readouterr().out)["result"]["cells"]
        assert len(cells) == 16
        assert all(cell["error"] is None and cell["result"] == {
            "verdict": "has_higher_singularities"} for cell in cells.values())

    def test_non_polynomial_undetermined(self):
        oc = classify_operator(WILD)
        assert oc.verdict == "undetermined"
        assert oc.evidence["reason"] == ("limit signs unverifiable for "
                                         "time-dependent f")


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


QUARTIC = Nonlinearity.polynomial([0, -0.3, -4, 0, 1])   # x^4 - 4x^2 - 0.3x
SEXTIC = Nonlinearity.polynomial([0, 0.5, -3, 0, 0.2, 0, 0.05])

# anchor sets whose seed systems need a plateau that an active-set
# projection, pinning every negative plateau at once, pinned at 0
SEED_REPRODUCERS = [
    pytest.param(CUBIC_MINUS, 2, [-1.4204, -1.1749, 0.2338, 1.4242], 0.0469,
                 id="cubic-1"),
    pytest.param(CUBIC_MINUS, 2, [-1.5531, -0.5825, -0.3984, 0.5582], 0.1035,
                 id="cubic-2"),
    pytest.param(QUARTIC, 2, [-2.0346, -1.1197, -0.7059, 0.2592], 0.1445,
                 id="quartic-1"),
    pytest.param(QUARTIC, 2, [-0.9462, 0.4352, 0.6285, 1.6122], 0.0476,
                 id="quartic-2"),
    pytest.param(QUARTIC, 3, [-2.3673, -0.7381, 0.0949, 0.2038, 0.875,
                              1.7033], 0.0929, id="quartic-k3"),
]


def _seed_recipe(per_case):
    """Sorted uniform anchors and epsilon from U(0.02, 0.2): ``per_case``
    sets each for x^3 - x (k = 2, anchors in [-1.6, 1.6]), the quartic
    (k = 2 and 3, [-2.5, 2.5]) and the sextic (k = 3, [-3, 3])."""
    rng = np.random.default_rng(3)
    for f, k, reach in [(CUBIC_MINUS, 2, 1.6), (QUARTIC, 2, 2.5),
                        (QUARTIC, 3, 2.5), (SEXTIC, 3, 3.0)]:
        for _ in range(per_case):
            anchors = np.sort(rng.uniform(-reach, reach, 2 * k))
            yield f, k, anchors, float(rng.uniform(0.02, 0.2))


def _seed_system(f, k, anchors, epsilon):
    """G and rhs of the plateau lengths a: the k means of f' .. f^(k) over
    the plateaus and the quintic-smoothstep arcs (each epsilon / 2k long)
    vanish, and the plateaus fill 1 - epsilon."""
    anchors = np.asarray(anchors, dtype=float)
    tau = (np.arange(4096) + 0.5) / 4096
    ramp = tau ** 3 * (10.0 - 15.0 * tau + 6.0 * tau ** 2)
    G = np.ones((k + 1, 2 * k))
    arcs = np.zeros(k)
    for i in range(1, k + 1):
        G[i - 1] = f.eval(0.0, anchors, i)
        for j in range(2 * k):
            x0, x1 = anchors[j], anchors[(j + 1) % (2 * k)]
            arcs[i - 1] += np.mean(f.eval(0.0, x0 + (x1 - x0) * ramp, i))
    return G, np.append(-arcs * epsilon / (2 * k), 1.0 - epsilon)


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

    @pytest.mark.parametrize("f, k, anchors, epsilon", [
        (SQUARE, 1, [-1.0, 1.0], 0.1),
        (CUBIC_MINUS, 2, [-1.2, -0.3, 0.4, 1.3], 0.08),
        # its plateaus and arcs end 2 ulps short of 1
        (CUBIC_MINUS, 2, [-1.2, -0.4, 0.6, 0.7], 0.11),
    ], ids=["squares", "cubic", "cubic-short"])
    def test_eval_covers_the_whole_circle(self, f, k, anchors, epsilon):
        # -1e-17 maps to 1.0 under mod 1; both points sit at the end of the
        # last arc, whose value is the first anchor
        seed = seed_shat(f, k, anchors, epsilon=epsilon)
        vals = seed.eval(np.array([-1e-17, np.nextafter(1.0, 0.0), 0.0]))
        assert np.max(np.abs(vals - anchors[0])) < 1e-12

    def test_replicate_index_trick(self):
        u = PeriodicFn.from_callable(lambda t: np.cos(TWO_PI * t))
        r = replicate(u, 4)
        expect = np.cos(TWO_PI * 4 * Grid().nodes)
        assert np.max(np.abs(r.values - expect)) < 1e-12

    def test_bad_anchors_raise(self):
        with pytest.raises(PreconditionError):
            seed_shat(SQUARE, 2, [0.5, 1.0, 1.5, 2.0], epsilon=0.1)

    def test_precondition_message_names_its_cause(self):
        # the hull check admits an origin on the boundary: for x^2, f' = 0
        # at the anchor 0 is a vertex, and only the seed system fails;
        # f' = 2, 4 at the anchors 1, 2 leaves the origin outside the hull
        with pytest.raises(PreconditionError, match="anchors insufficient"):
            seed_shat(SQUARE, 1, [0.0, 1.0], epsilon=0.1)
        with pytest.raises(PreconditionError,
                           match="origin is not in the hull"):
            seed_shat(SQUARE, 1, [1.0, 2.0], epsilon=0.1)

    @pytest.mark.parametrize("f, k, anchors, epsilon", SEED_REPRODUCERS)
    def test_plateaus_that_every_solution_needs(self, f, k, anchors,
                                                epsilon):
        seed = seed_shat(f, k, anchors, epsilon=epsilon)
        a = seed.plateau_lengths
        assert np.all(a >= 0)
        assert a.sum() == pytest.approx(1.0 - epsilon, abs=1e-12)
        hat = sigma_hat(f, seed.sample(Grid(4096)), k)
        assert np.max(np.abs(hat)) < 1e-6

    def test_accepts_exactly_the_feasible_systems(self):
        # HiGHS decides whether non-negative plateau lengths exist; the
        # seeds must exist exactly then
        from scipy.optimize import linprog

        sets = list(_seed_recipe(25)) + [p.values for p in SEED_REPRODUCERS]
        outcomes = Counter()
        for f, k, anchors, epsilon in sets:
            G, rhs = _seed_system(f, k, anchors, epsilon)
            feasible = linprog(np.zeros(2 * k), A_eq=G, b_eq=rhs,
                               bounds=(0, None), method="highs").status == 0
            try:
                seed_shat(f, k, anchors, epsilon=epsilon)
                accepted = True
            except PreconditionError:
                accepted = False
            assert accepted == feasible, (k, anchors, epsilon)
            outcomes[feasible] += 1
        assert outcomes[True] >= 10 and outcomes[False] >= 10, outcomes


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
