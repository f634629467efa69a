"""Acceptance gate: one test per criterion, printing a pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. Criterion 3's cluster-width sub-check is asserted exactly as stated
and is expected to fail: the measured five-root span at the published
coefficients is 0.1648 (stable under step halving and scan refinement).
"""

import time

import numpy as np
from scipy.integrate import cumulative_simpson, simpson

from morinode import (FourierAnsatz, Grid, Nonlinearity, ParamFamily,
                      PeriodicFn, SearchProblem, classify_operator,
                      classify_point, contact_order, count_solutions, degree,
                      eigen_w, gamma_curve, gauss_newton, hull_origin_test,
                      mean, return_map, reparam, sigma_hat, sigma_vec,
                      ToSimplified, FromSimplified)
from morinode.fibre import trace_points
from morinode.morin import ZERO_TOL_FACTOR
from tests.conftest import BUTTERFLY_B, BUTTERFLY_C, operator_rhs

TWO_PI = 2 * np.pi


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _oracle_sigma(f: Nonlinearity, ans: FourierAnsatz, n: int = 8192) -> np.ndarray:
    """Independent high-resolution quadrature of the five functionals.

    Composite Simpson on a closed (n+1)-node mesh with running integrals by
    cumulative Simpson; no spectral machinery shared with the library path.
    """
    t = np.linspace(0.0, 1.0, n + 1)
    u = ans.eval(t)
    d = [np.asarray(f.eval(t, u, i)) for i in range(6)]
    s1 = simpson(d[1], dx=1.0 / n)
    gt = d[1] - s1
    K = cumulative_simpson(gt, dx=1.0 / n, initial=0.0)
    K = K - simpson(K, dx=1.0 / n)
    w = np.exp(-K)
    q = d[2] * w
    C = cumulative_simpson(q, dx=1.0 / n, initial=0.0)
    s2 = simpson(q, dx=1.0 / n)
    s3 = simpson(d[3] * w ** 2, dx=1.0 / n)
    s4 = simpson(d[4] * w ** 3 - 2.0 * d[3] * w ** 2 * C, dx=1.0 / n)
    s5 = simpson(d[5] * w ** 4 - 5.0 * d[4] * w ** 3 * C
                 + 5.0 * d[3] * w ** 2 * C ** 2, dx=1.0 / n)
    return np.array([s1, s2, s3, s4, s5])


# ---------------------------------------------------------------------------
# criterion 1: butterfly residuals
# ---------------------------------------------------------------------------


def test_criterion_1_butterfly_residuals(quartic, butterfly_ansatz):
    start = time.monotonic()
    floor = np.abs(_oracle_sigma(quartic, butterfly_ansatz))
    rep = sigma_vec(quartic, butterfly_ansatz.sample(Grid(1024)))
    sigma = rep.sigma
    elapsed = time.monotonic() - start

    cap = 1e-4 * max(1.0, abs(sigma[4]))
    small_enough = bool(np.all(np.abs(sigma[:4]) <= cap))
    within_floor = bool(np.all(np.abs(sigma[:4]) <= 10.0 * floor[:4]))
    tol_zero = ZERO_TOL_FACTOR * (1.0 + float(np.max(np.abs(sigma))))
    sigma5_large = abs(sigma[4]) > 10.0 * tol_zero
    ok = small_enough and within_floor and sigma5_large and elapsed < 1.0
    _report("1 butterfly residuals", ok,
            f"|sigma_1..4| max {np.max(np.abs(sigma[:4])):.2e} vs cap "
            f"{cap:.2e}, oracle floor max {np.max(floor[:4]):.2e}, "
            f"sigma5 {sigma[4]:.3f}, {elapsed:.2f}s")
    assert small_enough
    assert within_floor
    assert sigma5_large
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# criterion 2: butterfly reconvergence
# ---------------------------------------------------------------------------


def test_criterion_2_butterfly_reconvergence(butterfly_ansatz):
    start = time.monotonic()
    b = butterfly_ansatz.b + 1e-3
    b[0] = 0.0
    seed = FourierAnsatz(butterfly_ansatz.a0 + 1e-3,
                         butterfly_ansatz.a + 1e-3, b)
    problem = SearchProblem(
        family=ParamFamily.quartic_bc(), ansatz=seed, target=np.zeros(4),
        family_params=np.array([BUTTERFLY_B + 1e-3, BUTTERFLY_C + 1e-3]))
    res = gauss_newton(problem)
    elapsed = time.monotonic() - start
    ok = (res.converged and res.residual_history[-1] < 1e-10
          and len(res.residual_history) <= 100
          and res.smallest_retained_sval > 1e-6
          and abs(res.sigma5) > 1e-6 and elapsed < 30.0)
    _report("2 butterfly reconvergence", ok,
            f"residual {res.residual_history[-1]:.2e} in "
            f"{len(res.residual_history) - 1} iterations, smallest sval "
            f"{res.smallest_retained_sval:.3f}, sigma5 {res.sigma5:.3f}, "
            f"{elapsed:.1f}s")
    assert res.converged and res.residual_history[-1] < 1e-10
    assert len(res.residual_history) <= 100
    assert res.smallest_retained_sval > 1e-6
    assert abs(res.sigma5) > 1e-6
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# criterion 3: six-solution census
# ---------------------------------------------------------------------------


def test_criterion_3_census_count(quartic, six_root_ansatz, six_root_census):
    census, elapsed = six_root_census
    v = operator_rhs(quartic, six_root_ansatz)
    recloses = []
    for r in census.roots:
        rv = return_map(quartic, v, r.x, h=2e-4)
        recloses.append(abs(rv.value - r.x))
    xs = sorted(r.x for r in census.roots)
    separation = xs[5] - xs[4] if len(xs) == 6 else float("nan")
    ok = (census.count == 6 and max(recloses) <= 1e-8
          and census.stable_under_halving and separation > 0.2
          and elapsed < 300.0)
    _report("3 six-solution census", ok,
            f"count {census.count} (half-step {census.count_at_half_step}), "
            f"worst re-close {max(recloses):.2e}, sixth-root separation "
            f"{separation:.3f}, {elapsed:.0f}s")
    assert census.count == 6
    assert max(recloses) <= 1e-8
    assert census.stable_under_halving
    assert separation > 0.2
    assert elapsed < 300.0


def test_criterion_3_cluster_width(six_root_census):
    census, _ = six_root_census
    xs = sorted(r.x for r in census.roots)
    width = xs[4] - xs[0]
    ok = width < 0.15
    _report("3 five-root cluster width", ok,
            f"measured span {width:.4f} against the stated 0.15 bound")
    # faithful assertion of the stated bound; the measured span at the
    # published coefficients is 0.1648, so this records a red criterion
    assert width < 0.15


# ---------------------------------------------------------------------------
# criterion 4: operator classification table
# ---------------------------------------------------------------------------


def test_criterion_4_classification_table(quartic):
    start = time.monotonic()
    cases = [
        (Nonlinearity.polynomial([0, 1, 0, 1]), "diffeomorphism"),
        (Nonlinearity.polynomial([0, 0, 1]), "global_fold"),
        (Nonlinearity.polynomial([0, -1, 0, 1]), "global_cusp"),
        (quartic, "has_higher_singularities"),
    ]
    verdicts = []
    evidence_ok = True
    for f, expected in cases:
        oc = classify_operator(f)
        verdicts.append(oc.verdict == expected)
        if expected == "diffeomorphism":
            evidence_ok &= oc.evidence["derivative_sign"] == 1
        if expected == "global_cusp":
            evidence_ok &= oc.evidence["third_derivative_sign"] == 1
        if expected == "has_higher_singularities":
            evidence_ok &= oc.evidence["second_derivative_signs"] == [-1, 1]
    elapsed = time.monotonic() - start
    ok = all(verdicts) and evidence_ok and elapsed < 10.0
    _report("4 classification table", ok,
            f"verdicts {verdicts}, evidence checkable {evidence_ok}, "
            f"{elapsed:.1f}s")
    assert all(verdicts)
    assert evidence_ok
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# criterion 5: property suites
# ---------------------------------------------------------------------------


def _random_instance(rng):
    f = Nonlinearity.polynomial(rng.normal(size=5)
                                * np.array([1.0, 1.0, 0.6, 0.6, 0.2]))
    t = Grid().nodes
    u = PeriodicFn(Grid(), rng.normal() * 0.7
                   + 0.5 * np.cos(TWO_PI * t + rng.uniform(0, TWO_PI))
                   + 0.25 * np.sin(2 * TWO_PI * t + rng.uniform(0, TWO_PI)))
    return f, u


def test_criterion_5a_sign_ratio_positivity():
    rng = np.random.default_rng(101)
    checked = 0
    while checked < 100:
        f, u = _random_instance(rng)
        rep = sigma_vec(f, u)
        sa, sb, sc = rep.sigma_abc
        if abs(sa) < 1e-6:
            continue
        checked += 1
        assert sb / sa > 0 and sc / sa > 0
        assert sb / sa < 1e3 and sc / sa < 1e3
    _report("5a sign/ratio positivity", True, "100 random instances")


def test_criterion_5b_eigen_residual_and_positivity():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        f, u = _random_instance(rng)
        pair = eigen_w(f, u)
        bound = 1e-8 * (1.0 + float(np.max(np.abs(f.on_grid(u, 1)))))
        resid = pair.residual(f, u)
        worst = max(worst, resid / bound)
        assert resid <= bound
        assert np.min(pair.w.values) > 0
    _report("5b eigen residual", True, f"worst residual/bound {worst:.3f}")


def test_criterion_5c_contact_order_agreement(refined_butterfly, located_cusp):
    # fold
    sq = Nonlinearity.polynomial([0, 0, 1])
    fold_rep = classify_point(sq, PeriodicFn.constant(0.0))
    fold_con = contact_order(sq, None, 0.0, kmax=3, h=1e-3)
    # cusp
    f_c, u_c, ans_c = located_cusp
    cusp_rep = classify_point(f_c, u_c)
    cusp_con = contact_order(f_c, operator_rhs(f_c, ans_c),
                             float(ans_c.eval(0.0)), kmax=3, h=5e-4)
    # butterfly
    f_b, ans_b, _ = refined_butterfly
    but_rep = classify_point(f_b, ans_b.sample(Grid(2048)))
    but_con = contact_order(f_b, operator_rhs(f_b, ans_b),
                            float(ans_b.eval(0.0)), kmax=4, h=2e-4)
    agree = (fold_rep.order.k == fold_con.order == 1
             and cusp_rep.order.k == cusp_con.order == 2
             and but_rep.order.k == but_con.order == 4)
    _report("5c contact-order agreement", agree,
            f"orders ({fold_con.order}, {cusp_con.order}, {but_con.order})")
    assert agree


def test_criterion_5d_closed_forms_on_constants():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(40):
        f = Nonlinearity.polynomial(rng.normal(size=6))
        c = float(rng.uniform(-1.2, 1.2))
        rep = sigma_vec(f, PeriodicFn.constant(c))
        d = [float(f.eval(0.0, c, i)) for i in range(6)]
        expect = np.array([d[1], d[2], d[3], d[4] - d[3] * d[2],
                           d[5] - 2.5 * d[4] * d[2]
                           + (5.0 / 3.0) * d[3] * d[2] ** 2])
        err = np.max(np.abs(rep.sigma - expect) / np.maximum(1.0, np.abs(expect)))
        worst = max(worst, err)
        assert err < 1e-10
    _report("5d constants closed forms", True, f"worst relative error {worst:.2e}")


def test_criterion_5e_cubic_quadrature_identity():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        g = rng.normal(size=4)
        a, b = sorted(rng.uniform(-3, 3, size=2))
        if b - a < 1e-3:
            b = a + 1e-3
        gp = np.polynomial.polynomial.polyder(g)
        ga, gb = np.polynomial.polynomial.polyval([a, b], g)
        gpa, gpb = np.polynomial.polynomial.polyval([a, b], gp)
        lhs = (b - a) * (gpa + gpb) - 2 * (gb - ga)
        ts = np.linspace(a, b, 401)
        rhs = -simpson((ts - a) * (ts - b) * 6.0 * g[3], x=ts)
        err = abs(lhs - rhs) / max(1.0, abs(lhs))
        worst = max(worst, err)
        assert err < 1e-10
    _report("5e integration-by-parts identity", True, f"worst {worst:.2e}")


def test_criterion_5f_reparam_roundtrip(located_cusp):
    f, u, _ = located_cusp
    v, _ = reparam(f, ToSimplified(u))
    hat = sigma_hat(f, v, 2)
    back, _ = reparam(f, FromSimplified(v))
    roundtrip = float(np.max(np.abs(back.values - u.values)))
    transfer = float(np.max(np.abs(hat)))
    ok = roundtrip <= 1e-8 and transfer <= 1e-7
    _report("5f reparametrization", ok,
            f"roundtrip {roundtrip:.2e}, simplified-functional transfer "
            f"{transfer:.2e}")
    assert roundtrip <= 1e-8
    assert transfer <= 1e-7


def test_criterion_5g_fibre_monotonicity_and_residual():
    f = Nonlinearity.polynomial([0, -1, 0, 1])
    vt = PeriodicFn.from_callable(lambda t: 0.4 * np.cos(TWO_PI * t))
    pts = trace_points(f, vt, -1.2, 1.2, 20)
    u0s = [float(fp.u.values[0]) for fp in pts]
    means = [mean(fp.u) for fp in pts]
    residuals = [fp.residual(f) for fp in pts]
    monotone = np.all(np.diff(u0s) > 0) and np.all(np.diff(means) > 0)
    ok = bool(monotone) and max(residuals) <= 1e-9
    _report("5g fibre traces", ok,
            f"20 points, worst residual {max(residuals):.2e}, monotone "
            f"{bool(monotone)}")
    assert monotone
    assert max(residuals) <= 1e-9


def test_criterion_5h_hull_certificates(quartic):
    curves = [
        gamma_curve(Nonlinearity.polynomial([0, 0, 1]), 2, -2.0, 2.0),
        gamma_curve(Nonlinearity.polynomial([0, -1, 0, 1]), 2, -2.0, 2.0),
        gamma_curve(quartic, 2, -3.0, 3.0),
        gamma_curve(quartic, 3, -3.0, 3.0),
        gamma_curve(quartic, 4, -3.0, 3.0),
        gamma_curve(Nonlinearity.polynomial([0, 1, 0, 1]), 2, -2.0, 2.0),
    ]
    worst = 0.0
    for curve in curves:
        verdict = hull_origin_test(curve)
        res = verdict.certificate_residual(curve.points)
        target = 1e-9 if verdict.interior else 1e-12
        worst = max(worst, res / target)
        assert res <= target
    _report("5h hull certificates", True, f"worst residual/target {worst:.3f}")


def test_criterion_5i_degree_count_consistency():
    cases = [
        (Nonlinearity.polynomial([0, 0, 1]), 1.0, (-3.0, 3.0)),
        (Nonlinearity.polynomial([0, 1, 0, 1]), 0.5, (-3.0, 3.0)),
        (Nonlinearity.polynomial([0, 0, 0, -1]), 0.4, (-3.0, 3.0)),
        (Nonlinearity.polynomial([0, -1, 0, 1]), 0.05, (-2.0, 2.0)),
    ]
    results = []
    for f, const, (lo, hi) in cases:
        census = count_solutions(f, PeriodicFn.constant(const), lo, hi,
                                 scan_n=401, h=1e-3, check_half_step=False)
        signed = sum(int(np.sign(1.0 - r.rho_prime)) for r in census.roots)
        results.append(signed == degree(f))
    _report("5i degree/count consistency", all(results), f"{results}")
    assert all(results)
