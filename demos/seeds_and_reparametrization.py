"""Build singular candidates from step functions and move between the full
and simplified operators.

When the origin is interior to the hull of the anchor vectors
(f'(x_j), ..., f^(k)(x_j)), plateau lengths of a smoothed step function can
be tuned so all k simplified functionals vanish. Compressing time by an
integer factor then carries such seeds toward genuine singular points of
the full operator. Independently, a circle reparametrization built from
the positive eigenfunction exchanges the full and simplified second-order
strata exactly.
"""

import numpy as np

from morinode import (FromSimplified, Grid, Nonlinearity, ToSimplified,
                      gamma_curve, hull_origin_test, replicate, reparam,
                      seed_shat, sigma_hat, sigma_vec)


def main():
    f = Nonlinearity.polynomial([0, -1, 0, 1])      # x^3 - x

    print("== anchors from the hull certificate ==")
    curve = gamma_curve(f, 2, -1.6, 1.6, count=33)
    verdict = hull_origin_test(curve)
    lam = verdict.convex_coefficients
    support = curve.xs[lam > 1e-9]
    print(f"  origin interior with margin {verdict.margin:.3f}; "
          f"certificate supported at x = {np.round(support, 3)}")

    anchors = [-1.35, -0.45, 0.45, 1.35]
    seed = seed_shat(f, 2, anchors, epsilon=0.08)
    print(f"  plateau lengths: {np.round(seed.plateau_lengths, 4)}")
    hat = sigma_hat(f, seed.sample(Grid(4096)), 2)
    print(f"  simplified functionals at the seed: {hat}")

    print("\n== the time replicator pushes seeds toward true singularities ==")
    grid = Grid(8192)
    for N in (1, 2, 4, 8):
        u = replicate(seed.sample(grid), N)
        full = sigma_vec(f, u).sigma[:2]
        print(f"  N = {N}: (Sigma_1, Sigma_2) = ({full[0]:+.4f}, {full[1]:+.4f})")
    print("  both approach the (vanishing) simplified values as N grows")

    print("\n== exchanging full and simplified strata by reparametrization ==")
    from morinode import FourierAnsatz, ParamFamily, SearchProblem, gauss_newton
    problem = SearchProblem(
        family=ParamFamily.fixed(f),
        ansatz=FourierAnsatz(0.2, np.array([0.5, 0.1]), np.array([0.0, 0.0])),
        target=np.zeros(2), residual_tol=1e-12)
    res = gauss_newton(problem)
    _, ans = problem.unpack(res.params)
    u = ans.sample(Grid(1024))
    print(f"  located cusp: Sigma_1, Sigma_2 = {sigma_vec(f, u).sigma[:2]}")
    v, _ = reparam(f, ToSimplified(u))
    print(f"  after reparametrization: simplified functionals = "
          f"{sigma_hat(f, v, 2)}")
    back, _ = reparam(f, FromSimplified(v))
    print(f"  roundtrip error {np.max(np.abs(back.values - u.values)):.2e}")


if __name__ == "__main__":
    main()
