"""Walk along fibres of the operator and watch its scalar restrictions.

Splitting right-hand sides into mean-zero part plus constant, each
mean-zero part vtilde carries a one-parameter family of periodic solutions
(the fibre); the operator restricted to it is the scalar map
a -> Phi(u_a) = int f(t, u_a). Folds and cusps of these restrictions are
exactly the singular points of the operator.
"""

import numpy as np

from morinode import (Average, InitialValue, Nonlinearity, PeriodicFn,
                      eigen_w, mean, sigma_vec, solve_periodic, solve_w)
from morinode.fibre import trace_pairs

TWO_PI = 2 * np.pi


def main():
    f = Nonlinearity.polynomial([0, -1, 0, 1])      # x^3 - x
    vt = PeriodicFn.from_callable(lambda t: 0.4 * np.cos(TWO_PI * t))

    print("== one fibre point, two equivalent parametrizations ==")
    fp = solve_periodic(f, vt, InitialValue(0.5))
    print(f"  u(0) = 0.5 -> nu = {fp.nu:+.9f}, mean(u) = {mean(fp.u):+.9f}, "
          f"equation residual {fp.residual(f):.1e}")
    fp2 = solve_periodic(f, vt, Average(mean(fp.u)))
    print(f"  resolving by that average returns nu = {fp2.nu:+.9f}")

    print("\n== the scalar restriction along the fibre ==")
    trace = [(a, fp.phi_bar) for a, fp in trace_pairs(f, vt, -1.4, 1.4, 15)]
    print(f"  {'a':>8}  {'Phi(u_a)':>12}  {'Sigma_1(u_a)':>13}")
    for a, phi in trace:
        u = solve_periodic(f, vt, Average(a)).u
        s1 = sigma_vec(f, u).sigma[0]
        print(f"  {a:+8.3f}  {phi:+12.6f}  {s1:+13.6f}")
    signs = []
    for a, _ in trace:
        u = solve_periodic(f, vt, Average(a)).u
        signs.append(np.sign(sigma_vec(f, u).sigma[0]))
    flips = sum(1 for x, y in zip(signs, signs[1:]) if x != y)
    print(f"  sign changes of Sigma_1 along the fibre: {flips} "
          "(never more than two for this family)")

    print("\n== the fibre tangent field ==")
    u = solve_periodic(f, vt, Average(0.9)).u
    wf = solve_w(f, u, m=1.0)
    pair = eigen_w(f, u)
    print(f"  alpha = {wf.alpha:+.6f} (vanishes exactly on the critical set)")
    print(f"  tangent field minimum {np.min(wf.omega.values):.6f} > 0; "
          f"eigenvalue of the linearization {pair.lam:+.6f}")


if __name__ == "__main__":
    main()
