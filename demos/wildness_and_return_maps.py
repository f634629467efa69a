"""Wildness diagnostics and the return-map view of periodic solutions.

A nonlinearity is wild at an end when solutions can run to infinity and
back in bounded time; the fibre decomposition then breaks down. The
diagnostic integrates both reciprocal-growth integrands and fits their
tail slopes. The return map rho_v(x) = u(1) for u(0) = x turns periodic
solutions into fixed points; its derivative is a positive exponential.
"""

from morinode import (Nonlinearity, PeriodicFn, contact_order,
                      count_solutions, return_map, tameness)


def main():
    print("== tameness diagnostics ==")
    cases = [
        ("x^4 - 4x^2 - 0.3x (autonomous)", Nonlinearity.quartic(4.0, -0.3)),
        ("2*pi*cos(2*pi*t)*cosh^2(x)", Nonlinearity.from_builtin("cosh2_cos")),
    ]
    # cubic with forcing: x^3 + cos(2*pi*t)
    from morinode.core import FourierAnsatz, Term
    cases.append(("x^3 + cos(2*pi*t)",
                  Nonlinearity([Term(3, FourierAnsatz(1.0)),
                                Term(0, FourierAnsatz(0.0, [1.0]))])))
    for name, f in cases:
        rep = tameness(f)
        flag = "tame" if rep.tame else f"wild suspected at {rep.wild_suspected_at}"
        print(f"  {name:<36} -> {flag}")
    print("  (the cosh builtin admits no periodic solution with constant")
    print("   right-hand side: its fibre solves fail with a bracket error)")

    print("\n== return map of the Riccati flow u' = -u^2 ==")
    sq = Nonlinearity.polynomial([0, 0, 1])
    for x0 in (0.0, 0.5, -0.5):
        rv = return_map(sq, None, x0, h=1e-3, with_derivative=True)
        if rv.blew_up:
            print(f"  x0 = {x0:+.2f}: blew up toward {rv.blow_sign:+d}*inf "
                  f"at t = {rv.blow_time:.3f}")
        else:
            print(f"  x0 = {x0:+.2f}: rho = {rv.value:+.6f}, "
                  f"rho' = {rv.derivative:.6f}")
    rep = contact_order(sq, None, 0.0, kmax=3, h=1e-3)
    print(f"  contact order at the fixed point 0: {rep.order} (a fold)")

    print("\n== census for u' + x^2 = 1 ==")
    census = count_solutions(sq, PeriodicFn.constant(1.0), -2.0, 2.0,
                             scan_n=201, h=1e-3)
    print(f"  periodic solutions found: {census.count} at "
          f"x = {[round(r.x, 6) for r in census.roots]}")
    print(f"  derivative at each: {[round(r.rho_prime, 4) for r in census.roots]}")
    print("  (the attracting equilibrium has rho' < 1, the repelling one > 1)")


if __name__ == "__main__":
    main()
