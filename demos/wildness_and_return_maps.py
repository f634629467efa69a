"""Wildness diagnostics and the return-map view of periodic solutions.

A nonlinearity is wild at an end when solutions can run to infinity and
back in bounded time; the fibre decomposition then breaks down. The
diagnostic integrates both reciprocal-growth integrands and fits their
tail slopes. The return map rho_v(x) = u(1) for u(0) = x turns periodic
solutions into fixed points; its derivative is a positive exponential.
"""

from morinode import (FourierAnsatz, Nonlinearity, PeriodicFn, Term,
                      contact_order, count_solutions, return_map, tameness)


def print_return_map(f, starts):
    for x0 in starts:
        rv = return_map(f, None, x0, h=1e-3, with_derivative=True)
        if rv.blew_up:
            print(f"  x0 = {x0:+.2f}: blew up toward {rv.blow_sign:+d}*inf "
                  f"at t = {rv.blow_time:.3f}")
        else:
            print(f"  x0 = {x0:+.2f}: rho = {rv.value:+.6f}, "
                  f"rho' = {rv.derivative:.6f}")


def main():
    print("== tameness diagnostics ==")
    wild = Nonlinearity([Term(2, FourierAnsatz(0.0, [1.0]))])
    cases = [
        ("x^4 - 4x^2 - 0.3x (autonomous)", Nonlinearity.quartic(4.0, -0.3)),
        ("cos(2*pi*t)*x^2", wild),
        ("x^3 + cos(2*pi*t)",
         Nonlinearity([Term(3, FourierAnsatz(1.0)),
                       Term(0, FourierAnsatz(0.0, [1.0]))])),
    ]
    for name, f in cases:
        rep = tameness(f)
        flag = "tame" if rep.tame else f"wild suspected at {rep.wild_suspected_at}"
        print(f"  {name:<36} -> {flag}")

    print("\n== return map of the wild flow u' = -cos(2*pi*t) u^2 ==")
    print_return_map(wild, (0.5, 7.0, -7.0))
    print("  (1/u = 1/u0 + sin(2*pi*t)/(2*pi): every orbit from |u0| < 2*pi")
    print("   closes, so rho is the identity there, and every orbit from")
    print("   |u0| >= 2*pi escapes within the period, so fibre solves")
    print("   through such u(0) fail with a bracket error)")

    print("\n== return map of the Riccati flow u' = -u^2 ==")
    sq = Nonlinearity.polynomial([0, 0, 1])
    print_return_map(sq, (0.0, 0.5, -0.5))
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
