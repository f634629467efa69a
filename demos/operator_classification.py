"""Classify whole operators by the shape of the nonlinearity.

For autonomous polynomial f the global structure of u -> u' + f(u) follows
from finitely many exact sign checks: strict monotonicity gives a
diffeomorphism, strict convexity a global fold, a one-signed third
derivative (with f' changing sign) a global cusp. For the rest (f of even
degree with a positive leading coefficient, f' free of multiple roots) the
origin-in-hull criterion on the derivative curves gamma_k = (f', ...,
f^(k)) over the whole real line comes down to the sign of f'': f'' >= 0
gives a global fold, and an f'' that is negative somewhere puts the origin
inside the gamma_3 hull, so order-3 singularities exist. The hull evidence
printed for the quartic is the LP on a sampled range, with its certificate.
"""

import numpy as np

from morinode import (Nonlinearity, classify_operator, degree, gamma_curve,
                      hull_origin_test, tameness)

FAMILIES = [
    ("x^3 + x", Nonlinearity.polynomial([0, 1, 0, 1])),
    ("x^2", Nonlinearity.polynomial([0, 0, 1])),
    ("x^3 - x", Nonlinearity.polynomial([0, -1, 0, 1])),
    ("x^4 - 4x^2 - 0.3x", Nonlinearity.quartic(4.0, -0.3)),
]


def main():
    print(f"{'nonlinearity':<20}{'verdict':<28}{'degree':<8}tame")
    for name, f in FAMILIES:
        oc = classify_operator(f)
        print(f"{name:<20}{oc.verdict:<28}{degree(f):<8}{tameness(f).tame}")

    print("\n== hull evidence for the quartic ==")
    f = Nonlinearity.quartic(4.0, -0.3)
    for k in (2, 3, 4):
        curve = gamma_curve(f, k, -3.5, 3.5)
        verdict = hull_origin_test(curve)
        if verdict.interior:
            lam = verdict.convex_coefficients
            resid = np.linalg.norm(lam @ curve.points)
            print(f"  gamma_{k}: origin interior (margin t = "
                  f"{verdict.margin:.2e}, certificate residual {resid:.1e}, "
                  f"{np.count_nonzero(lam > 1e-12)} support points)")
        else:
            nu = verdict.direction
            print(f"  gamma_{k}: origin NOT interior "
                  f"(separating direction {np.round(nu, 6)}, "
                  f"min inner product {np.min(curve.points @ nu):.2e})")
    print("\nInterior hulls at k = 2 and 3 mean cusps and swallowtails exist;")
    print("gamma_4 cannot certify butterflies for a quartic (f'''' is the")
    print("positive constant 24) yet the full operator still has them: see")
    print("demos/butterfly_and_six_solutions.py.")


if __name__ == "__main__":
    main()
