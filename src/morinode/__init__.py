"""Global geometry of the periodic scalar ODE operator u' + f(t,u).

The library solves for periodic solutions along fibres, evaluates the
singularity functionals of the operator, classifies critical points and
whole operators (diffeomorphism / global fold / global cusp / higher),
tests the origin-in-hull existence criterion, and counts periodic
solutions through the return map.
"""

from .core import (FourierAnsatz, Grid, MorinodeError, Nonlinearity,
                   PeriodicFn, PreconditionError, Term, cumulative, mean)
from .odeint import (ContactReport, ReturnValue, Trajectory, contact_order,
                     integrate, return_map)
from .fibre import (Average, FibrePoint, InitialValue, WField, solve_periodic,
                    solve_w)
from .morin import (EigenPair, MorinOrder, SigmaReport, classify_point,
                    eigen_w, sigma_hat, sigma_vec)
from .globalgeo import (FromSimplified, GammaCurve, HullVerdict,
                        OperatorClass, SeedFunction, TamenessReport,
                        ToSimplified, classify_operator, degree, gamma_curve,
                        hull_origin_test, replicate, reparam, seed_shat,
                        tameness)
from .search import (CensusRoot, GaussNewtonResult, ParamFamily,
                     SearchProblem, SolutionCensus, count_solutions,
                     gauss_newton, sweep)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
