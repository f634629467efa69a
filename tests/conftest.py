"""Shared fixtures: reference nonlinearities, the located butterfly and
the six-root census."""

import time

import numpy as np
import pytest

from morinode import (FourierAnsatz, Grid, Nonlinearity, ParamFamily,
                      SearchProblem, count_solutions, gauss_newton, globalgeo)

# quartic family and the published coefficient set of a located order-4
# singularity (b, c, a0, a1, a2, b2, a3, b3, a4, b4)
BUTTERFLY_B = 4.0
BUTTERFLY_C = -0.3
BUTTERFLY_COEFFS = {
    "a0": -0.01173378, "a1": -0.8836063, "a2": 0.2428734, "b2": -0.6855379,
    "a3": 0.4465347, "b3": 0.1853376, "a4": -0.01881213, "b4": 0.2105862,
}

# nearby right-hand-side generator whose return map has six fixed points
SIX_ROOT_COEFFS = {
    "a0": -0.011367708203969, "a1": -0.883600656945802,
    "a2": 0.243308077825844, "a3": 0.446085678376277,
    "a4": -0.018458472190807, "b2": -0.685621717642052,
    "b3": 0.185481811055651, "b4": 0.210509692732880,
}


# faults that leave a hull pass without its certificate: the LP stops at
# the pivot cap, phase 1 finds no convex combination, or its combination
# misses the origin
def _fail_lp(monkeypatch):
    def fail(A, b, c):
        raise globalgeo._SimplexFailure("iteration limit")
    monkeypatch.setattr(globalgeo, "_simplex_max", fail)


def _fail_phase1(monkeypatch):
    monkeypatch.setattr(globalgeo, "_feasible_point",
                        lambda G, rhs, work=None: None)


def _uniform_phase1(monkeypatch):
    monkeypatch.setattr(globalgeo, "_feasible_point",
                        lambda G, rhs, work=None: np.full(G.shape[1],
                                                          1.0 / G.shape[1]))


HULL_FAULTS = [pytest.param(_fail_lp, id="lp-fails"),
               pytest.param(_fail_phase1, id="no-phase1-certificate"),
               pytest.param(_uniform_phase1, id="phase1-misses-origin")]


def ansatz_from(coeffs: dict) -> FourierAnsatz:
    a = [coeffs.get(f"a{j}", 0.0) for j in range(1, 5)]
    b = [coeffs.get(f"b{j}", 0.0) for j in range(1, 5)]
    return FourierAnsatz(coeffs["a0"], np.array(a), np.array(b))


def operator_rhs(f: Nonlinearity, ans: FourierAnsatz):
    """The right-hand side v = u' + f(t, u) for the ansatz u, so that u
    itself is a periodic solution of u' + f(t, u) = v."""
    return lambda t: ans.derivative_eval(t) + np.asarray(
        f.eval(t, ans.eval(t), 0))


@pytest.fixture(scope="session")
def quartic() -> Nonlinearity:
    return Nonlinearity.quartic(BUTTERFLY_B, BUTTERFLY_C)


@pytest.fixture(scope="session")
def butterfly_ansatz() -> FourierAnsatz:
    return ansatz_from(BUTTERFLY_COEFFS)


@pytest.fixture(scope="session")
def six_root_ansatz() -> FourierAnsatz:
    return ansatz_from(SIX_ROOT_COEFFS)


@pytest.fixture(scope="session")
def six_root_census(quartic, six_root_ansatz):
    """The six-root census (scan 801, h = 2e-4) and its wall time in s."""
    v = operator_rhs(quartic, six_root_ansatz)
    start = time.monotonic()
    census = count_solutions(quartic, v, -0.4, 0.4, scan_n=801, h=2e-4)
    return census, time.monotonic() - start


@pytest.fixture(scope="session")
def refined_butterfly(butterfly_ansatz):
    """Newton-polished order-4 singularity of the quartic family.

    Returns (f, ansatz, params) with the functional residual at 1e-13.
    """
    problem = SearchProblem(
        family=ParamFamily.quartic_bc(), ansatz=butterfly_ansatz,
        target=np.zeros(4), family_params=np.array([BUTTERFLY_B, BUTTERFLY_C]),
        residual_tol=1e-13)
    res = gauss_newton(problem)
    assert res.converged, res.message
    fam, ans = problem.unpack(res.params)
    f = problem.family.build(fam)
    return f, ans, res


@pytest.fixture(scope="session")
def located_cusp():
    """A non-constant cusp of x^3 - x: both leading functionals vanish.

    Returns (f, u, ansatz); the order-2 membership residual sits at 1e-12.
    """
    f = Nonlinearity.polynomial([0, -1, 0, 1])
    seed = FourierAnsatz(0.2, np.array([0.5, 0.1]), np.array([0.0, 0.0]))
    problem = SearchProblem(
        family=ParamFamily.fixed(f), ansatz=seed, target=np.zeros(2),
        residual_tol=1e-12)
    res = gauss_newton(problem)
    assert res.converged, res.message
    _, ans = problem.unpack(res.params)
    u = ans.sample(Grid(1024))
    return f, u, ans
