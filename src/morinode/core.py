"""Grids, periodic functions, spectral quadrature, Fourier series, nonlinearities.

Everything here works on the unit-period circle. Functions are represented
by their samples on a uniform grid; off-node values, derivatives and
antiderivatives come from the trigonometric interpolant, which is exact for
band-limited data and spectrally accurate for smooth periodic data.

One series, ``FourierAnsatz``, is an ansatz u or a coefficient c_j(t) of f.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

DEFAULT_GRID_N = 1024
MAX_X_DERIVATIVE = 5
# complex elements per block of PeriodicFn.eval's direct sum: a block holds
# max(1, EVAL_BUDGET // harmonics) points
EVAL_BUDGET = 8192


class MorinodeError(Exception):
    """Base class for library errors."""


class PreconditionError(MorinodeError):
    """An operation was called outside its stated domain."""


class UnsupportedOrderError(PreconditionError):
    """A partial derivative beyond the supported order was requested."""


class BracketError(MorinodeError):
    """A root bracket could not be established or refined."""


class TamenessViolationError(BracketError):
    """No periodic solution bracket was found; the nonlinearity looks wild."""


def require_int(name: str, value, lo: int, hi: int | None = None) -> int:
    """``value`` as an int; PreconditionError unless an integer in lo..hi."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < lo or (hi is not None and value > hi)):
        span = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise PreconditionError(f"need an integer {name} {span}, "
                                f"got {value!r}")
    return int(value)


# ---------------------------------------------------------------------------
# grid and periodic functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Grid:
    """Uniform sampling of the unit-period circle at nodes i/n."""

    n: int = DEFAULT_GRID_N

    def __post_init__(self):
        require_int("grid size", self.n, 16)
        if self.n & (self.n - 1) != 0:
            raise PreconditionError(f"grid size {self.n} is not a power of two")

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.n) / self.n


@dataclass(frozen=True, eq=False, repr=False)
class PeriodicFn:
    """A real function on the circle, stored as samples at grid nodes."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.shape != (self.grid.n,):
            raise PreconditionError(
                f"expected {self.grid.n} samples, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise PreconditionError("periodic function samples must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_callable(cls, fn: Callable[[np.ndarray], np.ndarray],
                      grid: Grid | None = None) -> "PeriodicFn":
        grid = grid or Grid()
        return cls(grid, np.asarray(fn(grid.nodes), dtype=float))

    @classmethod
    def constant(cls, value: float, grid: Grid | None = None) -> "PeriodicFn":
        grid = grid or Grid()
        return cls(grid, np.full(grid.n, float(value)))

    @functools.cached_property
    def _fourier(self) -> tuple[np.ndarray, np.ndarray]:
        """Significant one-sided Fourier coefficients (harmonics, coeffs)."""
        c = np.fft.rfft(self.values) / self.grid.n
        keep = np.abs(c) > 1e-15 * (np.max(np.abs(c)) + 1e-300)
        keep[0] = True
        return np.nonzero(keep)[0], c[keep]

    def eval(self, t: np.ndarray | float) -> np.ndarray | float:
        """Trigonometric-interpolant value at arbitrary circle points."""
        t = np.asarray(t, dtype=float)
        harm, c = self._fourier
        # one-sided sum: double every positive harmonic, Nyquist included once
        scale = np.where(harm == 0, 1.0, 2.0)
        if 2 * harm[-1] == self.grid.n:
            scale[-1] = 1.0
        weights, flat = scale * c, t.ravel()
        vals = np.empty(flat.shape)
        block = max(1, EVAL_BUDGET // len(harm))  # bounded complex temporary
        for i in range(0, len(flat), block):
            phase = np.exp(2j * np.pi * np.outer(flat[i:i + block], harm))
            vals[i:i + block] = (phase * weights).sum(axis=1).real
        return vals.reshape(t.shape) if t.shape else float(vals[0])

    def __call__(self, t):
        return self.eval(t)

    def derivative(self) -> "PeriodicFn":
        """Spectral derivative on the same grid."""
        n = self.grid.n
        c = np.fft.rfft(self.values)
        m = np.arange(len(c))
        c = c * (2j * np.pi * m)
        if n % 2 == 0:
            c[-1] = 0.0  # Nyquist mode has no well-defined derivative sign
        return PeriodicFn(self.grid, np.fft.irfft(c, n=n))

    def __repr__(self):
        return f"PeriodicFn(n={self.grid.n}, mean={mean(self):.6g})"


def mean(u: PeriodicFn) -> float:
    """Trapezoidal mean over one period (plain sample average on the grid)."""
    return float(np.mean(u.values))


def spectral_antiderivative(values: np.ndarray) -> np.ndarray:
    """Zero-mean periodic A with A' = values - mean(values), on the grid."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    c = np.fft.rfft(values)
    m = np.arange(len(c))
    out = np.zeros_like(c)
    out[1:] = c[1:] / (2j * np.pi * m[1:])
    return np.fft.irfft(out, n=n)


def integral_weighted_t(values: np.ndarray) -> float:
    """Exact spectral value of ``int_0^1 phi(t) * t dt`` for periodic phi."""
    return float(np.mean(values)) / 2.0 + float(spectral_antiderivative(values)[0])


def integral_weighted_t2(values: np.ndarray) -> float:
    """Exact spectral value of ``int_0^1 phi(t) * t^2 dt`` for periodic phi."""
    a = spectral_antiderivative(values)
    b = spectral_antiderivative(a)
    return float(np.mean(values)) / 3.0 + float(a[0]) - 2.0 * float(b[0])


class Cumulative:
    """The running integral t -> int_0^t u(s) ds of a periodic function."""

    def __init__(self, u: PeriodicFn):
        self._mean = mean(u)
        a = spectral_antiderivative(u.values)
        self._osc = PeriodicFn(u.grid, a)
        self._a0 = float(a[0])
        self.grid = u.grid

    @property
    def at_nodes(self) -> np.ndarray:
        return self._mean * self.grid.nodes + self._osc.values - self._a0

    def __call__(self, t: np.ndarray | float) -> np.ndarray | float:
        t = np.asarray(t, dtype=float)
        out = self._mean * t + self._osc.eval(t) - self._a0
        return out if t.shape else float(out)


def cumulative(u: PeriodicFn) -> Cumulative:
    """Running integral of ``u``; its value at t=1 equals mean(u) exactly."""
    return Cumulative(u)


# ---------------------------------------------------------------------------
# the trigonometric series
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FourierAnsatz:
    """u(t) = a0 + sum_j a[j-1] cos(2 pi j t) + b[j-1] sin(2 pi j t).

    An ansatz u, or the coefficient c_j(t) of a nonlinearity term. The
    shorter of ``a`` and ``b`` is zero-padded; both are read-only. The
    coordinates run (a0, a1, b1, a2, b2, ...), as ``names`` lists them.
    A non-finite coefficient, or an ``a`` or ``b`` that is not 1-D, raises
    ``PreconditionError``.
    """

    a0: float = 0.0
    a: np.ndarray = ()
    b: np.ndarray = ()

    def __post_init__(self):
        a, b = (np.atleast_1d(np.asarray(c, dtype=float)) for c in (self.a, self.b))
        if a.ndim != 1 or b.ndim != 1:
            raise PreconditionError("series coefficients a and b must be 1-D")
        M = max(len(a), len(b))
        for name, c in (("a", a), ("b", b)):
            c = np.pad(c, (0, M - len(c)))  # a copy: the caller's stays writable
            c.setflags(write=False)
            object.__setattr__(self, name, c)
        object.__setattr__(self, "a0", float(self.a0))
        if not (math.isfinite(self.a0) and np.isfinite(a).all()
                and np.isfinite(b).all()):
            raise PreconditionError("series coefficients must be finite")

    @property
    def harmonics(self) -> int:
        return len(self.a)

    @property
    def is_constant(self) -> bool:
        return not self.a.any() and not self.b.any()

    def abs_bound(self) -> float:
        return float(abs(self.a0) + np.abs(self.a).sum() + np.abs(self.b).sum())

    def eval(self, t: np.ndarray | float) -> np.ndarray | float:
        t = np.asarray(t, dtype=float)
        out = np.full(t.shape or (1,), self.a0)
        if not self.is_constant:
            for j in range(1, self.harmonics + 1):
                out = out + (self.a[j - 1] * np.cos(TWO_PI * j * t)
                             + self.b[j - 1] * np.sin(TWO_PI * j * t))
        return out.reshape(t.shape) if t.shape else float(out[0])

    __call__ = eval

    def derivative_eval(self, t: np.ndarray | float) -> np.ndarray | float:
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape or (1,))
        for j in range(1, self.harmonics + 1):
            w = TWO_PI * j
            out = out + w * (-self.a[j - 1] * np.sin(w * t)
                             + self.b[j - 1] * np.cos(w * t))
        return out.reshape(t.shape) if t.shape else float(out[0])

    def sample(self, grid: Grid | None = None) -> PeriodicFn:
        grid = grid or Grid()
        return PeriodicFn(grid, self.eval(grid.nodes))

    def names(self) -> list[str]:
        return ["a0"] + [f"{c}{j}" for j in range(1, self.harmonics + 1)
                         for c in "ab"]

    def vector(self) -> np.ndarray:
        return np.r_[self.a0, np.column_stack((self.a, self.b)).ravel()]

    @classmethod
    def from_vector(cls, x: np.ndarray) -> "FourierAnsatz":
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or len(x) % 2 == 0:
            raise PreconditionError("a coordinate vector has odd length 1 + 2M")
        return cls(x[0], x[1::2], x[2::2])

    @staticmethod
    def basis(grid: Grid, M: int) -> np.ndarray:
        """Rows 1, cos 2 pi t, sin 2 pi t, ..., sin 2 pi M t on the grid nodes:
        d u / d ``vector()`` for an ansatz of M harmonics."""
        t = grid.nodes
        dirs = [np.ones_like(t)]
        for j in range(1, M + 1):
            dirs.append(np.cos(2 * np.pi * j * t))
            dirs.append(np.sin(2 * np.pi * j * t))
        return np.asarray(dirs)

    @classmethod
    def from_periodic(cls, u: PeriodicFn, harmonics: int) -> "FourierAnsatz":
        """Read coefficients back by discrete transform (exact for M < n/2)."""
        n = u.grid.n
        if require_int("harmonics", harmonics, 0) >= n // 2:
            raise PreconditionError("requested harmonics not resolved by the grid")
        c = np.fft.rfft(u.values) / n
        a0 = float(c[0].real)
        a = 2.0 * c[1:harmonics + 1].real
        b = -2.0 * c[1:harmonics + 1].imag
        return cls(a0, a, b)


# ---------------------------------------------------------------------------
# the nonlinearity model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Term:
    """One monomial c_j(t) * x^j of the nonlinearity; j is an integer >= 0."""

    power: int
    coeff: FourierAnsatz

    def __post_init__(self):
        object.__setattr__(self, "power", require_int("power", self.power, 0))
        if not isinstance(self.coeff, FourierAnsatz):
            raise PreconditionError(f"a term's coefficient must be a "
                                    f"FourierAnsatz, got {self.coeff!r}")


def horner(coeffs, x):
    """sum_m coeffs[m] x^m by Horner's rule, coefficients ascending.

    ``acc = coeffs[w-1]``, then ``acc = acc * x + coeffs[m]`` for m from
    w-2 down: the operations, in their order, that odeint's generated
    loops inline, so its floats are theirs bit for bit.
    """
    acc = coeffs[-1]
    for m in range(len(coeffs) - 2, -1, -1):
        acc = acc * x + coeffs[m]
    return acc


class Nonlinearity:
    """f(t, x): polynomial in x with trigonometric-polynomial coefficients.

    Partial x-derivatives up to order 5 are exact (power rule).
    """

    def __init__(self, terms: Sequence[Term] = ()):
        self.terms = tuple(terms)
        self.autonomous = all(t.coeff.is_constant for t in self.terms)

    # -- constructors -------------------------------------------------------

    @classmethod
    def polynomial(cls, coeffs: Sequence[float]) -> "Nonlinearity":
        """Autonomous polynomial sum_j coeffs[j] * x^j; the coefficients
        must be finite."""
        terms = [Term(j, FourierAnsatz(float(c)))
                 for j, c in enumerate(coeffs) if c != 0.0]
        return cls(terms)

    @classmethod
    def quartic(cls, b: float, c: float) -> "Nonlinearity":
        """x^4 - b x^2 + c x."""
        return cls.polynomial([0.0, c, -b, 0.0, 1.0])

    # -- evaluation ---------------------------------------------------------

    def eval(self, t, x, order: int = 0):
        """d^order f / dx^order at (t, x); exact for polynomial terms."""
        order = require_int("order", order, 0)
        if order > MAX_X_DERIVATIVE:
            raise UnsupportedOrderError(
                f"x-derivative order {order} not in 0..{MAX_X_DERIVATIVE}")
        x = np.asarray(x, dtype=float)
        out = np.zeros(np.broadcast(np.asarray(t, dtype=float), x).shape)
        for term in self.terms:
            j = term.power
            if j < order:
                continue
            out = out + term.coeff(t) * math.perm(j, order) * x ** (j - order)
        return out if out.shape else float(out)

    def poly_coeffs(self, order: int = 0) -> np.ndarray:
        """Autonomous-only: coefficients of d^order f/dx^order in x."""
        if not self.autonomous:
            raise PreconditionError("poly_coeffs requires an autonomous polynomial")
        return self.coeff_rows(np.zeros(1), order)[0]

    def coeff_rows(self, times: np.ndarray, order: int = 0) -> np.ndarray:
        """Coefficient table C with f^(order)(t_i, x) = sum_m C[i, m] x^m."""
        order = require_int("order", order, 0)
        times = np.asarray(times, dtype=float)
        deg = max((t.power for t in self.terms), default=0)
        width = max(deg - order + 1, 1)
        rows = np.zeros((len(times), width))
        for term in self.terms:
            j = term.power
            if j < order:
                continue
            rows[:, j - order] += term.coeff(times) * math.perm(j, order)
        return rows

    def abs_bound(self, x_bound: float) -> float:
        """Upper bound for |f(t,x)| over the circle and |x| <= x_bound."""
        return sum(t.coeff.abs_bound() * x_bound ** t.power for t in self.terms)

    def on_grid(self, u: PeriodicFn, order: int = 0) -> np.ndarray:
        """Samples of d^order f/dx^order along (t, u(t)) at the grid nodes."""
        return np.asarray(self.eval(u.grid.nodes, u.values, order), dtype=float)

    def __repr__(self):
        return f"Nonlinearity({len(self.terms)} terms, autonomous={self.autonomous})"


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def _series_from_json(doc: dict) -> FourierAnsatz:
    """``{"a0", "cos", "sin"}`` as a series: a0 defaults to 0, lists to [];
    a non-finite number raises ``PreconditionError``."""
    return FourierAnsatz(float(doc.get("a0", 0.0)),
                         [float(c) for c in doc.get("cos", [])],
                         [float(s) for s in doc.get("sin", [])])


def power_from_json(value) -> int:
    """A term's power read from a file: an integral number >= 0, so 2.0
    reads as 2; 2.5, -1, a string or a bool raise ``ValueError``."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if type(value) is not int or value < 0:
        raise ValueError(f"power {value!r} is not an integral number >= 0")
    return value


def nonlinearity_from_json(doc: dict) -> Nonlinearity:
    """f from ``{"terms": [...]}``; the removed ``builtin`` key raises
    ``MalformedFileError`` like any other malformed document."""
    try:
        terms = [Term(power_from_json(td["power"]), _series_from_json(td))
                 for td in doc.get("terms", [])]
        if "builtin" in doc:
            raise ValueError("the builtin nonlinearities were removed; write "
                             "f as polynomial terms")
        return Nonlinearity(terms)
    except (AttributeError, KeyError, TypeError, ValueError,
            PreconditionError) as exc:
        raise MalformedFileError(f"bad nonlinearity document: {exc}") from exc


def ansatz_to_json(u: FourierAnsatz) -> dict:
    return {"a0": u.a0, "cos": list(map(float, u.a)), "sin": list(map(float, u.b))}


def ansatz_from_json(doc: dict) -> FourierAnsatz:
    """An ansatz needs ``a0`` and ``cos``/``sin`` of one equal, nonzero length."""
    try:
        if "a0" not in doc or not 0 < len(doc["cos"]) == len(doc["sin"]):
            raise ValueError("needs a0, and cos and sin of one nonzero length")
        return _series_from_json(doc)
    except (KeyError, TypeError, ValueError, PreconditionError) as exc:
        raise MalformedFileError(f"bad ansatz document: {exc}") from exc


class MalformedFileError(MorinodeError):
    """A problem/ansatz document failed to parse or validate."""


def load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedFileError(f"{path}: {exc}") from exc
