"""Shared by every layer and the CLI: units, the spectrum, defaults, input rules, errors, grids.

Every number is computed by a float function of one real coordinate at a time; no module
imports numpy.
"""

import math
import operator
import sys
from collections import namedtuple

DEFAULT_THETA = math.pi / 4.0  # the constant-weight phase: sin^2 = cos^2 = 1/2
DEFAULT_TOL = 1e-10  # every quadrature and series remainder tolerance, unless one is given
SPACES = ("position", "momentum")  # the coordinate spaces of a density or spinor
# The highest level the tests certify, by normalization and against mpmath entropies.
MAX_LEVEL = 64
# N up to which every thermo report field stays finite at both ends of its coupling range at
# beta = 1 in natural units: per particle they stay below ~700, and C_V's closed form forms 12 N x.
MAX_PARTICLES = 10**150


def coordinate(y, name="a coordinate", positive=False):
    """float(y) of a finite real number, a type with __float__ or __index__ (an int, a float, a
    numpy scalar, a Fraction); else, naming y's parameter, TypeError for text, which float() would
    parse, and ValueError for inf, nan, past the largest float and, if positive, for y <= 0.  The
    one rule for a real or positive input: each caller computes only with the float it returns."""
    if not (hasattr(type(y), "__float__") or hasattr(type(y), "__index__")):
        raise TypeError(f"{name} must be a real number, not {type(y).__name__}")
    try:
        if math.isfinite(y := float(y)) and (not positive or y > 0.0):
            return y
    except OverflowError:  # an int or a Fraction past the largest float
        pass
    raise ValueError(f"{name} must be {'positive and ' * positive}finite")


def _frexp_quotient(numerators, denominators):
    """(mantissa, exponent) of prod(numerators) / each denominator in turn, on frexp mantissas."""
    mantissa, exponent = 1.0, 0
    for m, e in map(math.frexp, numerators):
        mantissa, exponent = mantissa * m, exponent + e
    for m, e in map(math.frexp, denominators):
        mantissa, exponent = mantissa / m, exponent - e
    return mantissa, exponent


def scaled_quotient(numerators, denominators=()):
    """prod(numerators) / each denominator in turn, on the frexp mantissas: the plain form's bits
    wherever it stays normal, a signed 0 or inf only where the result leaves the float range."""
    mantissa, exponent = _frexp_quotient(numerators, denominators)
    try:
        return math.ldexp(mantissa, exponent)
    except OverflowError:  # the result exceeds the largest float
        return math.copysign(math.inf, mantissa)


def over_product(a, b, c):
    """a/(b c): the plain quotient, and its bits, where the plain b c is a normal float, else
    scaled_quotient((a,), (b, c)), a signed 0 or inf only where a/(b c) leaves the float range."""
    bc = b * c
    return a / bc if sys.float_info.min <= bc < math.inf else scaled_quotient((a,), (b, c))


def scaled_root(numerators, denominators=()):
    """sqrt of scaled_quotient's value, taken on its mantissa: the plain root's bits where the plain
    quotient is normal, else within 1 ulp for two factors; OverflowError past the largest float."""
    mantissa, exponent = _frexp_quotient(numerators, denominators)
    return math.ldexp(math.sqrt(math.ldexp(mantissa, exponent % 2)), exponent // 2)


class PhysicalConstants(namedtuple("PhysicalConstants", "c hbar k_B")):
    """Unit conventions; defaults are natural units c = hbar = k_B = 1."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too

    def __new__(cls, c=1.0, hbar=1.0, k_B=1.0):
        return super().__new__(cls, *(coordinate(value, name, positive=True)
                                      for name, value in zip(cls._fields, (c, hbar, k_B))))

    def omega(self, k):
        """The frequency omega = k/(c hbar) of slope k, scaled exactly where c hbar alone is not
        a normal float.  Raises ValueError unless 0 < k < inf, and OutOfRange naming "k" where
        omega is not a normal float: past the largest float, or below the least normal one,
        where it would have lost its bits."""
        k = coordinate(k, "k", positive=True)
        omega = over_product(k, self.c, self.hbar)
        if not sys.float_info.min <= omega < math.inf:
            raise OutOfRange("k", k, "k/(c hbar) leaves the float range")
        return omega


NATURAL_UNITS = PhysicalConstants()


def constants(pc):
    """pc where it is a PhysicalConstants, else ValueError: the one rule for a pc argument."""
    if not isinstance(pc, PhysicalConstants):
        raise ValueError("pc must be a PhysicalConstants")
    return pc


def energy(n, k, pc=NATURAL_UNITS):
    """The spectrum E_n = sqrt(2 n c hbar k) of a slope k > 0, the one entry (energy(n, omega) is
    sqrt(2 n omega)): the exactly scaled root of its product (scaled_root), so omega = k/(c hbar)
    is never rounded; inf only past the largest float, 0 at n = 0; the lower tower is -energy."""
    k, pc = coordinate(k, "k", positive=True), constants(pc)
    try:
        return scaled_root((2.0 * level(n), pc.c, pc.hbar, k))
    except OverflowError:  # the root exceeds the largest float
        return math.inf


class LevelError(ValueError, TypeError):
    """A level n or a count N that is not an integer in its range: a ValueError and a TypeError."""


def level(n, name="quantum number n", least=0, most=MAX_LEVEL):
    """n as an int by operator.index, Python's integer protocol, which numpy integers implement;
    a bool, a non-integer or an n outside [least, most] raises LevelError naming n's parameter."""
    try:
        index = operator.index(n)
    except TypeError:
        index = None
    if index is None or index < least or isinstance(n, bool):
        raise LevelError(f"{name} must be an integer >= {least}")
    if index > most:
        raise LevelError(f"{name} must be an integer <= {most}")
    return index


class OutOfRange(ValueError):
    """An input that would carry a result out of the float range.

    param names the input ("T", "t", "N", "k", "omega" or "em_parameter") and value is the
    offending value.
    """

    def __init__(self, param, value, message):
        super().__init__(message)
        self.param = param
        self.value = value


class BoundViolation(RuntimeError):
    """An entropy sum below the uncertainty bound by more than its error: a numerics bug."""


class NonConvergence(RuntimeError):
    """A tol that the method cannot certify: the quadrature's error estimate or the 200-term
    series remainder bound stays above it.  value is the best estimate reached, err_estimate
    its error estimate or bound."""

    def __init__(self, message, value, err_estimate):
        super().__init__(message)
        self.value = value
        self.err_estimate = err_estimate


def linspace(start, stop, num):
    """np.linspace(start, stop, num).tolist(), bit for bit, as a list of floats; start and stop
    are taken by coordinate's rule and num by level's.

    The same operations in the same order: step = (stop - start)/(num - 1), the
    i-th point i*step + start (i/(num - 1)*(stop - start) + start when step
    underflows to 0), and the last point set to stop.
    """
    start, stop = coordinate(start, "start"), coordinate(stop, "stop")
    num = level(num, "num", 0, math.inf)
    div, delta = num - 1, stop - start
    if div <= 0:
        return [0.0 * delta + start] * num
    step = delta / div
    points = ([i / div * delta + start for i in range(num)] if step == 0.0
              else [i * step + start for i in range(num)])
    points[-1] = stop
    return points

