"""One sweep of the public API over the edges of its documented range.

Every function of hermite, spinor, entropy and thermo (and the spectrum of common, the radius
and x ln x of quadrature) is called over levels n in {0, 1, 64}, magnitudes x from 5e-324 to
1e308, coordinates and times from 5e-324 to 1e308 of either sign and past the largest float
(an int and a Fraction), and seven sets of constants:
natural units, c = hbar = 1e-300 and 1e300, k_B = 1e-300 and 1e300, (3e8, 1.05e-34) and
c = hbar = 1e-160, where a product of the constants is subnormal.  An outcome is clean if

  - it is finite;
  - it raises ValueError (OutOfRange and LevelError among them), TypeError (text where a real
    number belongs) or NonConvergence (from the quadrature or the partition series), with one
    of the wordings in REFUSALS;
  - it is +-inf where the exact product of the constants exceeds the largest float, with
    its sign, or temperature's inf where 1/(k_B beta) exceeds the largest float.

A product of the constants (c hbar, c hbar k beta^2, sqrt(2 n omega) c t) is also compared
with its exact rational value: within 4 ulp wherever that is a normal float, and refused
only where it is not.  The roots sqrt(2 n omega) and truncation_radius's sqrt(w/omega) are
compared with the 60-digit root of their exact quotient: within 1 ulp at every level, over
the magnitudes above and where the plain quotient overflows (omega past 2**1015 for
sqrt(2 n omega), below 2**-1015 for the radius).  An energy sqrt(2 n c hbar k) is compared
with its 60-digit root at every slope k: within 2 ulp, and inf only past the largest float.
"""

import math
import random
import re
import sys
from fractions import Fraction

import mpmath
import pytest

from majorana_lab import entropy, hermite, quadrature, spinor, thermo
from majorana_lab.common import MAX_LEVEL, NonConvergence, PhysicalConstants, energy
from majorana_lab.spinor import SpinorState, density_evaluator
from majorana_lab.thermo import EM_PARAMETER_RANGE, EnsembleParams

X = (5e-324, 1e-308, 1e-150, 1e-10, 0.3, 1.0, 7.0, 1e10, 1e150, 1e308)
LEVELS = (0, 1, 64)
FLOATS = (0.0, 1.0, -1.0, -7.0, 1e150, 1e308, 5e-324)  # x ln x arguments
COORDS = (*FLOATS, 10**400, Fraction(10**400, 3))  # coordinates and times
CONSTANTS = {
    "natural": PhysicalConstants(),
    "c_hbar=1e-300": PhysicalConstants(c=1e-300, hbar=1e-300),
    "c_hbar=1e300": PhysicalConstants(c=1e300, hbar=1e300),
    "k_B=1e-300": PhysicalConstants(k_B=1e-300),
    "k_B=1e300": PhysicalConstants(k_B=1e300),
    "c=3e8,hbar=1.05e-34": PhysicalConstants(c=3e8, hbar=1.05e-34),
    "c_hbar=1e-160": PhysicalConstants(c=1e-160, hbar=1e-160),
}

# Every wording a refusal may carry; a new one fails the sweep until it is listed here.
POSITIVE = r"(c|hbar|k_B|omega|k|beta|tol|target_abs_tol)"  # common.positive_finite's names
REAL = r"(a coordinate|t|theta|Omega|tail_tol|T)"  # common.coordinate's names
REFUSALS = tuple(re.compile(pattern) for pattern in (
    rf"{POSITIVE} must be positive and finite",
    rf"({POSITIVE}|{REAL}) must be a real number, not \w+",
    r"(quantum number n|N) must be an integer >= \d+",
    rf"{REAL} must be finite",
    r"tail_tol must lie in \(0, 1\)",
    r"xlogx requires v >= 0",
    r"space must be one of \('position', 'momentum'\)",
    r"pc must be a PhysicalConstants",
    r"quadrature did not reach tol=\S+ on \[\S+, \S+\] \(error estimate \S+ over \d+ panels\)",
    r"partition series remainder bound \S+ at M = 200 exceeds tol=\S+ \(beta=\S+, k=\S+\)",
    r"N exceeds the largest float, 1.79769e\+308",
    r"k/\(c hbar\) leaves the float range",
    r"omega=\S+ takes 1/omega out of the float range",
    r"t=\S+ takes the phase theta_n\(t\) out of the float range",
    r"c\*hbar\*k\*beta\^2 = \S+ is out of \[1e-300, 1e\+150\], where the sums stay finite",
    r"\S+ takes c\*hbar\*k\*beta\^2 out of \[1e-300, 1e\+150\], where the sums stay finite",
    r"k_B=\S+ with N=\d+ takes a field of the report out of the float range",
))

MIN, MAX = Fraction(sys.float_info.min), Fraction(sys.float_info.max)
HUGE_AND_TEXT = (10**400, Fraction(-10**400, 3), "1")  # no real number a float holds

_RNG = random.Random(25)
# 2 n omega overflows past omega = 2**1015 (n >= 1), and w/omega below 2**-1015
HUGE_OMEGA = [math.ldexp(_RNG.uniform(0.5, 1.0), _RNG.randint(1016, 1024)) for _ in range(40)]
TINY_OMEGA = [math.ldexp(_RNG.uniform(0.5, 1.0), _RNG.randint(-1073, -1015)) for _ in range(40)]


def floats(value):
    """The floats of a result: itself, its real and imaginary parts, or those of its items."""
    if isinstance(value, (tuple, list)):
        return [v for item in value for v in floats(item)]
    if isinstance(value, complex):
        return [value.real, value.imag]
    return [float(value)]


def exact(*factors, divisors=()):
    """The rational product of the float factors over the divisors."""
    result = Fraction(1)
    for value in factors:
        result *= Fraction(value)
    for value in divisors:
        result /= Fraction(value)
    return result


def check_root(result, *factors, divisors=(), ulps=1):
    """result is within ulps ulp of the 60-digit square root of exact(*factors, divisors=divisors),
    and inf where that root rounds past the largest float."""
    quotient = exact(*factors, divisors=divisors)
    with mpmath.workdps(60):
        root = mpmath.sqrt(mpmath.mpf(quotient.numerator) / quotient.denominator)
        want = float(root)
        if want == math.inf:
            assert result == math.inf, result
        else:
            assert abs(mpmath.mpf(result) - root) <= ulps * math.ulp(want), (result, want)


def check(take, product=None):
    """take()'s result or refusal, failing unless it is clean.  product is the exact value of
    a product of the constants: the result is then within 4 ulp of it where it is a normal
    float, +-inf only beyond the largest float, and a refusal only where it is not normal."""
    try:
        result = take()
    except (ValueError, TypeError, NonConvergence) as exc:
        assert any(p.fullmatch(str(exc)) for p in REFUSALS), f"unlisted refusal: {exc}"
        if product is not None:
            assert not MIN <= abs(product) <= MAX, f"false refusal of {float(product)!r}: {exc}"
        return exc
    if product is None:
        assert all(map(math.isfinite, floats(result))), result
        return result
    if math.isinf(result):
        assert abs(product) > MAX and (result > 0) == (product > 0), result
    else:
        assert abs(product) <= MAX, result
        if abs(product) >= MIN:
            assert abs(Fraction(result) - product) <= 4 * Fraction(math.ulp(float(product))), (
                result, float(product))
    return result


def sweep_hermite():
    for n in LEVELS:
        for omega in X:
            check(lambda: hermite.sqrt_2n_omega(n, omega))
            pair = hermite.hermite_pair_evaluator(n, omega)
            ladder = spinor.ladder_evaluator(SpinorState(n, omega))
            for y in COORDS:
                check(lambda: pair(y))
                # phi_n' = (A - A+) phi_n / 2 in natural units
                check(lambda: (ladder(y)[0] - ladder(y)[1]) / 2.0)


def sweep_roots():
    for n in range(MAX_LEVEL + 1):
        for omega in (*X, *HUGE_OMEGA, sys.float_info.max):
            check_root(hermite.sqrt_2n_omega(n, omega), 2 * n, omega)
        W = -math.log(1e-12)
        w = W + (n + 2) * math.log(W + math.e)  # the float w that the radius forms
        for omega in (*X, *TINY_OMEGA):
            check_root(quadrature.truncation_radius(omega, n) / 2.0, w, divisors=(omega,))


def sweep_quadrature():
    for n in LEVELS:
        for value in X:
            check(lambda: quadrature.truncation_radius(value, n))
            check(lambda: quadrature.truncation_radius(1.0, n, tail_tol=value))
    for v in (*X, *FLOATS):  # v ln(v) overflows past v ~ 2.5e305
        check(lambda: quadrature.xlogx(v), exact(v, math.log(v)) if v > 1.0 else None)


def sweep_entropy():
    for n in LEVELS:
        for omega in X:
            check(lambda: entropy.bbm_reports(n, (omega,)))
            for space in ("position", "momentum"):
                for coord in COORDS:
                    check(lambda: quadrature.xlogx(
                        density_evaluator(SpinorState(n, omega), math.pi / 4, space)(coord)))


def sweep_spectrum(pc):
    for k in X:
        check(lambda: pc.omega(k), exact(k, divisors=(pc.c, pc.hbar)))
        for n in LEVELS:
            check(lambda: SpinorState(n, pc.omega(k)))
            for sign in (1, -1):  # energy never forms omega, so it takes every k
                e = sign * energy(n, k, pc)  # -1: the lower tower
                assert math.copysign(1.0, e) == sign, e
                check_root(abs(e), 2 * n, pc.c, pc.hbar, k, ulps=2)
    for n in LEVELS:
        for omega in X:
            state, root = SpinorState(n, omega), hermite.sqrt_2n_omega(n, omega)
            for t in COORDS:  # a time past the largest float is refused, as inf is
                product = exact(root, pc.c, t) if abs(t) <= MAX else None
                check(lambda: spinor.phase(state, t, pc), product)


def sweep_states(pc):
    for n in LEVELS:
        for omega in X:
            state = SpinorState(n, omega)
            for coord in COORDS:
                for t in (0.0, 1.0, 1e308):
                    for space in ("position", "momentum"):
                        check(lambda: spinor.spinor_evaluator(state, spinor.phase(state, t, pc), space)(coord))
                        check(lambda: density_evaluator(state, spinor.phase(state, t, pc), space)(coord))


def sweep_ladder(pc):
    for n in LEVELS:
        for omega in X:
            state = SpinorState(n, omega)
            # natural units give the raw (+-d/dy + omega y) phi_n: times c hbar = 1, bit for bit
            raw, ladder = spinor.ladder_evaluator(state), spinor.ladder_evaluator(state, pc)
            for y in COORDS:
                try:
                    kernels = raw(y)
                except ValueError:  # a coordinate past the largest float, which ladder refuses
                    kernels = (None, None)
                for index, kernel in enumerate(kernels):
                    product = None if kernel is None else exact(pc.c, pc.hbar, kernel)
                    check(lambda: ladder(y)[index], product)


def sweep_thermo(pc):
    lo, hi = (Fraction(bound) for bound in EM_PARAMETER_RANGE)
    for beta in X:
        for k in X:
            x = exact(pc.c, pc.hbar, k, beta, beta)
            ep = check(lambda: EnsembleParams(beta, k, pc=pc))
            if isinstance(ep, Exception):  # refused only outside the range, up to its rounding
                assert not lo * (1 + 2**-50) <= x <= hi * (1 - 2**-50), (beta, k, ep)
                continue
            check(lambda: ep.em_parameter, x)
            temperature = ep.temperature  # 1/(k_B beta): inf only past the largest float
            assert math.isfinite(temperature) or exact(divisors=(pc.k_B, beta)) > MAX
            check(lambda: thermo.partition_em(ep))
            check(lambda: thermo.report(ep))
            check(lambda: thermo.report(ep._replace(N=10**150)))
    for T in X:
        check(lambda: thermo.thermo_sweep((1.0,), (T,), pc=pc))


def sweep_bad_input():
    """One bad argument per call: each is refused, in a listed wording."""
    state, nan, inf = SpinorState(1, 1.0), math.nan, math.inf
    calls = [
        *(lambda n=n: hermite.hermite_pair_evaluator(n, 1.0)(0.5) for n in (-1, 1.5, True, None)),
        *(lambda w=w: hermite.hermite_pair_evaluator(1, w)(0.5) for w in (0.0, -1.0, inf, nan)),
        *(lambda y=y: spinor.ladder_evaluator(state)(y) for y in (inf, -inf, nan)),
        *(lambda t=t: quadrature.truncation_radius(1.0, 1, t) for t in (0.0, 1.0, nan, "1e-3", None)),
        lambda: quadrature.xlogx(nan),
        *(lambda c=c: PhysicalConstants(**{c: 0.0}) for c in PhysicalConstants._fields),
        lambda: PhysicalConstants().omega(-1.0),
        lambda: energy(1, -1.0),
        # a positive real number: an int or a Fraction past the largest float, and text, too
        *(lambda v=v: PhysicalConstants(c=v) for v in HUGE_AND_TEXT),
        *(lambda v=v: PhysicalConstants().omega(v) for v in HUGE_AND_TEXT),
        *(lambda v=v: energy(1, v) for v in HUGE_AND_TEXT),
        *(lambda v=v: EnsembleParams(v, 1.0) for v in HUGE_AND_TEXT),
        *(lambda v=v: EnsembleParams(1.0, v) for v in HUGE_AND_TEXT),
        *(lambda v=v: entropy.bbm_reports(1, (v,)) for v in HUGE_AND_TEXT),
        *(lambda v=v: SpinorState(0, 1.0, Omega=v) for v in (inf, *HUGE_AND_TEXT)),
        *(lambda t=t: spinor.phase(state, t) for t in (inf, nan, *HUGE_AND_TEXT)),
        *(lambda v=v: density_evaluator(state, v)(0.5) for v in (nan, *HUGE_AND_TEXT)),
        *(lambda v=v: spinor.spinor_evaluator(state, v, "momentum") for v in (nan, *HUGE_AND_TEXT)),
        lambda: density_evaluator(state, spinor.phase(state, 0.0), space="spin")(0.5),
        lambda: entropy.bbm_reports(1, (1.0,), tol=0.0),
        *(lambda n=n: entropy.bbm_reports(n, ()) for n in (-1, True)),  # no omega: the level is checked
        lambda: entropy.bbm_reports(3, (1.0,), 0.3, tol=1e-300),
        *(lambda kw=kw: EnsembleParams(**{"beta": 1.0, "k": 1.0, **kw})
          for kw in ({"beta": 0.0}, {"k": -1.0}, {"N": 0}, {"N": 1.5}, {"N": 10**400},
                     {"pc": None})),
        lambda: thermo.moment_sums(EnsembleParams(1.0, 1.0), tol=1e-300),
        lambda: thermo.thermo_sweep((1.0,), (inf,)),
        # a positive real k and a real T: zero, text and an int past the largest float
        *(lambda v=v: thermo.thermo_sweep((v,), (1.0,)) for v in (0.0, *HUGE_AND_TEXT)),
        *(lambda v=v: thermo.thermo_sweep((1.0,), (v,)) for v in (0.0, *HUGE_AND_TEXT)),
    ]
    for take in calls:
        assert isinstance(check(take), Exception)


SWEEPS = {"hermite": sweep_hermite, "roots": sweep_roots, "quadrature": sweep_quadrature,
          "entropy": sweep_entropy, "bad-input": sweep_bad_input}
for name, sweep in (("spectrum", sweep_spectrum), ("states", sweep_states),
                    ("ladder", sweep_ladder), ("thermo", sweep_thermo)):
    for label, pc in CONSTANTS.items():
        SWEEPS[f"{name}-{label}"] = lambda sweep=sweep, pc=pc: sweep(pc)


@pytest.mark.parametrize("name", SWEEPS)
def test_public_api_is_clean_at_the_edges(name):
    SWEEPS[name]()
