"""Two-component spinor bound states of a linear potential, with SUSY ladder maps.

The stationary problem factorizes through the first-order operators

    A  =  c*hbar d/dy + k y          (annihilation-like)
    A+ = -c*hbar d/dy + k y          (creation-like)

acting in the shifted coordinate y = x + m c^2 / k, with omega = k / (c hbar).
The level-n spinor has a real upper component phi_n(y) sin(theta_n(t)) and a
real lower component phi_{n-1}(y) cos(theta_n(t)); the n = 0 state is the
stationary Gaussian (phi_0, 0).  Momentum-space forms follow from the Fourier
eigenrelation of the Hermite-Gauss basis (kernel e^{+ipy}/sqrt(2 pi)), which
maps phi_n at frequency omega to i^n times phi_n at frequency 1/omega.

Each input has one entry.  The slope is a float k > 0, taken by PhysicalConstants.omega(k),
which gives a state its omega; the spectrum is common.energy: E_n = energy(n, k, pc), and the
phase and ladder maps take sqrt(2 n omega) as energy(n, omega).  Time enters only through
theta_n(t) = phase(state, t, pc), so a spinor at time t is spinor_evaluator(state, theta, space).
A coordinate, t and theta are each taken by common.coordinate, a coordinate once per point,
omega by coordinate(omega, "omega", positive=True) and pc by common.constants.  The
ladder operators A and A+ are one ladder_evaluator(state, pc): y -> (A phi_n, A+ phi_n).
"""

import math
from collections import namedtuple

from .common import (NATURAL_UNITS, SPACES, OutOfRange, constants, coordinate, energy, level,
                     scaled_quotient)
from .hermite import hermite_pair_evaluator

_I_POW = (1.0 + 0.0j, 0.0 + 1.0j, -1.0 + 0.0j, 0.0 - 1.0j)  # i**n without complex pow dirt


class SpinorState(namedtuple("SpinorState", "n omega")):
    """Level n with effective frequency omega."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too

    def __new__(cls, n, omega):
        return super().__new__(cls, level(n), coordinate(omega, "omega", positive=True))


# One evaluation of the spinor: upper component comp1, lower comp2.
SpinorValue = namedtuple("SpinorValue", "comp1 comp2")


def phase(state, t, pc=NATURAL_UNITS):
    """theta_n(t) = energy(n, omega) c t = E_n t / hbar (a zero as +0.0), pc by common.constants.

    Raises OutOfRange naming "t" when theta_n(t) is not finite: "t must be finite" where t is no
    finite float (common.coordinate's rule: inf, nan, an int or a Fraction past the largest
    float), and a range error where the exactly scaled product overflows.
    """
    root, c = energy(state.n, state.omega), constants(pc).c
    try:
        theta = scaled_quotient((root, c, coordinate(t, "t"))) + 0.0  # -0.0 + 0.0 is +0.0
    except ValueError as exc:  # t is no finite float
        raise OutOfRange("t", t, str(exc)) from None
    if not math.isfinite(theta):
        raise OutOfRange("t", t, f"t={t!r} takes the phase theta_n(t) out of the float range")
    return theta


def spinor_evaluator(state, theta, space="position"):
    """coord -> SpinorValue at phase theta and a position (y) or momentum (p) coordinate: real
    in position; in momentum the Fourier phases i^n and i^(n-1) times the profiles at 1/omega."""
    pair = hermite_pair_evaluator(state.n, space_frequency(state.omega, space))
    s, c = _weights(state, theta)
    upper, lower = 1.0, 1.0  # a position component times 1.0 is the same float, bit for bit
    if space == "momentum":
        upper, lower = _I_POW[state.n % 4], _I_POW[(state.n - 1) % 4]

    def spinor(coord):
        f_n, f_m = pair(coord)
        return SpinorValue(upper * f_n * s, lower * f_m * c)
    return spinor


def density_evaluator(state, theta, space="position"):
    """coord -> |comp1|^2 + |comp2|^2 at phase theta and a position (y) or momentum (p)
    coordinate.  Normalized to 1 for every theta: the components carry sin^2/cos^2 weights on
    consecutive orthonormal basis functions."""
    pair = hermite_pair_evaluator(state.n, space_frequency(state.omega, space))
    s, c = _weights(state, theta)

    def density(coord):
        f_n, f_m = pair(coord)
        return f_n * f_n * s * s + f_m * f_m * c * c  # not f*f*(s*s): that rounds otherwise
    return density


def density_slices(state, ys, thetas):
    """Per theta, the list of density_evaluator(state, theta)(y) over the positions ys, the
    same bits, but each y's profiles are evaluated and squared once, not once per theta."""
    pair = hermite_pair_evaluator(state.n, state.omega)
    squares = [(f_n * f_n, f_m * f_m) for f_n, f_m in map(pair, ys)]
    for theta in thetas:
        s, c = _weights(state, theta)
        yield [a * s * s + b * c * c for a, b in squares]


def _weights(state, theta):
    """The component weights (sin theta, cos theta); at n = 0, the stationary (phi_0, 0), they
    are 1 and 0, which leave phi_0 and phi_0 * phi_0 exactly as they are."""
    theta = coordinate(theta, "theta")
    return (1.0, 0.0) if state.n == 0 else (math.sin(theta), math.cos(theta))


def ladder_evaluator(state, pc=NATURAL_UNITS):
    """y -> (A phi_n(y), A+ phi_n(y)) = (E_n phi_{n-1}(y), E_{n+1} phi_{n+1}(y)), the twin of
    hermite_pair_evaluator: each is (+-d/dy + omega y) phi_n times c hbar as one exact product
    (common.scaled_quotient), so k = omega c hbar is never formed.  The slope is analytic:
    H_n' = 2n H_{n-1} reads phi_n' = -omega y phi_n + energy(n, omega) phi_{n-1}; y phi is formed
    first, 0 where phi underflows, while omega y alone may overflow.  pc: common.constants."""
    pair, omega, pc = hermite_pair_evaluator(state.n, state.omega), state.omega, constants(pc)
    root, c, hbar = energy(state.n, omega), pc.c, pc.hbar

    def ladder(y):
        phi, phi_prev = pair(y)  # refuses a bad y
        y_phi = float(y) * phi
        slope = -omega * y_phi
        if state.n > 0:
            slope = slope + root * phi_prev
        confining = omega * y_phi
        return (scaled_quotient((c, hbar, slope + confining)),
                scaled_quotient((c, hbar, -slope + confining)))
    return ladder


def space_frequency(omega, space):
    """The Hermite-Gauss frequency of a level's profile: omega in position, 1/omega in momentum.
    Raises OutOfRange naming "omega" where 1/omega overflows (omega below 2**-1024)."""
    if space not in SPACES:
        raise ValueError(f"space must be one of {SPACES}")
    omega = coordinate(omega, "omega", positive=True)
    frequency = omega if space == "position" else 1.0 / omega
    if frequency == math.inf:
        raise OutOfRange("omega", omega, f"omega={omega!r} takes 1/omega out of the float range")
    return frequency
