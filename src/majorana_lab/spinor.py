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

Each input has one entry.  The slope is a float k > 0, taken by energy(n, k, pc) and
PhysicalConstants.omega(k), which give a state its omega.  Time enters only through the
phase theta_n(t) = phase(state, t, pc), which the *_at_phase functions take, so a spinor
at time t is position_spinor_at_phase(state, y, phase(state, t, pc)).  A coordinate is
taken once per point, by the Hermite-Gauss evaluator every value passes through.
"""

import math
from collections import namedtuple

from .common import (NATURAL_UNITS, SPACES, OutOfRange, level, positive_finite, scaled_quotient,
                     scaled_root)
from .hermite import (hermite_norm_fn_and_derivative, hermite_norm_pair, hermite_pair_evaluator,
                      sqrt_2n_omega)

_I_POW = (1.0 + 0.0j, 0.0 + 1.0j, -1.0 + 0.0j, 0.0 - 1.0j)  # i**n without complex pow dirt


class SpinorState(namedtuple("SpinorState", "n omega Omega")):
    """Level n with effective frequency omega and initial phase offset Omega."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too

    def __new__(cls, n, omega, Omega=0.0):
        level(n)
        positive_finite(omega, "omega")
        if not math.isfinite(Omega):
            raise ValueError("Omega must be finite")
        return super().__new__(cls, n, omega, Omega)


# One evaluation of the spinor: upper component comp1, lower comp2.
SpinorValue = namedtuple("SpinorValue", "comp1 comp2")


def energy(n, k, pc=NATURAL_UNITS):
    """Level energy sqrt(2 n c hbar k) of a slope k > 0: the exactly scaled root of the slope's
    own product (common.scaled_root), so omega = k/(c hbar) is never rounded; inf only where the
    root exceeds the largest float, and zero at n = 0.  The lower tower is -energy(...)."""
    positive_finite(k, "k")
    try:
        return scaled_root((2.0 * level(n), pc.c, pc.hbar, k))
    except OverflowError:  # the root exceeds the largest float
        return math.inf


def state_energy(state, pc=NATURAL_UNITS):
    """The spectrum: c hbar sqrt(2 n omega), the state's level energy, as an exactly scaled
    product: it leaves the float range only where the energy does, and n = 0 gives zero.
    The slope k = omega c hbar its omega stands for is never formed."""
    return scaled_quotient((pc.c, pc.hbar, sqrt_2n_omega(state.n, state.omega)))


def phase(state, t, pc=NATURAL_UNITS):
    """theta_n(t) = sqrt(2 omega n) c t + Omega (equals E_n t / hbar + Omega).

    Raises OutOfRange naming "t" when theta_n(t) is not finite (t itself non-finite, or the
    exactly scaled product overflowing).
    """
    theta = scaled_quotient((sqrt_2n_omega(state.n, state.omega), pc.c, t)) + state.Omega
    if not math.isfinite(theta):
        raise OutOfRange("t", t, f"t={t!r} takes the phase theta_n(t) out of the float range")
    return theta


def position_spinor_at_phase(state, y, theta):
    """Spinor components at coordinate y for a given phase theta (both real)."""
    f_n, f_m = hermite_norm_pair(state.n, state.omega, y)
    s, c = _weights(state, theta)
    return SpinorValue(f_n * s, f_m * c)


def momentum_spinor_at_phase(state, p, theta):
    """Momentum-space components at phase theta (complex: i^n Fourier phases).

    The radial profile is the Hermite-Gauss function at inverted frequency
    1/omega; this reproduces the closed-form transforms of the first few
    levels exactly.
    """
    f_n, f_m = hermite_norm_pair(state.n, space_frequency(state.omega, "momentum"), p)
    s, c = _weights(state, theta)
    return SpinorValue(_I_POW[state.n % 4] * f_n * s, _I_POW[(state.n - 1) % 4] * f_m * c)


def probability_density_at_phase(state, coord, theta, space="position"):
    """|comp1|^2 + |comp2|^2 at a position (y) or momentum (p) coordinate.

    Normalized to 1 for every theta: the components carry sin^2/cos^2 weights on
    consecutive orthonormal basis functions.
    """
    return density_evaluator(state, theta, space)(coord)


def density_evaluator(state, theta, space="position"):
    """coord -> probability_density_at_phase(state, coord, theta, space)."""
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
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    return (1.0, 0.0) if state.n == 0 else (math.sin(theta), math.cos(theta))


def _ladder_apply(state, y, sign):
    """(sign d/dy + omega y) applied to phi_n, with the analytic derivative H_n' = 2n H_{n-1}:
    the ladder operators over c hbar, so k = omega c hbar is never formed.  y phi is formed
    first, 0 where phi underflows, while omega y alone may overflow."""
    phi, dphi = hermite_norm_fn_and_derivative(state.n, state.omega, y)
    return sign * dphi + state.omega * (float(y) * phi)


def annihilation_apply(state, y, pc=NATURAL_UNITS):
    """(c hbar d/dy + k y) applied to phi_n; equals E_n phi_{n-1} (0 for n = 0)."""
    return scaled_quotient((pc.c, pc.hbar, _ladder_apply(state, y, 1.0)))


def creation_apply(state, y, pc=NATURAL_UNITS):
    """(-c hbar d/dy + k y) applied to phi_n; equals E_{n+1} phi_{n+1}."""
    return scaled_quotient((pc.c, pc.hbar, _ladder_apply(state, y, -1.0)))


def ladder_down(state, y):
    """Partner eigenfunction below: A phi_n / E_n = phi_{n-1}, with c hbar cancelled.  Rejected
    at n = 0, where E_0 = 0 annihilates the state instead of mapping it."""
    if state.n == 0:
        raise ZeroDivisionError("E_0 = 0: the ground state is annihilated, not lowered")
    return _ladder_apply(state, y, 1.0) / sqrt_2n_omega(state.n, state.omega)


def ladder_up(state, y):
    """Partner eigenfunction above: A+ phi_n / E_{n+1} = phi_{n+1}, with c hbar cancelled."""
    return _ladder_apply(state, y, -1.0) / sqrt_2n_omega(state.n + 1, state.omega)


def space_frequency(omega, space):
    """The Hermite-Gauss frequency of a level's profile: omega in position, 1/omega in momentum.
    Raises OutOfRange naming "omega" where 1/omega overflows (omega below 2**-1024)."""
    if space not in SPACES:
        raise ValueError(f"space must be one of {SPACES}")
    frequency = omega if space == "position" else 1.0 / omega
    if frequency == math.inf:
        raise OutOfRange("omega", omega, f"omega={omega!r} takes 1/omega out of the float range")
    return frequency
