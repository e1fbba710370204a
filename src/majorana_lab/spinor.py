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

All time dependence enters through the single phase theta_n(t); the *_at_phase
functions take theta directly so downstream results are parameterized by
phase, not by t.
"""

import math
from dataclasses import dataclass

import numpy as np

from .common import NATURAL_UNITS, OutOfRange, PhysicalConstants  # noqa: F401 (re-exported)
from .hermite import hermite_norm_fn_and_derivative, hermite_norm_pair

_SPACES = ("position", "momentum")
_I_POW = (1.0 + 0.0j, 0.0 + 1.0j, -1.0 + 0.0j, 0.0 - 1.0j)  # i**n without complex pow dirt


@dataclass(frozen=True)
class PotentialParams:
    """Linear potential V = k x with slope k > 0 and particle mass m >= 0."""

    k: float
    m: float = 0.0

    def __post_init__(self):
        if not (self.k > 0.0):
            raise ValueError("slope k must be > 0 (normalizability)")
        if self.m < 0.0:
            raise ValueError("mass m must be >= 0")

    def omega(self, pc=NATURAL_UNITS):
        return self.k / (pc.c * pc.hbar)


@dataclass(frozen=True)
class SpinorState:
    """Level n with effective frequency omega and initial phase offset Omega."""

    n: int
    omega: float
    Omega: float = 0.0

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 0:
            raise ValueError("quantum number n must be an integer >= 0")
        if not (self.omega > 0.0 and math.isfinite(self.omega)):
            raise ValueError("omega must be positive and finite")

    @classmethod
    def from_potential(cls, n, pp, pc=NATURAL_UNITS, Omega=0.0):
        return cls(n=n, omega=pp.omega(pc), Omega=Omega)


@dataclass(frozen=True)
class SpinorValue:
    """One evaluation of the spinor: upper component comp1, lower comp2."""

    comp1: complex
    comp2: complex


def energy(n, pp, pc=NATURAL_UNITS, branch=1):
    """Level energy: branch * sqrt(2 c hbar k n); zero at n = 0 for either branch."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if branch not in (1, -1):
        raise ValueError("branch must be +1 or -1")
    return branch * math.sqrt(2.0 * pc.c * pc.hbar * pp.k * n)


def state_energy(state, pc=NATURAL_UNITS, branch=1):
    """energy() of the state's level, through the slope k = omega c hbar its omega stands for."""
    return energy(state.n, PotentialParams(k=state.omega * pc.c * pc.hbar), pc, branch)


def phase(state, t, pc=NATURAL_UNITS):
    """theta_n(t) = sqrt(2 omega n) c t + Omega (equals E_n t / hbar + Omega).

    Raises OutOfRange naming "t" when theta_n(t) is not finite (t itself non-finite, or the
    product overflowing).
    """
    theta = math.sqrt(2.0 * state.omega * state.n) * pc.c * t + state.Omega
    if not math.isfinite(theta):
        raise OutOfRange("t", t, f"t={t!r} takes the phase theta_n(t) out of the float range")
    return theta


def position_spinor_at_phase(state, y, theta):
    """Spinor components at coordinate y for a given phase theta (both real)."""
    f_n, f_m = hermite_norm_pair(state.n, state.omega, y)
    if state.n == 0:
        return SpinorValue(f_n, 0.0)
    return SpinorValue(f_n * math.sin(theta), f_m * math.cos(theta))


def position_spinor(state, y, t, pc=NATURAL_UNITS):
    return position_spinor_at_phase(state, y, phase(state, t, pc))


def momentum_spinor_at_phase(state, p, theta):
    """Momentum-space components at phase theta (complex: i^n Fourier phases).

    The radial profile is the Hermite-Gauss function at inverted frequency
    1/omega; this reproduces the closed-form transforms of the first few
    levels exactly.
    """
    f_n, f_m = hermite_norm_pair(state.n, space_frequency(state.omega, "momentum"), p)
    if state.n == 0:
        return SpinorValue(complex(f_n), 0.0 + 0.0j)
    comp1 = _I_POW[state.n % 4] * f_n * math.sin(theta)
    comp2 = _I_POW[(state.n - 1) % 4] * f_m * math.cos(theta)
    return SpinorValue(comp1, comp2)


def momentum_spinor(state, p, t, pc=NATURAL_UNITS):
    return momentum_spinor_at_phase(state, p, phase(state, t, pc))


def probability_density_at_phase(state, coord, theta, space="position"):
    """|comp1|^2 + |comp2|^2 at a position (y) or momentum (p) coordinate.

    Vectorized over `coord`.  Normalized to 1 for every theta: the components
    carry sin^2/cos^2 weights on consecutive orthonormal basis functions.
    """
    f_n, f_m = hermite_norm_pair(state.n, space_frequency(state.omega, space), coord)
    if state.n == 0:
        return f_n * f_n
    s, c = math.sin(theta), math.cos(theta)
    return f_n * f_n * s * s + f_m * f_m * c * c


def probability_density(state, coord, t, space="position", pc=NATURAL_UNITS):
    return probability_density_at_phase(state, coord, phase(state, t, pc), space)


def _ladder_apply(state, y, pc, sign):
    """(sign c hbar d/dy + k y) applied to phi_n, with the analytic derivative H_n' = 2n H_{n-1}."""
    chbar = pc.c * pc.hbar
    k = state.omega * chbar
    phi, dphi = hermite_norm_fn_and_derivative(state.n, state.omega, y)
    return sign * chbar * dphi + k * np.asarray(y, dtype=float) * phi


def annihilation_apply(state, y, pc=NATURAL_UNITS):
    """(c hbar d/dy + k y) applied to phi_n; equals E_n phi_{n-1} (0 for n = 0)."""
    return _ladder_apply(state, y, pc, 1.0)


def creation_apply(state, y, pc=NATURAL_UNITS):
    """(-c hbar d/dy + k y) applied to phi_n; equals E_{n+1} phi_{n+1}."""
    return _ladder_apply(state, y, pc, -1.0)


def ladder_down(state, y, pc=NATURAL_UNITS):
    """Partner eigenfunction below: A phi_n / E_n = phi_{n-1}.

    Rejected at n = 0, where E_0 = 0 annihilates the state instead of
    mapping it.
    """
    if state.n == 0:
        raise ZeroDivisionError("E_0 = 0: the ground state is annihilated, not lowered")
    return annihilation_apply(state, y, pc) / state_energy(state, pc)


def ladder_up(state, y, pc=NATURAL_UNITS):
    """Partner eigenfunction above: A+ phi_n / E_{n+1} = phi_{n+1}."""
    up = SpinorState(n=state.n + 1, omega=state.omega, Omega=state.Omega)
    return creation_apply(state, y, pc) / state_energy(up, pc)


def space_frequency(omega, space):
    """The Hermite-Gauss frequency of a level's profile: omega in position, 1/omega in momentum."""
    if space not in _SPACES:
        raise ValueError(f"space must be one of {_SPACES}")
    return omega if space == "position" else 1.0 / omega
