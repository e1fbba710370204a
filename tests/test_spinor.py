import math

import numpy as np
import pytest

from majorana_lab.common import OutOfRange
from majorana_lab.hermite import hermite_norm_fn
from majorana_lab.quadrature import IntegrationSpec, integrate, truncation_radius
from majorana_lab.spinor import (
    NATURAL_UNITS,
    PhysicalConstants,
    PotentialParams,
    SpinorState,
    annihilation_apply,
    creation_apply,
    energy,
    ladder_down,
    ladder_up,
    momentum_spinor,
    momentum_spinor_at_phase,
    phase,
    position_spinor,
    position_spinor_at_phase,
    probability_density,
    probability_density_at_phase,
    state_energy,
)

PHASES = (0.0, math.pi / 6, math.pi / 4, math.pi / 2, 1.3)


def norm_integral(state, theta, space):
    freq = state.omega if space == "position" else 1.0 / state.omega
    radius = truncation_radius(freq, state.n + 1, tail_tol=1e-13)
    spec = IntegrationSpec(truncation_radius=radius, target_abs_tol=1e-11)
    value, _ = integrate(lambda u: probability_density_at_phase(state, u, theta, space), spec)
    return value


def fourier_numeric(state, theta, p):
    """(1/sqrt(2 pi)) integral of psi(y) e^{ipy} dy, by quadrature per component."""
    radius = truncation_radius(state.omega, state.n + 1, tail_tol=1e-13)
    spec = IntegrationSpec(truncation_radius=radius, target_abs_tol=1e-11)
    comps = []
    for pick in (lambda v: v.comp1, lambda v: v.comp2):
        re, _ = integrate(lambda y: pick(position_spinor_at_phase(state, y, theta)) * np.cos(p * y), spec)
        im, _ = integrate(lambda y: pick(position_spinor_at_phase(state, y, theta)) * np.sin(p * y), spec)
        comps.append((re + 1j * im) / math.sqrt(2 * math.pi))
    return comps


# ---------------------------------------------------------------- spectrum


def test_energy_zero_mode():
    pp = PotentialParams(k=0.37)
    assert energy(0, pp, branch=1) == 0.0
    assert energy(0, pp, branch=-1) == 0.0


def test_energy_values():
    assert energy(1, PotentialParams(k=0.2)) == pytest.approx(math.sqrt(0.4), rel=1e-14)
    assert energy(2, PotentialParams(k=0.5), branch=-1) == pytest.approx(-math.sqrt(2.0), rel=1e-14)


def test_energy_with_constants():
    pc = PhysicalConstants(c=2.0, hbar=0.7)
    assert energy(3, PotentialParams(k=0.5), pc) == pytest.approx(math.sqrt(2 * 2.0 * 0.7 * 0.5 * 3), rel=1e-14)


def test_energy_validation():
    with pytest.raises(ValueError):
        energy(-1, PotentialParams(k=1.0))
    with pytest.raises(ValueError):
        energy(1, PotentialParams(k=1.0), branch=2)


def test_partner_spectra_coincide():
    # plus-tower level n and minus-tower level n+1 share sqrt(2 c hbar k (n+1))
    pp = PotentialParams(k=0.3)
    pc = PhysicalConstants(c=1.4, hbar=0.9)
    for n in range(8):
        e_minus = energy(n + 1, pp, pc)
        e_plus = state_energy(SpinorState(n=n + 1, omega=pp.omega(pc)), pc)
        assert e_minus == pytest.approx(e_plus, rel=1e-14)


def test_phase_examples():
    assert phase(SpinorState(0, 0.5, Omega=0.3), 5.0) == 0.3
    assert phase(SpinorState(1, 0.2), 1.0) == pytest.approx(math.sqrt(0.4), rel=1e-14)
    assert phase(SpinorState(2, 0.2, Omega=math.pi / 4), 0.0) == math.pi / 4


@pytest.mark.parametrize("t", [math.inf, math.nan, 1.7e308])
def test_phase_out_of_float_range_is_rejected(t):
    with pytest.raises(OutOfRange) as excinfo:
        phase(SpinorState(1, 1e20), t)
    assert excinfo.value.param == "t"


def test_phase_equals_energy_over_hbar():
    pc = PhysicalConstants(c=3.0, hbar=0.25)
    pp = PotentialParams(k=0.6)
    state = SpinorState.from_potential(4, pp, pc)
    t = 2.7
    assert phase(state, t, pc) == pytest.approx(energy(4, pp, pc) * t / pc.hbar, rel=1e-13)


# ---------------------------------------------------------------- position space


def test_ground_state_is_stationary_gaussian():
    state = SpinorState(0, 0.2)
    for t in (0.0, 7.3, -2.0):
        v = position_spinor(state, 0.0, t)
        assert v.comp1 == pytest.approx(0.5023079256810666, rel=1e-12)
        assert v.comp2 == 0.0


def test_first_level_at_origin_quarter_turn():
    v = position_spinor_at_phase(SpinorState(1, 0.2), 0.0, math.pi / 2)
    assert v.comp1 == 0.0  # odd component
    assert abs(v.comp2) < 1e-15  # cos(pi/2) in floats


def test_first_level_lower_component():
    v = position_spinor_at_phase(SpinorState(1, 0.2), 1.0, 0.0)
    assert v.comp1 == 0.0
    assert v.comp2 == pytest.approx((0.2 / math.pi) ** 0.25 * math.exp(-0.1), rel=1e-12)
    assert v.comp2 == pytest.approx(0.45450700653225495, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_position_closed_forms(n, theta=0.83):
    omega = 0.4
    pref = (omega / math.pi) ** 0.25
    for y in np.linspace(-3.5, 3.5, 15):
        env = math.exp(-0.5 * omega * y * y)
        if n == 1:
            c1 = pref * env * math.sqrt(2 * omega) * y * math.sin(theta)
            c2 = pref * env * math.cos(theta)
        elif n == 2:
            c1 = pref * env * (2 * omega * y * y - 1) * math.sin(theta) / math.sqrt(2)
            c2 = pref * env * math.sqrt(2 * omega) * y * math.cos(theta)
        else:
            c1 = pref * env * math.sqrt(omega) * y * (2 * omega * y * y - 3) * math.sin(theta) / math.sqrt(3)
            c2 = pref * env * (2 * omega * y * y - 1) * math.cos(theta) / math.sqrt(2)
        v = position_spinor_at_phase(SpinorState(n, omega), y, theta)
        assert v.comp1 == pytest.approx(c1, rel=1e-12, abs=1e-14)
        assert v.comp2 == pytest.approx(c2, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("n", range(6))
def test_component_parity(n):
    state = SpinorState(n, 0.7)
    theta = 0.4
    for y in (0.3, 1.1, 2.6):
        v_plus = position_spinor_at_phase(state, y, theta)
        v_minus = position_spinor_at_phase(state, -y, theta)
        assert v_minus.comp1 == pytest.approx((-1.0) ** n * v_plus.comp1, rel=1e-13, abs=1e-16)
        if n >= 1:
            assert v_minus.comp2 == pytest.approx((-1.0) ** (n - 1) * v_plus.comp2, rel=1e-13, abs=1e-16)


# ---------------------------------------------------------------- momentum space


def test_momentum_ground_state():
    v = momentum_spinor_at_phase(SpinorState(0, 0.2), 0.0, 0.9)
    assert v.comp1 == pytest.approx((0.2 * math.pi) ** -0.25, rel=1e-12)
    assert v.comp1 == pytest.approx(1.1231946674597775, rel=1e-12)
    assert v.comp2 == 0.0


def test_momentum_first_level_vanishes():
    v = momentum_spinor_at_phase(SpinorState(1, 0.5), 0.0, math.pi / 2)
    assert v.comp1 == 0.0
    assert abs(v.comp2) < 1e-15


def test_momentum_second_level_at_origin():
    v = momentum_spinor_at_phase(SpinorState(2, 1.0), 0.0, math.pi / 2)
    # i^2 * H_2(0) < 0 twice over: the value is real and positive
    assert v.comp1.real == pytest.approx(0.5311259660135984, rel=1e-12)
    assert abs(v.comp1.imag) < 1e-16
    assert abs(v.comp2) < 1e-15


@pytest.mark.parametrize("n", [1, 2, 3])
def test_momentum_closed_forms(n, theta=1.1):
    omega = 0.6
    s, c = math.sin(theta), math.cos(theta)
    for p in np.linspace(-2.5, 2.5, 11):
        env = math.exp(-p * p / (2 * omega))
        if n == 1:
            c1 = 1j * math.sqrt(2) * p * env * s / (omega**3 * math.pi) ** 0.25
            c2 = math.sqrt(omega) * env * c / (omega**3 * math.pi) ** 0.25
        elif n == 2:
            c1 = (omega - 2 * p * p) * env * s / (math.sqrt(2) * (omega**5 * math.pi) ** 0.25)
            c2 = 1j * math.sqrt(2 * omega) * p * env * c / (omega**5 * math.pi) ** 0.25
        else:
            c1 = -1j * p * (4 * p * p - 6 * omega) * env * s / (math.sqrt(12) * (omega**7 * math.pi) ** 0.25)
            c2 = math.sqrt(omega) * (omega - 2 * p * p) * env * c / (math.sqrt(2) * (omega**7 * math.pi) ** 0.25)
        v = momentum_spinor_at_phase(SpinorState(n, omega), p, theta)
        assert v.comp1 == pytest.approx(c1, rel=1e-12, abs=1e-14)
        assert v.comp2 == pytest.approx(c2, rel=1e-12, abs=1e-14)


def test_momentum_spinor_time_path():
    state = SpinorState(2, 0.4, Omega=0.2)
    pc = PhysicalConstants()
    v_t = momentum_spinor(state, 0.7, 1.5, pc)
    v_phase = momentum_spinor_at_phase(state, 0.7, phase(state, 1.5, pc))
    assert v_t == v_phase


# ---------------------------------------------------------------- densities


def test_density_ground_state_peak():
    state = SpinorState(0, 0.2)
    assert probability_density(state, 0.0, 3.0) == pytest.approx(math.sqrt(0.2 / math.pi), rel=1e-12)


def test_density_first_level_at_origin():
    rho = probability_density_at_phase(SpinorState(1, 0.2), 0.0, math.pi / 4)
    assert rho == pytest.approx(math.sqrt(0.2 / math.pi) / 2.0, rel=1e-12)
    assert rho == pytest.approx(0.126156626101008, rel=1e-12)


def test_density_matches_spinor_value():
    state = SpinorState(3, 0.5)
    for space in ("position", "momentum"):
        at = momentum_spinor_at_phase if space == "momentum" else position_spinor_at_phase
        for u in (-1.3, 0.2, 2.1):
            direct = probability_density_at_phase(state, u, 0.77, space)
            value = at(state, u, 0.77)
            assert direct == pytest.approx(abs(value.comp1) ** 2 + abs(value.comp2) ** 2, rel=1e-13)


@pytest.mark.parametrize("n", range(9))
@pytest.mark.parametrize("theta", PHASES)
def test_normalization_every_phase(n, theta):
    state = SpinorState(n, 0.35)
    assert abs(norm_integral(state, theta, "position") - 1.0) < 1e-8


def test_space_validation():
    with pytest.raises(ValueError):
        probability_density_at_phase(SpinorState(1, 0.2), 0.0, 0.0, space="fourier")


# ---------------------------------------------------------------- Fourier pairing


@pytest.mark.parametrize("n", range(4))
def test_fourier_consistency(n):
    state = SpinorState(n, 0.5)
    theta = 0.7
    sigma_p = math.sqrt(state.omega * (2 * n + 1))
    worst = 0.0
    for p in np.linspace(-3 * sigma_p, 3 * sigma_p, 7):
        numeric = fourier_numeric(state, theta, float(p))
        analytic = momentum_spinor_at_phase(state, float(p), theta)
        worst = max(worst, abs(numeric[0] - analytic.comp1), abs(numeric[1] - analytic.comp2))
    assert worst < 1e-6


@pytest.mark.parametrize("n", range(5))
def test_parseval(n):
    state = SpinorState(n, 0.8)
    theta = 1.1
    assert abs(norm_integral(state, theta, "position") - norm_integral(state, theta, "momentum")) < 1e-8


# ---------------------------------------------------------------- ladder maps


def test_ladder_down_reaches_ground_state():
    ys = np.linspace(-6.0, 6.0, 121)
    lowered = ladder_down(SpinorState(1, 0.2), ys)
    assert np.max(np.abs(lowered - hermite_norm_fn(0, 0.2, ys))) < 1e-12


def test_ladder_down_rejects_zero_mode():
    with pytest.raises(ZeroDivisionError):
        ladder_down(SpinorState(0, 0.2), 0.5)


def test_annihilation_kills_ground_state():
    ys = np.linspace(-8.0, 8.0, 101)
    assert np.max(np.abs(annihilation_apply(SpinorState(0, 0.4), ys))) < 1e-15


@pytest.mark.parametrize("n", range(9))
def test_intertwining(n):
    omega = 0.3
    pc = PhysicalConstants(c=1.2, hbar=0.8)
    ys = np.linspace(-6.0 / math.sqrt(omega), 6.0 / math.sqrt(omega), 241)
    upper = SpinorState(n + 1, omega)
    lhs = annihilation_apply(upper, ys, pc)
    rhs = state_energy(upper, pc) * hermite_norm_fn(n, omega, ys)
    assert np.max(np.abs(lhs - rhs)) < 1e-8


@pytest.mark.parametrize("n", range(5))
def test_ladder_up_then_down_roundtrip(n):
    omega = 0.9
    ys = np.linspace(-4.0, 4.0, 41)
    raised = ladder_up(SpinorState(n, omega), ys)
    assert np.max(np.abs(raised - hermite_norm_fn(n + 1, omega, ys))) < 1e-12
    lowered = ladder_down(SpinorState(n + 1, omega), ys)
    assert np.max(np.abs(lowered - hermite_norm_fn(n, omega, ys))) < 1e-12


@pytest.mark.parametrize("n", [1, 3])
def test_partner_potentials_by_finite_difference(n):
    """-c^2 hbar^2 phi'' + ((k y)^2 -/+ c hbar k) phi = E_n^2 phi on the two towers."""
    pc = NATURAL_UNITS
    omega = 0.5
    k = omega * pc.c * pc.hbar
    e2 = 2.0 * pc.c * pc.hbar * k * n
    h = 1e-4
    for y in np.linspace(-2.0, 2.0, 9):
        # upper tower: phi_n with V_-
        d2 = (
            hermite_norm_fn(n, omega, y + h) - 2 * hermite_norm_fn(n, omega, y) + hermite_norm_fn(n, omega, y - h)
        ) / h**2
        lhs = -((pc.c * pc.hbar) ** 2) * d2 + ((k * y) ** 2 - pc.c * pc.hbar * k) * hermite_norm_fn(n, omega, y)
        assert lhs == pytest.approx(e2 * hermite_norm_fn(n, omega, y), rel=2e-5, abs=2e-7)
        # lower tower: phi_{n-1} with V_+ at the same energy
        d2 = (
            hermite_norm_fn(n - 1, omega, y + h)
            - 2 * hermite_norm_fn(n - 1, omega, y)
            + hermite_norm_fn(n - 1, omega, y - h)
        ) / h**2
        lhs = -((pc.c * pc.hbar) ** 2) * d2 + ((k * y) ** 2 + pc.c * pc.hbar * k) * hermite_norm_fn(n - 1, omega, y)
        assert lhs == pytest.approx(e2 * hermite_norm_fn(n - 1, omega, y), rel=2e-5, abs=2e-7)


# ---------------------------------------------------------------- parameter types


def test_potential_params_shift():
    # the mass shifts the origin of y by m c^2 / k and leaves omega = k / (c hbar) alone
    pc = NATURAL_UNITS
    assert PotentialParams(k=0.2, m=0.5).omega(pc) == pytest.approx(0.2, rel=1e-15)
    assert PotentialParams(k=0.2, m=0.5).omega(pc) == PotentialParams(k=0.2).omega(pc)


def test_type_validation():
    with pytest.raises(ValueError):
        PotentialParams(k=0.0)
    with pytest.raises(ValueError):
        PotentialParams(k=1.0, m=-0.1)
    with pytest.raises(ValueError):
        SpinorState(-1, 1.0)
    with pytest.raises(ValueError):
        SpinorState(2, 0.0)
    with pytest.raises(ValueError):
        PhysicalConstants(c=0.0)


def test_from_potential():
    pc = PhysicalConstants(c=2.0, hbar=0.5)
    state = SpinorState.from_potential(3, PotentialParams(k=0.7), pc, Omega=0.1)
    assert state.omega == pytest.approx(0.7, rel=1e-15)
    assert state.n == 3 and state.Omega == 0.1
