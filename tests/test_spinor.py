import math
import warnings

import numpy as np
import pytest

from spinor_integrals import fourier_numeric, norm_integral
from majorana_lab.common import NATURAL_UNITS, OutOfRange, PhysicalConstants
from majorana_lab.hermite import (hermite_norm_fn, hermite_norm_fn_and_derivative, hermite_norm_pair,
                                  hermite_pair_evaluator)
from majorana_lab.spinor import (
    PotentialParams,
    SpinorState,
    annihilation_apply,
    creation_apply,
    density_evaluator,
    density_slices,
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


# ---------------------------------------------------------------- spectrum


def test_energy_zero_mode():
    for k in (0.37, 1e308):  # 2 c hbar k overflows at the last
        pp = PotentialParams(k=k)
        assert repr(energy(0, pp)) == "0.0"
        assert repr(-energy(0, pp)) == "-0.0"  # the lower tower
    pc = PhysicalConstants(c=1e200, hbar=1e200)  # c hbar overflows, and inf * 0 would be nan
    assert repr(state_energy(SpinorState(0, 0.37), pc)) == "0.0"
    assert repr(-state_energy(SpinorState(0, 0.37), pc)) == "-0.0"


def test_energy_is_the_natural_units_root_bit_for_bit():
    # energy() is state_energy() of its level; in natural units that gives the bits of the
    # direct root sqrt(2 k n) wherever 2 k n is finite, and stays finite where it is not
    ks = [10.0**e for e in range(-300, 309, 7)] + [0.37, 0.2, 1.0 / 3.0, 2.5e-310, 1e308]
    for k in ks:
        for n in range(65):
            if 2.0 * k * n < math.inf:
                assert energy(n, PotentialParams(k)).hex() == math.sqrt(2.0 * k * n).hex()
    assert energy(1, PotentialParams(1e308)) == state_energy(SpinorState(1, 1e308))
    assert energy(1, PotentialParams(1e308)) == pytest.approx(math.sqrt(2.0) * 1e154, rel=1e-15)


def test_energy_values():
    assert energy(1, PotentialParams(k=0.2)) == pytest.approx(math.sqrt(0.4), rel=1e-14)
    assert -energy(2, PotentialParams(k=0.5)) == pytest.approx(-math.sqrt(2.0), rel=1e-14)


def test_energy_with_constants():
    pc = PhysicalConstants(c=2.0, hbar=0.7)
    assert energy(3, PotentialParams(k=0.5), pc) == pytest.approx(math.sqrt(2 * 2.0 * 0.7 * 0.5 * 3), rel=1e-14)


def test_energy_validation():
    with pytest.raises(ValueError):
        energy(-1, PotentialParams(k=1.0))
    for level in (1.5, 2.0, True, False):  # a level is an integer, and a bool is not one
        with pytest.raises(ValueError):
            energy(level, PotentialParams(k=1.0))


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
    # 2 omega overflows at omega = 1e308: n = 0 keeps its zero rate, and n >= 1 the rate's root
    assert phase(SpinorState(0, 1e308, Omega=0.3), 5.0) == 0.3
    assert phase(SpinorState(1, 1e308), 1.0) == pytest.approx(math.sqrt(2.0) * 1e154, rel=1e-15)
    assert phase(SpinorState(2, 1e308), 1.0) == pytest.approx(2e154, rel=1e-15)


@pytest.mark.parametrize("t", [math.inf, math.nan, 1.7e308])
def test_phase_out_of_float_range_is_rejected(t):
    with pytest.raises(OutOfRange) as excinfo:
        phase(SpinorState(1, 1e20), t)
    assert excinfo.value.param == "t"


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("n", [0, 1])
def test_non_finite_phase_is_rejected(n, theta):
    # every evaluator takes its weights from one place, which refuses a theta with no sine
    state = SpinorState(n, 0.2)
    for evaluate in (lambda: position_spinor_at_phase(state, 0.3, theta),
                     lambda: momentum_spinor_at_phase(state, 0.3, theta),
                     lambda: probability_density_at_phase(state, 0.3, theta, "momentum"),
                     lambda: density_evaluator(state, theta),
                     lambda: list(density_slices(state, [0.3], [0.5, theta]))):
        with pytest.raises(ValueError, match="^theta must be finite$"):
            evaluate()


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


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("spinor_at_phase, kind", [(position_spinor_at_phase, "f"),
                                                   (momentum_spinor_at_phase, "c")],
                         ids=["position", "momentum"])
def test_array_coordinates_give_the_float_values(spinor_at_phase, kind, n):
    # both components follow the coordinate's shape, the ground state's zero comp2 included
    state, theta = SpinorState(n, 0.5), 0.3
    for coords in (np.linspace(-1, 1, 3), np.array([[0.0, 0.25], [-2.5, 4.0]])):
        v = spinor_at_phase(state, coords, theta)
        for comp in (v.comp1, v.comp2):
            assert comp.shape == coords.shape and comp.dtype.kind == kind
        for index, coord in np.ndenumerate(coords):
            point = spinor_at_phase(state, float(coord), theta)
            assert (v.comp1[index], v.comp2[index]) == (point.comp1, point.comp2), (index, coord)


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


def stepwise_density(n, omega, theta, y):
    """rho(y) in float arithmetic written out step by step, in the library's order of operations."""
    u, norm = math.sqrt(omega) * y, (omega / math.pi) ** 0.25
    f_n, f_m = norm * math.exp(-0.5 * u * u), 0.0
    for k in range(n):
        f_n, f_m = math.sqrt(2.0 / (k + 1)) * u * f_n - math.sqrt(k / (k + 1.0)) * f_m, f_n
    if n == 0:
        return (f_n, f_m), f_n * f_n
    s, c = math.sin(theta), math.cos(theta)
    return (f_n, f_m), f_n * f_n * s * s + f_m * f_m * c * c


@pytest.mark.parametrize("n", [0, 1, 2, 7, 30, 64])
def test_evaluators_match_pointwise_functions_bit_for_bit(n):
    ys = [0.0, -0.0, 1e-300, 0.3, 1.7, 4.25, 11.0, 23.5]
    ys += [-y for y in ys]
    thetas = (0.0, math.pi / 4, 0.9, math.pi / 2)
    for omega in (1.0, 0.35, 1e-3):
        pair = hermite_pair_evaluator(n, omega)
        slices = density_slices(SpinorState(n, omega), ys, thetas)
        for theta, values in zip(thetas, slices, strict=True):
            density = density_evaluator(SpinorState(n, omega), theta)
            assert values == [density(y) for y in ys], (omega, theta)
            for y in ys:
                (f_n, f_m), rho = stepwise_density(n, omega, theta, y)
                assert pair(y) == hermite_norm_pair(n, omega, y) == (f_n, f_m), (omega, y)
                assert density(y) == rho == probability_density_at_phase(
                    SpinorState(n, omega), y, theta), (omega, theta, y)
                assert density(-y) == density(y) and pair(-y) == ((-1) ** n * f_n, (-1) ** n * -f_m)


def test_spinor_and_density_vanish_where_the_envelope_underflows():
    # the Gaussian envelope underflows to 0 and the recurrence's a * u overflows: 0, not inf * 0
    assert probability_density_at_phase(SpinorState(1, 0.5), 1e308, 0.3, "momentum") == 0.0
    assert probability_density_at_phase(SpinorState(64, 1e300), -1e200, 0.3) == 0.0
    assert position_spinor_at_phase(SpinorState(2, 7.0), 1e308, 0.3) == (0.0, 0.0)
    assert momentum_spinor_at_phase(SpinorState(3, 1e-3), -1.5e308, 0.3) == (0.0, 0.0)
    assert density_evaluator(SpinorState(5, 7.0), 0.3)(1e308) == 0.0
    assert next(density_slices(SpinorState(5, 7.0), [1e308, -1e308], [0.3])) == [0.0, 0.0]


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
    ys = np.linspace(-6.0 / math.sqrt(omega), 6.0 / math.sqrt(omega), 241)
    state, upper = SpinorState(n, omega), SpinorState(n + 1, omega)
    for pc in (PhysicalConstants(c=1.2, hbar=0.8), PhysicalConstants(c=3e8, hbar=1.05e-34)):
        lhs = annihilation_apply(upper, ys, pc)
        rhs = state_energy(upper, pc) * hermite_norm_fn(n, omega, ys)
        assert np.max(np.abs(lhs - rhs)) < 1e-8 * pc.c * pc.hbar
        # the normalised maps are these over the energy: c hbar cancels, so they take no constants
        np.testing.assert_allclose(ladder_down(upper, ys), lhs / state_energy(upper, pc), rtol=1e-14, atol=0)
        np.testing.assert_allclose(ladder_up(state, ys),
                                   creation_apply(state, ys, pc) / state_energy(upper, pc), rtol=1e-14, atol=0)


def test_normalised_ladder_maps_take_no_constants():
    # c hbar cancels in A phi / E, so a c hbar that underflows to 0 (or overflows) cannot reach them
    pc = PhysicalConstants(c=1e-300, hbar=1e-300)
    for ladder in (ladder_up, ladder_down):
        with pytest.raises(TypeError):
            ladder(SpinorState(1, 1.0), 0.5, pc)
    for ladder, m in ((ladder_up, 2), (ladder_down, 0)):
        assert ladder(SpinorState(1, 1.0), 0.5) == pytest.approx(hermite_norm_fn(m, 1.0, 0.5), rel=1e-15)


@pytest.mark.parametrize("n", range(5))
def test_ladder_up_then_down_roundtrip(n):
    omega = 0.9
    ys = np.linspace(-4.0, 4.0, 41)
    raised = ladder_up(SpinorState(n, omega), ys)
    assert np.max(np.abs(raised - hermite_norm_fn(n + 1, omega, ys))) < 1e-12
    lowered = ladder_down(SpinorState(n + 1, omega), ys)
    assert np.max(np.abs(lowered - hermite_norm_fn(n, omega, ys))) < 1e-12


@pytest.mark.parametrize("n", range(4))
def test_ladder_maps_at_huge_omega(n):
    # 2 n omega, and so E_n^2 = 2 c hbar k n, overflow at omega = 1e308; neither is formed
    omega = 1e308
    ys = np.linspace(-4.0, 4.0, 41) / math.sqrt(omega)
    scale = (omega / math.pi) ** 0.25  # the size of phi_n there
    raised = ladder_up(SpinorState(n, omega), ys)
    assert np.all(np.isfinite(raised))
    assert np.max(np.abs(raised - hermite_norm_fn(n + 1, omega, ys))) < 1e-12 * scale
    lowered = ladder_down(SpinorState(n + 1, omega), ys)
    assert np.all(np.isfinite(lowered))
    assert np.max(np.abs(lowered - hermite_norm_fn(n, omega, ys))) < 1e-12 * scale


def test_huge_omega_slope_and_energy_are_finite():
    phi, slope = hermite_norm_fn_and_derivative(1, 1e308, 1e-160)
    # phi_1' = sqrt(2 omega) phi_0 (1 - omega y^2), 1.06225193202560354e231 by mpmath at 40 digits
    assert slope == pytest.approx(1.06225193202560354e231, rel=1e-12)
    pc = PhysicalConstants(c=10.0)
    assert state_energy(SpinorState(1, 1e308), pc) == pytest.approx(10.0 * math.sqrt(2.0) * 1e154, rel=1e-15)
    assert -state_energy(SpinorState(1, 1e308), pc) == pytest.approx(-10.0 * math.sqrt(2.0) * 1e154, rel=1e-15)


def test_energy_where_c_hbar_overflows_before_the_root():
    # c hbar = 1e400 leaves the float range, E = c hbar sqrt(2 omega) ~ 1.41e240 does not
    e_1 = state_energy(SpinorState(1, 1e-320), PhysicalConstants(c=1e300, hbar=1e100))
    assert e_1 == pytest.approx(math.sqrt(2e-320) * 1e300 * 1e100, rel=1e-15)
    assert state_energy(SpinorState(1, 1.0), PhysicalConstants(c=1e300, hbar=1e300)) == math.inf


@pytest.mark.parametrize("as_array", [False, True], ids=["float", "array"])
def test_ladder_products_where_c_hbar_overflows(as_array):
    # c hbar = 1e600 is not a float: the kernel's exact 0 stays 0 (not inf * 0 = nan), and
    # kernels of 5.6e-298 and 1.5e-294 give finite products
    pc = PhysicalConstants(c=1e300, hbar=1e300)

    def at(apply, state, y):
        return apply(state, np.array([y]), pc)[0] if as_array else apply(state, y, pc)

    assert at(annihilation_apply, SpinorState(0, 1.0), 0.5) == 0.0
    for apply in (annihilation_apply, creation_apply):
        kernel = apply(SpinorState(1, 1.0), 37.0)  # c hbar = 1
        product = at(apply, SpinorState(1, 1.0), 37.0)
        assert math.isfinite(product)
        assert product / 1e300 / 1e300 == pytest.approx(kernel, rel=1e-15, abs=0.0)
    assert at(creation_apply, SpinorState(0, 1.0), -0.5) == -math.inf  # past the largest float


def test_phase_where_sqrt_2n_omega_c_overflows():
    # sqrt(2 omega) c = 1.4e450 is not a float, but theta at t = 0 is Omega and at 1e-300 is 1.4e150
    state, pc = SpinorState(1, 1e300, Omega=0.25), PhysicalConstants(c=1e300)
    assert phase(state, 0.0, pc) == 0.25
    assert phase(state, 1e-300, pc) == pytest.approx(math.sqrt(2e300), rel=1e-15)


_FAR = (1e10, 1e150, 1e308, -1e308)  # far coordinates: phi underflows there unless omega is tiny


@pytest.mark.parametrize("as_array", [False, True], ids=["float", "array"])
@pytest.mark.parametrize("omega", [1e-300, 1e-10, 1.0, 7.0, 1e10, 1e300])
@pytest.mark.parametrize("n", [0, 1, 2, 5, 64])
def test_slope_and_ladder_maps_are_finite_where_the_envelope_underflows(n, omega, as_array):
    # y phi is formed before omega multiplies it: phi underflows to 0 where omega y may overflow
    state = SpinorState(n, omega)
    maps = [lambda y: hermite_norm_fn_and_derivative(n, omega, y)[1],
            lambda y: annihilation_apply(state, y), lambda y: creation_apply(state, y),
            lambda y: ladder_up(state, y), *([lambda y: ladder_down(state, y)] if n else [])]
    for f in maps:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # numpy's overflow of omega y
            values = f(np.array(_FAR)).tolist() if as_array else [f(y) for y in _FAR]
        assert all(map(math.isfinite, values)), values


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


def test_type_validation():
    with pytest.raises(ValueError):
        PotentialParams(k=0.0)
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
