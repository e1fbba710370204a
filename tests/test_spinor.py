import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import majorana_lab.spinor as spinor_mod
import mpmath_hermite
from spinor_integrals import fourier_numeric, norm_integral
from majorana_lab.common import NATURAL_UNITS, OutOfRange, PhysicalConstants, energy, linspace
from majorana_lab.hermite import hermite_pair_evaluator, sqrt_2n_omega
from majorana_lab.spinor import (
    SpinorState,
    density_evaluator,
    density_slices,
    ladder_evaluator,
    phase,
    spinor_evaluator,
)

PHASES = (0.0, math.pi / 6, math.pi / 4, math.pi / 2, 1.3)


# ---------------------------------------------------------------- spectrum


def test_energy_zero_mode():
    for k in (0.37, 1e308):  # 2 c hbar k overflows at the last
        assert repr(energy(0, k)) == "0.0"
        assert repr(-energy(0, k)) == "-0.0"  # the lower tower
    pc = PhysicalConstants(c=1e200, hbar=1e200)  # c hbar overflows, and inf * 0 would be nan
    assert repr(energy(0, 0.37, pc)) == "0.0"
    assert repr(-energy(0, 0.37, pc)) == "-0.0"


def test_energy_is_the_natural_units_root_bit_for_bit():
    # in natural units energy() is the phase rate sqrt(2 n omega) at omega = k, with the bits of
    # the direct root sqrt(2 k n) wherever 2 k n is finite, and finite where it is not
    ks = [10.0**e for e in range(-300, 309, 7)] + [0.37, 0.2, 1.0 / 3.0, 2.5e-310, 1e308]
    for k in ks:
        for n in range(65):
            if 2.0 * k * n < math.inf:
                assert energy(n, k).hex() == math.sqrt(2.0 * k * n).hex()
    assert energy(1, 1e308) == sqrt_2n_omega(1, 1e308)
    assert energy(1, 1e308) == pytest.approx(math.sqrt(2.0) * 1e154, rel=1e-15)


def test_energy_values():
    assert energy(1, 0.2) == pytest.approx(math.sqrt(0.4), rel=1e-14)
    assert -energy(2, 0.5) == pytest.approx(-math.sqrt(2.0), rel=1e-14)


def test_energy_with_constants():
    pc = PhysicalConstants(c=2.0, hbar=0.7)
    assert energy(3, 0.5, pc) == pytest.approx(math.sqrt(2 * 2.0 * 0.7 * 0.5 * 3), rel=1e-14)


def test_energy_validation():
    with pytest.raises(ValueError):
        energy(-1, 1.0)
    for level in (1.5, 2.0, True, False):  # a level is an integer, and a bool is not one
        with pytest.raises(ValueError):
            energy(level, 1.0)


def test_partner_spectra_coincide():
    # plus-tower level n and minus-tower level n+1 share sqrt(2 c hbar k (n+1))
    k, pc = 0.3, PhysicalConstants(c=1.4, hbar=0.9)
    for n in range(8):
        e_minus = energy(n + 1, k, pc)
        e_plus = pc.c * pc.hbar * sqrt_2n_omega(n + 1, pc.omega(k))  # c hbar sqrt(2 (n+1) omega)
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
    for evaluate in (lambda: spinor_evaluator(state, theta),
                     lambda: spinor_evaluator(state, theta, "momentum"),
                     lambda: density_evaluator(state, theta, "momentum"),
                     lambda: density_evaluator(state, theta),
                     lambda: list(density_slices(state, [0.3], [0.5, theta]))):
        with pytest.raises(ValueError, match="^theta must be finite$"):
            evaluate()


@pytest.mark.parametrize("value", [10**400, Fraction(-10**400, 3), "0.5"],
                         ids=["int-past-max", "Fraction-past-max", "str"])
def test_theta_omega_and_t_are_taken_by_the_coordinate_rule(value):
    # each is refused naming its parameter: text as no real number, a value past the largest
    # float as not finite (for t, OutOfRange naming "t"), never by float()'s OverflowError
    state = SpinorState(1, 0.2)
    takers = [("theta", lambda: density_evaluator(state, value)),
              ("theta", lambda: spinor_evaluator(state, value, "momentum")),
              ("theta", lambda: list(density_slices(state, [0.3], [value]))),
              ("Omega", lambda: SpinorState(1, 0.2, Omega=value)),
              ("t", lambda: phase(state, value))]
    for name, take in takers:
        if isinstance(value, str):
            with pytest.raises(TypeError, match=f"^{name} must be a real number, not str$"):
                take()
        else:
            with pytest.raises(ValueError, match=f"^{name} must be finite$") as excinfo:
                take()
            assert name != "t" or excinfo.value.param == "t"


def test_phase_equals_energy_over_hbar():
    pc = PhysicalConstants(c=3.0, hbar=0.25)
    k, t = 0.6, 2.7
    state = SpinorState(4, pc.omega(k))
    assert phase(state, t, pc) == pytest.approx(energy(4, k, pc) * t / pc.hbar, rel=1e-13)


# ---------------------------------------------------------------- position space


def test_ground_state_is_stationary_gaussian():
    state = SpinorState(0, 0.2)
    for t in (0.0, 7.3, -2.0):
        v = spinor_evaluator(state, phase(state, t))(0.0)
        assert v.comp1 == pytest.approx(0.5023079256810666, rel=1e-12)
        assert v.comp2 == 0.0


def test_first_level_at_origin_quarter_turn():
    v = spinor_evaluator(SpinorState(1, 0.2), math.pi / 2)(0.0)
    assert v.comp1 == 0.0  # odd component
    assert abs(v.comp2) < 1e-15  # cos(pi/2) in floats


def test_first_level_lower_component():
    v = spinor_evaluator(SpinorState(1, 0.2), 0.0)(1.0)
    assert v.comp1 == 0.0
    assert v.comp2 == pytest.approx((0.2 / math.pi) ** 0.25 * math.exp(-0.1), rel=1e-12)
    assert v.comp2 == pytest.approx(0.45450700653225495, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_position_closed_forms(n, theta=0.83):
    omega = 0.4
    pref = (omega / math.pi) ** 0.25
    spinor = spinor_evaluator(SpinorState(n, omega), theta)
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
        v = spinor(y)
        assert v.comp1 == pytest.approx(c1, rel=1e-12, abs=1e-14)
        assert v.comp2 == pytest.approx(c2, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("n", range(6))
def test_component_parity(n):
    state = SpinorState(n, 0.7)
    spinor = spinor_evaluator(state, 0.4)
    for y in (0.3, 1.1, 2.6):
        v_plus, v_minus = spinor(y), spinor(-y)
        assert v_minus.comp1 == pytest.approx((-1.0) ** n * v_plus.comp1, rel=1e-13, abs=1e-16)
        if n >= 1:
            assert v_minus.comp2 == pytest.approx((-1.0) ** (n - 1) * v_plus.comp2, rel=1e-13, abs=1e-16)


# ---------------------------------------------------------------- momentum space


def test_momentum_ground_state():
    v = spinor_evaluator(SpinorState(0, 0.2), 0.9, "momentum")(0.0)
    assert v.comp1 == pytest.approx((0.2 * math.pi) ** -0.25, rel=1e-12)
    assert v.comp1 == pytest.approx(1.1231946674597775, rel=1e-12)
    assert v.comp2 == 0.0


def test_momentum_first_level_vanishes():
    v = spinor_evaluator(SpinorState(1, 0.5), math.pi / 2, "momentum")(0.0)
    assert v.comp1 == 0.0
    assert abs(v.comp2) < 1e-15


def test_momentum_second_level_at_origin():
    v = spinor_evaluator(SpinorState(2, 1.0), math.pi / 2, "momentum")(0.0)
    # i^2 * H_2(0) < 0 twice over: the value is real and positive
    assert v.comp1.real == pytest.approx(0.5311259660135984, rel=1e-12)
    assert abs(v.comp1.imag) < 1e-16
    assert abs(v.comp2) < 1e-15


@pytest.mark.parametrize("n", [1, 2, 3])
def test_momentum_closed_forms(n, theta=1.1):
    omega = 0.6
    s, c = math.sin(theta), math.cos(theta)
    spinor = spinor_evaluator(SpinorState(n, omega), theta, "momentum")
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
        v = spinor(p)
        assert v.comp1 == pytest.approx(c1, rel=1e-12, abs=1e-14)
        assert v.comp2 == pytest.approx(c2, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("space, kind", [("position", float), ("momentum", complex)],
                         ids=["position", "momentum"])
def test_array_coordinates_give_the_float_values(space, kind, n):
    # an array's elements are numpy scalars: each gives its float's components as Python
    # floats (complex in momentum space), the ground state's zero comp2 included
    spinor = spinor_evaluator(SpinorState(n, 0.5), 0.3, space)
    for coords in (np.linspace(-1, 1, 3), np.array([[0.0, 0.25], [-2.5, 4.0]]),
                   np.array([0.1, -3.3], dtype=np.float32)):
        for index, coord in np.ndenumerate(coords):
            v = spinor(coord)
            assert v == spinor(float(coord)), (index, coord)
            assert type(v.comp1) is type(v.comp2) is kind, (index, coord)


def test_momentum_spinor_time_path():
    # a time enters only through phase(state, t, pc) = sqrt(2 n omega) c t + Omega
    state = SpinorState(2, 0.4, Omega=0.2)
    pc = PhysicalConstants(c=2.0)
    v_t = spinor_evaluator(state, phase(state, 1.5, pc), "momentum")(0.7)
    v_theta = spinor_evaluator(state, math.sqrt(2 * 2 * 0.4) * 2.0 * 1.5 + 0.2, "momentum")(0.7)
    assert v_t.comp1 == pytest.approx(v_theta.comp1, rel=1e-14)
    assert v_t.comp2 == pytest.approx(v_theta.comp2, rel=1e-14)


# ---------------------------------------------------------------- densities


def test_density_ground_state_peak():
    state = SpinorState(0, 0.2)
    rho = density_evaluator(state, phase(state, 3.0))(0.0)
    assert rho == pytest.approx(math.sqrt(0.2 / math.pi), rel=1e-12)


def test_density_first_level_at_origin():
    rho = density_evaluator(SpinorState(1, 0.2), math.pi / 4)(0.0)
    assert rho == pytest.approx(math.sqrt(0.2 / math.pi) / 2.0, rel=1e-12)
    assert rho == pytest.approx(0.126156626101008, rel=1e-12)


def test_density_matches_spinor_value():
    state = SpinorState(3, 0.5)
    for space in ("position", "momentum"):
        density, spinor = density_evaluator(state, 0.77, space), spinor_evaluator(state, 0.77, space)
        for u in (-1.3, 0.2, 2.1):
            direct = density(u)
            value = spinor(u)
            assert direct == pytest.approx(abs(value.comp1) ** 2 + abs(value.comp2) ** 2, rel=1e-13)


_I_POW = (complex(1.0, 0.0), complex(0.0, 1.0), complex(-1.0, 0.0), complex(0.0, -1.0))  # i**n


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 64])
def test_spinor_components_are_the_profiles_times_the_weights_bit_for_bit(n):
    # position: f_n sin(theta) and f_m cos(theta), real; momentum: (i^n f_n) sin(theta) and
    # (i^(n-1) f_m) cos(theta) on the profiles at 1/omega, products in that order, signed zeros
    # included (at n = 0 the weights are 1 and 0)
    ys = [0.0, -0.0, 1e-200, 0.3, -1.7, 11.0, 40.0, -1e308]
    for omega in (1e-300, 0.2, 7.0, 1e300):
        position_pair, momentum_pair = hermite_pair_evaluator(n, omega), hermite_pair_evaluator(n, 1.0 / omega)
        for theta in (0.0, 0.3, math.pi / 2, -2.0):
            s, c = (1.0, 0.0) if n == 0 else (math.sin(theta), math.cos(theta))
            state = SpinorState(n, omega)
            position, momentum = spinor_evaluator(state, theta), spinor_evaluator(state, theta, "momentum")
            for y in ys:
                f_n, f_m = position_pair(y)
                assert repr(tuple(position(y))) == repr((f_n * s, f_m * c)), (omega, theta, y)
                assert type(position(y).comp1) is type(position(y).comp2) is float
                f_n, f_m = momentum_pair(y)
                want = (_I_POW[n % 4] * f_n * s, _I_POW[(n - 1) % 4] * f_m * c)
                assert repr(tuple(momentum(y))) == repr(want), (omega, theta, y)


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
                assert pair(y) == (f_n, f_m), (omega, y)
                assert density(y) == rho, (omega, theta, y)
                assert density(-y) == density(y) and pair(-y) == ((-1) ** n * f_n, (-1) ** n * -f_m)


def test_spinor_and_density_vanish_where_the_envelope_underflows():
    # the Gaussian envelope underflows to 0 and the recurrence's a * u overflows: 0, not inf * 0
    assert density_evaluator(SpinorState(1, 0.5), 0.3, "momentum")(1e308) == 0.0
    assert density_evaluator(SpinorState(64, 1e300), 0.3)(-1e200) == 0.0
    assert spinor_evaluator(SpinorState(2, 7.0), 0.3)(1e308) == (0.0, 0.0)
    assert spinor_evaluator(SpinorState(3, 1e-3), 0.3, "momentum")(-1.5e308) == (0.0, 0.0)
    assert density_evaluator(SpinorState(5, 7.0), 0.3)(1e308) == 0.0
    assert next(density_slices(SpinorState(5, 7.0), [1e308, -1e308], [0.3])) == [0.0, 0.0]


@pytest.mark.parametrize("n", range(9))
@pytest.mark.parametrize("theta", PHASES)
def test_normalization_every_phase(n, theta):
    state = SpinorState(n, 0.35)
    assert abs(norm_integral(state, theta, "position") - 1.0) < 1e-8


def test_space_validation():
    with pytest.raises(ValueError):
        density_evaluator(SpinorState(1, 0.2), 0.0, space="fourier")


# ---------------------------------------------------------------- Fourier pairing


@pytest.mark.parametrize("n", range(4))
def test_fourier_consistency(n):
    state = SpinorState(n, 0.5)
    theta = 0.7
    sigma_p = math.sqrt(state.omega * (2 * n + 1))
    worst = 0.0
    momentum = spinor_evaluator(state, theta, "momentum")
    for p in np.linspace(-3 * sigma_p, 3 * sigma_p, 7):
        numeric = fourier_numeric(state, theta, float(p))
        analytic = momentum(float(p))
        worst = max(worst, abs(numeric[0] - analytic.comp1), abs(numeric[1] - analytic.comp2))
    assert worst < 1e-6


@pytest.mark.parametrize("n", range(5))
def test_parseval(n):
    state = SpinorState(n, 0.8)
    theta = 1.1
    assert abs(norm_integral(state, theta, "position") - norm_integral(state, theta, "momentum")) < 1e-8


# ---------------------------------------------------------------- ladder maps


def test_ladder_down_reaches_ground_state():
    # A phi_1 / E_1 = phi_0, in natural units, where k = omega
    phi_0, ladder = hermite_pair_evaluator(0, 0.2), ladder_evaluator(SpinorState(1, 0.2))
    for y in linspace(-6.0, 6.0, 121):
        lowered = ladder(y)[0] / energy(1, 0.2)
        assert abs(lowered - phi_0(y)[0]) < 1e-12, y


def test_annihilation_kills_ground_state():
    ladder = ladder_evaluator(SpinorState(0, 0.4))
    for y in linspace(-8.0, 8.0, 101):
        assert abs(ladder(y)[0]) < 1e-15, y


def test_ladder_evaluator_builds_the_recurrence_once(monkeypatch):
    # the state's Hermite evaluator is built once, not at every point for each of A and A+
    builds = []

    def counting(n, omega):
        builds.append((n, omega))
        return hermite_pair_evaluator(n, omega)
    monkeypatch.setattr(spinor_mod, "hermite_pair_evaluator", counting)
    ladder = ladder_evaluator(SpinorState(3, 0.7))
    values = [value for y in linspace(-5.0, 5.0, 100) for value in ladder(y)]
    assert builds == [(3, 0.7)] and len(values) == 200


@pytest.mark.parametrize("n", range(9))
def test_intertwining(n):
    omega = 0.3
    state, upper = SpinorState(n, omega), SpinorState(n + 1, omega)
    pair = hermite_pair_evaluator(n + 1, omega)  # (phi_{n+1}, phi_n)
    for pc in (PhysicalConstants(c=1.2, hbar=0.8), PhysicalConstants(c=3e8, hbar=1.05e-34)):
        e_upper = energy(n + 1, omega * pc.c * pc.hbar, pc)  # the slope k = omega c hbar
        down, up = ladder_evaluator(upper, pc), ladder_evaluator(state, pc)
        for y in linspace(-6.0 / math.sqrt(omega), 6.0 / math.sqrt(omega), 241):
            # A phi_{n+1} = E_{n+1} phi_n and A+ phi_n = E_{n+1} phi_{n+1}
            f_upper, f_n = pair(y)
            lowered = down(y)[0] - e_upper * f_n
            raised = up(y)[1] - e_upper * f_upper
            assert abs(lowered) < 1e-8 * pc.c * pc.hbar and abs(raised) < 1e-8 * pc.c * pc.hbar, y


def test_normalised_ladder_maps_take_no_constants():
    # c hbar cancels in A phi / E and A+ phi / E: the partner eigenfunctions are the same at every c hbar
    for pc in (NATURAL_UNITS, PhysicalConstants(c=1.2, hbar=0.8), PhysicalConstants(c=3e8, hbar=1.05e-34)):
        k = pc.c * pc.hbar  # omega = 1
        state = SpinorState(1, pc.omega(k))
        lowered, raised = ladder_evaluator(state, pc)(0.5)
        for value, e, m in ((raised, energy(2, k, pc), 2), (lowered, energy(1, k, pc), 0)):
            phi_m = hermite_pair_evaluator(m, 1.0)(0.5)[0]
            assert value / e == pytest.approx(phi_m, rel=1e-14)


@pytest.mark.parametrize("n", range(5))
def test_ladder_up_then_down_roundtrip(n):
    omega = 0.9
    e = energy(n + 1, omega)  # natural units: k = omega
    pair = hermite_pair_evaluator(n + 1, omega)  # (phi_{n+1}, phi_n)
    up, down = ladder_evaluator(SpinorState(n, omega)), ladder_evaluator(SpinorState(n + 1, omega))
    for y in linspace(-4.0, 4.0, 41):
        f_upper, f_n = pair(y)
        raised = up(y)[1] / e
        assert abs(raised - f_upper) < 1e-12, y
        lowered = down(y)[0] / e
        assert abs(lowered - f_n) < 1e-12, y


@pytest.mark.parametrize("n", range(4))
def test_ladder_maps_at_huge_omega(n):
    # 2 n omega, and so E_n^2 = 2 c hbar k n, overflow at omega = 1e308; neither is formed
    omega = 1e308
    scale = (omega / math.pi) ** 0.25  # the size of phi_n there
    e = energy(n + 1, omega)  # natural units: k = omega
    pair = hermite_pair_evaluator(n + 1, omega)  # (phi_{n+1}, phi_n)
    up, down = ladder_evaluator(SpinorState(n, omega)), ladder_evaluator(SpinorState(n + 1, omega))
    for y in (v / math.sqrt(omega) for v in linspace(-4.0, 4.0, 41)):
        f_upper, f_n = pair(y)
        raised = up(y)[1] / e
        assert math.isfinite(raised) and abs(raised - f_upper) < 1e-12 * scale, y
        lowered = down(y)[0] / e
        assert math.isfinite(lowered) and abs(lowered - f_n) < 1e-12 * scale, y


def test_huge_omega_slope_and_energy_are_finite():
    # phi_1' = (A - A+) phi_1 / 2 in natural units, where 2 omega overflows; by mpmath at 40
    # digits, phi_1' = sqrt(2 omega) phi_0 - omega y phi_1 (H_1' = 2 H_0) is 1.0622519320256036e231
    state, y = SpinorState(1, 1e308), 1e-160
    lowered, raised = ladder_evaluator(state)(y)
    slope = (lowered - raised) / 2.0
    with mpmath.workdps(40):
        omega_mp = mpmath.mpf(state.omega)
        phi_0, phi_1 = (mpmath_hermite.phi(m, state.omega, y) for m in (0, 1))
        want = mpmath.sqrt(2 * omega_mp) * phi_0 - omega_mp * mpmath.mpf(y) * phi_1
    assert slope == pytest.approx(float(want), rel=1e-12)
    pc = PhysicalConstants(c=10.0)  # 2 c hbar k = 2e309 overflows, its root does not
    assert energy(1, 1e308, pc) == pytest.approx(math.sqrt(20.0) * 1e154, rel=1e-15)
    assert -energy(1, 1e308, pc) == pytest.approx(-math.sqrt(20.0) * 1e154, rel=1e-15)


def test_energy_where_c_hbar_overflows_before_the_root():
    # c hbar = 1e400 leaves the float range, E = sqrt(2 c hbar k) ~ 1.41e240 does not
    e_1 = energy(1, 1e80, PhysicalConstants(c=1e300, hbar=1e100))
    assert e_1 == pytest.approx(math.sqrt(2.0) * 1e240, rel=1e-15)
    assert energy(1, 1e300, PhysicalConstants(c=1e300, hbar=1e300)) == math.inf


@pytest.mark.parametrize("from_array", [False, True], ids=["float", "array"])
def test_ladder_products_where_c_hbar_overflows(from_array):
    # c hbar = 1e600 is not a float: the kernel's exact 0 stays 0 (not inf * 0 = nan), and
    # kernels of 5.6e-298 and 1.5e-294 give finite products; an array's element, a numpy
    # scalar, gives its float's value
    pc = PhysicalConstants(c=1e300, hbar=1e300)

    def at(state, y):
        return ladder_evaluator(state, pc)(np.array([y])[0] if from_array else y)

    assert at(SpinorState(0, 1.0), 0.5)[0] == 0.0
    kernels = ladder_evaluator(SpinorState(1, 1.0))(37.0)  # c hbar = 1
    for kernel, product in zip(kernels, at(SpinorState(1, 1.0), 37.0)):
        assert math.isfinite(product)
        assert product / 1e300 / 1e300 == pytest.approx(kernel, rel=1e-15, abs=0.0)
    assert at(SpinorState(0, 1.0), -0.5)[1] == -math.inf  # past the largest float


def test_phase_where_sqrt_2n_omega_c_overflows():
    # sqrt(2 omega) c = 1.4e450 is not a float, but theta at t = 0 is Omega and at 1e-300 is 1.4e150
    state, pc = SpinorState(1, 1e300, Omega=0.25), PhysicalConstants(c=1e300)
    assert phase(state, 0.0, pc) == 0.25
    assert phase(state, 1e-300, pc) == pytest.approx(math.sqrt(2e300), rel=1e-15)


_FAR = (1e10, 1e150, 1e308, -1e308)  # far coordinates: phi underflows there unless omega is tiny


@pytest.mark.parametrize("from_array", [False, True], ids=["float", "array"])
@pytest.mark.parametrize("omega", [1e-300, 1e-10, 1.0, 7.0, 1e10, 1e300])
@pytest.mark.parametrize("n", [0, 1, 2, 5, 64])
def test_slope_and_ladder_maps_are_finite_where_the_envelope_underflows(n, omega, from_array):
    # y phi is formed before omega multiplies it: phi underflows to 0 where omega y may overflow.
    # An array's elements are numpy scalars, taken as floats: numpy's scalar arithmetic, which
    # warns where omega y overflows, is never reached
    ladder = ladder_evaluator(SpinorState(n, omega))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # numpy's overflow of omega y
        values = [v for y in (np.array(_FAR) if from_array else _FAR) for v in ladder(y)]
    assert all(map(math.isfinite, values)), values


@pytest.mark.parametrize("n", [1, 3])
def test_partner_potentials_by_finite_difference(n):
    """-c^2 hbar^2 phi'' + ((k y)^2 -/+ c hbar k) phi = E_n^2 phi on the two towers."""
    pc = NATURAL_UNITS
    omega = 0.5
    k = omega * pc.c * pc.hbar
    e2 = 2.0 * pc.c * pc.hbar * k * n
    h = 1e-4

    def phi(m, y):
        return hermite_pair_evaluator(m, omega)(y)[0]

    for y in np.linspace(-2.0, 2.0, 9):
        # upper tower: phi_n with V_-
        d2 = (phi(n, y + h) - 2 * phi(n, y) + phi(n, y - h)) / h**2
        lhs = -((pc.c * pc.hbar) ** 2) * d2 + ((k * y) ** 2 - pc.c * pc.hbar * k) * phi(n, y)
        assert lhs == pytest.approx(e2 * phi(n, y), rel=2e-5, abs=2e-7)
        # lower tower: phi_{n-1} with V_+ at the same energy
        d2 = (phi(n - 1, y + h) - 2 * phi(n - 1, y) + phi(n - 1, y - h)) / h**2
        lhs = -((pc.c * pc.hbar) ** 2) * d2 + ((k * y) ** 2 + pc.c * pc.hbar * k) * phi(n - 1, y)
        assert lhs == pytest.approx(e2 * phi(n - 1, y), rel=2e-5, abs=2e-7)


# ---------------------------------------------------------------- parameter types


def test_type_validation():
    with pytest.raises(ValueError):
        NATURAL_UNITS.omega(0.0)
    with pytest.raises(ValueError):
        SpinorState(-1, 1.0)
    with pytest.raises(ValueError):
        SpinorState(2, 0.0)
    with pytest.raises(ValueError):
        PhysicalConstants(c=0.0)


def test_from_potential():
    # a state of slope k takes omega = k/(c hbar) from the constants
    pc = PhysicalConstants(c=2.0, hbar=0.5)
    state = SpinorState(3, pc.omega(0.7), Omega=0.1)
    assert state.omega == pytest.approx(0.7, rel=1e-15)
    assert state.n == 3 and state.Omega == 0.1
