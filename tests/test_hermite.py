import math

import numpy as np
import pytest
from mpmath_hermite import phi

from majorana_lab.common import NATURAL_UNITS, PhysicalConstants, linspace
from majorana_lab.hermite import hermite_pair_evaluator
from majorana_lab.quadrature import integrate, truncation_radius
from majorana_lab.spinor import SpinorState, ladder_evaluator


def test_input_validation():
    with pytest.raises(ValueError):
        hermite_pair_evaluator(-1, 1.0)(0.0)
    with pytest.raises(ValueError):
        hermite_pair_evaluator(2, -0.1)(0.5)
    with pytest.raises(ValueError):
        hermite_pair_evaluator(2, 1.0)(math.nan)


def test_norm_fn_ground_state_value():
    assert hermite_pair_evaluator(0, 0.2)(0.0)[0] == pytest.approx((0.2 / math.pi) ** 0.25, rel=1e-14)
    assert hermite_pair_evaluator(0, 0.2)(0.0)[0] == pytest.approx(0.5023079256810666, rel=1e-12)


def test_norm_fn_odd_vanishes_at_origin():
    assert hermite_pair_evaluator(1, 0.7)(0.0)[0] == 0.0


def test_norm_fn_n2_at_origin():
    expected = -((1.0 / math.pi) ** 0.25) / math.sqrt(2.0)
    assert hermite_pair_evaluator(2, 1.0)(0.0)[0] == pytest.approx(expected, rel=1e-13)
    assert hermite_pair_evaluator(2, 1.0)(0.0)[0] == pytest.approx(-0.5311259660135984, rel=1e-12)


@pytest.mark.parametrize("n", [0, 1, 5, 12, 33, 64])
@pytest.mark.parametrize("omega", [0.2, 1.0, 4.0])
def test_norm_fn_matches_reference(n, omega):
    pair = hermite_pair_evaluator(n, omega)
    for y in linspace(-6.0 / math.sqrt(omega), 6.0 / math.sqrt(omega), 25):
        assert abs(pair(y)[0] - float(phi(n, omega, y))) < 1e-14, y


def test_norm_fn_no_overflow_high_order():
    # every iterate of the recurrence is a phi_k of order 1, where the raw H_64(3) is -2.8e55;
    # 2^n n! itself stays finite up to n = 150
    value = hermite_pair_evaluator(64, 1.0)(3.0)[0]
    assert math.isfinite(value)
    assert abs(value) < 1.0


@pytest.mark.parametrize("m", range(13))
def test_orthonormality(m):
    omega = 0.6
    radius = truncation_radius(omega, 12, tail_tol=1e-13)
    phi_m = hermite_pair_evaluator(m, omega)
    for n in range(m, 13):
        phi_n = hermite_pair_evaluator(n, omega)
        value, _ = integrate(lambda y: phi_m(y)[0] * phi_n(y)[0], (-radius, 0.0, radius), 1e-11)
        expected = 1.0 if m == n else 0.0
        assert abs(value - expected) < 1e-8


@pytest.mark.parametrize("n", range(13))
def test_parity(n):
    pair = hermite_pair_evaluator(n, 0.8)
    for y in linspace(0.1, 7.3, 19):
        assert pair(-y)[0] == (-1.0) ** n * pair(y)[0], y


@pytest.mark.parametrize("n", [0, 1, 4, 9])
def test_derivative_matches_finite_difference(n):
    # the ladder maps carry the analytic phi_n' = (A - A+) phi_n / (2 c hbar)
    omega, h = 0.9, 1e-6
    pair, state = hermite_pair_evaluator(n, omega), SpinorState(n, omega)
    for pc in (NATURAL_UNITS, PhysicalConstants(c=1.2, hbar=0.8)):
        ladder = ladder_evaluator(state, pc)
        for y in (-2.2, 0.0, 0.4, 1.9):
            fd = (pair(y + h)[0] - pair(y - h)[0]) / (2 * h)
            lowered, raised = ladder(y)
            slope = (lowered - raised) / (2 * pc.c * pc.hbar)
            assert slope == pytest.approx(fd, rel=2e-8, abs=1e-9)


@pytest.mark.parametrize("omega", [0.01, 1.0, 100.0])
def test_pair_sweep_matches_separate_lower_order(omega):
    # phi_{n-1} from the pair sweep is the same floating-point sequence as a separate call
    ys = [y / math.sqrt(omega) for y in linspace(-30.0, 30.0, 121)] + [0.0, 1e-3, 0.7]
    for n in range(1, 65):
        pair, lower = hermite_pair_evaluator(n, omega), hermite_pair_evaluator(n - 1, omega)
        for y in ys:
            assert pair(y)[1] == lower(y)[0], (n, y)


def test_pair_at_ground_state_has_zero_partner():
    pair = hermite_pair_evaluator(0, 0.4)
    for y in linspace(-2.0, 2.0, 5) + [1.0]:
        assert pair(y)[1] == 0.0


def test_numpy_scalars_are_accepted():
    pair = hermite_pair_evaluator(5, 0.8)
    assert hermite_pair_evaluator(np.int64(5), 0.8)(np.float64(0.4)) == pair(0.4)
    assert pair(np.array(0.4)) == pair(0.4)
    assert hermite_pair_evaluator(3, 1.0)(2) == hermite_pair_evaluator(3, 1.0)(2.0)
    with pytest.raises(TypeError):
        hermite_pair_evaluator(True, 1.0)(0.5)
    with pytest.raises(TypeError):
        hermite_pair_evaluator(np.float64(2.0), 1.0)(0.5)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 64])
def test_underflowed_envelope_gives_zeros_not_nan(n):
    # exp(-u^2/2) underflows to 0 where a * u may overflow, even for a finite u; every phi_k is 0
    ys = [1e-300, 0.5, 7.0, 1e10, 1e150, 1e308, 1.5e308, 1.7e308]
    ys += [-y for y in ys]
    for omega in (1e-300, 1e-150, 1e-10, 1.0, 2.0, 7.0, 1e10, 1e150, 1e300):
        evaluate = hermite_pair_evaluator(n, omega)
        for y in ys:
            pair = evaluate(y)
            assert all(map(math.isfinite, pair)), (omega, y, pair)
            if abs(math.sqrt(omega) * y) > 40.0:  # exp(-800) is 0.0
                assert pair == (0.0, 0.0), (omega, y, pair)
    assert hermite_pair_evaluator(n, 1.0)(1e308)[0] == 0.0  # u = 1e308 is finite, a * u is not
