import math

import numpy as np
import pytest
from mpmath_hermite import phi

from majorana_lab.common import linspace
from majorana_lab.hermite import (
    hermite_norm_fn,
    hermite_norm_fn_and_derivative,
    hermite_norm_pair,
)
from majorana_lab.quadrature import integrate, truncation_radius


def test_input_validation():
    with pytest.raises(ValueError):
        hermite_norm_fn(-1, 1.0, 0.0)
    with pytest.raises(ValueError):
        hermite_norm_fn(2, -0.1, 0.5)
    with pytest.raises(ValueError):
        hermite_norm_fn(2, 1.0, math.nan)


def test_norm_fn_ground_state_value():
    assert hermite_norm_fn(0, 0.2, 0.0) == pytest.approx((0.2 / math.pi) ** 0.25, rel=1e-14)
    assert hermite_norm_fn(0, 0.2, 0.0) == pytest.approx(0.5023079256810666, rel=1e-12)


def test_norm_fn_odd_vanishes_at_origin():
    assert hermite_norm_fn(1, 0.7, 0.0) == 0.0


def test_norm_fn_n2_at_origin():
    expected = -((1.0 / math.pi) ** 0.25) / math.sqrt(2.0)
    assert hermite_norm_fn(2, 1.0, 0.0) == pytest.approx(expected, rel=1e-13)
    assert hermite_norm_fn(2, 1.0, 0.0) == pytest.approx(-0.5311259660135984, rel=1e-12)


@pytest.mark.parametrize("n", [0, 1, 5, 12, 33, 64])
@pytest.mark.parametrize("omega", [0.2, 1.0, 4.0])
def test_norm_fn_matches_reference(n, omega):
    for y in linspace(-6.0 / math.sqrt(omega), 6.0 / math.sqrt(omega), 25):
        assert abs(hermite_norm_fn(n, omega, y) - float(phi(n, omega, y))) < 1e-14, y


def test_norm_fn_no_overflow_high_order():
    # every iterate of the recurrence is a phi_k of order 1, where the raw H_64(3) is -2.8e55;
    # 2^n n! itself stays finite up to n = 150
    value = hermite_norm_fn(64, 1.0, 3.0)
    assert math.isfinite(value)
    assert abs(value) < 1.0


@pytest.mark.parametrize("m", range(13))
def test_orthonormality(m):
    omega = 0.6
    radius = truncation_radius(omega, 12, tail_tol=1e-13)
    for n in range(m, 13):
        value, _ = integrate(lambda y: hermite_norm_fn(m, omega, y) * hermite_norm_fn(n, omega, y), radius, 1e-11)
        expected = 1.0 if m == n else 0.0
        assert abs(value - expected) < 1e-8


@pytest.mark.parametrize("n", range(13))
def test_parity(n):
    for y in linspace(0.1, 7.3, 19):
        assert hermite_norm_fn(n, 0.8, -y) == (-1.0) ** n * hermite_norm_fn(n, 0.8, y), y


@pytest.mark.parametrize("n", [0, 1, 4, 9])
def test_derivative_matches_finite_difference(n):
    omega, h = 0.9, 1e-6
    for y in (-2.2, 0.0, 0.4, 1.9):
        fd = (hermite_norm_fn(n, omega, y + h) - hermite_norm_fn(n, omega, y - h)) / (2 * h)
        assert hermite_norm_fn_and_derivative(n, omega, y)[1] == pytest.approx(fd, rel=2e-8, abs=1e-9)


@pytest.mark.parametrize("omega", [0.01, 1.0, 100.0])
def test_pair_sweep_matches_separate_lower_order(omega):
    # phi_{n-1} from the pair sweep is the same floating-point sequence as a separate call
    ys = [y / math.sqrt(omega) for y in linspace(-30.0, 30.0, 121)] + [0.0, 1e-3, 0.7]
    for n in range(1, 65):
        for y in ys:
            assert hermite_norm_pair(n, omega, y)[1] == hermite_norm_fn(n - 1, omega, y), (n, y)


def test_pair_at_ground_state_has_zero_partner():
    for y in linspace(-2.0, 2.0, 5) + [1.0]:
        assert hermite_norm_pair(0, 0.4, y)[1] == 0.0


def test_numpy_scalars_are_accepted():
    assert hermite_norm_pair(np.int64(5), 0.8, np.float64(0.4)) == hermite_norm_pair(5, 0.8, 0.4)
    assert hermite_norm_pair(5, 0.8, np.array(0.4)) == hermite_norm_pair(5, 0.8, 0.4)
    assert hermite_norm_fn(3, 1.0, 2) == hermite_norm_fn(3, 1.0, 2.0)
    with pytest.raises(TypeError):
        hermite_norm_fn(True, 1.0, 0.5)
    with pytest.raises(TypeError):
        hermite_norm_fn(np.float64(2.0), 1.0, 0.5)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 64])
def test_underflowed_envelope_gives_zeros_not_nan(n):
    # exp(-u^2/2) underflows to 0 where a * u may overflow, even for a finite u; every phi_k is 0
    ys = [1e-300, 0.5, 7.0, 1e10, 1e150, 1e308, 1.5e308, 1.7e308]
    ys += [-y for y in ys]
    for omega in (1e-300, 1e-150, 1e-10, 1.0, 2.0, 7.0, 1e10, 1e150, 1e300):
        for y in ys:
            pair = hermite_norm_pair(n, omega, y)
            assert all(map(math.isfinite, pair)), (omega, y, pair)
            if abs(math.sqrt(omega) * y) > 40.0:  # exp(-800) is 0.0
                assert pair == (0.0, 0.0), (omega, y, pair)
    assert hermite_norm_fn(n, 1.0, 1e308) == 0.0  # u = 1e308 is finite, a * u is not
