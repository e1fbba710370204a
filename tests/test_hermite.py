import math

import numpy as np
import pytest
from scipy.special import eval_hermite, gammaln

from majorana_lab.hermite import (
    hermite_norm_fn,
    hermite_norm_fn_and_derivative,
    hermite_norm_pair,
)
from majorana_lab.quadrature import IntegrationSpec, integrate, truncation_radius


def hermite_eval(n, x):
    """Physicists' Hermite polynomial H_n(x) via the upward recurrence.

    Uses H_{n+1} = 2x H_n - 2n H_{n-1}, which is stable in the oscillatory
    region.  Accepts a scalar or ndarray `x`.  The package builds only the
    normalized functions; this raw polynomial checks the recurrence itself.

    Raises OverflowError if the recurrence leaves double range (large n|x|);
    values are never silently saturated to inf.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise TypeError("order n must be an integer")
    if n < 0:
        raise ValueError("order n must be >= 0")
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")

    h_prev = np.ones_like(x)
    if n == 0:
        return float(h_prev) if scalar else h_prev
    with np.errstate(over="ignore", invalid="ignore"):  # finiteness is checked below
        h = 2.0 * x
        for k in range(1, n):
            h, h_prev = 2.0 * x * h - 2.0 * k * h_prev, h
    if not np.all(np.isfinite(h)):
        raise OverflowError(f"H_{n} overflowed double precision at |x| ~ {np.max(np.abs(x)):g}")
    return float(h) if scalar else h


def reference_norm_fn(n, omega, y):
    """Independent route: scipy polynomial with log-space normalization."""
    lognorm = -0.5 * (n * math.log(2.0) + gammaln(n + 1)) + 0.25 * math.log(omega / math.pi)
    u = math.sqrt(omega) * y
    return math.exp(lognorm - 0.5 * u * u) * eval_hermite(n, u)


def test_h0_is_one():
    assert hermite_eval(0, 3.7) == 1.0


def test_h1_is_2x():
    assert hermite_eval(1, 2.0) == 4.0


def test_h3_at_one():
    # 8x^3 - 12x at x = 1
    assert hermite_eval(3, 1.0) == pytest.approx(-4.0, rel=1e-12)


@pytest.mark.parametrize("n", range(21))
def test_matches_scipy(n):
    # scipy uses a different evaluation route, so roundoff differs in the
    # region where |H_n| reaches ~1e17
    xs = np.linspace(-8.0, 8.0, 33)
    ours = hermite_eval(n, xs)
    ref = eval_hermite(n, xs)
    scale = np.maximum(np.abs(ref), 1.0)
    assert np.max(np.abs(ours - ref) / scale) < 1e-9


@pytest.mark.parametrize("n", range(31))
def test_matches_exact_integer_recurrence(n):
    # at integer arguments the polynomial values are exact integers
    for x in range(-8, 9):
        h_prev, h = 1, 2 * x
        for k in range(1, n):
            h, h_prev = 2 * x * h - 2 * k * h_prev, h
        exact = 1 if n == 0 else h
        assert hermite_eval(n, float(x)) == pytest.approx(float(exact), rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("n", range(1, 30))
def test_recurrence_residual(n):
    xs = np.linspace(-10.0, 10.0, 41)
    residual = hermite_eval(n + 1, xs) - 2.0 * xs * hermite_eval(n, xs) + 2.0 * n * hermite_eval(n - 1, xs)
    scale = np.maximum.reduce(
        [np.abs(hermite_eval(n + 1, xs)), np.abs(2.0 * xs * hermite_eval(n, xs)), np.ones_like(xs)]
    )
    assert np.max(np.abs(residual) / scale) < 1e-12


def test_overflow_is_reported():
    with pytest.raises(OverflowError):
        hermite_eval(64, 1e5)


def test_input_validation():
    with pytest.raises(ValueError):
        hermite_eval(-1, 0.5)
    with pytest.raises(TypeError):
        hermite_eval(1.5, 0.5)
    with pytest.raises(ValueError):
        hermite_eval(2, math.inf)
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
    ys = np.linspace(-6.0 / math.sqrt(omega), 6.0 / math.sqrt(omega), 25)
    ours = hermite_norm_fn(n, omega, ys)
    ref = np.array([reference_norm_fn(n, omega, y) for y in ys])
    assert np.max(np.abs(ours - ref)) < 1e-10


def test_norm_fn_no_overflow_high_order():
    # naive 2^n n! normalization would overflow here
    value = hermite_norm_fn(64, 1.0, 3.0)
    assert math.isfinite(value)
    assert abs(value) < 1.0


@pytest.mark.parametrize("m", range(13))
def test_orthonormality(m):
    omega = 0.6
    radius = truncation_radius(omega, 12, tail_tol=1e-13)
    spec = IntegrationSpec(truncation_radius=radius, target_abs_tol=1e-11)
    for n in range(m, 13):
        value, _ = integrate(lambda y: hermite_norm_fn(m, omega, y) * hermite_norm_fn(n, omega, y), spec)
        expected = 1.0 if m == n else 0.0
        assert abs(value - expected) < 1e-8


@pytest.mark.parametrize("n", range(13))
def test_parity(n):
    ys = np.linspace(0.1, 7.3, 19)
    left = hermite_norm_fn(n, 0.8, -ys)
    right = (-1.0) ** n * hermite_norm_fn(n, 0.8, ys)
    assert np.array_equal(left, right)


def test_array_shape_and_scalar_type():
    out = hermite_eval(4, np.zeros((3, 2)))
    assert out.shape == (3, 2)
    assert isinstance(hermite_eval(4, 0.3), float)
    assert isinstance(hermite_norm_fn(4, 1.0, 0.3), float)


@pytest.mark.parametrize("n", [0, 1, 4, 9])
def test_derivative_matches_finite_difference(n):
    omega, h = 0.9, 1e-6
    for y in (-2.2, 0.0, 0.4, 1.9):
        fd = (hermite_norm_fn(n, omega, y + h) - hermite_norm_fn(n, omega, y - h)) / (2 * h)
        assert hermite_norm_fn_and_derivative(n, omega, y)[1] == pytest.approx(fd, rel=2e-8, abs=1e-9)


@pytest.mark.parametrize("omega", [0.01, 1.0, 100.0])
def test_pair_sweep_matches_separate_lower_order(omega):
    # phi_{n-1} from the pair sweep is the same floating-point sequence as a separate call
    ys = np.concatenate([np.linspace(-30.0, 30.0, 121) / math.sqrt(omega), [0.0, 1e-3]])
    for n in range(1, 65):
        assert np.array_equal(hermite_norm_pair(n, omega, ys)[1], hermite_norm_fn(n - 1, omega, ys))
        assert hermite_norm_pair(n, omega, 0.7)[1] == hermite_norm_fn(n - 1, omega, 0.7)


def test_pair_at_ground_state_has_zero_partner():
    assert np.array_equal(hermite_norm_pair(0, 0.4, np.linspace(-2.0, 2.0, 5))[1], np.zeros(5))
    assert hermite_norm_pair(0, 0.4, 1.0)[1] == 0.0
