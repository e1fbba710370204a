import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import mpmath_hermite
from majorana_lab import quadrature
from majorana_lab.common import MAX_LEVEL, LevelError
from majorana_lab.quadrature import NonConvergence, integrate, truncation_radius, xlogx
from majorana_lab.spinor import SpinorState, density_evaluator


def gaussian_moment(m, omega):
    """Closed form of the full-line integral of y^(2m) exp(-omega y^2)."""
    return math.gamma(m + 0.5) / omega ** (m + 0.5)


def test_standard_normal_mass():
    value, err = integrate(lambda y: np.exp(-0.5 * y * y) / math.sqrt(2 * math.pi),
                           (-12.0, 0.0, 12.0), 1e-12)
    assert abs(value - 1.0) < 1e-12
    assert err <= 1e-12


def test_scaled_gaussian_mass():
    radius = truncation_radius(0.2, 0, tail_tol=1e-13)
    value, _ = integrate(lambda y: math.sqrt(0.2 / math.pi) * np.exp(-0.2 * y * y),
                         (-radius, 0.0, radius))
    assert abs(value - 1.0) < 1e-10


def test_odd_integrand_vanishes():
    value, _ = integrate(lambda y: y * np.exp(-y * y), (-9.0, 0.0, 9.0))
    assert abs(value) < 1e-14


@pytest.mark.parametrize("omega", [0.2, 1.0, 3.0])
@pytest.mark.parametrize("m", range(6))
def test_error_estimate_bounds_true_error(m, omega):
    exact = gaussian_moment(m, omega)
    radius = truncation_radius(omega, m, tail_tol=1e-16)
    # the moments reach ~1e5, so the achievable tolerance scales with size
    value, est = integrate(lambda y: y ** (2 * m) * np.exp(-omega * y * y), (-radius, 0.0, radius),
                           1e-10 * max(1.0, exact))
    true_err = abs(value - exact)
    # floor: truncated tail plus last-ulp roundoff of the closed form
    assert true_err <= 10.0 * est + 1e-13 * max(1.0, exact)


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
def test_halving_tolerance_never_increases_error(tol):
    # against the moment at 40 digits, not gaussian_moment: that float closed form is itself
    # 8.6e-15 off it at m = 4, more than tol/2 gains at m = 3 (from 2.9e-15 off to 1.1e-15)
    omega = 0.7
    radius = truncation_radius(omega, 4, tail_tol=1e-16)
    for m in range(5):
        f = lambda y, m=m: y ** (2 * m) * math.exp(-omega * y * y)
        v1, _ = integrate(f, (-radius, 0.0, radius), tol)
        v2, _ = integrate(f, (-radius, 0.0, radius), tol / 2)
        with mpmath.workdps(40):
            exact = mpmath.gamma(m + mpmath.mpf(0.5)) / mpmath.mpf(omega) ** (m + mpmath.mpf(0.5))
            assert abs(v2 - exact) <= abs(v1 - exact)


def test_nonconvergence_carries_best_estimate(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 1)  # the panel budget, hit at the first halving
    with pytest.raises(NonConvergence) as excinfo:
        integrate(lambda y: np.cos(1e4 * y), (-1.0, 0.0, 1.0), 1e-12)
    assert math.isfinite(excinfo.value.value)
    assert math.isfinite(excinfo.value.err_estimate)


def test_integrand_receives_one_float():
    seen = set()

    def f(y):
        seen.add(type(y))
        return math.exp(-y * y)

    value, _ = integrate(f, (-9.0, 0.0, 9.0), 1e-12)
    assert seen == {float}
    assert value == pytest.approx(math.sqrt(math.pi), rel=1e-12)


def test_unreachable_tol_fails_at_once():
    # the retired panels' errors alone pass 1e-310 after a few rounds; at the full budget this
    # integral made over a million panels before it gave up
    calls = []

    def f(y):
        calls.append(y)
        return math.exp(-y * y)

    radius = truncation_radius(1.0, 1)
    with pytest.raises(NonConvergence) as excinfo:
        integrate(f, (-radius, 0.0, radius), 1e-310)
    assert len(calls) < 10_000
    assert excinfo.value.value == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert excinfo.value.err_estimate > 1e-310


def test_overflowing_integrand_is_nonconvergence():
    # its panel sums overflow: math.fsum raises there, the integral reports inf instead
    with pytest.raises(NonConvergence) as excinfo:
        integrate(lambda y: 1e308, (-1.0, 0.0, 1.0))
    assert excinfo.value.value == math.inf


def test_result_independent_of_panel_order():
    # every sum is an fsum, so mirroring the integrand, which reverses the order of the
    # panels and of each panel's nodes, gives the same bits
    f = lambda y: math.exp(-0.3 * y * y) * (1.0 + y) ** 2
    radius = truncation_radius(0.3, 1)
    line = (-radius, 0.0, radius)
    assert integrate(f, line, 1e-13) == integrate(lambda y: f(-y), line, 1e-13)


def _entropy_integrand(n, theta):
    """rho ln rho at omega = 1, even bit for bit: the density is evaluated at |y|."""
    density = density_evaluator(SpinorState(n, 1.0), theta)
    return lambda y: xlogx(density(abs(y)))


def _outcome(f, breakpoints, tol):
    """The repr of integrate's (value, err_estimate), or of NonConvergence's value and
    err_estimate: equal reprs are equal bits, the sign of a zero included."""
    try:
        return repr(integrate(f, breakpoints, tol))
    except NonConvergence as exc:
        return repr(("NonConvergence", exc.value, exc.err_estimate))


# (integrand, truncation radius): rho ln rho, and a cusp at the origin
EVEN_INTEGRANDS = {
    **{f"rho-ln-rho-n={n}-theta={theta:.4f}": (lambda n=n, theta=theta: (
        _entropy_integrand(n, theta), truncation_radius(1.0, n)))
       for n in (0, 3, 20, 64) for theta in (0.3, math.pi / 4, 0.0, math.pi / 2)},
    "cusp": lambda: (lambda y: math.exp(-abs(y)), 40.0),
}
# from one round (1e308, 10) to the retired panels' errors passing tol: at 1e-14 (n = 3, 20)
# while those of [0, R] alone are still below it, and at 1e-310 and 5e-324 in the first rounds
EVEN_TOLS = [1e308, 10.0, 1e-4, 1e-10, 1e-14, 1e-15, 1e-310, 5e-324]


@pytest.mark.parametrize("tol", EVEN_TOLS)
@pytest.mark.parametrize("make", EVEN_INTEGRANDS.values(), ids=EVEN_INTEGRANDS.keys())
def test_even_integral_has_the_full_lines_bits(make, tol):
    # twice an even f over [0, R], the entropy's integral: half the points, each at y >= 0 and
    # evaluated once, and the bits of f over [-R, 0, R], on success and in NonConvergence's
    # value and estimate alike (tol is never halved: tol/2 underflows to 0 at 5e-324)
    f, radius = make()
    full, half = [], []
    expected = _outcome(lambda y: full.append(y) or f(y), (-radius, 0.0, radius), tol)
    assert _outcome(lambda y: half.append(y) or 2.0 * f(y), (0.0, radius), tol) == expected
    assert len(half) == (len(full) + 1) // 2
    assert min(half) >= 0.0 and len(set(half)) == len(half)


def test_spec_validation():
    with pytest.raises(ValueError):
        integrate(math.exp, (-1.0, 0.0, -1.0))
    with pytest.raises(ValueError):
        integrate(math.exp, (-5.0, 0.0, 5.0), 0.0)


@pytest.mark.parametrize("breakpoints", [(), (1.0,), (0.0, 0.0), (1.0, 0.0), (0.0, 2.0, 1.0, 3.0),
                                         (-0.0, 0.0), iter([2.0])],
                         ids=["none", "one", "equal", "decreasing", "out-of-order", "signed-zeros",
                              "one-from-an-iterator"])
def test_integrate_refuses_breakpoints_that_do_not_strictly_increase(breakpoints):
    with pytest.raises(ValueError,
                       match="^breakpoints must be two or more strictly increasing numbers$"):
        integrate(math.exp, breakpoints)


@pytest.mark.parametrize("bad, error, message", [
    (math.inf, ValueError, "breakpoints must be finite"),
    (math.nan, ValueError, "breakpoints must be finite"),
    (10**400, ValueError, "breakpoints must be finite"),
    (Fraction(10**400, 3), ValueError, "breakpoints must be finite"),
    ("1", TypeError, "breakpoints must be a real number, not str"),
    (None, TypeError, "breakpoints must be a real number, not NoneType"),
], ids=["inf", "nan", "int-past-max", "Fraction-past-max", "text", "None"])
def test_integrate_takes_each_breakpoint_by_the_coordinate_rule(bad, error, message):
    # whichever place the bad entry holds, and before any integrand call
    calls = []
    for breakpoints in ((bad, 0.0, 1.0), (-1.0, bad, 1.0), (-1.0, 0.0, bad)):
        with pytest.raises(error, match=f"^{message}$"):
            integrate(lambda y: calls.append(y) or 1.0, breakpoints)
    assert calls == []


def test_a_first_round_of_several_panels():
    # a Gaussian over uneven first-round panels lands within its own estimate of the closed form
    omega = 0.7
    radius = truncation_radius(omega, 0, tail_tol=1e-16)
    value, err = integrate(lambda y: math.exp(-omega * y * y), (-radius, -1.3, 0.0, 2.1, radius),
                           1e-12)
    assert err <= 1e-12
    assert abs(value - math.sqrt(math.pi / omega)) <= err


def test_breakpoints_far_apart_stay_finite():
    # b_last - b_first overflows, but every center and half-width is formed from halves
    value, err = integrate(lambda y: 1e-300, (-1.5e308, 1.5e308), 1e-5)  # the floor: 3.3e-6
    assert value == pytest.approx(3e8, rel=1e-15) and err <= 1e-5


def test_truncation_radius_covers_gaussian_tail():
    R = truncation_radius(1.0, 0, tail_tol=1e-12)
    assert R >= 6.0
    # erfc oracle: the neglected two-sided tail of exp(-y^2)
    assert math.sqrt(math.pi) * math.erfc(R) < 1e-12


@pytest.mark.parametrize("theta", [0.0, math.pi / 4, math.pi / 2], ids=["0", "pi/4", "pi/2"])
@pytest.mark.parametrize("n, omega", [(0, 1.0), (1, 1.0), (8, 1.0), (32, 1.0), (MAX_LEVEL, 1.0),
                                      (MAX_LEVEL, 0.2), (MAX_LEVEL, 5.0)])
def test_truncation_radius_covers_the_entropic_density_of_its_level(n, omega, theta):
    # mpmath's rho ln rho of level n beyond R/2, the radius before its safety doubling, on
    # both sides, is below tail_tol: the radius takes the level and covers ln rho's degree itself
    def entropic(y):
        rho = mpmath_hermite.density(n, omega, theta, y)
        return abs(rho * mpmath.log(rho))

    for tail_tol in (1e-12, 1e-16):
        half = truncation_radius(omega, n, tail_tol) / 2.0
        with mpmath.workdps(15):
            assert 2.0 * mpmath.quad(entropic, [half, mpmath.inf]) <= tail_tol


def test_truncation_radius_scaling():
    R1 = truncation_radius(1.0, 0, tail_tol=1e-12)
    R02 = truncation_radius(0.2, 0, tail_tol=1e-12)
    assert R02 == pytest.approx(math.sqrt(5.0) * R1, rel=1e-12)


def test_truncation_radius_monotone_in_degree():
    assert truncation_radius(1.0, 3, tail_tol=1e-12) > truncation_radius(1.0, 0, tail_tol=1e-12)


def test_truncation_radius_validation():
    with pytest.raises(ValueError, match="^omega must be positive and finite$"):
        truncation_radius(0.0, 1)
    with pytest.raises(LevelError, match="^quantum number n must be an integer >= 0$"):
        truncation_radius(1.0, -1)
    # tail_tol is a positive real number, by the coordinate rule, before its bound is checked
    for tail_tol in ("1e-3", None):
        with pytest.raises(TypeError, match="^tail_tol must be a real number, not "):
            truncation_radius(1.0, 1, tail_tol)
    for tail_tol in (math.nan, math.inf, 10**400, 0, -1e-3):
        with pytest.raises(ValueError, match="^tail_tol must be positive and finite$"):
            truncation_radius(1.0, 1, tail_tol=tail_tol)
    for tail_tol in (1, 1.0, 2.0, 1e300):
        with pytest.raises(ValueError, match="^tail_tol must be less than 1$"):
            truncation_radius(1.0, 1, tail_tol=tail_tol)


def test_xlogx_conventions():
    assert xlogx(0.0) == 0.0
    assert xlogx(1.0) == 0.0
    assert xlogx(math.e) == pytest.approx(math.e, rel=1e-15)


def test_xlogx_rejects_negative():
    with pytest.raises(ValueError):
        xlogx(-1e-12)
    with pytest.raises(ValueError):  # a nan is no v >= 0 either
        xlogx(math.nan)


def test_xlogx_scalar_types():
    assert xlogx(np.float64(0.5)) == xlogx(0.5) == 0.5 * math.log(0.5)
    assert xlogx(np.array(0.5)) == xlogx(0.5)
    assert xlogx(1) == 0.0 and isinstance(xlogx(2), float)


@pytest.mark.parametrize("omega", [1e-306, 1e-307, 1e-320, 5e-324])
def test_truncation_radius_finite_at_tiny_omega(omega):
    # sqrt(W/omega) overflows below ~1e-306; the radius follows R_1/sqrt(omega) there
    radius = truncation_radius(omega, 2)
    assert math.isfinite(radius)
    assert radius == pytest.approx(truncation_radius(1.0, 2) / math.sqrt(omega), rel=1e-15)
