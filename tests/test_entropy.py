import json
import math
import sys
from pathlib import Path

import pytest

import majorana_lab.entropy as entropy_mod
import majorana_lab.spinor as spinor_mod
from cli_runner import invoke
from direct_entropy import direct_entropy
from mpmath_entropy import mpmath_unit_entropy
from majorana_lab.common import MAX_LEVEL, BoundViolation, linspace
from majorana_lab.entropy import BBM_BOUND, DEFAULT_THETA, bbm_reports
from majorana_lab.quadrature import xlogx
from majorana_lab.spinor import SpinorState, density_evaluator

QUARTER = math.pi / 4
# float.hex of (S_1, error estimate) from _unit_entropy, recorded before the mirrored
# (even-rho) integrand: "tol_1e-10" maps repr(theta) to the 65 levels n = 0..64, and
# "other_tols" lists [n, theta, tol, value, err]
S1_BITS = json.loads((Path(__file__).parent / "unit_entropy_bits.json").read_text())


def gaussian_entropy_position(omega):
    """Analytic entropy of the n = 0 density, no quadrature involved."""
    return 0.5 * (1.0 + math.log(math.pi / omega))


def gaussian_entropy_momentum(omega):
    return 0.5 * (1.0 + math.log(math.pi * omega))


@pytest.mark.parametrize("omega", [0.05, 0.2, 1.0, 2.5, 5.0])
def test_ground_state_closed_form(omega):
    rep, = bbm_reports(0, (omega,))
    assert abs(rep.S_y - gaussian_entropy_position(omega)) < 1e-8
    assert abs(rep.S_p - gaussian_entropy_momentum(omega)) < 1e-8


def test_reference_rows():
    # reference five-decimal values for theta = pi/4
    ground, = bbm_reports(0, (0.2,))
    assert ground.S_y == pytest.approx(1.87708, abs=2e-4)
    assert ground.S_p == pytest.approx(0.26765, abs=2e-4)
    assert bbm_reports(1, (0.2,), QUARTER)[0].S_y == pytest.approx(2.19246, abs=2e-4)
    assert bbm_reports(3, (0.8,), QUARTER)[0].S_p == pytest.approx(1.61135, abs=2e-4)
    assert bbm_reports(2, (0.4,), QUARTER)[0].sum == pytest.approx(3.18469, abs=2e-4)


@pytest.mark.parametrize("theta", [QUARTER - 0.2, QUARTER, QUARTER + 0.2, 0.0, math.pi / 2])
def test_entropy_certified_for_every_level(theta):
    pins = S1_BITS["tol_1e-10"][repr(theta)]
    for n in range(65):
        value, err = entropy_mod._unit_entropy(n, theta, 1e-10)
        assert err <= 1e-10, n
        assert [value.hex(), err.hex()] == pins[n], n  # bit for bit, value and error


def test_theta_endpoints_give_the_same_density_one_level_apart():
    # at theta = 0 level n has density phi_{n-1}^2 exactly (sin 0 = 0, cos 0 = 1); at pi/2
    # level n - 1 has it too, up to a cos^2(pi/2) ~ 3.7e-33 weight: the pinned values agree
    # within the sum of their error estimates, with no quadrature run here
    at_0, at_half_pi = S1_BITS["tol_1e-10"][repr(0.0)], S1_BITS["tol_1e-10"][repr(math.pi / 2)]
    for n in range(1, 65):
        s_0, err_0 = map(float.fromhex, at_0[n])
        s_half_pi, err_half_pi = map(float.fromhex, at_half_pi[n - 1])
        assert abs(s_0 - s_half_pi) <= err_0 + err_half_pi, n


@pytest.mark.parametrize("n, theta, tol, value, err", S1_BITS["other_tols"])
def test_unit_entropy_bits_at_other_tols(n, theta, tol, value, err):
    assert [x.hex() for x in entropy_mod._unit_entropy(n, theta, tol)] == [value, err]


@pytest.mark.parametrize("n, theta", [(0, QUARTER), (5, 0.3), (17, 0.0), (64, QUARTER)])
def test_integral_sweeps_the_recurrence_once_per_half_line_point(monkeypatch, n, theta):
    # rho is even, so the integral evaluates it at y >= 0 only, each point once: of the P points
    # of the same rule over the whole line, at most the (P + 1)/2 mirror pairs and the origin
    points, sweeps = [], []
    make_pair, integrate = spinor_mod.hermite_pair_evaluator, entropy_mod.integrate

    def counted_pair(n, omega):
        pair = make_pair(n, omega)
        return lambda y: sweeps.append(y) or pair(y)

    with monkeypatch.context() as patch:
        patch.setattr(spinor_mod, "hermite_pair_evaluator", counted_pair)
        half_line = entropy_mod._unit_entropy(n, theta, 1e-10)
    # the whole line (even dropped): the integrand at every point, the density even bit for bit
    monkeypatch.setattr(entropy_mod, "integrate", lambda f, *args, **kw: integrate(
        lambda y: points.append(y) or f(abs(y)), *args))
    assert entropy_mod._unit_entropy(n, theta, 1e-10) == half_line
    assert points and len(sweeps) <= (len(points) + 1) / 2
    assert min(sweeps) >= 0.0 and len(set(sweeps)) == len(sweeps)


@pytest.mark.parametrize("theta", [0.0, math.pi / 2])
@pytest.mark.parametrize("n", [20, 30, 40, 64])
def test_theta_endpoint_entropy_converges(n, theta):
    # one component vanishes at theta = 0 or pi/2, so rho has double zeros
    value, err = entropy_mod._unit_entropy(n, theta, 1e-10)
    assert err <= 1e-10
    assert value == pytest.approx(float(mpmath_unit_entropy(n, theta)), abs=1e-9)


def mixture_bracket(n, theta, tol):
    """(lower, S_1(n, theta), upper): the mixture inequalities, widened by every error estimate.

    rho = p phi_n^2 + (1 - p) phi_{n-1}^2 with p = sin^2 theta, and the two components are the
    densities at theta = pi/2 and 0.  Entropy is concave, and a mixture gains at most the entropy
    H(p) of its weights (Cover and Thomas, ch. 2 and 8), so the mix of the endpoint entropies is a
    lower bound and the mix plus H(p) an upper one.  The endpoints are taken at tol 1e-10.
    """
    p = math.sin(theta) ** 2
    s_up, err_up = entropy_mod._unit_entropy(n, math.pi / 2, 1e-10)
    s_down, err_down = entropy_mod._unit_entropy(n, 0.0, 1e-10)
    s_1, err = entropy_mod._unit_entropy(n, theta, tol)
    mix = p * s_up + (1 - p) * s_down
    slack = p * abs(err_up) + (1 - p) * abs(err_down) + abs(err)
    h_p = -p * math.log(p) - (1 - p) * math.log1p(-p)
    return mix - slack, s_1, mix + h_p + slack


def test_entropy_lies_in_the_mixture_bracket():
    # 48 cells of the n = 1..64 x theta = i pi/96 grid; the tightest margins here are 7.8e-4
    # below and 7.4e-3 above, the same as on a 264-cell grid
    for n in range(1, 65, 9):
        for i in range(1, 48, 8):
            lower, s_1, upper = mixture_bracket(n, i * math.pi / 96, 1e-10)
            assert lower <= s_1 <= upper, (n, i)


def test_coarse_entropy_lies_in_the_mixture_bracket():
    # one round at tol 10: its panels must catch the density's mass (S_1 = 1.4185 with an
    # estimate of 2.23, against mpmath's 1.41397 and an endpoint mix of 1.356)
    lower, s_1, upper = mixture_bracket(2, 0.3, 10.0)
    assert lower <= s_1 <= upper


@pytest.mark.parametrize("n", range(6))
def test_scaling_law(n):
    # the library's S_1 -/+ ln(omega)/2 against -integral(rho ln rho) at omega itself;
    # each integral is certified to 1e-10
    for rep in bbm_reports(n, (0.01, 0.2, 0.7, 1.4, 100.0)):
        assert rep.S_y == pytest.approx(direct_entropy(n, rep.omega, DEFAULT_THETA, "position"), abs=1e-9)
        assert rep.S_p == pytest.approx(direct_entropy(n, rep.omega, DEFAULT_THETA, "momentum"), abs=1e-9)


def test_sum_invariant_under_scaling():
    total = bbm_reports(1, (0.15,))[0].sum
    for omega in (0.01, 0.15, 0.6, 100.0):
        direct = (direct_entropy(1, omega, DEFAULT_THETA, "position")
                  + direct_entropy(1, omega, DEFAULT_THETA, "momentum"))
        assert total == pytest.approx(direct, abs=2e-9)


@pytest.mark.parametrize("omega", [1e-100, 1e-12, 1e12, 1e100])
def test_ground_state_exact_at_extreme_omega(omega):
    # the ln(omega)/2 shift is exact, so the only error left is S_1's and one rounding
    rep, = bbm_reports(0, (omega,))
    for value, exact in ((rep.S_y, gaussian_entropy_position(omega)),
                         (rep.S_p, gaussian_entropy_momentum(omega))):
        assert abs(value - exact) <= 2e-15 + 2.0**-52 * abs(exact)


@pytest.mark.parametrize("n", range(4))
@pytest.mark.parametrize("theta", [0.3, DEFAULT_THETA])
def test_sum_bitwise_independent_of_omega(n, theta):
    # one call per omega, each with its own quadrature
    sums = {bbm_reports(n, (omega,), theta)[0].sum for omega in (1e-100, 0.01, 0.2, 1.0, 100.0, 1e100)}
    assert len(sums) == 1


def test_default_table1_makes_four_integrals(monkeypatch):
    # one per level n = 0..3, shared by the three omegas and both spaces, in every run: a
    # second run in the same process makes its own four, none served from an earlier one
    calls = []
    integrate = entropy_mod.integrate

    def counted(f, *args, **kw):
        calls.append(args)
        return integrate(f, *args, **kw)

    monkeypatch.setattr(entropy_mod, "integrate", counted)
    for runs in (1, 2):
        result = invoke(["table1"])
        assert result.exit_code == 0, result.output
        assert len(calls) == 4 * runs


@pytest.mark.parametrize("n, theta", [(0, QUARTER), (5, 0.3), (64, 0.0)])
def test_bbm_reports_are_the_single_reports(n, theta):
    # one quadrature for every omega, a repeated one included, gives each report's bits
    omegas = (1e-100, 0.2, 1.0, 0.2, 5e-324, 1e300)
    reports = bbm_reports(n, omegas, theta)
    assert [r.omega for r in reports] == list(omegas)
    assert repr(reports) == repr([bbm_reports(n, (omega,), theta)[0] for omega in omegas])
    assert bbm_reports(n, (), theta) == []


@pytest.mark.parametrize("tol", [10.0, 0.1])
def test_loose_tol_raises_no_false_violation(tol):
    # a loose tol ends the quadrature in its first rounds, whose panels must still catch the
    # density's mass: a first panel over all of [-R, R] missed it in 15 cells at 10, 6 at 0.1
    for n in range(MAX_LEVEL + 1):
        for theta in (0.0, 0.3, math.pi / 4, math.pi / 2):
            bbm_reports(n, (1.0,), theta, tol)


def test_bbm_reports_violation_names_the_first_omega(monkeypatch):
    monkeypatch.setattr(entropy_mod, "_unit_entropy", lambda n, theta, tol: (0.1, 0.0))
    with pytest.raises(BoundViolation, match=r" for n=2, omega=1\.0, theta=0\.3$"):
        bbm_reports(2, (1.0, 2.0), 0.3, 10.0)


@pytest.mark.parametrize("omega", [0.05, 0.3, 1.0, 2.2, 5.0])
def test_ground_state_saturates_bound(omega):
    assert abs(bbm_reports(0, (omega,))[0].sum - BBM_BOUND) < 1e-8


@pytest.mark.parametrize("theta", [0.0, 1.0, math.pi / 2])
def test_ground_state_theta_independent(theta):
    assert bbm_reports(0, (0.4,), theta)[0].S_y == pytest.approx(bbm_reports(0, (0.4,), QUARTER)[0].S_y,
                                                                 abs=1e-12)


def test_entropy_grows_with_level():
    reports = [bbm_reports(n, (0.4,), QUARTER)[0] for n in range(4)]
    s_y, s_p = [r.S_y for r in reports], [r.S_p for r in reports]
    assert all(a < b for a, b in zip(s_y, s_y[1:]))
    assert all(a < b for a, b in zip(s_p, s_p[1:]))


@pytest.mark.parametrize("n", range(5))
@pytest.mark.parametrize("omega", [0.2, 0.8, 1.9])
def test_bbm_bound_holds(n, omega):
    assert bbm_reports(n, (omega,))[0].sum >= BBM_BOUND - 1e-6


def test_entropic_density_zero_at_nodes():
    omega = 0.4
    node = 1.0 / math.sqrt(2.0 * omega)  # root of H_2(sqrt(omega) y)
    assert abs(xlogx(density_evaluator(SpinorState(2, omega), math.pi / 2, "position")(node))) < 1e-12


def test_entropic_density_zero_where_density_is_one():
    # n = 0, omega = pi: rho(0) = sqrt(omega/pi) = 1, so rho ln rho = 0 exactly
    assert xlogx(density_evaluator(SpinorState(0, math.pi), 0.3, "position")(0.0)) == 0.0


def test_entropic_density_ground_state_value():
    rho0 = math.sqrt(0.2 / math.pi)
    rho_ln_rho = xlogx(density_evaluator(SpinorState(0, 0.2), 0.0, "position")(0.0))
    assert rho_ln_rho == pytest.approx(rho0 * math.log(rho0), rel=1e-12)


def test_entropic_density_sign_convention():
    # the report integrates MINUS this quantity; pointwise it is rho ln rho
    density = density_evaluator(SpinorState(1, 0.2), QUARTER, "position")
    for y in linspace(-3, 3, 11):
        assert xlogx(density(y)) <= 0.0, y  # densities < 1 here
    assert bbm_reports(1, (0.2,), QUARTER)[0].S_y > 0.0


def test_report_fields():
    rep, = bbm_reports(2, (0.4,))
    assert rep.n == 2 and rep.omega == 0.4
    assert rep.theta == DEFAULT_THETA
    assert rep.sum == 2.0 * bbm_reports(2, (1.0,))[0].S_y  # 2 S_1: at omega = 1, S_y = S_1 exactly
    assert rep.sum == pytest.approx(rep.S_y + rep.S_p, rel=2 * sys.float_info.epsilon, abs=0.0)
    assert rep.bbm_bound == BBM_BOUND
    assert 0.0 <= rep.quad_err < 1e-8


@pytest.mark.parametrize("call, message", [
    (lambda: bbm_reports(0, (0.0,)), "omega must be positive and finite"),
    (lambda: bbm_reports(0, (math.inf,)), "omega must be positive and finite"),
    (lambda: bbm_reports(0, (math.nan,)), "omega must be positive and finite"),
    (lambda: bbm_reports(0, (1.0, math.inf)), "omega must be positive and finite"),
    (lambda: bbm_reports(True, (0.5,)), "n must be an integer >= 0"),
    (lambda: bbm_reports(1, (1.0,), theta=math.nan), "theta must be finite"),
    (lambda: bbm_reports(1, (1.0,), theta=math.inf), "theta must be finite"),
    (lambda: bbm_reports(1, (1.0,), tol=math.inf), "target_abs_tol must be positive and finite"),
    (lambda: bbm_reports(1, (0.2,), tol=math.nan), "target_abs_tol must be positive and finite"),
], ids=["position-omega-0", "momentum-omega-inf", "report-omega-nan", "reports-second-omega-inf",
        "report-bool-level", "report-theta-nan", "position-theta-inf", "report-tol-inf",
        "report-tol-nan"])
def test_bad_arguments_raise_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_bound_violation_raised(monkeypatch):
    def fake_integral(n, theta, tol):
        return 0.1, 0.0

    monkeypatch.setattr(entropy_mod, "_unit_entropy", fake_integral)
    with pytest.raises(BoundViolation):
        entropy_mod.bbm_reports(0, (1.0,))


def test_bound_violation_needs_the_whole_certified_interval_below_the_bound():
    # one quadrature round meets tol = 10: the sum is under the bound, its error bar is not
    report, = bbm_reports(0, (1.0,), tol=10.0)
    assert report.sum < BBM_BOUND < report.sum + report.quad_err
    assert report.quad_err <= 2 * 10.0
