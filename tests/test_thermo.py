import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from mpmath_thermo import HAND_OVER, direct_sum, fields, moments, series

from majorana_lab.common import NonConvergence, OutOfRange, PhysicalConstants, over_product
from majorana_lab.thermo import (
    EM_PARAMETER_RANGE,
    EnsembleParams,
    moment_sums,
    report,
    thermo_sweep,
)


# 258 couplings c hbar k beta^2 from 1e-300 to 1.8e149, 7/4 of a decade apart
X_GRID = [10.0 ** (j / 4) for j in range(-1200, 601, 7)]


# ---------------------------------------------------------------- partition function


def test_partition_em_values():
    assert report(EnsembleParams(beta=1.0, k=1.0)).Z_em == pytest.approx(1.5, rel=1e-15)
    assert report(EnsembleParams(beta=2.0, k=0.01)).Z_em == pytest.approx(25.5, rel=1e-15)
    # beta -> inf limit of the closed form is 1/2 (not the exact series' 1)
    assert report(EnsembleParams(beta=1e6, k=1.0)).Z_em == pytest.approx(0.5, abs=1e-10)


def test_partition_exact_ground_state_limit():
    (z, _, _), _, tail = moment_sums(EnsembleParams(beta=1e3, k=0.5), tol=1e-10)
    assert z == pytest.approx(1.0, abs=1e-12)
    assert tail < 1e-10


def test_partition_exact_matches_brute_force():
    ep = EnsembleParams(beta=1.0, k=1.0)
    (z, _, _), trunc_n, tail = moment_sums(ep, tol=1e-10)
    assert z == pytest.approx(float(direct_sum(1.0)[0]), abs=1e-10)
    assert z == pytest.approx(1.7223573172376996, abs=1e-9)
    assert tail < 1e-10 and trunc_n >= 1


def test_partition_exact_weak_coupling():
    ep = EnsembleParams(beta=0.1, k=0.01)
    (z, _, _), _, _ = moment_sums(ep, tol=1e-10)
    assert z == pytest.approx(float(moments(0.01, 0.1, 0.1)[0]), abs=1e-8)
    assert z == pytest.approx(10000.502931634, abs=1e-6)
    assert abs(report(ep).Z_em - z) / z < 0.01


@pytest.mark.parametrize("x", [1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
def test_closed_form_misses_the_next_two_series_terms(x):
    # Z = 1/x + 1/2 - zeta(-1/2) lam - x/12 + a_3 lam^3 + O(lam^5), lam = sqrt(2 x), so the
    # closed form's error is the next two terms, up to |a_3| lam^3 = |zeta(-3/2)| lam^3 / 6
    rep = report(EnsembleParams(beta=1.0, k=x))
    lam = math.sqrt(2.0 * x)
    two_terms = -float(mpmath.zeta(-0.5)) * lam - x / 12
    third = abs(float(mpmath.zeta(-1.5))) * lam**3 / 6
    assert abs(rep.Z_exact - rep.Z_em - two_terms) <= third + 4 * math.ulp(1 / x)


@pytest.mark.parametrize("x", [20.0, HAND_OVER, 45.0])
def test_oracle_series_meets_its_direct_sum_at_the_hand_over(x):
    # the zeta series serves x <= HAND_OVER and the direct sum above it: both agree on either side
    for s, d in zip(series(x), direct_sum(x)):
        assert abs(s - d) <= 1e-30 * d


@pytest.mark.parametrize("x", X_GRID)
def test_moment_pass_weak_coupling_matches_mpmath(x):
    # the moments and report's Z, U and C_V against the 40-digit oracle, from the closed form's
    # regime (x = 1e-6 needs more than 1e8 plain terms) to where t_1 underflows.  beta = 1/2 and
    # k = 4 x keep x exact and make lam = beta sqrt(2 k) the double sqrt(2 x), the one input of
    # the sums; the oracle takes that lam, since its rounding alone moves t_1 by lam ulps
    ep = EnsembleParams(beta=0.5, k=4.0 * x, N=3)
    t, trunc_n, bound = moment_sums(ep, tol=1e-10)
    rep = report(ep, tol=1e-10)
    lam = math.sqrt(2.0 * x)
    oracle = moments(lam, lam, 0.5)
    z, _, u, _, cv = fields(oracle, ep.beta, ep.N)
    # measured over X_GRID: at most 2.2e-16 relative for t_0, t_1, t_2, Z and U, 7.5e-16 for C_V
    rel_tols = (1e-15,) * 5 + (3e-15,)
    for got, want, rel in zip((*t, rep.Z_exact, rep.U_exact, rep.C_V_exact), (*oracle, z, u, cv), rel_tols):
        if abs(want) >= sys.float_info.min:
            assert abs(got - want) <= rel * abs(want), (got, want)
        else:  # below the normal range a double has fewer bits: it must not be normal either
            assert abs(got) < sys.float_info.min, (got, want)
    if x == 1e-6:
        assert t[0] == pytest.approx(1_000_000.50029, abs=1e-5)
    assert trunc_n == 200 and 0.0 <= bound <= 1e-10
    assert (rep.truncation_n, rep.tail_bound) == (trunc_n, bound)


def test_partition_budget_exhaustion():
    # The Euler-Maclaurin remainder bound meets any tolerance above double
    # precision at M = 200, so only a tolerance far below it is refused.
    ep = EnsembleParams(beta=1e-4, k=0.5)
    with pytest.raises(NonConvergence) as excinfo:
        moment_sums(ep, tol=1e-300)
    (z, _, _), _, bound = moment_sums(ep)
    assert excinfo.value.value > 0.0
    assert excinfo.value.value == z  # the M = 200 sum
    assert excinfo.value.err_estimate == bound > 1e-300  # its bound


def test_bound_at_200_terms_is_below_double_rounding_for_every_coupling():
    # below 1e-3 of half an ulp of each sum, so no larger M could move a double, and the M = 200
    # sum that NonConvergence carries as its value is as good as a double gets
    for j in range(-1200, 601):  # c hbar k beta^2 from 1e-300 to 1e150 in steps of 10^(1/4)
        t, m, bound = moment_sums(EnsembleParams(beta=1.0, k=10.0 ** (j / 4)), tol=1.0)
        assert m == 200 and 0.0 <= bound <= 1.6e-19
        for t_p in t:
            assert bound <= 1e-3 * math.ulp(t_p) / 2, (j, t)


def test_moment_sums_where_2_c_hbar_k_overflows():
    # c hbar k beta^2 = 1 with 2 c hbar k = inf: lam is finite, not nan
    t, m, bound = moment_sums(EnsembleParams(beta=1e-154, k=1e308))
    want, _, _ = moment_sums(EnsembleParams(beta=1.0, k=1.0))
    assert m == 200 and 0.0 <= bound <= 1e-10
    for got, t_p in zip(t, want):
        assert got == pytest.approx(t_p, rel=1e-15)


def rescaled(beta, k, j):
    """(beta 2^j, k 2^-2j): the same lam = beta sqrt(2 k), exactly."""
    return math.ldexp(beta, j), math.ldexp(k, -2 * j)


def test_sums_depend_on_beta_and_k_only_through_lam_where_2_k_overflows():
    # k in [2^1023, max]: 2 k overflows, while the rescaled k 2^-2j (j >= 1) does not
    rng = np.random.default_rng(27)
    for u, log_x, j in zip(rng.uniform(0.5, 1.0, 2000).tolist(),
                           rng.uniform(-290.0, 140.0, 2000).tolist(),
                           rng.integers(1, 500, 2000, endpoint=True).tolist()):
        k = math.ldexp(u, 1024)
        beta = math.sqrt(10.0 ** log_x) / math.sqrt(k)  # c hbar k beta^2 = 10^log_x, in range
        assert 2.0 * k == math.inf
        want = moment_sums(EnsembleParams(*rescaled(beta, k, j)))
        assert moment_sums(EnsembleParams(beta, k)) == want, (beta, k, j)


def test_sums_depend_on_beta_and_k_only_through_lam_across_the_normal_range():
    rng = np.random.default_rng(27)
    lo, hi = EM_PARAMETER_RANGE
    cases = 0
    for log_beta, log_k, j in zip(rng.uniform(-150.0, 150.0, 4000).tolist(),
                                  rng.uniform(-300.0, 300.0, 4000).tolist(),
                                  rng.integers(-200, 200, 4000, endpoint=True).tolist()):
        beta, k = 10.0**log_beta, 10.0**log_k
        # x = c hbar k beta^2 in range, and beta 2^j and 2 k 2^-2j normal floats
        if not (lo < k * beta**2 < hi and abs(math.log2(beta) + j) < 1000
                and abs(math.log2(2.0 * k) - 2 * j) < 1000):
            continue
        cases += 1
        want = moment_sums(EnsembleParams(*rescaled(beta, k, j)))
        assert moment_sums(EnsembleParams(beta, k)) == want, (beta, k, j)
    assert cases > 2000  # of 4000 draws, about 2200 pass the filter


@pytest.mark.parametrize("beta, k, c, hbar, x", [
    (1e-100, 1e200, 1e100, 1e10, 1e110),
    (1e150, 1.0, 1e-200, 1e-200, 1e-100),
], ids=["c_hbar_k-overflows", "c_hbar_k-underflows"])
def test_ensemble_where_only_c_hbar_k_leaves_the_float_range(beta, k, c, hbar, x):
    # x = c hbar k beta^2 is in range, so the ensemble is the natural-units one at beta = 1, k = x
    ep = EnsembleParams(beta=beta, k=k, pc=PhysicalConstants(c=c, hbar=hbar))
    assert ep.em_parameter == pytest.approx(x, rel=1e-15)
    assert moment_sums(ep) == moment_sums(EnsembleParams(beta=1.0, k=ep.em_parameter))
    assert all(map(math.isfinite, report(ep)))


@pytest.mark.parametrize("beta, k, c, hbar", [
    (5.634361698190516e161, 1e-298, 3e8, 1.05e-34),  # c hbar k = 3.15e-324 is subnormal
    (1e-10, 1e150, 1e-160, 1e-160),  # c hbar = 1e-320 is subnormal, c hbar k = 1e-170 is not
], ids=["c_hbar_k-subnormal", "c_hbar-subnormal"])
def test_report_where_a_plain_product_of_the_constants_is_subnormal(beta, k, c, hbar):
    # the same report as in natural units at the same c hbar k beta^2, with F and U per 1/beta
    ep = EnsembleParams(beta=beta, k=k, pc=PhysicalConstants(c=c, hbar=hbar))
    exact = Fraction(c) * Fraction(hbar) * Fraction(k) * Fraction(beta) ** 2
    assert ep.em_parameter == pytest.approx(float(exact), rel=1e-15, abs=0.0)
    got, want = report(ep), report(EnsembleParams(beta=1.0, k=ep.em_parameter))
    for field in ("Z_exact", "Z_em", "S", "C_V", "S_exact", "C_V_exact", "F", "U", "F_exact",
                  "U_exact"):
        scale = beta if field[0] in "FU" else 1.0
        assert getattr(got, field) * scale == pytest.approx(getattr(want, field), rel=1e-13,
                                                            abs=0.0), field


TINY_C_HBAR = PhysicalConstants(c=1e-200, hbar=1e-200)  # c hbar underflows to 0


@pytest.mark.parametrize("take", [
    lambda: moment_sums(EnsembleParams(beta=1.0, k=1.0, pc=TINY_C_HBAR)),
    lambda: report(EnsembleParams(beta=1.0, k=1.0, pc=TINY_C_HBAR)),
    lambda: report(EnsembleParams(beta=1e100, k=1e-10)),
    lambda: report(EnsembleParams(beta=1.0, k=1e160)),
    lambda: report(EnsembleParams(beta=1e-160, k=1e-10)),
    lambda: report(EnsembleParams(beta=1e200, k=1e200)),
], ids=["moment_sums-c_hbar-underflows", "report-c_hbar-underflows", "report-beta=1e100-k=1e-10",
        "report-beta=1-k=1e160", "report-beta=1e-160-k=1e-10", "report-beta=1e200-k=1e200"])
def test_every_ensemble_function_refuses_couplings_out_of_range(take):
    # EnsembleParams refuses a coupling out of EM_PARAMETER_RANGE, so no function is handed one
    with pytest.raises(OutOfRange) as excinfo:
        take()
    assert excinfo.value.param == "em_parameter"


def test_partition_monotone_in_beta_and_k():
    betas = [0.2, 0.5, 1.0, 2.0]
    zs = [moment_sums(EnsembleParams(beta=b, k=0.4))[0][0] for b in betas]
    assert all(a > b for a, b in zip(zs, zs[1:]))
    ks = [0.1, 0.4, 1.0, 3.0]
    zs = [moment_sums(EnsembleParams(beta=0.7, k=k))[0][0] for k in ks]
    assert all(a > b for a, b in zip(zs, zs[1:]))


# ---------------------------------------------------------------- closed-form functions


def test_mean_energy_carries_particle_count():
    assert report(EnsembleParams(beta=1.0, k=1.0, N=3)).U == pytest.approx(4.0, rel=1e-14)


def test_mean_energy_matches_numeric_derivative_of_em():
    ep = EnsembleParams(beta=0.8, k=0.3, N=2)
    h = ep.beta * 1e-6
    lnz = lambda b: ep.N * math.log(report(ep._replace(beta=b)).Z_em)
    numeric = -(lnz(ep.beta + h) - lnz(ep.beta - h)) / (2 * h)
    assert report(ep).U == pytest.approx(numeric, rel=1e-8)


def test_entropy_closed_form_is_f_derivative():
    ep = EnsembleParams(beta=0.6, k=0.5, N=2)
    h = ep.beta * 1e-6
    dfdb = (report(ep._replace(beta=ep.beta + h)).F - report(ep._replace(beta=ep.beta - h)).F) / (2 * h)
    assert report(ep).S == pytest.approx(ep.pc.k_B * ep.beta**2 * dfdb, rel=1e-8)


@pytest.mark.parametrize("k", [0.2, 0.4, 0.8])
@pytest.mark.parametrize("T", [0.1, 0.5, 1.0, 4.0, 10.0])
def test_f_plus_ts_equals_u(k, T):
    pc = PhysicalConstants(k_B=1.7)
    ep = EnsembleParams(beta=1.0 / (pc.k_B * T), k=k, N=4, pc=pc)
    rep = report(ep)
    f, u, s = rep.F, rep.U, rep.S
    assert abs(f + T * s - u) <= 1e-12 * max(1.0, abs(f), abs(u), abs(T * s))


def test_heat_capacity_limits():
    high_t = report(EnsembleParams(beta=1e-3, k=1.0, N=2)).C_V
    assert abs(high_t / 2.0 - 2.0) < 1e-3
    low_t = report(EnsembleParams(beta=1e3, k=1.0)).C_V
    assert 0.0 < low_t < 1e-4


def test_heat_capacity_positive():
    for k in (0.2, 0.8):
        for T in np.linspace(0.1, 10.0, 12):
            assert report(EnsembleParams(beta=1.0 / T, k=k)).C_V > 0.0


# ---------------------------------------------------------------- exact route


@pytest.mark.parametrize("k", [1.0, 0.5])
def test_exact_mode_matches_closed_forms_at_weak_coupling(k):
    rep = report(EnsembleParams(beta=0.1, k=k, N=2))  # c hbar k beta^2 <= 0.01
    assert abs(rep.U_exact - rep.U) / rep.U < 0.01
    assert abs(rep.C_V_exact - rep.C_V) / rep.C_V < 0.01
    assert abs(rep.F_exact - rep.F) / abs(rep.F) < 0.01


def test_exact_entropy_identity():
    ep = EnsembleParams(beta=0.5, k=0.3, N=2)
    rep = report(ep)
    assert rep.S_exact == pytest.approx(ep.pc.k_B * ep.beta * (rep.U_exact - rep.F_exact), rel=1e-12)


def test_report_invariants():
    rep = report(EnsembleParams(beta=0.5, k=0.4, N=2), tol=1e-10)
    assert rep.Z_exact >= 1.0
    assert rep.tail_bound < 1e-10
    assert rep.C_V > 0.0 and rep.C_V_exact > 0.0
    assert rep.T == pytest.approx(2.0, rel=1e-14)


# ---------------------------------------------------------------- sweeps


def test_sweep_order_and_exact_monotonicity():
    ts = np.linspace(0.5, 8.0, 12)
    rows = thermo_sweep(k_values=(0.4, 0.8), T_values=ts, N=1)
    assert len(rows) == 24
    assert [r.k for r in rows[:12]] == [0.4] * 12
    assert rows[0].T == pytest.approx(0.5) and rows[11].T == pytest.approx(8.0)
    for block in (rows[:12], rows[12:]):
        f = [r.F_exact for r in block]
        u = [r.U_exact for r in block]
        assert all(a > b for a, b in zip(f, f[1:]))
        assert all(a < b for a, b in zip(u, u[1:]))
    assert thermo_sweep((), (1.0,)) == thermo_sweep((0.5,), ()) == []  # an empty grid


def test_sweep_em_agrees_where_valid():
    ts = np.linspace(5.0, 10.0, 6)  # c hbar k beta^2 <= 0.008 for k = 0.2
    for row in thermo_sweep(k_values=(0.2,), T_values=ts, N=1):
        assert abs(row.Z_em - row.Z_exact) / row.Z_exact < 0.01
        assert abs(row.U - row.U_exact) / abs(row.U_exact) < 0.01


@pytest.mark.parametrize("T_values, T_bad", [
    ([1e-80, 1.0], 1e-80),  # c hbar k beta^2 above the range at the first T
    ([1.0, 2.0, 1e160], 1e160),  # below it at the last
    ([1.0, 5e-324], 5e-324),  # beta = 1/T overflows
    ([1.0, -1.0], -1.0),
    ([1.0, 0.0], 0.0),  # beta = 1/T is not formed
])
def test_sweep_rejects_temperatures_out_of_range(T_values, T_bad):
    with pytest.raises(OutOfRange) as excinfo:
        thermo_sweep(k_values=(0.2, 0.5), T_values=T_values)
    assert (excinfo.value.param, excinfo.value.value) == ("T", T_bad)
    lo, hi = EM_PARAMETER_RANGE
    want = "T must be positive and finite" if T_bad <= 0.0 else f"out of [{lo:g}, {hi:g}]"
    assert want in str(excinfo.value)


@pytest.mark.parametrize("T", [-1.0, 0.0, -0.0, -5e-324, -1e308])
def test_sweep_refuses_a_temperature_that_is_not_positive(T):
    # c hbar k beta^2 would be 1 at k = 1, T = -1: the refusal is of the sign, worded as the
    # input rule words a positive parameter, and it names the first such T with its sign
    with pytest.raises(OutOfRange) as excinfo:
        thermo_sweep((1.0,), (1.0, T, -2.0))
    assert excinfo.value.param == "T" and str(excinfo.value) == "T must be positive and finite"
    assert math.copysign(1.0, excinfo.value.value) == math.copysign(1.0, T)
    assert excinfo.value.value == T


def test_sweep_rejects_fields_past_the_float_range():
    # c hbar k beta^2 = 1 is in range, but k_B = 1e308 carries S and C_V past it
    pc = PhysicalConstants(k_B=1e308)
    with pytest.raises(OutOfRange) as excinfo:
        thermo_sweep(k_values=(1.0,), T_values=(1e-308,), pc=pc)
    assert excinfo.value.param == "N"
    assert "k_B=1e+308 with N=1" in str(excinfo.value)


def test_report_refuses_fields_past_the_float_range():
    # the same rule holds for a report made directly, not only within a sweep
    with pytest.raises(OutOfRange) as excinfo:
        report(EnsembleParams(1.0, 1.0, pc=PhysicalConstants(k_B=1e308)))
    assert excinfo.value.param == "N"
    assert "k_B=1e+308 with N=1" in str(excinfo.value)


def test_report_refuses_a_temperature_past_the_float_range():
    # k_B beta underflows to 0, so T = 1/(k_B beta) is inf, while the coupling is in range
    ep = EnsembleParams(1e-150, 1.0, pc=PhysicalConstants(k_B=1e-300))
    assert over_product(1.0, ep.pc.k_B, ep.beta) == math.inf
    with pytest.raises(OutOfRange) as excinfo:
        report(ep)
    assert excinfo.value.param == "N"
    assert str(excinfo.value) == ("k_B=1e-300 with N=1 takes a field of the report "
                                  "out of the float range")


def within_an_ulp(value, exact):
    return abs(Fraction(value) - exact) <= Fraction(math.ulp(float(exact)))


@pytest.mark.parametrize("beta", [5.7e-9, 6e-9, 9e-9])
def test_temperature_where_k_B_beta_is_subnormal(beta):
    # k_B beta ~ 6e-309 is subnormal: 1/(k_B beta) is taken on the scaled mantissas, not
    # divided by a product rounded to fewer bits
    k_B = 1e-300
    temperature = report(EnsembleParams(beta, 1.0, pc=PhysicalConstants(k_B=k_B))).T
    assert within_an_ulp(temperature, 1 / (Fraction(k_B) * Fraction(beta)))


def test_temperature_has_the_plain_bits_where_k_B_beta_is_normal():
    rng = np.random.default_rng(25)
    normal = 0
    for k_B, beta in 10.0 ** rng.uniform((-320.0, -70.0), (308.0, 70.0), size=(3000, 2)):
        k_B, beta = float(k_B), float(beta)
        temperature = over_product(1.0, k_B, beta)
        exact = 1 / (Fraction(k_B) * Fraction(beta))
        if sys.float_info.min <= k_B * beta < math.inf:
            normal += 1
            assert temperature == 1.0 / (k_B * beta)
        elif exact > Fraction(sys.float_info.max):  # inf only past the largest float
            assert temperature == math.inf
        else:  # two roundings, as in the plain 1.0 / (k_B * beta): within 1.5 ulp
            error = abs(Fraction(temperature) - exact) / Fraction(math.ulp(float(exact)))
            assert error <= 1.5, (k_B, beta)
    assert 1000 < normal < 2900  # both sides of the fork are sampled


# c = hbar = k_B = 1e-300 puts the temperatures where k_B T is subnormal within the coupling range
SUBNORMAL_K_B_T = PhysicalConstants(c=1e-300, hbar=1e-300, k_B=1e-300)


@pytest.mark.parametrize("T", [5.57e-9, 5.7e-9, 6e-9, 9e-9, 2e-8])
def test_sweep_beta_where_k_B_T_is_subnormal(T):
    (row,) = thermo_sweep((1.0,), (T,), pc=SUBNORMAL_K_B_T)
    assert within_an_ulp(row.beta, 1 / (Fraction(1e-300) * Fraction(T)))
    assert row.T == T


@pytest.mark.parametrize("pc, T", [
    # 1/(k_B T) exceeds the largest float
    *((pc, T) for pc in (SUBNORMAL_K_B_T, PhysicalConstants(k_B=1e-300))
      for T in (5e-324, 1e-310, 1e-16, 5.5e-9, 5.56e-9)),
    # 1/(k_B T) is a float, but with c = hbar = 1, c hbar k beta^2 > 1e150 for every k
    *((PhysicalConstants(k_B=1e-300), T) for T in (5.57e-9, 5.7e-9, 6e-9, 9e-9, 2e-8)),
])
def test_sweep_refuses_where_k_B_T_is_subnormal(pc, T):
    with pytest.raises(OutOfRange) as excinfo:
        thermo_sweep((1e-300, 1e-20, 1.0, 1e20), (T,), pc=pc)
    assert (excinfo.value.param, excinfo.value.value) == ("T", T)
    assert str(excinfo.value) == (f"{T:g} takes c*hbar*k*beta^2 out of [1e-300, 1e+150], "
                                  "where the sums stay finite")


@pytest.mark.parametrize("take", [
    lambda: EnsembleParams(1.0, 0.2, N=10**309),
    lambda: thermo_sweep((0.2,), (1.0,), N=10**309),
], ids=["EnsembleParams", "thermo_sweep"])
def test_particle_count_past_the_float_range_is_out_of_range(take):
    # float(N) would overflow; N is compared as an int and named, not converted
    with pytest.raises(OutOfRange) as excinfo:
        take()
    assert (excinfo.value.param, excinfo.value.value) == ("N", 10**309)

