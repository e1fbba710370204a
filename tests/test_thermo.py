import math

import numpy as np
import pytest

from majorana_lab.common import OutOfRange
from majorana_lab.spinor import PhysicalConstants
from majorana_lab.thermo import (
    EM_PARAMETER_RANGE,
    EnsembleParams,
    TruncationBudget,
    moment_sums,
    partition_em,
    partition_exact,
    report,
    thermo_sweep,
)


def brute_force_z(beta, coupling, n_terms):
    """Independent series oracle: plain fsum over the first n_terms levels."""
    lam = beta * math.sqrt(2.0 * coupling)
    return math.fsum(math.exp(-lam * math.sqrt(n)) for n in range(n_terms))


def brute_force_z_converged(beta, coupling, w_stop=40.0):
    """Vectorized series oracle, summed until the exponent reaches w_stop.

    Chunking and reduction order differ from the library's, so agreement is
    not an artifact of shared summation structure.
    """
    lam = beta * math.sqrt(2.0 * coupling)
    nmax = int((w_stop / lam) ** 2) + 1
    chunks = []
    for n0 in range(0, nmax, 2_000_000):
        idx = np.arange(n0, min(n0 + 2_000_000, nmax), dtype=float)
        chunks.append(float(np.sum(np.exp(-lam * np.sqrt(idx)))))
    return math.fsum(chunks)


def brute_force_moments(beta, coupling, w_stop=50.0):
    """(t_0, t_1, t_2), t_p = sum_n (lam sqrt n)^p exp(-lam sqrt n), up to lam sqrt n = w_stop.

    The neglected tail is below 1e-17 relative at w_stop = 50.  Chunked
    differently from brute_force_z_converged and from the library.
    """
    lam = beta * math.sqrt(2.0 * coupling)
    nmax = int((w_stop / lam) ** 2) + 1
    chunks = ([], [], [])
    for n0 in range(0, nmax, 1_500_000):
        x = lam * np.sqrt(np.arange(n0, min(n0 + 1_500_000, nmax), dtype=float))
        e = np.exp(-x)
        for p in range(3):
            chunks[p].append(float(np.sum(x**p * e)))
    return tuple(math.fsum(c) for c in chunks)


def z_u_cv(t, ep):
    """Z, U and C_V of ep from the moments t = (t_0, t_1, t_2)."""
    mean = t[1] / t[0]
    return t[0], ep.N * mean / ep.beta, ep.N * ep.pc.k_B * (t[2] / t[0] - mean**2)


# ---------------------------------------------------------------- partition function


def test_partition_em_values():
    assert partition_em(EnsembleParams(beta=1.0, k=1.0)) == pytest.approx(1.5, rel=1e-15)
    assert partition_em(EnsembleParams(beta=2.0, k=0.01)) == pytest.approx(25.5, rel=1e-15)
    # beta -> inf limit of the closed form is 1/2 (not the exact series' 1)
    assert partition_em(EnsembleParams(beta=1e6, k=1.0)) == pytest.approx(0.5, abs=1e-10)


def test_partition_exact_ground_state_limit():
    z, _, tail = partition_exact(EnsembleParams(beta=1e3, k=0.5), tol=1e-10)
    assert z == pytest.approx(1.0, abs=1e-12)
    assert tail < 1e-10


def test_partition_exact_matches_brute_force():
    ep = EnsembleParams(beta=1.0, k=1.0)
    z, trunc_n, tail = partition_exact(ep, tol=1e-10)
    oracle = brute_force_z(1.0, 1.0, 20000)
    assert z == pytest.approx(oracle, abs=1e-10)
    assert z == pytest.approx(1.7223573172376996, abs=1e-9)
    assert tail < 1e-10 and trunc_n >= 1


def test_partition_exact_weak_coupling():
    ep = EnsembleParams(beta=0.1, k=0.01)
    z, _, _ = partition_exact(ep, tol=1e-10)
    assert z == pytest.approx(brute_force_z_converged(0.1, 0.01), abs=1e-8)
    assert z == pytest.approx(10000.502931634, abs=1e-6)
    assert abs(partition_em(ep) - z) / z < 0.01


@pytest.mark.parametrize("beta, k", [(0.1, 0.2), (0.05, 0.05)])
def test_moment_pass_matches_brute_force(beta, k):
    ep = EnsembleParams(beta=beta, k=k, N=3)
    tol = 1e-10
    t, trunc_n, bound = moment_sums(ep, tol)
    oracle = brute_force_moments(beta, k)
    for p in range(3):
        assert t[p] == pytest.approx(oracle[p], rel=1e-13)
    rep = report(ep, tol)
    z, u, cv = z_u_cv(oracle, ep)
    assert rep.Z_exact == pytest.approx(z, rel=1e-13)
    assert rep.U_exact == pytest.approx(u, rel=1e-13)
    assert rep.C_V_exact == pytest.approx(cv, rel=1e-12)
    assert (rep.truncation_n, rep.tail_bound) == (trunc_n, bound)
    assert 0.0 <= bound <= tol


def test_moment_pass_weak_coupling_matches_mpmath():
    # c hbar k beta^2 = 1e-6: the regime of the closed form, where plain
    # summation needs more than 1e8 terms.
    mpmath = pytest.importorskip("mpmath")
    ep = EnsembleParams(beta=0.01, k=0.01)
    t, trunc_n, bound = moment_sums(ep, tol=1e-10)
    with mpmath.workdps(30):
        lam = mpmath.mpf(ep.beta) * mpmath.sqrt(2 * mpmath.mpf(ep.k))
        oracle = [float(mpmath.nsum(lambda n, p=p: (lam * mpmath.sqrt(n)) ** p
                                    * mpmath.exp(-lam * mpmath.sqrt(n)),
                                    [0, mpmath.inf], method="euler-maclaurin"))
                  for p in range(3)]
    for got, want in zip(z_u_cv(t, ep), z_u_cv(oracle, ep)):
        assert got == pytest.approx(want, rel=1e-14)
    assert t[0] == pytest.approx(1_000_000.50029, abs=1e-5)
    assert trunc_n == 200 and 0.0 <= bound <= 1e-10


def test_partition_budget_exhaustion():
    # The Euler-Maclaurin remainder bound meets any tolerance above double
    # precision at M = 200, so only a tolerance far below it is refused.
    ep = EnsembleParams(beta=1e-4, k=0.5)
    with pytest.raises(TruncationBudget) as excinfo:
        partition_exact(ep, tol=1e-300)
    assert excinfo.value.partial_sum > 0.0
    assert excinfo.value.partial_sum == partition_exact(ep)[0]  # the M = 200 sum
    assert excinfo.value.truncation_n == 200
    assert excinfo.value.tail_bound > 1e-300


def test_bound_at_200_terms_is_below_double_rounding_for_every_coupling():
    # below 1e-3 of half an ulp of each sum, so no larger M could move a double, and the M = 200
    # sum that TruncationBudget carries is as good as a double gets
    for j in range(-1200, 601):  # c hbar k beta^2 from 1e-300 to 1e150 in steps of 10^(1/4)
        t, m, bound = moment_sums(EnsembleParams(beta=1.0, k=10.0 ** (j / 4)), tol=1.0)
        assert m == 200 and 0.0 <= bound <= 1.6e-19
        for t_p in t:
            assert bound <= 1e-3 * math.ulp(t_p) / 2, (j, t)


def test_moment_sums_where_2_c_hbar_k_overflows():
    # c hbar k beta^2 = 1 with 2 c hbar k = inf: lam is beta sqrt(2) sqrt(c hbar k), not nan
    t, m, bound = moment_sums(EnsembleParams(beta=1e-154, k=1e308))
    want, _, _ = moment_sums(EnsembleParams(beta=1.0, k=1.0))
    assert m == 200 and 0.0 <= bound <= 1e-10
    for got, t_p in zip(t, want):
        assert got == pytest.approx(t_p, rel=1e-15)


TINY_C_HBAR = PhysicalConstants(c=1e-200, hbar=1e-200)  # c hbar underflows to 0


@pytest.mark.parametrize("take", [
    lambda: partition_em(EnsembleParams(beta=1.0, k=1.0, pc=TINY_C_HBAR)),
    lambda: partition_exact(EnsembleParams(beta=1.0, k=1.0, pc=TINY_C_HBAR)),
    lambda: report(EnsembleParams(beta=1.0, k=1.0, pc=TINY_C_HBAR)),
    lambda: report(EnsembleParams(beta=1e100, k=1e-10)),
    lambda: report(EnsembleParams(beta=1.0, k=1e160)),
    lambda: report(EnsembleParams(beta=1e-160, k=1e-10)),
    lambda: report(EnsembleParams(beta=1e200, k=1e200)),
], ids=["partition_em-c_hbar-underflows", "partition_exact-c_hbar-underflows",
        "report-c_hbar-underflows", "report-beta=1e100-k=1e-10", "report-beta=1-k=1e160",
        "report-beta=1e-160-k=1e-10", "report-beta=1e200-k=1e200"])
def test_every_ensemble_function_refuses_couplings_out_of_range(take):
    # EnsembleParams refuses a coupling out of EM_PARAMETER_RANGE, so no function is handed one
    with pytest.raises(OutOfRange) as excinfo:
        take()
    assert excinfo.value.param == "em_parameter"


def test_partition_monotone_in_beta_and_k():
    betas = [0.2, 0.5, 1.0, 2.0]
    zs = [partition_exact(EnsembleParams(beta=b, k=0.4))[0] for b in betas]
    assert all(a > b for a, b in zip(zs, zs[1:]))
    ks = [0.1, 0.4, 1.0, 3.0]
    zs = [partition_exact(EnsembleParams(beta=0.7, k=k))[0] for k in ks]
    assert all(a > b for a, b in zip(zs, zs[1:]))


# ---------------------------------------------------------------- closed-form functions


def test_mean_energy_carries_particle_count():
    assert report(EnsembleParams(beta=1.0, k=1.0, N=3)).U == pytest.approx(4.0, rel=1e-14)


def test_mean_energy_matches_numeric_derivative_of_em():
    ep = EnsembleParams(beta=0.8, k=0.3, N=2)
    h = ep.beta * 1e-6
    lnz = lambda b: ep.N * math.log(partition_em(ep._replace(beta=b)))
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


def test_params_validation():
    with pytest.raises(ValueError):
        EnsembleParams(beta=0.0, k=1.0)
    with pytest.raises(ValueError):
        EnsembleParams(beta=1.0, k=-1.0)
    with pytest.raises(ValueError):
        EnsembleParams(beta=1.0, k=1.0, N=0)


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
])
def test_sweep_rejects_temperatures_out_of_range(T_values, T_bad):
    with pytest.raises(OutOfRange) as excinfo:
        thermo_sweep(k_values=(0.2, 0.5), T_values=T_values)
    assert (excinfo.value.param, excinfo.value.value) == ("T", T_bad)
    lo, hi = EM_PARAMETER_RANGE
    assert f"out of [{lo:g}, {hi:g}]" in str(excinfo.value)


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
    assert ep.temperature == math.inf
    with pytest.raises(OutOfRange) as excinfo:
        report(ep)
    assert excinfo.value.param == "N"
    assert str(excinfo.value) == ("k_B=1e-300 with N=1 takes a field of the report "
                                  "out of the float range")


@pytest.mark.parametrize("take", [
    lambda: EnsembleParams(1.0, 0.2, N=10**309),
    lambda: thermo_sweep((0.2,), (1.0,), N=10**309),
], ids=["EnsembleParams", "thermo_sweep"])
def test_particle_count_past_the_float_range_is_out_of_range(take):
    # float(N) would overflow; N is compared as an int and named, not converted
    with pytest.raises(OutOfRange) as excinfo:
        take()
    assert (excinfo.value.param, excinfo.value.value) == ("N", 10**309)


def test_default_sweep_grid():
    rows = thermo_sweep(k_values=(0.3,))
    assert [r.beta for r in rows] == [1.0 / T for T in np.linspace(0.1, 10.0, 50).tolist()]
