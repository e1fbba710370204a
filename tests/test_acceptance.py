"""Acceptance gate: one test per release criterion, each printing PASS/FAIL.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import math

import numpy as np
import pytest

from cli_runner import invoke
from csv_utils import parse_csv, rows_as_floats
from mpmath_entropy import direct_entropy
from spinor_integrals import fourier_numeric, norm_integral
from majorana_lab.common import PhysicalConstants, energy, linspace
from majorana_lab.entropy import BBM_BOUND, bbm_reports
from majorana_lab.hermite import hermite_pair_evaluator
from majorana_lab.spinor import SpinorState, ladder_evaluator, spinor_evaluator
from majorana_lab.thermo import EnsembleParams, report, thermo_sweep

QUARTER = math.pi / 4

# reference entropy table: (n, omega) -> (S_y, S_p)
REFERENCE_TABLE = {
    (0, 0.2): (1.87708, 0.26765), (0, 0.4): (1.53051, 0.61422), (0, 0.8): (1.18394, 0.96079),
    (1, 0.2): (2.19246, 0.58302), (1, 0.4): (1.84588, 0.92959), (1, 0.8): (1.49931, 1.27617),
    (2, 0.2): (2.39707, 0.78763), (2, 0.4): (2.05049, 1.13420), (2, 0.8): (1.70392, 1.48078),
    (3, 0.2): (2.52764, 0.91820), (3, 0.4): (2.18107, 1.26477), (3, 0.8): (1.83449, 1.61135),
}
REFERENCE_SUMS = {0: 2.14473, 1: 2.77548, 2: 3.18469, 3: 3.44584}


def verdict(number, name, ok, detail):
    print(f"[ACCEPTANCE {number:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_01_entropy_table_reproduction():
    worst = 0.0
    for (n, omega), (s_y_ref, s_p_ref) in REFERENCE_TABLE.items():
        rep, = bbm_reports(n, (omega,), QUARTER)
        worst = max(worst, abs(rep.S_y - s_y_ref), abs(rep.S_p - s_p_ref),
                    abs(rep.sum - REFERENCE_SUMS[n]))
    verdict(1, "entropy table reproduction (24 values + sums, theta=pi/4)",
            worst < 2e-4, f"worst |dev| = {worst:.3g} vs 2e-4")


def test_criterion_02_bbm_saturation_ground_state():
    worst = max(
        abs(rep.sum - (1.0 + math.log(math.pi)))
        for rep in bbm_reports(0, (0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 3.5, 5.0))
    )
    verdict(2, "ground-state BBM saturation over omega grid",
            worst < 1e-8, f"worst |sum - (1+ln pi)| = {worst:.3g} vs 1e-8")


def test_criterion_03_scaling_invariance():
    # the library's entropies at 2w against -integral(rho ln rho) computed directly at w
    shift = -0.5 * math.log(2.0)  # -0.34657
    worst = 0.0
    for n in range(6):
        omegas = (0.01, 0.2, 0.4, 100.0)
        for omega, rep in zip(omegas, bbm_reports(n, [2 * w for w in omegas], QUARTER)):
            delta_y = rep.S_y - direct_entropy(n, omega, QUARTER, "position")
            delta_p = rep.S_p - direct_entropy(n, omega, QUARTER, "momentum")
            worst = max(worst, abs(delta_y - shift), abs(delta_p + shift))
    verdict(3, "S_y(n, 2w) - S_y(n, w) = -ln(2)/2 = S_p(n, w) - S_p(n, 2w) for n <= 5",
            worst < 1e-6, f"worst |delta -/+ 0.34657| = {worst:.3g} vs 1e-6")


def test_criterion_04_closed_form_oracle():
    # library and direct quadrature alike against the Gaussian closed form
    worst = 0.0
    for rep in bbm_reports(0, (0.01, 0.05, 0.2, 0.8, 1.0, 2.5, 3.0, 5.0, 100.0)):
        omega = rep.omega
        exact_y = 0.5 * (1.0 + math.log(math.pi / omega))
        exact_p = 0.5 * (1.0 + math.log(math.pi * omega))
        worst = max(
            worst,
            abs(rep.S_y - exact_y),
            abs(rep.S_p - exact_p),
            abs(direct_entropy(0, omega, QUARTER, "position") - exact_y),
            abs(direct_entropy(0, omega, QUARTER, "momentum") - exact_p),
        )
    verdict(4, "analytic Gaussian-entropy oracle at n = 0",
            worst < 1e-8, f"worst |dev| = {worst:.3g} vs 1e-8")


def test_criterion_05_normalization_across_phases():
    worst = 0.0
    for n in range(9):
        state = SpinorState(n, 0.35)
        for theta in (0.0, math.pi / 6, QUARTER, math.pi / 2, 1.3):
            worst = max(worst, abs(norm_integral(state, theta, "position") - 1.0))
    verdict(5, "time-independent normalization, n <= 8 x 5 phases",
            worst < 1e-8, f"worst |norm - 1| = {worst:.3g} vs 1e-8")


def test_criterion_06_fourier_and_parseval():
    omega, theta = 0.5, 0.7
    worst_ft = 0.0
    worst_parseval = 0.0
    for n in range(7):
        state = SpinorState(n, omega)
        sigma_p = math.sqrt(omega * (2 * n + 1))
        momentum = spinor_evaluator(state, theta, "momentum")
        for p in np.linspace(-3 * sigma_p, 3 * sigma_p, 7):
            numeric = fourier_numeric(state, theta, p)
            analytic = momentum(float(p))
            worst_ft = max(worst_ft, abs(numeric[0] - analytic.comp1), abs(numeric[1] - analytic.comp2))
        worst_parseval = max(
            worst_parseval,
            abs(norm_integral(state, theta, "position") - norm_integral(state, theta, "momentum")),
        )
    verdict(6, "numeric Fourier transform matches momentum spinors, n <= 6",
            worst_ft < 1e-6 and worst_parseval < 1e-8,
            f"worst FT dev = {worst_ft:.3g} vs 1e-6, worst Parseval dev = {worst_parseval:.3g} vs 1e-8")


def test_criterion_07_ladder_intertwining():
    omega = 0.3
    pc = PhysicalConstants()
    ys = linspace(-6.0 / math.sqrt(omega), 6.0 / math.sqrt(omega), 301)
    worst = 0.0
    for n in range(9):
        ladder = ladder_evaluator(SpinorState(n + 1, omega), pc)
        e_upper = energy(n + 1, omega, pc)  # natural units: k = omega
        phi_n = hermite_pair_evaluator(n, omega)
        worst = max(worst, *(abs(ladder(y)[0] - e_upper * phi_n(y)[0]) for y in ys))
    verdict(7, "A phi_{n+1} = E_{n+1} phi_n on |y sqrt(w)| <= 6, n <= 8",
            worst < 1e-8, f"worst residual = {worst:.3g} vs 1e-8")


def test_criterion_08_thermodynamic_limits_and_identity():
    # high-temperature heat-capacity plateau
    plateau_dev = max(
        abs(report(EnsembleParams(beta=1e-3, k=k, N=2)).C_V / 2.0 - 2.0)
        for k in (0.2, 0.4, 0.8)
    )
    # closed-form identity and exact-route monotonicity over the sweep grid
    ts = np.linspace(0.1, 10.0, 34)
    rows = thermo_sweep(k_values=(0.2, 0.4, 0.8), T_values=ts, N=1)
    identity_dev = 0.0
    monotone = True
    for k_index in range(3):
        block = rows[34 * k_index: 34 * (k_index + 1)]
        for row in block:
            scale = max(1.0, abs(row.F), abs(row.U), abs(row.T * row.S))
            identity_dev = max(identity_dev, abs(row.F + row.T * row.S - row.U) / scale)
        f = [row.F_exact for row in block]
        u = [row.U_exact for row in block]
        monotone = monotone and all(a > b for a, b in zip(f, f[1:])) and all(a < b for a, b in zip(u, u[1:]))
    ok = plateau_dev < 1e-3 and identity_dev < 1e-12 and monotone
    verdict(8, "C_V plateau, F + T S = U, exact F/U monotone on sweep grid", ok,
            f"plateau dev = {plateau_dev:.3g} vs 1e-3, identity dev = {identity_dev:.3g} vs 1e-12, "
            f"monotone = {monotone}")


def test_criterion_09_euler_maclaurin_validity():
    worst = 0.0
    for x in (0.01, 0.005, 0.002, 0.001):
        for beta in (0.05, 0.1, 0.5, 1.0, 2.0):
            ep = EnsembleParams(beta=beta, k=x / beta**2)
            rep = report(ep, tol=1e-12)
            worst = max(worst, abs(rep.Z_em - rep.Z_exact) / rep.Z_exact)
    verdict(9, "closed-form Z within 1% of the series for c hbar k beta^2 <= 0.01",
            worst < 0.01, f"worst rel err = {worst:.3g} vs 0.01")


def test_criterion_10_figure_data_smoke(tmp_path):
    failures = []

    def run_twice(name, args):
        out = tmp_path / f"{name}.csv"
        first = None
        for _ in range(2):
            result = invoke(args + ["--out", str(out)])
            if result.exit_code != 0:
                failures.append(f"{name} exited {result.exit_code}")
                return None
            if first is None:
                first = out.read_bytes()
        if out.read_bytes() != first:
            failures.append(f"{name} not deterministic")
        return out

    density_file = run_twice("density", ["density", "--n", "2", "--omega", "0.4", "--grid", "301"])
    if density_file is not None:
        _, columns, rows = parse_csv(density_file.read_text(encoding="utf-8"))
        if columns != ["y", "density"] or len(rows) != 301:
            failures.append("density schema")

    ed_file = run_twice("entropy_density",
                        ["entropy-density", "--n", "2", "--omega", "0.4",
                         "--theta", str(math.pi / 2), "--grid", "1501"])
    if ed_file is not None:
        _, columns, rows = parse_csv(ed_file.read_text(encoding="utf-8"))
        data = np.array(rows_as_floats(columns, rows, columns[1], "entropic_density"))
        spacing = data[1, 0] - data[0, 0]
        # density zeros live inside the classically allowed region; beyond it the
        # Gaussian tail is also "near zero" and must not be mistaken for nodes
        turning = math.sqrt((2 * 2 + 1) / 0.4)
        keep = np.abs(data[:, 0]) < 1.2 * turning
        ys, values = data[keep, 0], np.abs(data[keep, 1])
        dips = np.flatnonzero(
            (values[1:-1] <= values[:-2])
            & (values[1:-1] <= values[2:])
            & (values[1:-1] < 0.05 * values.max())
        ) + 1
        centers = []
        for i in dips:  # merge plateau neighbors into one node candidate
            if centers and abs(ys[i] - centers[-1]) <= 2 * spacing:
                continue
            centers.append(float(ys[i]))
        roots = np.polynomial.hermite.hermgauss(2)[0] / math.sqrt(0.4)
        if len(centers) != len(roots):
            failures.append(f"entropy-density node count {len(centers)} != {len(roots)}")
        else:
            for center, root in zip(sorted(centers), sorted(roots)):
                if abs(center - root) > 2 * spacing:
                    failures.append(f"node at {center:.4f} vs root {root:.4f}")

    heatmap_file = run_twice("heatmap", ["heatmap", "--n", "1", "--omega", "0.2",
                                         "--grid", "401", "--tmin", "0", "--tmax", "12",
                                         "--tsteps", "6"])
    if heatmap_file is not None:
        _, columns, rows = parse_csv(heatmap_file.read_text(encoding="utf-8"))
        data = np.array(rows_as_floats(columns, rows, "y", "t", "density"))
        slices = data.reshape(6, 401, 3)
        ys = slices[0, :, 0]
        for j in range(6):
            mass = np.trapezoid(slices[j, :, 2], ys)
            if abs(mass - 1.0) > 1e-6:
                failures.append(f"heatmap slice {j} mass {mass!r}")

    thermo_file = run_twice("thermo", ["thermo", "--k", "0.2", "--tmin", "5",
                                       "--tmax", "10", "--tsteps", "4"])
    if thermo_file is not None:
        _, columns, rows = parse_csv(thermo_file.read_text(encoding="utf-8"))
        if "Z_exact" not in columns or len(rows) != 4:
            failures.append("thermo schema")

    verdict(10, "figure-data commands: schema, determinism, mass, nodes",
            not failures, "; ".join(failures) if failures else "all four commands clean")
