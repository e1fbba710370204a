import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import majorana_lab.cli as cli_mod
import majorana_lab.entropy as entropy_mod
import majorana_lab.thermo as thermo_mod
from csv_utils import parse_csv, rows_as_floats
from majorana_lab.cli import (
    CONFIG_ENV_VAR,
    EXIT_BBM_VIOLATION,
    EXIT_QUAD_NONCONVERGENCE,
    EXIT_TRUNCATION_BUDGET,
    main,
)
from majorana_lab.common import MAX_LEVEL
from majorana_lab.entropy import BBM_BOUND, BoundViolation
from majorana_lab.thermo import MAX_PARTICLES, MAX_TERMS


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args, env=None):
    result = runner.invoke(main, args, env=env)
    assert result.exit_code == 0, f"{args} failed: {result.output}\n{result.exception!r}"
    return result


def combined_output(result):
    try:
        return result.output + result.stderr
    except (ValueError, AttributeError):
        return result.output


# ---------------------------------------------------------------- table1


def test_table1_default_rows(runner, tmp_path):
    out = tmp_path / "table1.csv"
    run_ok(runner, ["table1", "--out", str(out)])
    header, columns, rows = parse_csv(out.read_text(encoding="utf-8"))
    assert columns == ["n", "omega", "S_y", "S_p", "S_sum", "bbm_bound"]
    assert len(rows) == 12
    assert header["n_list"] == "0,1,2,3"
    assert float(header["theta"]) == pytest.approx(math.pi / 4, rel=1e-15)

    values = {(int(r[0]), float(r[1])): (float(r[2]), float(r[3]), float(r[4])) for r in rows}
    s_y, s_p, total = values[(3, 0.4)]
    assert s_y == pytest.approx(2.18107, abs=2e-4)
    assert s_p == pytest.approx(1.26477, abs=2e-4)
    s_y, s_p, total = values[(0, 0.8)]
    assert s_y == pytest.approx(1.18394, abs=2e-4)
    assert s_p == pytest.approx(0.96079, abs=2e-4)
    # the sum column is constant within each level
    for n in range(4):
        sums = [values[(n, om)][2] for om in (0.2, 0.4, 0.8)]
        assert max(sums) - min(sums) < 1e-6
    assert all(float(r[5]) == pytest.approx(BBM_BOUND, rel=1e-15) for r in rows)


def test_table1_deterministic_and_17_digit(runner, tmp_path):
    out = tmp_path / "a.csv"
    run_ok(runner, ["table1", "--n", "0", "--n", "1", "--omega", "0.3", "--out", str(out)])
    first = out.read_bytes()
    run_ok(runner, ["table1", "--n", "0", "--n", "1", "--omega", "0.3", "--out", str(out)])
    assert out.read_bytes() == first
    _, columns, rows = parse_csv(out.read_text(encoding="utf-8"))
    for row in rows:
        for field in row[2:]:
            assert f"{float(field):.17g}" == field  # 17-significant-digit round trip


def test_table1_json_mirrors_csv(runner, tmp_path):
    csv_path, json_path = tmp_path / "t.csv", tmp_path / "t.json"
    args = ["table1", "--n", "1", "--omega", "0.4", "--omega", "0.8"]
    run_ok(runner, args + ["--out", str(csv_path)])
    run_ok(runner, args + ["--format", "json", "--out", str(json_path)])
    _, columns, rows = parse_csv(csv_path.read_text(encoding="utf-8"))
    payload = json.loads(json_path.read_text(encoding="utf-8"))
    assert payload["command"] == "table1"
    assert payload["columns"] == columns
    assert len(payload["rows"]) == len(rows) == 2
    for json_row, csv_row in zip(payload["rows"], rows):
        for name, text in zip(columns, csv_row):
            assert json_row[name] == pytest.approx(float(text), rel=1e-15)


def test_table1_bbm_violation_exit_code(runner, monkeypatch):
    def explode(n, omega, theta, tol):
        raise BoundViolation("forced for the exit-code contract")

    # table1 looks bbm_report up in entropy when it runs: cli binds no such name
    monkeypatch.setattr(entropy_mod, "bbm_report", explode)
    result = runner.invoke(main, ["table1"])
    assert result.exit_code == EXIT_BBM_VIOLATION


def test_quadrature_failure_exit_code(runner):
    result = runner.invoke(main, ["table1", "--n", "0", "--omega", "0.2", "--tol", "1e-300"])
    assert result.exit_code == EXIT_QUAD_NONCONVERGENCE


@pytest.mark.parametrize("n, theta", [(20, "0"), (30, "1.5707963267948966"), (64, "0")])
def test_table1_at_theta_endpoints(runner, n, theta):
    run_ok(runner, ["table1", "--n", str(n), "--theta", theta])


def test_cli_import_loads_no_scipy():
    code = "import sys, majorana_lab.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}  # finds this checkout's src
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [None, ["--help"], ["thermo", "--tsteps", "2"]],
                         ids=["import", "help", "thermo"])
def test_thermo_path_loads_no_numpy(argv):
    # import, --help and thermo need only click and the pure-math thermo path
    run = f"try:\n    main({argv!r})\nexcept SystemExit:\n    pass\n" if argv else ""
    code = ("import sys\nfrom majorana_lab.cli import main\n" + run
            + "sys.stderr.write(repr(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stderr.endswith("[]"), out.stderr[-2000:]


# ---------------------------------------------------------------- density


def test_density_nodes_match_hermite_roots(runner, tmp_path):
    out = tmp_path / "d.csv"
    run_ok(runner, ["density", "--n", "2", "--omega", "0.2", "--theta", str(math.pi / 2),
                    "--grid", "2001", "--out", str(out)])
    _, columns, rows = parse_csv(out.read_text(encoding="utf-8"))
    assert columns == ["y", "density"]
    data = np.array(rows_as_floats(columns, rows, "y", "density"))
    # nodes live inside the classical region; the Gaussian tail is near-zero too
    keep = np.abs(data[:, 0]) < 1.2 * math.sqrt(5 / 0.2)
    ys, rho = data[keep, 0], data[keep, 1]
    spacing = ys[1] - ys[0]
    near_zero = rho < 1e-4 * rho.max()
    near_zero[0] = near_zero[-1] = False
    starts = np.flatnonzero(near_zero & ~np.roll(near_zero, 1))
    ends = np.flatnonzero(near_zero & ~np.roll(near_zero, -1))
    assert len(starts) == 2  # contiguous runs of near-zero samples = nodes
    expected = 1.0 / math.sqrt(2 * 0.2)  # positive root of H_2(sqrt(omega) y)
    centers = sorted((ys[a] + ys[b]) / 2.0 for a, b in zip(starts, ends))
    assert abs(centers[0] + expected) < 2 * spacing
    assert abs(centers[1] - expected) < 2 * spacing


def test_density_symmetry_and_peak(runner, tmp_path):
    out = tmp_path / "d0.csv"
    run_ok(runner, ["density", "--n", "0", "--omega", "0.4", "--grid", "401", "--out", str(out)])
    _, columns, rows = parse_csv(out.read_text(encoding="utf-8"))
    data = np.array(rows_as_floats(columns, rows, "y", "density"))
    rho = data[:, 1]
    assert np.argmax(rho) == 200  # peak at y = 0
    assert np.allclose(rho, rho[::-1], rtol=1e-12, atol=1e-300)


def test_density_momentum_space_column(runner, tmp_path):
    out = tmp_path / "dp.csv"
    run_ok(runner, ["density", "--n", "1", "--omega", "0.2", "--space", "momentum",
                    "--grid", "51", "--out", str(out)])
    _, columns, rows = parse_csv(out.read_text(encoding="utf-8"))
    assert columns == ["p", "density"]
    assert len(rows) == 51


def test_density_accepts_slope_parameterization(runner, tmp_path):
    out = tmp_path / "dk.csv"
    run_ok(runner, ["density", "--n", "0", "--k", "0.3", "--grid", "11", "--out", str(out)])
    header, _, _ = parse_csv(out.read_text(encoding="utf-8"))
    assert float(header["omega"]) == pytest.approx(0.3, rel=1e-15)
    assert float(header["k"]) == pytest.approx(0.3, rel=1e-15)


# ---------------------------------------------------------------- entropy density


def test_entropy_density_zero_at_nodes(runner, tmp_path):
    out = tmp_path / "ed.csv"
    run_ok(runner, ["entropy-density", "--n", "1", "--omega", "0.4", "--theta", str(math.pi / 2),
                    "--grid", "801", "--out", str(out)])
    _, columns, rows = parse_csv(out.read_text(encoding="utf-8"))
    assert columns == ["omega", "y", "entropic_density"]
    data = np.array(rows_as_floats(columns, rows, "y", "entropic_density"))
    mid = np.argmin(np.abs(data[:, 0]))  # H_1 node at the origin
    assert abs(data[mid, 1]) < 1e-6


def test_entropy_density_localization(runner, tmp_path):
    def half_width(space):
        out = tmp_path / f"ed_{space}.csv"
        run_ok(runner, ["entropy-density", "--n", "1", "--omega", "0.2", "--omega", "0.8",
                        "--space", space, "--grid", "1201", "--out", str(out)])
        _, columns, rows = parse_csv(out.read_text(encoding="utf-8"))
        data = np.array(rows_as_floats(columns, rows, "omega", columns[1], "entropic_density"))
        widths = {}
        for om in (0.2, 0.8):
            block = data[data[:, 0] == om]
            magnitude = np.abs(block[:, 2])
            support = np.abs(block[magnitude > 0.01 * magnitude.max(), 1])
            widths[om] = support.max()
        return widths

    position = half_width("position")
    assert position[0.8] < position[0.2]  # stiffer potential localizes y-space
    momentum = half_width("momentum")
    assert momentum[0.8] > momentum[0.2]  # and broadens p-space


# ---------------------------------------------------------------- heatmap


def test_heatmap_mass_and_period(runner, tmp_path):
    omega, n = 0.2, 1
    period = 2 * math.pi / math.sqrt(2 * omega * n)
    out = tmp_path / "h.csv"
    run_ok(runner, ["heatmap", "--n", str(n), "--omega", str(omega), "--grid", "401",
                    "--tmin", "0", "--tmax", str(2 * period), "--tsteps", "9", "--out", str(out)])
    _, columns, rows = parse_csv(out.read_text(encoding="utf-8"))
    assert columns == ["y", "t", "density"]
    data = np.array(rows_as_floats(columns, rows, "y", "t", "density"))
    slices = data.reshape(9, 401, 3)
    ys = slices[0, :, 0]
    for j in range(9):
        mass = np.trapezoid(slices[j, :, 2], ys)
        assert abs(mass - 1.0) < 1e-6
    # slices 0 and 4 are one full period apart
    assert np.max(np.abs(slices[0, :, 2] - slices[4, :, 2])) < 1e-9


def test_heatmap_ground_state_static(runner, tmp_path):
    out = tmp_path / "h0.csv"
    run_ok(runner, ["heatmap", "--n", "0", "--omega", "0.2", "--grid", "101",
                    "--tmin", "0", "--tmax", "5", "--tsteps", "4", "--out", str(out)])
    _, columns, rows = parse_csv(out.read_text(encoding="utf-8"))
    data = np.array(rows_as_floats(columns, rows, "density"))
    slices = data.reshape(4, 101)
    for j in range(1, 4):
        assert np.array_equal(slices[0], slices[j])


# ---------------------------------------------------------------- thermo


def test_thermo_schema_and_values(runner, tmp_path):
    out = tmp_path / "th.csv"
    result = run_ok(runner, ["thermo", "--k", "0.2", "--tmin", "1", "--tmax", "10",
                             "--tsteps", "5", "--out", str(out)])
    header, columns, rows = parse_csv(out.read_text(encoding="utf-8"))
    assert columns[:6] == ["k", "T", "beta", "Z_exact", "Z_em", "em_rel_err"]
    assert len(rows) == 5
    data = rows_as_floats(columns, rows, "T", "Z_exact", "C_V_em", "em_rel_err")
    assert all(z >= 1.0 for _, z, _, _ in data)
    assert all(cv > 0.0 for _, _, cv, _ in data)
    # T = 10, k = 0.2: the closed form is safely inside its window
    assert data[-1][3] < 0.01
    assert "warning" in combined_output(result)  # T = 1 is outside it


def test_thermo_no_warning_when_valid(runner, tmp_path):
    out = tmp_path / "th2.csv"
    result = run_ok(runner, ["thermo", "--k", "0.2", "--tmin", "8", "--tmax", "10",
                             "--tsteps", "3", "--out", str(out)])
    assert "warning" not in combined_output(result)


def test_thermo_weak_coupling_succeeds(runner, tmp_path):
    # c hbar k beta^2 down to 1e-6: the closed form's own regime.
    out = tmp_path / "weak.csv"
    result = run_ok(runner, ["thermo", "--k", "0.01", "--tmax", "100", "--tsteps", "5",
                             "--out", str(out)])
    _, columns, rows = parse_csv(out.read_text(encoding="utf-8"))
    assert len(rows) == 5
    data = rows_as_floats(columns, rows, "em_rel_err", "truncation_n", "tail_bound")
    assert all(n == 200 and 0.0 <= bound <= 1e-10 for _, n, bound in data)
    assert data[-1][0] < 1e-8  # T = 100: the closed form is all but exact
    worst = max(err for err, _, _ in data)
    # T = 0.1 is outside the window; the warning quotes the measured deviation
    assert f"|Z_em - Z|/Z up to {worst:.3g}" in combined_output(result)


@pytest.mark.parametrize("args", [
    ["--tmin", "0"],
    ["--tsteps", "0"],
    ["--particles", "0"],
    ["--k", "0"],
    ["--k", "-1"],
    ["--tol", "0"],
])
def test_thermo_bad_input_is_usage_error(runner, args):
    result = runner.invoke(main, ["thermo", *args])
    assert result.exit_code == 2, combined_output(result)
    assert "Invalid value" in combined_output(result)


@pytest.mark.parametrize("line", ["tmin=0", "tsteps=0", "particles=0", "k=0.2,-1", "tol=0",
                                  "k_B=0"])
def test_thermo_bad_config_value_is_usage_error(runner, tmp_path, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    result = runner.invoke(main, ["thermo"], env={CONFIG_ENV_VAR: str(cfg)})
    assert result.exit_code == 2, combined_output(result)
    assert CONFIG_ENV_VAR in combined_output(result)


@pytest.mark.parametrize("command, args", [
    ("density", ["--grid", "0"]),
    ("entropy-density", ["--grid", "0"]),
    ("heatmap", ["--tsteps", "0"]),
    ("heatmap", ["--grid", "0"]),
    ("density", ["--n", "-1"]),
    ("entropy-density", ["--n", "-1"]),
    ("table1", ["--n", "-1"]),
    ("table1", ["--omega", "0"]),
    ("table1", ["--tol", "0"]),
    ("density", ["--omega", "-1"]),
    ("density", ["--k", "-0.5"]),
    ("density", ["--k", "0"]),
    ("density", ["--k", "0.5", "--mass", "-1"]),
    ("heatmap", ["--k", "0.5", "--mass", "-1"]),
    ("table1", ["--omega", "inf"]),
    ("entropy-density", ["--omega", "nan"]),
    ("thermo", ["--k", "inf"]),
    ("thermo", ["--tmax", "inf"]),
    ("thermo", ["--tol", "nan"]),
    ("density", ["--theta", "nan"]),
    ("table1", ["--theta", "-inf"]),
    ("heatmap", ["--tmax", "nan"]),
    ("heatmap", ["--tmin", "-inf"]),
    ("density", ["--space", "diagonal"]),
    ("table1", ["--format", "xml"]),
    ("thermo", ["--particles", "9" * 400]),  # beyond the float range
    *((command, ["--n", str(MAX_LEVEL + 1)]) for command in ("table1", "density",
                                                            "entropy-density", "heatmap")),
])
def test_bad_flag_is_usage_error(runner, command, args):
    result = runner.invoke(main, [command, *args])
    assert result.exit_code == 2, combined_output(result)
    assert f"Invalid value for '{args[-2]}'" in combined_output(result)


@pytest.mark.parametrize("command, line", [
    *((command, "format=xml") for command in ("table1", "density", "entropy-density",
                                              "heatmap", "thermo")),
    ("density", "grid=abc"),
    ("density", "omega=abc"),
    ("table1", "omega=abc"),
    ("density", "theta=abc"),
    ("table1", "theta=abc"),
    ("table1", "omega=0.2,,inf"),
    ("table1", "n=0,-1"),
    ("table1", "omega= , "),
    ("entropy-density", "n=abc"),
    ("entropy-density", "space=diagonal"),
    ("heatmap", "theta=nan"),
    ("heatmap", "tsteps=0"),
    ("heatmap", "mass=-1"),
    ("density", "k=-1"),
    ("density", "tol=0"),
    ("density", "c=inf"),
    ("thermo", "k="),
    ("thermo", "hbar=abc"),
    pytest.param("thermo", "particles=" + "9" * 400, id="thermo-particles=<400 digits>"),
    ("table1", f"n=0,{MAX_LEVEL + 1}"),
    ("density", f"n={MAX_LEVEL + 1}"),
    ("heatmap", f"n={MAX_LEVEL + 1}"),
])
def test_bad_config_value_is_usage_error(runner, tmp_path, command, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    result = runner.invoke(main, [command], env={CONFIG_ENV_VAR: str(cfg)})
    assert result.exit_code == 2, combined_output(result)
    output = combined_output(result)
    assert f"'{line.partition('=')[0]}' in ${CONFIG_ENV_VAR}" in output


@pytest.mark.parametrize("command", ["table1", "density", "entropy-density", "heatmap"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_n_at_max_level_is_accepted(runner, tmp_path, command, source):
    # the largest level the tests certify is accepted; MAX_LEVEL + 1 is a usage error above
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("grid=3\ntsteps=2\n" + (f"n={MAX_LEVEL}\n" if source == "config" else ""),
                   encoding="utf-8")
    args = [command, *(["--n", str(MAX_LEVEL)] if source == "flag" else [])]
    result = run_ok(runner, args, env={CONFIG_ENV_VAR: str(cfg)})
    _, _, rows = parse_csv(result.output)
    assert rows and all(math.isfinite(float(field)) for row in rows for field in row)


@pytest.mark.parametrize("args", [
    ["density", "--omega", "1e-307", "--grid", "3"],
    ["density", "--omega", "1e308", "--space", "momentum", "--grid", "3"],
    ["entropy-density", "--omega", "1e308", "--space", "momentum", "--grid", "2"],
    ["heatmap", "--omega", "1e-320", "--grid", "3", "--tsteps", "2"],
])
def test_grid_commands_at_extreme_omega(runner, args):
    # the truncation radius sqrt(W/omega) overflowed here; it now follows R_1/sqrt(omega)
    result = runner.invoke(main, args)
    assert result.exit_code in (0, 2), combined_output(result)
    assert result.exception is None or isinstance(result.exception, SystemExit)
    if result.exit_code == 0:
        header, _, rows = parse_csv(result.output)
        assert math.isfinite(float(header.get("radius", 0.0)))
        assert rows and all(math.isfinite(float(field)) for row in rows for field in row)


@pytest.mark.parametrize("args", [
    ["--tmin", "-1e308", "--tmax", "1e308", "--tsteps", "3"],  # tmax - tmin overflows
    ["--k", "1e10", "--tmin", "1.7e308", "--tmax", "1.7e308", "--tsteps", "2"],  # the phase does
])
def test_heatmap_time_overflow_is_usage_error(runner, args):
    result = runner.invoke(main, ["heatmap", "--grid", "3", *args])
    assert result.exit_code == 2, combined_output(result)
    assert "Invalid value for '--tmin' / '--tmax'" in combined_output(result)


@pytest.mark.parametrize("args", [
    ["--tmin", "1e-300"],  # beta**2 overflows
    ["--tmin", "1e160", "--tmax", "1e161"],  # Z ~ 2/lambda^2 exceeds the double range
    ["--tmin", "5e-324"],  # beta = 1/T overflows
    ["--k", "1e300", "--tmin", "1"],
])
def test_thermo_extreme_temperature_is_usage_error(runner, args):
    result = runner.invoke(main, ["thermo", "--tsteps", "2", *args])
    assert result.exit_code == 2, combined_output(result)
    assert "Invalid value for '--tmin'" in combined_output(result)


@pytest.mark.parametrize("k, T", [
    ("1e300", "1e300"),  # c*hbar*k*beta^2 = 1e-300, the range edge, while beta^2 underflows to 0
    ("1e-300", "1e-200"),  # c*hbar*k*beta^2 = 1e100, while beta^2 overflows
])
def test_thermo_extreme_coupling_is_clean(runner, k, T):
    result = runner.invoke(main, ["thermo", "--k", k, "--tmin", T, "--tmax", T, "--tsteps", "1"])
    assert result.exit_code in (0, 2), combined_output(result)
    assert result.exception is None or isinstance(result.exception, SystemExit)


def test_thermo_underflowing_temperature_is_usage_error(runner, tmp_path):
    path = tmp_path / "lab.cfg"
    path.write_text("k_B=1e-300\n", encoding="utf-8")  # k_B T underflows to 0 at --tmin
    result = runner.invoke(main, ["thermo", "--tmin", "1e-300", "--tsteps", "2"],
                           env={CONFIG_ENV_VAR: str(path)})
    assert result.exit_code == 2, combined_output(result)
    assert "Invalid value for '--tmin'" in combined_output(result)


@pytest.mark.parametrize("cfg, args", [
    ("k_B=1e308", ["--k", "1", "--tmin", "1e-308", "--tmax", "1e-308"]),
    ("k_B=1e200", ["--k", "1", "--tmin", "1e-200", "--tmax", "1e-200",
                   "--particles", str(MAX_PARTICLES)]),
])
def test_thermo_non_finite_field_is_usage_error(runner, tmp_path, cfg, args):
    # c*hbar*k*beta^2 = 1 is in range; k_B and N scale S and C_V past the float range
    path = tmp_path / "lab.cfg"
    path.write_text(cfg + "\n", encoding="utf-8")
    result = runner.invoke(main, ["thermo", "--tsteps", "1", *args],
                           env={CONFIG_ENV_VAR: str(path)})
    assert result.exit_code == 2, combined_output(result)
    assert "k_B=" in combined_output(result) and "--particles" in combined_output(result)


@pytest.mark.parametrize("k", [1e-3, 0.2, 1e3])
def test_thermo_finite_at_temperature_range_edges(runner, tmp_path, k):
    # the extreme temperatures that keep c hbar k beta^2 inside [1e-300, 1e150]
    tmin, tmax = math.sqrt(k / 1e150) * (1 + 1e-12), math.sqrt(k / 1e-300) * (1 - 1e-12)
    out = tmp_path / "edge.csv"
    run_ok(runner, ["thermo", "--k", repr(k), "--tmin", repr(tmin), "--tmax", repr(tmax),
                    "--tsteps", "3", "--particles", "3", "--out", str(out)])
    _, columns, rows = parse_csv(out.read_text(encoding="utf-8"))
    assert len(rows) == 3
    assert all(math.isfinite(float(field)) for row in rows for field in row)
    for T, key in ((tmin * 0.99, "--tmin"), (tmax * 1.01, "--tmax")):
        result = runner.invoke(main, ["thermo", "--k", repr(k), key, repr(T)])
        assert result.exit_code == 2, combined_output(result)
        assert f"Invalid value for '{key}'" in combined_output(result)


def test_thermo_finite_at_particle_bound(runner, tmp_path):
    # beta = 1 with k at both ends of c hbar k beta^2 in [1e-300, 1e150]
    out = tmp_path / "bound.csv"
    run_ok(runner, ["thermo", "--k", "1e-300", "--k", "1e150", "--tmin", "1", "--tmax", "1",
                    "--tsteps", "1", "--particles", str(MAX_PARTICLES), "--out", str(out)])
    _, columns, rows = parse_csv(out.read_text(encoding="utf-8"))
    assert len(rows) == 2
    assert all(math.isfinite(float(field)) for row in rows for field in row)
    result = runner.invoke(main, ["thermo", "--particles", str(MAX_PARTICLES + 1)])
    assert result.exit_code == 2, combined_output(result)
    assert "Invalid value for '--particles'" in combined_output(result)


def test_unwritable_out_is_usage_error(runner, tmp_path):
    out = tmp_path / "no_such_dir" / "d.csv"
    result = runner.invoke(main, ["density", "--grid", "3", "--out", str(out)])
    assert result.exit_code == 2, combined_output(result)
    assert "Invalid value for '--out'" in combined_output(result)


def test_thermo_truncation_budget_exit_code(runner, monkeypatch):
    monkeypatch.setattr(cli_mod, "thermo_sweep", _raise_budget)
    result = runner.invoke(main, ["thermo", "--tsteps", "2"])
    assert result.exit_code == EXIT_TRUNCATION_BUDGET


def _raise_budget(*args, **kwargs):
    from majorana_lab.thermo import TruncationBudget

    raise TruncationBudget("forced", partial_sum=1.0, truncation_n=10**8, tail_bound=1.0)


def test_unreachable_tol_fails_before_summing_the_budget(runner, monkeypatch):
    # T = 0.1 (beta = 10) meets tol at M = 12800, where its tail bound underflows.  At T = 10 the
    # tail bound alone shows that no M within MAX_TERMS meets tol, so only M = 200 is summed there
    heads, seen = thermo_mod._heads, []
    monkeypatch.setattr(thermo_mod, "_heads", lambda lam, m: seen.append(m) or heads(lam, m))
    result = runner.invoke(main, ["thermo", "--tol", "1e-300", "--tsteps", "2"])
    assert result.exit_code == EXIT_TRUNCATION_BUDGET, combined_output(result)
    assert (f"error: partition series needs more than {MAX_TERMS} terms for tol=1e-300 "
            "(beta=0.1, k=0.2)") in combined_output(result)
    assert seen == [12800, 200]


_EDGE_FLOATS = ("5e-324", "1e-300", "1", "1e300", "1.7976931348623157e308")


@pytest.mark.parametrize("flag, value", [
    *((flag, value) for flag in ("--k", "--tmin", "--tmax", "--tol") for value in _EDGE_FLOATS),
    *(("--particles", value) for value in ("1", "64", str(MAX_PARTICLES), str(MAX_PARTICLES + 1))),
    ("--tsteps", "1"), ("--tsteps", "64"),
])
def test_thermo_edge_sweep(runner, flag, value):
    # every edge value ends in a documented exit code, never a traceback or a non-finite field
    args = {"--tsteps": "2", flag: value}
    result = runner.invoke(main, ["thermo", *(item for pair in args.items() for item in pair)])
    assert result.exit_code in (0, 2, 3, 4, 5), combined_output(result)
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in combined_output(result)
    if result.exit_code == 0:
        _, _, rows = parse_csv(result.stdout)
        assert rows and all(math.isfinite(float(field)) for row in rows for field in row)


def test_thermo_json(runner, tmp_path):
    out = tmp_path / "th.json"
    run_ok(runner, ["thermo", "--k", "0.4", "--tmin", "5", "--tmax", "10", "--tsteps", "2",
                    "--format", "json", "--out", str(out)])
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["config"]["particles"] == 1
    assert len(payload["rows"]) == 2
    assert payload["rows"][0]["k"] == pytest.approx(0.4)


# ---------------------------------------------------------------- configuration


def test_env_config_merged_under_flags(runner, tmp_path):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("omega=0.4\ngrid=21\n# comment line\n\n", encoding="utf-8")
    env = {CONFIG_ENV_VAR: str(cfg)}

    out1 = tmp_path / "cfg1.csv"
    run_ok(runner, ["density", "--n", "0", "--out", str(out1)], env=env)
    header, _, rows = parse_csv(out1.read_text(encoding="utf-8"))
    assert float(header["omega"]) == pytest.approx(0.4, rel=1e-15)
    assert len(rows) == 21

    out2 = tmp_path / "cfg2.csv"
    run_ok(runner, ["density", "--n", "0", "--omega", "0.7", "--out", str(out2)], env=env)
    header, _, _ = parse_csv(out2.read_text(encoding="utf-8"))
    assert float(header["omega"]) == pytest.approx(0.7, rel=1e-15)  # flag wins


def test_env_config_missing_file_errors(runner, tmp_path):
    result = runner.invoke(main, ["density"], env={CONFIG_ENV_VAR: str(tmp_path / "nope.cfg")})
    assert result.exit_code == 2


def test_env_config_bad_line_errors(runner, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("omega 0.4\n", encoding="utf-8")
    result = runner.invoke(main, ["density"], env={CONFIG_ENV_VAR: str(cfg)})
    assert result.exit_code == 2


def test_stdout_emission(runner):
    result = run_ok(runner, ["density", "--n", "0", "--grid", "5"])
    assert result.output.startswith("# majorana-lab density")
    _, columns, rows = parse_csv(result.output)
    assert columns == ["y", "density"] and len(rows) == 5
