import ast
import contextlib
import errno
import io
import json
import math
import os
import signal
import subprocess
import sys

import mpmath
import numpy as np
import pytest

import majorana_lab.cli as cli_mod
import majorana_lab.entropy as entropy_mod
import majorana_lab.thermo as thermo_mod
from cli_runner import invoke
from csv_utils import parse_csv, rows_as_floats
from mpmath_entropy import mpmath_unit_entropy
from mpmath_thermo import moments
from test_cli_golden import CASES as GOLDEN_CASES, GOLDEN
from without_package import env_without
from majorana_lab.cli import (
    CONFIG_ENV_VAR,
    EXIT_BBM_VIOLATION,
    EXIT_NONCONVERGENCE,
    UsageError,
    main,
)
from majorana_lab.common import MAX_LEVEL, MAX_PARTICLES, BoundViolation
from majorana_lab.entropy import BBM_BOUND

try:
    import resource
except ImportError:  # no file-size limit on this platform
    resource = None


def run_ok(args, env=None):
    result = invoke(args, env=env)
    assert result.exit_code == 0, f"{args} failed: {result.output}\n{result.exception!r}"
    return result


@pytest.mark.parametrize("raised, code", [(SystemExit(3), 3), (SystemExit(None), 0),
                                          (RuntimeError("a crash"), 1)],
                         ids=["SystemExit-3", "SystemExit-None", "RuntimeError"])
def test_runner_reports_the_exit_status(monkeypatch, raised, code):
    # as the console script would: a crash is exit 1, never 0, or every "exits cleanly" check
    # of the edge sweeps would pass on a traceback
    def body(s):
        raise raised

    _, settings, flags = cli_mod._COMMANDS["density"]
    monkeypatch.setitem(cli_mod._COMMANDS, "density", (body, settings, flags))
    result = invoke(["density"], env={CONFIG_ENV_VAR: None})
    assert result.exit_code == code
    assert result.exception is (raised if code == 1 else None)


# ---------------------------------------------------------------- table1


def test_table1_default_rows(tmp_path):
    out = tmp_path / "table1.csv"
    run_ok(["table1", "--out", str(out)])
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


def test_table1_deterministic_and_17_digit(tmp_path):
    out = tmp_path / "a.csv"
    run_ok(["table1", "--n", "0", "--n", "1", "--omega", "0.3", "--out", str(out)])
    first = out.read_bytes()
    run_ok(["table1", "--n", "0", "--n", "1", "--omega", "0.3", "--out", str(out)])
    assert out.read_bytes() == first
    _, columns, rows = parse_csv(out.read_text(encoding="utf-8"))
    for row in rows:
        for field in row[2:]:
            assert f"{float(field):.17g}" == field  # 17-significant-digit round trip


def test_table1_json_mirrors_csv(tmp_path):
    csv_path, json_path = tmp_path / "t.csv", tmp_path / "t.json"
    args = ["table1", "--n", "1", "--omega", "0.4", "--omega", "0.8"]
    run_ok(args + ["--out", str(csv_path)])
    run_ok(args + ["--format", "json", "--out", str(json_path)])
    _, columns, rows = parse_csv(csv_path.read_text(encoding="utf-8"))
    payload = json.loads(json_path.read_text(encoding="utf-8"))
    assert payload["command"] == "table1"
    assert payload["columns"] == columns
    assert len(payload["rows"]) == len(rows) == 2
    for json_row, csv_row in zip(payload["rows"], rows):
        for name, text in zip(columns, csv_row):
            assert json_row[name] == pytest.approx(float(text), rel=1e-15)


def test_table1_bbm_violation_exit_code(monkeypatch):
    def explode(n, omegas, theta, tol):
        raise BoundViolation("forced for the exit-code contract")

    # table1 looks bbm_reports up in entropy when it runs: cli binds no such name
    monkeypatch.setattr(entropy_mod, "bbm_reports", explode)
    result = invoke(["table1"])
    assert result.exit_code == EXIT_BBM_VIOLATION


def test_sum_below_the_bound_within_its_error_is_no_violation():
    # at tol = 10 the first round ends the quadrature: the sum is 2.14443 +/- 3.53, which spans
    # the bound 2.14473, so it is no sign of a bug (S_y is 1.0723649429247 in closed form)
    result = invoke(["table1", "--n", "0", "--omega", "1", "--tol", "10"])
    assert result.exit_code == 0, result.output
    assert result.stdout.splitlines()[-1].startswith("0,1,1.072216998213587,")


def test_loose_tol_is_no_false_violation():
    # one quadrature round at tol 10 must not certify a sum below the bound (a first panel over
    # all of [-R, R] gave 0.838 at n = 2, a false exit 3); S_1 is within its estimate of mpmath's
    result = invoke(["table1", "--n", "0", "--n", "2", "--omega", "1", "--omega", "2",
                     "--theta", "0.3", "--tol", "10"])
    assert result.exit_code == 0, result.output
    _, columns, rows = parse_csv(result.stdout)
    (s_1,), = [values[2:] for values in rows_as_floats(columns, rows, "n", "omega", "S_y")
               if values[:2] == [2.0, 1.0]]
    report, = entropy_mod.bbm_reports(2, (1.0,), 0.3, 10.0)
    assert s_1 == report.S_y
    assert abs(s_1 - float(mpmath_unit_entropy(2, 0.3))) <= report.quad_err / 2


@pytest.mark.parametrize("args", [["table1", "--n", "0", "--omega", "0.2", "--tol", "1e-300"],
                                  ["thermo", "--tol", "1e-300", "--tsteps", "2"]],
                         ids=["table1", "thermo"])
def test_quadrature_failure_exit_code(args):
    # a --tol that the quadrature or the 200-term series cannot certify: exit 4, one line
    result = invoke(args)
    assert result.exit_code == EXIT_NONCONVERGENCE, result.output
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1, result.stderr


@pytest.mark.parametrize("tol", ["1e-310", "1e-322", "5e-324"])
def test_unreachable_quadrature_tol_exits_at_once(monkeypatch, tol):
    # below ~1e-322 the tail tolerance tol/100 underflows; it is floored, not passed on as 0.
    # The quadrature gives up once its retired panels' errors pass tol, not at the budget
    points, integrate = [], entropy_mod.integrate
    monkeypatch.setattr(entropy_mod, "integrate",
                        lambda f, *args: integrate(lambda y: points.append(y) or f(y), *args))
    result = invoke(["table1", "--n", "0", "--tol", tol])
    assert result.exit_code == EXIT_NONCONVERGENCE, result.output
    assert "error: quadrature did not reach tol=" in result.output
    assert "Traceback" not in result.output
    assert 0 < len(points) < 10_000


_TABLE1_EDGES = [
    *((flag, value) for flag in ("--omega", "--theta", "--tol")
      for value in ("5e-324", "1e-300", "1", "1e300", "1.7976931348623157e308")),
    *(("--n", value) for value in ("0", str(MAX_LEVEL), str(MAX_LEVEL + 1))),
]


@pytest.mark.parametrize("flag, value", _TABLE1_EDGES)
def test_table1_edge_sweep(flag, value):
    # every edge value ends in a documented exit code, never a traceback or a non-finite field
    result = invoke(["table1", flag, value])
    assert result.exit_code in (0, 2, 3, 4), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    if result.exit_code == 0:
        _, _, rows = parse_csv(result.stdout)
        assert rows and all(math.isfinite(float(field)) for row in rows for field in row)


@pytest.mark.parametrize("n, theta", [(20, "0"), (30, "1.5707963267948966"), (64, "0")])
def test_table1_at_theta_endpoints(n, theta):
    run_ok(["table1", "--n", str(n), "--theta", theta])


def test_cli_import_loads_no_scipy():
    code = "import sys, majorana_lab.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}  # finds this checkout's src
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def modules_loaded_by(argv):
    """sys.modules after `from majorana_lab.cli import main` and main(argv), in a fresh process."""
    run = f"try:\n    main({argv!r})\nexcept SystemExit:\n    pass\n" if argv else ""
    code = ("import sys\nfrom majorana_lab.cli import main\n" + run
            + "sys.stderr.write('\\n' + repr(sorted(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    return ast.literal_eval(out.stderr.rsplit("\n", 1)[1])


@pytest.mark.parametrize("argv", [None, ["--help"], ["thermo", "--tsteps", "2"], ["table1"],
                                  ["table1", "--n", "64", "--theta", "0"],
                                  ["density", "--grid", "5"], ["entropy-density", "--grid", "5"],
                                  ["heatmap", "--grid", "3", "--tsteps", "2", "--format", "json"]],
                         ids=["import", "help", "thermo", "table1", "table1-n64-theta0", "density",
                              "entropy-density", "heatmap-json"])
def test_thermo_path_loads_no_numpy(argv):
    # every command evaluates one float at a time, in the standard library and pure math;
    # only an array handed to the library imports numpy
    assert [m for m in modules_loaded_by(argv) if m.split(".")[0] == "numpy"] == []


UNUSED_BY_CSV = {"json", "click", "dataclasses", "inspect", "numbers"}
CORE = {"majorana_lab", "majorana_lab.cli", "majorana_lab.common"}
GRID = CORE | {"majorana_lab.hermite", "majorana_lab.quadrature", "majorana_lab.spinor"}


@pytest.mark.parametrize("argv, unused, package", [
    (None, UNUSED_BY_CSV, CORE),
    (["--help"], UNUSED_BY_CSV, CORE),
    (["table1"], UNUSED_BY_CSV, GRID | {"majorana_lab.entropy"}),
    (["thermo", "--tsteps", "2"], UNUSED_BY_CSV, CORE | {"majorana_lab.thermo"}),
    (["thermo", "--tol", "1e-300", "--tsteps", "2"], UNUSED_BY_CSV, CORE | {"majorana_lab.thermo"}),
    (["density", "--grid", "5"], UNUSED_BY_CSV, GRID),
    (["entropy-density", "--grid", "5"], UNUSED_BY_CSV, GRID),
    (["heatmap", "--grid", "3", "--tsteps", "2", "--format", "json"], UNUSED_BY_CSV - {"json"},
     GRID),
], ids=["import", "help", "table1", "thermo-csv", "thermo-refused", "density", "entropy-density",
        "heatmap-json"])
def test_commands_load_only_what_they_use(argv, unused, package):
    # cli imports each command's modules when it runs and json only for --format json; the
    # command line is parsed by the standard library alone, and the records are namedtuples,
    # so no command pulls in dataclasses and the inspect/ast/dis chain it imports.  Every
    # module loaded is compiled on a cold start without bytecode, so the package's are pinned
    loaded = modules_loaded_by(argv)
    assert unused.isdisjoint(loaded)
    assert {m for m in loaded if m.split(".")[0] == "majorana_lab"} == package


@pytest.mark.parametrize("package", ["click", "numpy"])
def test_runs_without(package, tmp_path):
    # a package that cannot be imported, first on the path: no command needs it
    env = env_without(package, tmp_path)
    env.pop(CONFIG_ENV_VAR, None)
    for name, fmt in (("table1_defaults", "csv"), ("density", "csv"), ("entropy_density", "csv"),
                      ("heatmap", "csv"), ("thermo", "csv"), ("table1", "json")):
        argv = GOLDEN_CASES[name][0] + (["--format", fmt] if fmt != "csv" else [])
        out = subprocess.run([sys.executable, "-m", "majorana_lab.cli", *argv], env=env,
                             capture_output=True, timeout=60)
        assert out.returncode == 0, out.stderr.decode()
        assert out.stdout == (GOLDEN / f"{name}-{fmt}.golden").read_bytes(), (name, fmt)


# ---------------------------------------------------------------- density


def test_density_nodes_match_hermite_roots(tmp_path):
    out = tmp_path / "d.csv"
    run_ok(["density", "--n", "2", "--omega", "0.2", "--theta", str(math.pi / 2),
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


def test_density_symmetry_and_peak(tmp_path):
    out = tmp_path / "d0.csv"
    run_ok(["density", "--n", "0", "--omega", "0.4", "--grid", "401", "--out", str(out)])
    _, columns, rows = parse_csv(out.read_text(encoding="utf-8"))
    data = np.array(rows_as_floats(columns, rows, "y", "density"))
    rho = data[:, 1]
    assert np.argmax(rho) == 200  # peak at y = 0
    assert np.allclose(rho, rho[::-1], rtol=1e-12, atol=1e-300)


def test_density_momentum_space_column(tmp_path):
    out = tmp_path / "dp.csv"
    run_ok(["density", "--n", "1", "--omega", "0.2", "--space", "momentum",
            "--grid", "51", "--out", str(out)])
    _, columns, rows = parse_csv(out.read_text(encoding="utf-8"))
    assert columns == ["p", "density"]
    assert len(rows) == 51


def test_density_accepts_slope_parameterization(tmp_path):
    out = tmp_path / "dk.csv"
    run_ok(["density", "--n", "0", "--k", "0.3", "--grid", "11", "--out", str(out)])
    header, _, _ = parse_csv(out.read_text(encoding="utf-8"))
    assert float(header["omega"]) == pytest.approx(0.3, rel=1e-15)
    assert float(header["k"]) == pytest.approx(0.3, rel=1e-15)


def test_slope_with_no_float_frequency_is_usage_error(tmp_path):
    # c hbar = 1e-400 underflows to 0, so omega = k/(c hbar) has no float value
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("c=1e-200\nhbar=1e-200\n", encoding="utf-8")
    result = invoke(["density", "--k", "1"], env={CONFIG_ENV_VAR: str(cfg)})
    assert result.exit_code == 2 and result.exception is None, result.output
    assert "Invalid value for '--k'" in result.stderr and "Traceback" not in result.output


# ---------------------------------------------------------------- entropy density


def test_entropy_density_zero_at_nodes(tmp_path):
    out = tmp_path / "ed.csv"
    run_ok(["entropy-density", "--n", "1", "--omega", "0.4", "--theta", str(math.pi / 2),
            "--grid", "801", "--out", str(out)])
    _, columns, rows = parse_csv(out.read_text(encoding="utf-8"))
    assert columns == ["omega", "y", "entropic_density"]
    data = np.array(rows_as_floats(columns, rows, "y", "entropic_density"))
    mid = np.argmin(np.abs(data[:, 0]))  # H_1 node at the origin
    assert abs(data[mid, 1]) < 1e-6


def test_entropy_density_localization(tmp_path):
    def half_width(space):
        out = tmp_path / f"ed_{space}.csv"
        run_ok(["entropy-density", "--n", "1", "--omega", "0.2", "--omega", "0.8",
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


def test_heatmap_mass_and_period(tmp_path):
    omega, n = 0.2, 1
    period = 2 * math.pi / math.sqrt(2 * omega * n)
    out = tmp_path / "h.csv"
    run_ok(["heatmap", "--n", str(n), "--omega", str(omega), "--grid", "401",
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


def test_heatmap_ground_state_static(tmp_path):
    out = tmp_path / "h0.csv"
    run_ok(["heatmap", "--n", "0", "--omega", "0.2", "--grid", "101",
            "--tmin", "0", "--tmax", "5", "--tsteps", "4", "--out", str(out)])
    _, columns, rows = parse_csv(out.read_text(encoding="utf-8"))
    data = np.array(rows_as_floats(columns, rows, "density"))
    slices = data.reshape(4, 101)
    for j in range(1, 4):
        assert np.array_equal(slices[0], slices[j])


# ---------------------------------------------------------------- thermo


def test_thermo_schema_and_values(tmp_path):
    out = tmp_path / "th.csv"
    result = run_ok(["thermo", "--k", "0.2", "--tmin", "1", "--tmax", "10",
                     "--tsteps", "5", "--out", str(out)])
    header, columns, rows = parse_csv(out.read_text(encoding="utf-8"))
    assert columns[:6] == ["k", "T", "beta", "Z_exact", "Z_em", "em_rel_err"]
    assert len(rows) == 5
    data = rows_as_floats(columns, rows, "T", "Z_exact", "C_V_em", "em_rel_err")
    assert all(z >= 1.0 for _, z, _, _ in data)
    assert all(cv > 0.0 for _, _, cv, _ in data)
    # T = 10, k = 0.2: the closed form is safely inside its window
    assert data[-1][3] < 0.01
    assert "warning" in result.output  # T = 1 is outside it


def test_thermo_no_warning_when_valid(tmp_path):
    out = tmp_path / "th2.csv"
    result = run_ok(["thermo", "--k", "0.2", "--tmin", "8", "--tmax", "10",
                     "--tsteps", "3", "--out", str(out)])
    assert "warning" not in result.output


def test_thermo_warning_line():
    # the default sweep's largest c hbar k beta^2 is at k = 0.8, T = 0.1: 0.8 / 0.1^2 = 80
    assert run_ok(["thermo"]).stderr == (
        "warning: c*hbar*k*beta^2 reaches 80 > 0.1; the closed-form (EM) columns are outside "
        "their validity window at low T (measured |Z_em - Z|/Z up to 0.488)\n")
    assert run_ok(["thermo", "--tmin", "3"]).stderr == ""


def test_thermo_weak_coupling_succeeds(tmp_path):
    # c hbar k beta^2 down to 1e-6: the closed form's own regime.
    out = tmp_path / "weak.csv"
    result = run_ok(["thermo", "--k", "0.01", "--tmax", "100", "--tsteps", "5",
                     "--out", str(out)])
    _, columns, rows = parse_csv(out.read_text(encoding="utf-8"))
    assert len(rows) == 5
    data = rows_as_floats(columns, rows, "em_rel_err", "truncation_n", "tail_bound")
    assert all(n == 200 and 0.0 <= bound <= 1.6e-19 for _, n, bound in data)
    assert data[-1][0] < 1e-8  # T = 100: the closed form is all but exact
    worst = max(err for err, _, _ in data)
    # T = 0.1 is outside the window; the warning quotes the measured deviation
    assert f"|Z_em - Z|/Z up to {worst:.3g}" in result.output


@pytest.mark.parametrize("args", [
    ["--tmin", "0"],
    ["--tsteps", "0"],
    ["--particles", "0"],
    ["--k", "0"],
    ["--k", "-1"],
    ["--tol", "0"],
])
def test_thermo_bad_input_is_usage_error(args):
    result = invoke(["thermo", *args])
    assert result.exit_code == 2, result.output
    assert "Invalid value" in result.output


@pytest.mark.parametrize("line", ["tmin=0", "tsteps=0", "particles=0", "k=0.2,-1", "tol=0",
                                  "k_B=0"])
def test_thermo_bad_config_value_is_usage_error(tmp_path, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    result = invoke(["thermo"], env={CONFIG_ENV_VAR: str(cfg)})
    assert result.exit_code == 2, result.output
    assert CONFIG_ENV_VAR in result.output


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
def test_bad_flag_is_usage_error(command, args):
    result = invoke([command, *args])
    assert result.exit_code == 2, result.output
    assert f"Invalid value for '{args[-2]}'" in result.output


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
def test_bad_config_value_is_usage_error(tmp_path, command, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    result = invoke([command], env={CONFIG_ENV_VAR: str(cfg)})
    assert result.exit_code == 2, result.output
    assert f"'{line.partition('=')[0]}' in ${CONFIG_ENV_VAR}" in result.output


@pytest.mark.parametrize("command", ["table1", "density", "entropy-density", "heatmap"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_n_at_max_level_is_accepted(tmp_path, command, source):
    # the largest level the tests certify is accepted; MAX_LEVEL + 1 is a usage error above
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("grid=3\ntsteps=2\n" + (f"n={MAX_LEVEL}\n" if source == "config" else ""),
                   encoding="utf-8")
    args = [command, *(["--n", str(MAX_LEVEL)] if source == "flag" else [])]
    result = run_ok(args, env={CONFIG_ENV_VAR: str(cfg)})
    _, _, rows = parse_csv(result.output)
    assert rows and all(math.isfinite(float(field)) for row in rows for field in row)


@pytest.mark.parametrize("args", [
    ["density", "--omega", "1e-307", "--grid", "3"],
    ["density", "--omega", "1e308", "--space", "momentum", "--grid", "3"],
    ["entropy-density", "--omega", "1e308", "--space", "momentum", "--grid", "2"],
    ["heatmap", "--omega", "1e-320", "--grid", "3", "--tsteps", "2"],
    ["heatmap", "--n", "0", "--omega", "1e308", "--grid", "3", "--tsteps", "2"],
    ["heatmap", "--n", "1", "--omega", "1e308", "--grid", "3", "--tsteps", "2"],
])
def test_grid_commands_at_extreme_omega(args):
    # the truncation radius sqrt(W/omega) overflowed here; it now follows R_1/sqrt(omega).  The
    # phase rate sqrt(2 n omega) is 0 at n = 0 however large omega is, and finite at n = 1
    result = invoke(args)
    assert result.exit_code == 0, result.output
    header, _, rows = parse_csv(result.output)
    assert math.isfinite(float(header.get("radius", 0.0)))
    assert rows and all(math.isfinite(float(field)) for row in rows for field in row)


@pytest.mark.parametrize("args, flag", [
    (["density", "--omega", "5e-324", "--space", "momentum", "--grid", "3"], "--omega"),
    (["density", "--k", "1e-320", "--space", "momentum", "--grid", "3"], "--k"),
    (["entropy-density", "--omega", "1e-310", "--space", "momentum", "--grid", "3"], "--omega"),
], ids=["density-omega", "density-k", "entropy-density-omega"])
def test_momentum_frequency_overflow_is_usage_error(args, flag):
    # below omega = 2**-1024 the momentum-space frequency 1/omega overflows
    result = invoke(args)
    assert result.exit_code == 2, result.output
    assert f"Invalid value for '{flag}'" in result.output


@pytest.mark.parametrize("args", [
    ["--tmin", "-1e308", "--tmax", "1e308", "--tsteps", "3"],  # tmax - tmin overflows
    ["--k", "1e10", "--tmin", "1.7e308", "--tmax", "1.7e308", "--tsteps", "2"],  # the phase does
])
def test_heatmap_time_overflow_is_usage_error(args):
    result = invoke(["heatmap", "--grid", "3", *args])
    assert result.exit_code == 2, result.output
    assert "Invalid value for '--tmin' / '--tmax'" in result.output
    assert "nan" not in result.output  # a time the user never gave


@pytest.mark.parametrize("args", [
    ["--tmin", "1e-300"],  # beta**2 overflows
    ["--tmin", "1e160", "--tmax", "1e161"],  # Z ~ 2/lambda^2 exceeds the double range
    ["--tmin", "5e-324"],  # beta = 1/T overflows
    ["--k", "1e300", "--tmin", "1"],
])
def test_thermo_extreme_temperature_is_usage_error(args):
    result = invoke(["thermo", "--tsteps", "2", *args])
    assert result.exit_code == 2, result.output
    assert "Invalid value for '--tmin'" in result.output


@pytest.mark.parametrize("k, T", [
    ("1e300", "1e300"),  # c*hbar*k*beta^2 = 1e-300, the range edge, while beta^2 underflows to 0
    ("1e-300", "1e-200"),  # c*hbar*k*beta^2 = 1e100, while beta^2 overflows
])
def test_thermo_extreme_coupling_is_clean(k, T):
    result = invoke(["thermo", "--k", k, "--tmin", T, "--tmax", T, "--tsteps", "1"])
    assert result.exit_code in (0, 2), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


def test_thermo_underflowing_temperature_is_usage_error(tmp_path):
    path = tmp_path / "lab.cfg"
    path.write_text("k_B=1e-300\n", encoding="utf-8")  # k_B T underflows to 0 at --tmin
    result = invoke(["thermo", "--tmin", "1e-300", "--tsteps", "2"],
              env={CONFIG_ENV_VAR: str(path)})
    assert result.exit_code == 2, result.output
    assert "Invalid value for '--tmin'" in result.output


@pytest.mark.parametrize("cfg, args", [
    ("k_B=1e308", ["--k", "1", "--tmin", "1e-308", "--tmax", "1e-308"]),
    ("k_B=1e200", ["--k", "1", "--tmin", "1e-200", "--tmax", "1e-200",
                   "--particles", str(MAX_PARTICLES)]),
    # beta = 1/(k_B T) = 1e-310 puts F = -(N/beta) ln Z past the float range at N = 1
    ("c=1e300\nhbar=1e300\nk_B=1e300", ["--k", "1", "--tmin", "1e10", "--tmax", "1e10"]),
])
def test_thermo_non_finite_field_is_usage_error(tmp_path, cfg, args):
    # c*hbar*k*beta^2 is in range; k_B and N scale the fields past the float range.  Only a
    # count above 1 is named: at N = 1 no smaller count helps, and the temperatures are named
    path = tmp_path / "lab.cfg"
    path.write_text(cfg + "\n", encoding="utf-8")
    result = invoke(["thermo", "--tsteps", "1", *args],
              env={CONFIG_ENV_VAR: str(path)})
    assert result.exit_code == 2, result.output
    hint = "'--particles'" if "--particles" in args else "'--tmin' / '--tmax'"
    assert "k_B=" in result.output and f"Invalid value for {hint}:" in result.output


@pytest.mark.parametrize("k", [1e-3, 0.2, 1e3])
def test_thermo_finite_at_temperature_range_edges(tmp_path, k):
    # the extreme temperatures that keep c hbar k beta^2 inside [1e-300, 1e150]
    tmin, tmax = math.sqrt(k / 1e150) * (1 + 1e-12), math.sqrt(k / 1e-300) * (1 - 1e-12)
    out = tmp_path / "edge.csv"
    run_ok(["thermo", "--k", repr(k), "--tmin", repr(tmin), "--tmax", repr(tmax),
            "--tsteps", "3", "--particles", "3", "--out", str(out)])
    _, columns, rows = parse_csv(out.read_text(encoding="utf-8"))
    assert len(rows) == 3
    assert all(math.isfinite(float(field)) for row in rows for field in row)
    for T, key in ((tmin * 0.99, "--tmin"), (tmax * 1.01, "--tmax")):
        result = invoke(["thermo", "--k", repr(k), key, repr(T)])
        assert result.exit_code == 2, result.output
        assert f"Invalid value for '{key}'" in result.output


def test_thermo_finite_at_particle_bound(tmp_path):
    # beta = 1 with k at both ends of c hbar k beta^2 in [1e-300, 1e150]
    out = tmp_path / "bound.csv"
    run_ok(["thermo", "--k", "1e-300", "--k", "1e150", "--tmin", "1", "--tmax", "1",
            "--tsteps", "1", "--particles", str(MAX_PARTICLES), "--out", str(out)])
    _, columns, rows = parse_csv(out.read_text(encoding="utf-8"))
    assert len(rows) == 2
    assert all(math.isfinite(float(field)) for row in rows for field in row)
    result = invoke(["thermo", "--particles", str(MAX_PARTICLES + 1)])
    assert result.exit_code == 2, result.output
    assert "Invalid value for '--particles'" in result.output


def test_unwritable_out_is_usage_error(tmp_path):
    out = tmp_path / "no_such_dir" / "d.csv"
    result = invoke(["density", "--grid", "3", "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "Invalid value for '--out'" in result.output


def _limit_file_size():
    """In the child only: a file may grow to 1024 bytes, and a write past that fails (EFBIG)."""
    signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (1024, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))


def run_cli_process(argv, stdout, unbuffered=False, limit=False, cwd=None):
    """A `python -m majorana_lab.cli` run of argv writing stdout to the open file stdout, with
    PYTHONUNBUFFERED set or unset, and under _limit_file_size where limit is true."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    env.pop(CONFIG_ENV_VAR, None)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "majorana_lab.cli", *argv], env=env, cwd=cwd,
                          stdout=stdout, stderr=subprocess.PIPE, timeout=60,
                          preexec_fn=_limit_file_size if limit else None)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("target, argv", [
    ("/dev/full", ["table1"]), ("/dev/full", ["--help"]), ("/dev/full", ["table1", "--help"]),
    ("file-size limit", ["density", "--grid", "400"]),
], ids=["full-table1", "full-help", "full-command-help", "file-size-limit"])
def test_a_failed_write_to_stdout_is_refused(tmp_path, target, argv, unbuffered):
    # not a traceback (exit 1), and not exit 0 over a cut file: the text layer of an unbuffered
    # stdout drops the rest of a short write, so the CLI writes its bytes to the binary layer
    limit = target == "file-size limit"
    if (resource is None) if limit else not os.path.exists(target):
        pytest.skip(f"no {target} on this platform")
    with open(tmp_path / "out.csv" if limit else target, "wb") as stdout:
        out = run_cli_process(argv, stdout, unbuffered, limit)
    assert out.returncode == 2, out.stderr.decode()
    assert b"Traceback" not in out.stderr and b"Exception ignored" not in out.stderr
    code = errno.EFBIG if limit else errno.ENOSPC
    reason = f"[Errno {code}] {os.strerror(code)}"
    assert out.stderr.endswith(f"\nError: Invalid value for '--out': {reason}\n".encode())


@pytest.mark.skipif(resource is None, reason="no file-size limit on this platform")
@pytest.mark.parametrize("name", ["keep.csv", "k" * 251 + ".csv"], ids=["short", "255-chars"])
@pytest.mark.parametrize("previous", [b"# the previous run\n", None], ids=["file", "none"])
def test_a_failed_out_write_keeps_the_file_that_was_there(tmp_path, previous, name):
    # the file is written beside the target and replaces it only once whole; the file beside it
    # goes when the write fails
    if previous is not None:
        (tmp_path / name).write_bytes(previous)
    out = run_cli_process(["density", "--grid", "400", "--out", name], subprocess.DEVNULL,
                          limit=True, cwd=tmp_path)
    assert out.returncode == 2, out.stderr.decode()
    # naming the target, not the file beside it
    reason = f"[Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}: {name!r}"
    assert out.stderr.endswith(f"\nError: Invalid value for '--out': {reason}\n".encode())
    assert sorted(path.name for path in tmp_path.iterdir()) == [name] * (previous is not None)
    if previous is not None:
        assert (tmp_path / name).read_bytes() == previous


def test_out_writes_through_a_symlink_in_place(tmp_path):
    # only a missing target or a regular file is replaced: a symlink, like a device or a FIFO,
    # is written in place, so the link and the file it names stay
    (tmp_path / "real.csv").write_bytes(b"# the previous run\n")
    (tmp_path / "link.csv").symlink_to("real.csv")
    run_ok(["density", "--grid", "3", "--out", str(tmp_path / "link.csv")])
    assert (tmp_path / "link.csv").is_symlink()
    assert (tmp_path / "real.csv").read_bytes().startswith(b"# majorana-lab density\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["link.csv", "real.csv"]


def _raise_bound(*args):
    raise BoundViolation("forced for the exit-code contract")


def test_in_process_contract(capsys, monkeypatch):
    # perfbench/run.py runs untraced ops as cold `python -m majorana_lab.cli` processes; only
    # its traced runs (--trace 1) call main.main(args=..., prog_name=..., standalone_mode=False)
    # within its process: a usage error is raised to it unprinted; exits 3 and 4 stay exits
    def run(args):
        main.main(args=args, prog_name="majorana-lab", standalone_mode=False)

    assert main.main is main
    with pytest.raises(UsageError, match="^No such option: --nosuch$"):
        run(["table1", "--nosuch", "1"])
    assert capsys.readouterr() == ("", "")
    golden = (GOLDEN / "table1_defaults-csv.golden").read_bytes()
    run(GOLDEN_CASES["table1_defaults"][0])
    assert capsys.readouterr().out.encode() == golden
    with contextlib.redirect_stdout(io.StringIO()) as text:  # a stdout with no binary layer
        run(GOLDEN_CASES["table1_defaults"][0])
    assert text.getvalue().encode() == golden
    monkeypatch.setattr(entropy_mod, "bbm_reports", _raise_bound)
    with pytest.raises(SystemExit) as info:
        run(["table1"])
    assert info.value.code == EXIT_BBM_VIOLATION
    monkeypatch.undo()
    for args in (["table1", "--n", "0", "--tol", "1e-300"], ["thermo", "--tol", "1e-300"]):
        with pytest.raises(SystemExit) as info:
            run(args)
        assert info.value.code == EXIT_NONCONVERGENCE


def test_unmapped_runtime_error_escapes(capsys, monkeypatch):
    # a RuntimeError with no documented exit code is a bug: it leaves _run as itself, unreported
    error = RuntimeError("not a documented failure")

    def explode(*args):
        raise error

    monkeypatch.setattr(entropy_mod, "bbm_reports", explode)
    with pytest.raises(RuntimeError) as info:
        main(["table1"])
    assert info.value is error
    assert "error:" not in capsys.readouterr().err


def test_unreachable_tol_fails_before_summing_the_budget(monkeypatch):
    # the first report (T = 0.1, beta = 10) has a 200-term remainder bound above tol: it exits 4
    # there, after its one 200-term pass, and reports the bound it reached
    heads, seen = thermo_mod._heads, []
    monkeypatch.setattr(thermo_mod, "_heads", lambda lam: seen.append(lam) or heads(lam))
    result = invoke(["thermo", "--tol", "1e-300", "--tsteps", "2"])
    assert result.exit_code == EXIT_NONCONVERGENCE, result.output
    assert result.output == ("error: partition series remainder bound 6.57009e-45 at M = 200 "
                             "exceeds tol=1e-300 (beta=10.0, k=0.2)\n")
    assert len(seen) == 1


def test_tol_at_and_below_the_200_term_bound():
    # the 200-term remainder bound is at most 1.6e-19 at any coupling, so a tol of 2e-19 always
    # passes at M = 200, and a tol of 1e-20 is refused at the first report that the bound exceeds
    _, columns, rows = parse_csv(run_ok(["thermo", "--tol", "2e-19"]).stdout)
    assert rows and all(n == 200.0 for (n,) in rows_as_floats(columns, rows, "truncation_n"))
    result = invoke(["thermo", "--tol", "1e-20"])
    assert result.exit_code == EXIT_NONCONVERGENCE, result.output
    assert result.stdout == ""


def test_thermo_where_2_c_hbar_k_overflows():
    # c hbar k beta^2 = 1 is in range though 2 c hbar k overflows: the row is the one at k = beta = 1
    _, columns, rows = parse_csv(run_ok(["thermo", "--k", "1e308", "--tmin", "1e154", "--tmax",
                                         "1e154", "--tsteps", "1"]).stdout)
    assert rows_as_floats(columns, rows, "Z_exact", "truncation_n") == [[1.7223573172376998, 200.0]]
    # within 1 ulp of the 40-digit oracle at the exact c hbar k beta^2 = k beta^2
    [[k, beta, z_exact]] = rows_as_floats(columns, rows, "k", "beta", "Z_exact")
    z = moments(k, beta, beta)[0]
    assert abs(mpmath.mpf(z_exact) - z) <= math.ulp(z_exact), (z_exact, z)


@pytest.mark.parametrize("config, args, z_exact", [
    ("c=1e100\nhbar=1e10\n", ["--k", "1e200", "--tmin", "1e100", "--tmax", "1e100"], 1.0),
    ("c=1e-200\nhbar=1e-200\n", ["--k", "1", "--tmin", "1e-150", "--tmax", "1e-150"], 1e100),
], ids=["c_hbar_k-overflows", "c_hbar_k-underflows"])
def test_thermo_where_only_c_hbar_k_leaves_the_float_range(tmp_path, config, args, z_exact):
    # c hbar k beta^2 is 1e110 and 1e-100, inside the range, though c hbar k is inf or 0
    (tmp_path / "lab.cfg").write_text(config, encoding="utf-8")
    env = {CONFIG_ENV_VAR: str(tmp_path / "lab.cfg")}
    _, columns, rows = parse_csv(run_ok(["thermo", *args, "--tsteps", "1"], env=env).stdout)
    assert rows_as_floats(columns, rows, "Z_exact")[0][0] == pytest.approx(z_exact, rel=1e-15)


def test_density_where_only_c_hbar_overflows(tmp_path):
    # omega = k/(c hbar) = 1e-300 is in range, though c hbar = 1e600 is not
    (tmp_path / "lab.cfg").write_text("c=1e300\nhbar=1e300\n", encoding="utf-8")
    env = {CONFIG_ENV_VAR: str(tmp_path / "lab.cfg")}
    header, _, rows = parse_csv(run_ok(["density", "--k", "1e300", "--grid", "3"], env=env).stdout)
    assert float(header["omega"]) == 1e-300
    assert all(math.isfinite(float(field)) for row in rows for field in row)


def test_heatmap_at_t_0_where_sqrt_2n_omega_c_overflows(tmp_path):
    # sqrt(2 omega) c = 1.4e450 is not a float, but the phase at t = 0 is 0 and at 1e-300 is finite
    (tmp_path / "lab.cfg").write_text("c=1e300\n", encoding="utf-8")
    env = {CONFIG_ENV_VAR: str(tmp_path / "lab.cfg")}
    _, columns, rows = parse_csv(run_ok(["heatmap", "--n", "1", "--omega", "1e300", "--tmin", "0",
                                         "--tmax", "1e-300", "--tsteps", "2", "--grid", "3"],
                                        env=env).stdout)
    assert len(rows) == 6 and all(math.isfinite(float(field)) for row in rows for field in row)


def test_density_where_c_hbar_is_subnormal(tmp_path):
    # c hbar = 1e-320 is subnormal: omega = k/(c hbar) is 1e20 exactly scaled, not 1.0000111e20
    (tmp_path / "lab.cfg").write_text("c=1e-160\nhbar=1e-160\n", encoding="utf-8")
    env = {CONFIG_ENV_VAR: str(tmp_path / "lab.cfg")}
    by_k = run_ok(["density", "--k", "1e-300", "--grid", "5"], env=env).stdout
    by_omega = run_ok(["density", "--omega", "1e20", "--grid", "5"], env=env).stdout
    assert "# omega=1e+20\n" in by_k
    assert by_k.split("\n# radius=")[1] == by_omega.split("\n# radius=")[1]


def test_slope_with_a_subnormal_frequency_is_usage_error(tmp_path):
    # omega = k/(c hbar) = 3.2e-324 would round to 5e-324, so --k is refused; a subnormal
    # --omega given as it is stays accepted
    (tmp_path / "lab.cfg").write_text("c=1e100\nhbar=1e-50\n", encoding="utf-8")
    env = {CONFIG_ENV_VAR: str(tmp_path / "lab.cfg")}
    result = invoke(["density", "--k", "3.221014270844314e-274", "--grid", "3"], env=env)
    assert result.exit_code == 2 and result.exception is None, result.output
    assert "Invalid value for '--k': k/(c hbar) leaves the float range" in result.stderr
    assert result.stdout == ""
    by_omega = run_ok(["density", "--omega", "5e-324", "--grid", "3"], env=env).stdout
    assert "# omega=4.9406564584124654e-324\n" in by_omega


_IN_CONFIG = f" in ${CONFIG_ENV_VAR}"


@pytest.mark.parametrize("command, config, args, hint", [
    ("density", "c=1e200\nhbar=1e200\nk=1e-10", ["--grid", "3"], "'k'" + _IN_CONFIG),
    ("density", "omega=1e-310", ["--space", "momentum", "--grid", "3"], "'omega'" + _IN_CONFIG),
    ("entropy-density", "omega=1e-310", ["--space", "momentum", "--grid", "3"],
     "'omega'" + _IN_CONFIG),
    ("thermo", "tmin=1e-300", ["--tsteps", "2"], "'tmin'" + _IN_CONFIG),
    ("thermo", "tmax=1e160", ["--tmin", "1", "--tsteps", "2"], "'tmax'" + _IN_CONFIG),
    ("thermo", f"k_B=1e200\nparticles={MAX_PARTICLES}",
     ["--k", "1", "--tmin", "1e-200", "--tmax", "1e-200", "--tsteps", "1"],
     "'particles'" + _IN_CONFIG),
    ("heatmap", "tmin=-1e308", ["--tmax", "1e308", "--tsteps", "3", "--grid", "3"],
     "'tmin'" + _IN_CONFIG + " / '--tmax'"),
    # a default keeps its flag's name, though the file sets other keys
    ("thermo", "tmax=10", ["--k", "1e300", "--tsteps", "2"], "'--tmin'"),
    ("density", "c=1e200\nhbar=1e200", ["--k", "1e-10", "--grid", "3"], "'--k'"),
], ids=["density-k", "density-omega", "entropy-density-omega", "thermo-tmin", "thermo-tmax",
        "thermo-particles", "heatmap-tmin", "thermo-default-tmin", "density-flag-k"])
def test_range_refusal_names_the_config_key_it_came_from(tmp_path, command, config, args, hint):
    # a value refused after resolution is named where it was set: by its key in the file
    (tmp_path / "lab.cfg").write_text(config + "\n", encoding="utf-8")
    result = invoke([command, *args], env={CONFIG_ENV_VAR: str(tmp_path / "lab.cfg")})
    assert result.exit_code == 2 and result.exception is None, result.output
    assert f"Error: Invalid value for {hint}: " in result.stderr and result.stdout == ""


_EDGE_FLOATS = ("5e-324", "1e-300", "1", "1e300", "1.7976931348623157e308")


@pytest.mark.parametrize("flag, value", [
    *((flag, value) for flag in ("--k", "--tmin", "--tmax", "--tol") for value in _EDGE_FLOATS),
    *(("--particles", value) for value in ("1", "64", str(MAX_PARTICLES), str(MAX_PARTICLES + 1))),
    ("--tsteps", "1"), ("--tsteps", "64"),
])
def test_thermo_edge_sweep(flag, value):
    # every edge value ends in a documented exit code, never a traceback or a non-finite field
    args = {"--tsteps": "2", flag: value}
    result = invoke(["thermo", *(item for pair in args.items() for item in pair)])
    assert result.exit_code in (0, 2, 3, 4), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    if result.exit_code == 0:
        _, _, rows = parse_csv(result.stdout)
        assert rows and all(math.isfinite(float(field)) for row in rows for field in row)


_LOWEST = "-1.7976931348623157e308"
_GRID_COMMANDS = {  # command: (its base arguments, its float flags and their smallest values)
    "density": (["--grid", "3"], {"--omega": (), "--k": (), "--mass": ("0",),
                                  "--theta": (_LOWEST,)}),
    "entropy-density": (["--grid", "3"], {"--omega": (), "--theta": (_LOWEST,)}),
    "heatmap": (["--grid", "3", "--tsteps", "2"],
                {"--omega": (), "--k": (), "--mass": ("0",), "--tmin": (_LOWEST,),
                 "--tmax": (_LOWEST,)}),
}
_GRID_EDGES = [
    *((command, flag, value) for command, (_, floats) in _GRID_COMMANDS.items()
      for flag, lowest in floats.items() for value in (*lowest, *_EDGE_FLOATS)),
    *((command, "--n", value) for command in _GRID_COMMANDS
      for value in ("0", str(MAX_LEVEL), str(MAX_LEVEL + 1))),
    *((command, "--grid", value) for command in _GRID_COMMANDS for value in ("1", "64")),
    ("heatmap", "--tsteps", "1"), ("heatmap", "--tsteps", "64"),
    # settings only the config file sets: c and hbar (with --k 1, so that they set omega), and
    # heatmap's theta
    *((command, key, value) for command in ("density", "heatmap") for key in ("c", "hbar")
      for value in _EDGE_FLOATS),
    *(("heatmap", "theta", value) for value in (_LOWEST, *_EDGE_FLOATS)),
]


@pytest.mark.parametrize("command, flag, value", _GRID_EDGES)
def test_grid_command_edge_sweep(tmp_path, command, flag, value):
    # the grid counts have no maximum, so they are swept at the minimum and 64 only
    base, _ = _GRID_COMMANDS[command]
    args, env = dict(zip(base[::2], base[1::2])), {CONFIG_ENV_VAR: None}
    if flag.startswith("--"):
        args[flag] = value
    else:
        args["--k"] = "1"
        (tmp_path / "lab.cfg").write_text(f"{flag}={value}\n", encoding="utf-8")
        env[CONFIG_ENV_VAR] = str(tmp_path / "lab.cfg")
    result = invoke([command, *(item for pair in args.items() for item in pair)],
              env=env)
    assert result.exit_code in (0, 2, 3, 4), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    if result.exit_code == 0:
        header, _, rows = parse_csv(result.stdout)
        assert math.isfinite(float(header.get("radius", 0.0)))
        assert rows and all(math.isfinite(float(field)) for row in rows for field in row)


def test_thermo_json(tmp_path):
    out = tmp_path / "th.json"
    run_ok(["thermo", "--k", "0.4", "--tmin", "5", "--tmax", "10", "--tsteps", "2",
            "--format", "json", "--out", str(out)])
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["config"]["particles"] == 1
    assert len(payload["rows"]) == 2
    assert payload["rows"][0]["k"] == pytest.approx(0.4)


# ---------------------------------------------------------------- configuration


def test_env_config_merged_under_flags(tmp_path):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("omega=0.4\ngrid=21\n# comment line\n\n", encoding="utf-8")
    env = {CONFIG_ENV_VAR: str(cfg)}

    out1 = tmp_path / "cfg1.csv"
    run_ok(["density", "--n", "0", "--out", str(out1)], env=env)
    header, _, rows = parse_csv(out1.read_text(encoding="utf-8"))
    assert float(header["omega"]) == pytest.approx(0.4, rel=1e-15)
    assert len(rows) == 21

    out2 = tmp_path / "cfg2.csv"
    run_ok(["density", "--n", "0", "--omega", "0.7", "--out", str(out2)], env=env)
    header, _, _ = parse_csv(out2.read_text(encoding="utf-8"))
    assert float(header["omega"]) == pytest.approx(0.7, rel=1e-15)  # flag wins


def test_env_config_with_a_byte_order_mark(tmp_path):
    # as an editor may save it: the mark is not part of the first key
    plain, marked, latin1 = tmp_path / "plain.cfg", tmp_path / "bom.cfg", tmp_path / "latin1.cfg"
    plain.write_bytes(b"omega=0.4\n")
    marked.write_bytes(b"\xef\xbb\xbfomega=0.4\n")
    latin1.write_bytes(b"# \xe9\nomega=0.4\n")
    args = ["density", "--grid", "5"]
    expected = run_ok(args, env={CONFIG_ENV_VAR: str(plain)}).stdout_bytes
    assert run_ok(args, env={CONFIG_ENV_VAR: str(marked)}).stdout_bytes == expected
    result = invoke(args, env={CONFIG_ENV_VAR: str(latin1)})
    assert result.exit_code == 2 and "names an unreadable file" in result.stderr


def test_env_config_missing_file_errors(tmp_path):
    result = invoke(["density"], env={CONFIG_ENV_VAR: str(tmp_path / "nope.cfg")})
    assert result.exit_code == 2


def test_env_config_bad_line_errors(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("omega 0.4\n", encoding="utf-8")
    result = invoke(["density"], env={CONFIG_ENV_VAR: str(cfg)})
    assert result.exit_code == 2


@pytest.mark.parametrize("command", ["table1", "thermo"])
def test_env_config_unknown_key_errors(tmp_path, command):
    # a typo is not silently dropped: the error names the key and its line
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("# shared\ngrid=5\nomgea=0.3\n", encoding="utf-8")
    result = invoke([command], env={CONFIG_ENV_VAR: str(cfg)})
    assert result.exit_code == 2, result.output
    assert f"{cfg}:3" in result.stderr and "'omgea'" in result.stderr
    assert result.stdout == ""


def test_env_config_key_another_command_reads_is_allowed(tmp_path):
    # settings a command does not read (here grid, space, particles) keep a shared file usable
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("grid=5\nspace=momentum\nparticles=3\nomega=0.3\n", encoding="utf-8")
    result = run_ok(["table1", "--n", "0"], env={CONFIG_ENV_VAR: str(cfg)})
    header, _, rows = parse_csv(result.stdout)
    assert header["omega_list"] == "0.29999999999999999" and len(rows) == 1


def test_stdout_emission():
    result = run_ok(["density", "--n", "0", "--grid", "5"])
    assert result.output.startswith("# majorana-lab density")
    _, columns, rows = parse_csv(result.output)
    assert columns == ["y", "density"] and len(rows) == 5


# ---------------------------------------------------------------- the command line itself

_COMMAND_FLAGS = {"table1": "--omega", "density": "--space", "entropy-density": "--space",
                  "heatmap": "--tsteps", "thermo": "--particles"}


def test_no_arguments_is_usage_error():
    result = invoke([])
    assert result.exit_code == 2
    assert "Usage:" in result.stderr and result.stdout == ""


def test_help_lists_every_command():
    result = run_ok(["--help"])
    assert result.stdout.startswith("Usage:")
    assert all(command in result.stdout for command in _COMMAND_FLAGS)


@pytest.mark.parametrize("command", _COMMAND_FLAGS)
def test_command_help_lists_its_flags(command):
    result = run_ok([command, "--help"])
    assert result.stdout.startswith("Usage:")
    assert all(flag in result.stdout for flag in (_COMMAND_FLAGS[command], "--format", "--out"))
    # --omega is named only by the commands that have it
    assert ("--omega" in result.stdout) == (command != "thermo")


@pytest.mark.parametrize("args, token", [
    (["nosuch"], "nosuch"),
    (["--nosuch"], "--nosuch"),
    (["table1", "--nosuch"], "--nosuch"),
    (["table1", "extra"], "extra"),
    (["thermo", "--tsteps", "2", "extra"], "extra"),
    (["table1", "--n"], "--n"),
    (["density", "--grid", "3", "--out"], "--out"),
])
def test_bad_command_line_is_usage_error(args, token):
    result = invoke(args)
    assert result.exit_code == 2, result.output
    assert token in result.stderr and result.stdout == ""


def test_key_equals_value_form():
    spaced = run_ok(["heatmap", "--grid", "3", "--tsteps", "2", "--tmin", "-2"])
    joined = run_ok(["heatmap", "--grid=3", "--tsteps=2", "--tmin=-2"])
    assert joined.stdout == spaced.stdout
    header, _, rows = parse_csv(joined.stdout)
    assert header["tmin"] == "-2" and len(rows) == 6


def test_repeated_scalar_flag_keeps_the_last():
    result = run_ok(["density", "--grid", "3", "--grid", "5", "--theta", "1",
                     "--theta", "0.5"])
    header, _, rows = parse_csv(result.stdout)
    assert header["grid"] == "5" and header["theta"] == "0.5" and len(rows) == 5


@pytest.mark.parametrize("args, flag, value", [
    (["heatmap", "--grid", "3", "--tsteps", "2"], "--tmin", "-1e308"),
    (["density", "--grid", "3"], "--theta", _LOWEST),
    (["heatmap", "--grid", "3", "--tsteps", "2"], "--tmax", "-5"),
])
def test_flag_takes_a_value_that_starts_with_a_dash(args, flag, value):
    result = run_ok([*args, flag, value])
    header, _, _ = parse_csv(result.stdout)
    assert float(header[flag[2:]]) == float(value)


@pytest.mark.parametrize("reader", ["leaves after one line", "gone before the first write"])
def test_closed_pipe_is_quiet(reader):
    # as with `| head -1`: no traceback, and no "Exception ignored ... BrokenPipeError" at
    # interpreter exit.  A reader that leaves after one line may still let the whole text into
    # the pipe (exit 0) or cut the write (exit 1); a reader gone before the write always cuts it
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    env.pop(CONFIG_ENV_VAR, None)
    argv = [sys.executable, "-m", "majorana_lab.cli", "heatmap", "--grid", "2000", "--tsteps", "50"]
    if reader == "leaves after one line":
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline() == b"# majorana-lab heatmap\n"
        proc.stdout.close()
    else:
        read_end, write_end = os.pipe()
        proc = subprocess.Popen(argv, env=env, stdout=write_end, stderr=subprocess.PIPE)
        os.close(write_end)
        os.close(read_end)
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) in ((0, 1) if reader == "leaves after one line" else (1,))
    assert stderr == b""
