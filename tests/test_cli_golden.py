"""Byte identity of every command's output against files under tests/golden/.

Each case runs one command on a small grid, in CSV or JSON, optionally with a
$MAJORANA_LAB_CONFIG file.  The config cases set keys that only the file can
set (c, hbar, k_B, tol, and theta for heatmap) or comma lists, and exercise
the flag > file > default order and the omega/k rule.  A case whose arguments
or config name an output file is read from that file, so its header records a
relative path; every other case is read from stdout.
"""

import hashlib
import json
import math
from pathlib import Path

import pytest

from cli_runner import invoke
from csv_utils import parse_csv
from mpmath_entropy import mpmath_unit_entropy
from mpmath_hermite import density
from mpmath_thermo import fields, moments

from majorana_lab.cli import CONFIG_ENV_VAR

GOLDEN = Path(__file__).parent / "golden"

# name: (argv, config file text or None); the golden file is GOLDEN / f"{name}-{format}.golden"
CASES = {
    "table1": (["table1", "--n", "0", "--n", "2", "--omega", "0.3", "--omega", "0.7",
                "--theta", "0.6"], None),
    "table1_defaults": (["table1"], None),
    "density": (["density", "--n", "2", "--omega", "0.3", "--theta", "1.1",
                 "--space", "momentum", "--grid", "9"], None),
    "density_defaults": (["density", "--grid", "5"], None),
    "density_k_mass": (["density", "--n", "1", "--k", "0.3", "--mass", "0.5", "--grid", "5"],
                       None),
    "density_omega_beats_k": (["density", "--omega", "0.5", "--k", "0.3", "--grid", "3"], None),
    "entropy_density": (["entropy-density", "--n", "1", "--omega", "0.4", "--omega", "0.9",
                         "--theta", "0.3", "--grid", "5"], None),
    "heatmap": (["heatmap", "--n", "2", "--omega", "0.5", "--grid", "5", "--tmin", "0",
                 "--tmax", "3", "--tsteps", "3"], None),
    "heatmap_k_negative_time": (["heatmap", "--k", "0.4", "--grid", "3", "--tmin", "-2",
                                 "--tmax", "1", "--tsteps", "2"], None),
    "thermo": (["thermo", "--k", "0.2", "--k", "0.5", "--tmin", "0.5", "--tmax", "4",
                "--tsteps", "3", "--particles", "2", "--tol", "1e-12"], None),
    "thermo_out_file": (["thermo", "--k", "0.3", "--tmin", "2", "--tmax", "3", "--tsteps", "2",
                         "--out", "out.csv"], None),
    # config-file cases: one or more per command
    "table1_cfg": (["table1"], "omega=0.3, 0.6\nn=0,2\ntheta=0.7\ntol=1e-9\nk=0.5\nmass=1\n"),
    "density_cfg_constants_k": (["density", "--n", "1"],
                                "c=2\nhbar=0.25\nk=0.3\nmass=0.5\ngrid=5\nspace=momentum\n"),
    "density_cfg_omega_beats_cfg_k": (["density"], "omega=0.4\nk=0.3\ngrid=3\n"),
    "density_cfg_k_flag_beats_cfg_omega": (["density", "--k", "0.3", "--grid", "3"],
                                           "omega=0.4\n"),
    "entropy_density_cfg": (["entropy-density"],
                            "k_B=1.5\nomega=0.5,0.25\nn=2\ngrid=3\ntol=1e-7\ntheta=0.2\n"),
    "heatmap_cfg": (["heatmap", "--omega", "0.3"],
                    "theta=0.5\ntol=1e-8\nn=1\ngrid=4\ntsteps=2\ntmax=1.5\nmass=0.25\n"),
    "thermo_cfg": (["thermo", "--tsteps", "3"],
                   "# shared by every command\nk=0.3,0.6\ntsteps=2\ntmin=1\ntmax=2\n"
                   "particles=3\nk_B=2\nc=1.5\nomega=0.9\ntheta=0.1\ngrid=7\n"),
    "thermo_cfg_out": (["thermo", "--k", "0.4", "--tsteps", "2", "--tmin", "3"],
                       "out=out.json\nformat=json\n"),
}
FORMATS = {
    "table1": ("csv", "json"),
    "density": ("csv", "json"),
    "entropy_density": ("csv", "json"),
    "heatmap": ("csv", "json"),
    "thermo": ("csv", "json"),
}


def _params():
    for name in CASES:
        for fmt in FORMATS.get(name, ("csv",)):
            yield pytest.param(name, fmt, id=f"{name}-{fmt}")


def run_case(name, fmt, workdir):
    """Output bytes of one case, run with workdir as the current directory."""
    argv, config = CASES[name]
    argv = argv + (["--format", fmt] if fmt != "csv" else [])
    env = {CONFIG_ENV_VAR: None}
    if config is not None:
        (workdir / "lab.cfg").write_text(config, encoding="utf-8")
        env[CONFIG_ENV_VAR] = "lab.cfg"
    result = invoke(argv, env=env)
    assert result.exit_code == 0, f"{argv}: {result.output}\n{result.exception!r}"
    outputs = sorted(workdir.glob("out.*"))
    return outputs[0].read_bytes() if outputs else result.stdout_bytes


# sha256 of outputs too long for a golden file: 400k, 300k and 100k rows.  The float path
# writes them on every CPU; they equal what the earlier numpy-based grid commands wrote with
# numpy's AVX-512 kernels switched off (NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR").
LARGE_OUTPUTS = {
    "heatmap": (["heatmap", "--grid", "2000", "--tsteps", "200"],
                "904105a6419b1118ec245bbe6e33ea35fa075b38476a010375570e8146a120df"),
    "entropy_density": (["entropy-density", "--grid", "100000"],
                        "276c87f22fccaab72b65a229cc1b6d544f42400f382cec2e15527ec914237714"),
    "heatmap_json": (["heatmap", "--grid", "2000", "--tsteps", "50", "--format", "json"],
                     "25420d45290fa8d7a96dadb6702635760affc31866a82d7061d00b67418affbb"),
}


@pytest.mark.parametrize("name", LARGE_OUTPUTS)
def test_large_output_sha256(name):
    argv, digest = LARGE_OUTPUTS[name]
    result = invoke(argv, env={CONFIG_ENV_VAR: None})
    assert result.exit_code == 0, f"{argv}: {result.output}\n{result.exception!r}"
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest


@pytest.mark.parametrize("name, fmt", _params())
def test_output_matches_golden(name, fmt, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    output = run_case(name, fmt, tmp_path)
    assert output == (GOLDEN / f"{name}-{fmt}.golden").read_bytes()


def golden_rows(name):
    """(config, rows as {column: value}) of one golden file, CSV or JSON."""
    text = (GOLDEN / f"{name}.golden").read_text(encoding="utf-8")
    if text.startswith("{"):
        payload = json.loads(text)
        return payload["config"], payload["rows"]
    config, columns, fields = parse_csv(text)
    return config, [dict(zip(columns, map(float, row))) for row in fields]


@pytest.mark.parametrize("name", ["thermo-csv", "thermo-json", "thermo_out_file-csv",
                                  "thermo_cfg-csv", "thermo_cfg_out-csv"])
def test_thermo_golden_exact_columns_match_mpmath(name):
    # the library's moment pass against the 40-digit zeta-series oracle at the exact c hbar k beta^2
    import mpmath
    config, rows = golden_rows(name)
    c, hbar, k_B = (float(config[key]) for key in ("c", "hbar", "k_B"))
    names = ("Z_exact", "F_exact", "U_exact", "S_exact", "C_V_exact")
    for row in rows:
        reference = fields(moments(c, hbar, row["k"], row["beta"], row["beta"]), row["beta"],
                           int(config["particles"]), k_B)
        for column, want in zip(names, reference):
            rel = abs((mpmath.mpf(row[column]) - want) / want)
            assert rel <= 1e-15, (column, row, float(rel))


@pytest.mark.parametrize("name", ["table1-csv", "table1-json", "table1_defaults-csv",
                                  "table1_cfg-csv"])
def test_table1_golden_entropies_match_mpmath(name):
    # S_sum = 2 S_1 exactly; each S_1 against an independent 30-digit quadrature, within 2 ulp
    import mpmath
    config, rows = golden_rows(name)
    for row in rows:
        want = mpmath_unit_entropy(int(row["n"]), float(config["theta"]))
        ulps = abs(mpmath.mpf(row["S_sum"] / 2) - want) / math.ulp(float(want))
        assert ulps <= 2, (row, float(ulps))


GRID_GOLDENS = [path.stem for path in sorted(GOLDEN.glob("*.golden"))
                if path.stem.startswith(("density", "entropy_density", "heatmap"))]
EPS = 2.0**-52


def density_rel_bound(n, u2):
    """Relative error bound, in eps, of the float path's rho(y) at u2 = omega y^2.

    u = sqrt(omega) y carries a relative error <= 1.25 eps (the root, of 1/omega in momentum
    space, and the product), so -u*u/2 carries an absolute error <= 1.5 u^2 eps.  exp passes an
    absolute error of its argument on as the same relative error, and squaring phi doubles it:
    3 u^2 eps is the conditioning of exp(-u^2/2).  The rest is a fixed count of roundings, each
    well conditioned: norm and exp 3 eps, each recurrence step 3.5 eps, then squaring, the sin^2
    and cos^2 weights and their sum 4 eps.  (A recurrence step is well conditioned except near a
    zero of phi_n; in the goldens, levels n <= 2, phi_{n-1} carries rho there with weight >= 0.2.)
    """
    return 3.0 * u2 + 2.0 * (3.0 + 3.5 * n) + 4.0


@pytest.mark.parametrize("name", GRID_GOLDENS)
def test_grid_golden_densities_match_mpmath(name):
    # every rho and rho ln rho of the grid goldens against 40 digits, from the file's own inputs
    import mpmath
    config, rows = golden_rows(name)
    n, momentum = int(config["n"]), config.get("space") == "momentum"
    for row in rows:
        omega = float(row.get("omega", config["omega"]))
        theta = (math.sqrt(2.0 * omega * n) * float(config["c"]) * row["t"] if "t" in row
                 else float(config["theta"]))  # heatmap's phase, as spinor.phase forms it
        coord = row["p"] if momentum else row["y"]
        with mpmath.workdps(40):
            frequency = 1 / mpmath.mpf(omega) if momentum else mpmath.mpf(omega)
            rho = density(n, frequency, theta, coord)
            bound = density_rel_bound(n, float(frequency * coord**2))
            if "entropic_density" in row:
                # x ln x: rho's relative error times |1 + 1/ln rho|, plus log's and product's
                got, want = row["entropic_density"], rho * mpmath.log(rho) if rho else 0
                bound = bound * abs(1 + 1 / mpmath.log(rho)) + 1.5 if rho else 0
            else:
                got, want = row["density"], rho
            err = abs(got - want)
            assert err <= bound * EPS * abs(want), (row, float(err / want) if want else err)
