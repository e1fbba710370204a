"""Command-line interface: every computation as a reproducible, file-emitting command.

Output files are self-describing: CSV carries the full effective configuration
in `#`-prefixed header comments, JSON mirrors the same rows one-to-one.  All
floats are written with 17 significant digits, so a command re-run with the
same configuration produces bit-identical files.

Configuration precedence: command-line flags > key=value lines from the file
named by $MAJORANA_LAB_CONFIG > built-in defaults.
"""

import json
import math
import os
from dataclasses import asdict, dataclass

import click
import numpy as np

from .entropy import DEFAULT_THETA, BoundViolation, bbm_report, entropic_density
from .quadrature import NonConvergence, truncation_radius
from .spinor import PhysicalConstants, SpinorState, phase, probability_density_at_phase
from .thermo import EM_VALIDITY_WARN, EnsembleParams, TruncationBudget, thermo_sweep

CONFIG_ENV_VAR = "MAJORANA_LAB_CONFIG"

EXIT_OK = 0
EXIT_BBM_VIOLATION = 3
EXIT_QUAD_NONCONVERGENCE = 4
EXIT_TRUNCATION_BUDGET = 5

_FORMATS = ("csv", "json")
_DEFAULT_OMEGA = 0.2
_DEFAULT_TOL = 1e-10
_POSITIVE = click.FloatRange(min=0.0, min_open=True)
_COUNT = click.IntRange(min=1)


@dataclass(frozen=True)
class RunConfig:
    """Effective settings of one command invocation (serialized into every file)."""

    c: float = 1.0
    hbar: float = 1.0
    k_B: float = 1.0
    omega: float = _DEFAULT_OMEGA
    k: float = 0.0  # 0 means "omega given directly"
    mass: float = 0.0
    theta: float = DEFAULT_THETA
    tol: float = _DEFAULT_TOL
    format: str = "csv"
    out: str = "-"

    def __post_init__(self):
        for name in ("c", "hbar", "k_B", "omega", "tol"):
            if not (getattr(self, name) > 0.0):
                raise ValueError(f"{name} must be strictly positive")
        if self.k < 0.0 or self.mass < 0.0:
            raise ValueError("k and mass must be >= 0")
        if self.format not in _FORMATS:
            raise ValueError(f"format must be one of {_FORMATS}")

    def constants(self):
        return PhysicalConstants(c=self.c, hbar=self.hbar, k_B=self.k_B)


def _load_config_map():
    path = os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return {}
    if not os.path.exists(path):
        raise click.ClickException(f"{CONFIG_ENV_VAR} points to a missing file: {path}")
    mapping = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise click.ClickException(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            mapping[key.strip()] = value.strip()
    return mapping


def _cast(cast, key, value):
    """cast(value) of a config-file value; a click type's usage error names the key."""
    try:
        return cast(value)
    except click.BadParameter as exc:
        hint = f"{key!r} in ${CONFIG_ENV_VAR}"
        raise click.BadParameter(exc.message, param_hint=hint) from None


def _pick(flag_value, key, cast, default, cfg):
    if flag_value is not None:
        return flag_value
    if key in cfg:
        return _cast(cast, key, cfg[key])
    return default


def _pick_list(flag_values, key, cast, default, cfg):
    if flag_values:
        return list(flag_values)
    if key in cfg:
        return [_cast(cast, key, part) for part in cfg[key].split(",") if part.strip()]
    return list(default)


def _resolve_constants(cfg):
    return (
        _pick(None, "c", _POSITIVE, 1.0, cfg),
        _pick(None, "hbar", _POSITIVE, 1.0, cfg),
        _pick(None, "k_B", _POSITIVE, 1.0, cfg),
    )


def _resolve_omega(omega_flag, k_flag, mass_flag, cfg, c, hbar):
    """--omega wins over --k; --k (with --mass) implies omega = k/(c hbar)."""
    mass = _pick(mass_flag, "mass", float, 0.0, cfg)
    if omega_flag is not None:
        return omega_flag, 0.0, mass
    if "omega" in cfg and k_flag is None:
        return float(cfg["omega"]), 0.0, mass
    k = _pick(k_flag, "k", float, None, cfg)
    if k is not None:
        return k / (c * hbar), k, mass
    return _DEFAULT_OMEGA, 0.0, mass


def _fmt_value(v):
    if isinstance(v, (bool, np.bool_)):
        raise TypeError("boolean values have no place in emitted rows")
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, str):
        return v
    return f"{float(v):.17g}"


def _native(v):
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, str):
        return v
    return float(v)


def _emit(rc, command, extras, columns, rows):
    header = {**asdict(rc), **extras}
    if rc.format == "csv":
        lines = [f"# majorana-lab {command}"]
        lines.extend(f"# {key}={_serialize_header(value)}" for key, value in header.items())
        lines.append(",".join(columns))
        lines.extend(",".join(_fmt_value(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "command": command,
            "config": {key: _native_header(value) for key, value in header.items()},
            "columns": list(columns),
            "rows": [dict(zip(columns, (_native(v) for v in row))) for row in rows],
        }
        text = json.dumps(payload, indent=2) + "\n"
    if rc.out == "-":
        click.echo(text, nl=False)
    else:
        with open(rc.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _serialize_header(value):
    if isinstance(value, (list, tuple)):
        return ",".join(_fmt_value(v) for v in value)
    return _fmt_value(value)


def _native_header(value):
    if isinstance(value, (list, tuple)):
        return [_native(v) for v in value]
    return _native(value)


def _fail(code, exc):
    click.echo(f"error: {exc}", err=True)
    raise SystemExit(code)


_output_options = [
    click.option("--format", "fmt", type=click.Choice(_FORMATS), default=None,
                 help="Output format (default csv)."),
    click.option("--out", type=str, default=None,
                 help="Output path, or - for stdout (default)."),
]


def _add_options(options):
    def wrap(fn):
        for option in reversed(options):
            fn = option(fn)
        return fn
    return wrap


@click.group()
def main():
    """Quantum states, Shannon entropies, and thermodynamics of linear Majorana fermions."""


@main.command("table1")
@click.option("--omega", "omega_list", multiple=True, type=float,
              help="Frequency values (repeatable; default 0.2 0.4 0.8).")
@click.option("--n", "n_list", multiple=True, type=int,
              help="Quantum numbers (repeatable; default 0 1 2 3).")
@click.option("--theta", type=float, default=None, help="Evaluation phase (default pi/4).")
@click.option("--tol", type=float, default=None, help="Quadrature tolerance (default 1e-10).")
@_add_options(_output_options)
def cmd_table1(omega_list, n_list, theta, tol, fmt, out):
    """Entropy table: S_y, S_p, their sum, and the uncertainty bound per (n, omega)."""
    cfg = _load_config_map()
    c, hbar, k_B = _resolve_constants(cfg)
    omegas = _pick_list(omega_list, "omega", float, (0.2, 0.4, 0.8), cfg)
    ns = _pick_list(n_list, "n", int, (0, 1, 2, 3), cfg)
    rc = RunConfig(
        c=c, hbar=hbar, k_B=k_B,
        omega=omegas[0],
        theta=_pick(theta, "theta", float, DEFAULT_THETA, cfg),
        tol=_pick(tol, "tol", float, _DEFAULT_TOL, cfg),
        format=_pick(fmt, "format", str, "csv", cfg),
        out=_pick(out, "out", str, "-", cfg),
    )
    rows = []
    try:
        for n in ns:
            for om in omegas:
                rep = bbm_report(n, om, rc.theta, rc.tol)
                rows.append((n, om, rep.S_y, rep.S_p, rep.sum, rep.bbm_bound))
    except BoundViolation as exc:
        _fail(EXIT_BBM_VIOLATION, exc)
    except NonConvergence as exc:
        _fail(EXIT_QUAD_NONCONVERGENCE, exc)
    _emit(rc, "table1", {"n_list": ns, "omega_list": omegas},
          ("n", "omega", "S_y", "S_p", "S_sum", "bbm_bound"), rows)


@main.command("density")
@click.option("--n", type=int, default=None, help="Quantum number (default 0).")
@click.option("--omega", type=float, default=None, help="Frequency omega (wins over --k).")
@click.option("--k", type=float, default=None, help="Potential slope; omega = k/(c hbar).")
@click.option("--mass", type=float, default=None, help="Particle mass (records the y-origin shift).")
@click.option("--theta", type=float, default=None, help="Evaluation phase (default pi/4).")
@click.option("--space", type=click.Choice(("position", "momentum")), default=None)
@click.option("--grid", type=int, default=None, help="Grid point count (default 400).")
@_add_options(_output_options)
def cmd_density(n, omega, k, mass, theta, space, grid, fmt, out):
    """Probability density on a uniform grid over the certified truncation radius."""
    cfg = _load_config_map()
    c, hbar, k_B = _resolve_constants(cfg)
    om, k_eff, mass_eff = _resolve_omega(omega, k, mass, cfg, c, hbar)
    n = _pick(n, "n", int, 0, cfg)
    space = _pick(space, "space", str, "position", cfg)
    grid = _pick(grid, "grid", int, 400, cfg)
    rc = RunConfig(
        c=c, hbar=hbar, k_B=k_B, omega=om, k=k_eff, mass=mass_eff,
        theta=_pick(theta, "theta", float, DEFAULT_THETA, cfg),
        tol=_pick(None, "tol", float, _DEFAULT_TOL, cfg),
        format=_pick(fmt, "format", str, "csv", cfg),
        out=_pick(out, "out", str, "-", cfg),
    )
    state = SpinorState(n=n, omega=rc.omega)
    freq = rc.omega if space == "position" else 1.0 / rc.omega
    radius = truncation_radius(freq, n + 1, tail_tol=1e-12)
    coords = np.linspace(-radius, radius, grid)
    values = probability_density_at_phase(state, coords, rc.theta, space)
    coord_name = "y" if space == "position" else "p"
    rows = list(zip(coords.tolist(), np.atleast_1d(values).tolist()))
    _emit(rc, "density", {"n": n, "space": space, "grid": grid, "radius": radius},
          (coord_name, "density"), rows)


@main.command("entropy-density")
@click.option("--n", type=int, default=None, help="Quantum number (default 1).")
@click.option("--omega", "omega_list", multiple=True, type=float,
              help="Frequency values (repeatable; default 0.2 0.4 0.8).")
@click.option("--theta", type=float, default=None, help="Evaluation phase (default pi/4).")
@click.option("--space", type=click.Choice(("position", "momentum")), default=None)
@click.option("--grid", type=int, default=None, help="Grid point count per omega (default 400).")
@_add_options(_output_options)
def cmd_entropy_density(n, omega_list, theta, space, grid, fmt, out):
    """Entropic density rho*ln(rho) on a grid, one block per omega value."""
    cfg = _load_config_map()
    c, hbar, k_B = _resolve_constants(cfg)
    omegas = _pick_list(omega_list, "omega", float, (0.2, 0.4, 0.8), cfg)
    n = _pick(n, "n", int, 1, cfg)
    space = _pick(space, "space", str, "position", cfg)
    grid = _pick(grid, "grid", int, 400, cfg)
    rc = RunConfig(
        c=c, hbar=hbar, k_B=k_B, omega=omegas[0],
        theta=_pick(theta, "theta", float, DEFAULT_THETA, cfg),
        tol=_pick(None, "tol", float, _DEFAULT_TOL, cfg),
        format=_pick(fmt, "format", str, "csv", cfg),
        out=_pick(out, "out", str, "-", cfg),
    )
    coord_name = "y" if space == "position" else "p"
    rows = []
    for om in omegas:
        freq = om if space == "position" else 1.0 / om
        radius = truncation_radius(freq, n + 1, tail_tol=1e-12)
        coords = np.linspace(-radius, radius, grid)
        values = entropic_density(n, om, rc.theta, coords, space)
        rows.extend(zip([om] * grid, coords.tolist(), np.atleast_1d(values).tolist()))
    _emit(rc, "entropy-density",
          {"n": n, "space": space, "grid": grid, "omega_list": omegas},
          ("omega", coord_name, "entropic_density"), rows)


@main.command("heatmap")
@click.option("--n", type=int, default=None, help="Quantum number (default 1).")
@click.option("--omega", type=float, default=None, help="Frequency omega (default 0.2).")
@click.option("--k", type=float, default=None, help="Potential slope; omega = k/(c hbar).")
@click.option("--mass", type=float, default=None)
@click.option("--grid", type=int, default=None, help="y-grid point count (default 400).")
@click.option("--tmin", type=float, default=None, help="Start time (default 0).")
@click.option("--tmax", type=float, default=None, help="End time (default 10).")
@click.option("--tsteps", type=int, default=None, help="Number of time slices (default 25).")
@_add_options(_output_options)
def cmd_heatmap(n, omega, k, mass, grid, tmin, tmax, tsteps, fmt, out):
    """Position density rho(y, t) over a space-time grid (planar evolution data)."""
    cfg = _load_config_map()
    c, hbar, k_B = _resolve_constants(cfg)
    om, k_eff, mass_eff = _resolve_omega(omega, k, mass, cfg, c, hbar)
    n = _pick(n, "n", int, 1, cfg)
    grid = _pick(grid, "grid", int, 400, cfg)
    tmin = _pick(tmin, "tmin", float, 0.0, cfg)
    tmax = _pick(tmax, "tmax", float, 10.0, cfg)
    tsteps = _pick(tsteps, "tsteps", int, 25, cfg)
    rc = RunConfig(
        c=c, hbar=hbar, k_B=k_B, omega=om, k=k_eff, mass=mass_eff,
        theta=_pick(None, "theta", float, DEFAULT_THETA, cfg),
        tol=_pick(None, "tol", float, _DEFAULT_TOL, cfg),
        format=_pick(fmt, "format", str, "csv", cfg),
        out=_pick(out, "out", str, "-", cfg),
    )
    pc = rc.constants()
    state = SpinorState(n=n, omega=rc.omega)
    radius = truncation_radius(rc.omega, n + 1, tail_tol=1e-12)
    ys = np.linspace(-radius, radius, grid)
    ts = np.linspace(tmin, tmax, tsteps)
    rows = []
    for t in ts.tolist():
        theta_t = phase(state, t, pc)
        values = np.atleast_1d(probability_density_at_phase(state, ys, theta_t, "position"))
        rows.extend(zip(ys.tolist(), [t] * grid, values.tolist()))
    _emit(rc, "heatmap",
          {"n": n, "grid": grid, "tmin": tmin, "tmax": tmax, "tsteps": tsteps, "radius": radius},
          ("y", "t", "density"), rows)


@main.command("thermo")
@click.option("--k", "k_list", multiple=True, type=_POSITIVE,
              help="Potential slopes (repeatable; default 0.2 0.4 0.8).")
@click.option("--tmin", type=_POSITIVE, default=None, help="Lowest temperature (default 0.1).")
@click.option("--tmax", type=_POSITIVE, default=None, help="Highest temperature (default 10).")
@click.option("--tsteps", type=_COUNT, default=None, help="Temperature grid size (default 50).")
@click.option("--particles", type=_COUNT, default=None, help="Particle count N (default 1).")
@click.option("--tol", type=_POSITIVE, default=None,
              help="Series remainder tolerance (default 1e-10).")
@_add_options(_output_options)
def cmd_thermo(k_list, tmin, tmax, tsteps, particles, tol, fmt, out):
    """Partition function (exact series and closed form) and F, U, S, C_V over (k, T)."""
    cfg = _load_config_map()
    c, hbar, k_B = _resolve_constants(cfg)
    ks = _pick_list(k_list, "k", _POSITIVE, (0.2, 0.4, 0.8), cfg)
    tmin = _pick(tmin, "tmin", _POSITIVE, 0.1, cfg)
    tmax = _pick(tmax, "tmax", _POSITIVE, 10.0, cfg)
    tsteps = _pick(tsteps, "tsteps", _COUNT, 50, cfg)
    N = _pick(particles, "particles", _COUNT, 1, cfg)
    rc = RunConfig(
        c=c, hbar=hbar, k_B=k_B,
        tol=_pick(tol, "tol", _POSITIVE, _DEFAULT_TOL, cfg),
        format=_pick(fmt, "format", str, "csv", cfg),
        out=_pick(out, "out", str, "-", cfg),
    )
    pc = rc.constants()
    T_values = np.linspace(tmin, tmax, tsteps)
    try:
        reports = thermo_sweep(ks, T_values, N=N, pc=pc, tol=rc.tol)
    except TruncationBudget as exc:
        _fail(EXIT_TRUNCATION_BUDGET, exc)
    em_rel_err = [abs(r.Z_em - r.Z_exact) / r.Z_exact for r in reports]
    worst = max(EnsembleParams(beta=r.beta, k=r.k, N=N, pc=pc).em_parameter for r in reports)
    if worst > EM_VALIDITY_WARN:
        click.echo(
            f"warning: c*hbar*k*beta^2 reaches {worst:.3g} > {EM_VALIDITY_WARN:g}; "
            "the closed-form (EM) columns are outside their validity window at low T "
            f"(measured |Z_em - Z|/Z up to {max(em_rel_err):.3g})",
            err=True,
        )
    rows = [
        (
            r.k, r.T, r.beta, r.Z_exact, r.Z_em, err,
            r.F, r.U, r.S, r.C_V,
            r.F_exact, r.U_exact, r.S_exact, r.C_V_exact,
            r.truncation_n, r.tail_bound,
        )
        for r, err in zip(reports, em_rel_err)
    ]
    _emit(rc, "thermo",
          {"k_list": ks, "tmin": tmin, "tmax": tmax, "tsteps": tsteps, "particles": N},
          ("k", "T", "beta", "Z_exact", "Z_em", "em_rel_err",
           "F_em", "U_em", "S_em", "C_V_em",
           "F_exact", "U_exact", "S_exact", "C_V_exact",
           "truncation_n", "tail_bound"),
          rows)


if __name__ == "__main__":
    main()
