"""Command-line interface: every computation as a reproducible, file-emitting command.

Output files are self-describing: CSV carries the full effective configuration
in `#`-prefixed header comments, JSON mirrors the same rows one-to-one.  All
floats are written with 17 significant digits, so a command re-run with the
same configuration produces bit-identical files.

Configuration precedence: command-line flags > key=value lines from the file
named by $MAJORANA_LAB_CONFIG > built-in defaults.  SETTINGS holds each key's
click type and default; the same type object casts the flag and the config
value, so a bad value from either source is a usage error (exit 2).

Only click and `common` load at import; each command imports its modules, and
json, when it runs.  Only the grid commands (density, entropy-density,
heatmap) import numpy, through _coords, so `table1`, `thermo` and `--help`
never do, and `table1` never loads `thermo`.
"""

import math
import numbers
import os
from collections import namedtuple
from types import SimpleNamespace

import click

from .common import DEFAULT_THETA, MAX_LEVEL, MAX_PARTICLES, OutOfRange, PhysicalConstants, linspace

CONFIG_ENV_VAR = "MAJORANA_LAB_CONFIG"

EXIT_BBM_VIOLATION = 3
EXIT_QUAD_NONCONVERGENCE = 4
EXIT_TRUNCATION_BUDGET = 5
# By class name, so that mapping an error imports none of the modules that raise it.
_EXIT_CODES = {"BoundViolation": EXIT_BBM_VIOLATION, "NonConvergence": EXIT_QUAD_NONCONVERGENCE,
               "TruncationBudget": EXIT_TRUNCATION_BUDGET}


class FiniteFloat(click.FloatRange):
    """click.FloatRange that also rejects inf and nan."""

    def convert(self, value, param, ctx):
        rv = super().convert(value, param, ctx)
        if not math.isfinite(rv):
            self.fail(f"{value!r} is not a finite number.", param, ctx)
        return rv

    def _describe_range(self):
        return "finite" if self.min is None and self.max is None else super()._describe_range()


class PowerCount(click.IntRange):
    """click.IntRange whose max, a power of ten, shows in help as 1e+<power>."""

    def _describe_range(self):
        return f"{self.min}<=x<={self.max:.0e}"


# A setting's click type casts both its --flag and its config value; help is the flag's.
Setting = namedtuple("Setting", "type default help", defaults=("",))
_POSITIVE = FiniteFloat(min=0.0, min_open=True)
_COUNT = click.IntRange(min=1)

SETTINGS = {
    "c": Setting(_POSITIVE, 1.0),
    "hbar": Setting(_POSITIVE, 1.0),
    "k_B": Setting(_POSITIVE, 1.0),
    "omega": Setting(_POSITIVE, 0.2, "Frequency omega."),
    "k": Setting(_POSITIVE, None, "Potential slope; omega = k/(c hbar) unless --omega is given."),
    "mass": Setting(FiniteFloat(min=0.0), 0.0, "Particle mass (records the y-origin shift)."),
    "theta": Setting(FiniteFloat(), DEFAULT_THETA, "Evaluation phase."),
    "tol": Setting(_POSITIVE, 1e-10, "Quadrature or series remainder tolerance."),
    "format": Setting(click.Choice(("csv", "json")), "csv", "Output format."),
    "out": Setting(click.STRING, "-", "Output path, or - for stdout."),
    "n": Setting(click.IntRange(min=0, max=MAX_LEVEL), 0, "Quantum number."),
    "space": Setting(click.Choice(("position", "momentum")), "position", "Coordinate space."),
    "grid": Setting(_COUNT, 400, "Grid point count."),
    "tmin": Setting(FiniteFloat(), 0.0, "Start time."),
    "tmax": Setting(FiniteFloat(), 10.0, "End time."),
    "tsteps": Setting(_COUNT, 25, "Number of time or temperature points."),
    "particles": Setting(PowerCount(min=1, max=MAX_PARTICLES), 1, "Particle count N."),
}
_HEADER = ("c", "hbar", "k_B", "omega", "k", "mass", "theta", "tol", "format", "out")
_READ_BY_ALL = ("c", "hbar", "k_B", "tol", "format", "out")


def _load_config():
    path = os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise click.UsageError(f"${CONFIG_ENV_VAR} names an unreadable file: {exc}") from None
    cfg = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            key, eq, value = line.partition("=")
            if not eq:
                raise click.UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
            cfg[key.strip()] = value.strip()
    return cfg


def _from_config(setting, key, text, many):
    """Cast a config value (a comma list if many) with the setting's type; errors name the key."""
    parts = [part.strip() for part in text.split(",") if part.strip()] if many else [text]
    try:
        if not parts:
            raise click.BadParameter("expected at least one value")
        values = [setting.type(part) for part in parts]
    except click.BadParameter as exc:
        raise click.BadParameter(exc.message, param_hint=f"{key!r} in ${CONFIG_ENV_VAR}") from None
    return values if many else values[0]


def _resolve(settings, flags, cfg):
    """flag > config file > default for each key of settings; other keys keep their defaults.

    An `x_list` key reads setting x as a list, from a repeated --x flag or a comma list,
    and its first value stands as x in the header.  The slope rule also lives here: k
    sets omega = k/(c hbar) only when it was given more directly than omega (--k beats
    a config omega; a config k beats the default), and the header's k is 0 otherwise.
    """
    s = {key: setting.default for key, setting in {**SETTINGS, **settings}.items()}
    rank = {}
    for key, setting in settings.items():
        name = key.removesuffix("_list")
        if flags.get(key) not in (None, ()):
            s[key], rank[key] = flags[key], 2
        elif name in cfg:
            s[key], rank[key] = _from_config(setting, name, cfg[name], key != name), 1
        if key != name:
            s[name] = s[key][0]
    if rank.get("k", 0) > rank.get("omega", 0):
        s["omega"] = s["k"] / (s["c"] * s["hbar"]) if s["c"] * s["hbar"] > 0.0 else math.inf
        if not 0.0 < s["omega"] < math.inf:
            raise click.BadParameter("k/(c hbar) leaves the float range", param_hint="'--k'")
    else:
        s["k"] = 0.0
    return SimpleNamespace(**s)


def _option(key, setting):
    many = key.endswith("_list")
    shown = " ".join(map(str, setting.default)) if many else setting.default
    extra = "" if shown is None else f" Default {shown}{', repeatable' * many}."
    return click.option(f"--{key.removesuffix('_list')}", key, type=setting.type, multiple=many,
                        default=None, help=setting.help + extra)


def _command(name, flags, config_only=(), **overrides):
    """A subcommand with --flags (plus --format, --out) that also reads config_only keys.

    overrides replace a key's default, or its whole Setting; an `x_list` key must give
    its default list.  The body receives the resolved settings as attributes.
    """
    settings = {key: SETTINGS.get(key) for key in (*flags, *config_only, *_READ_BY_ALL)}
    for key, value in overrides.items():
        base = SETTINGS[key.removesuffix("_list")]
        settings[key] = value if isinstance(value, Setting) else base._replace(default=value)

    def wrap(body):
        def callback(**given):
            s = _resolve(settings, given, _load_config())
            try:
                body(s)
            except OutOfRange as exc:
                raise click.BadParameter(str(exc), param_hint=_range_flags(exc, s)) from None
            except RuntimeError as exc:
                if type(exc).__name__ not in _EXIT_CODES:
                    raise
                click.echo(f"error: {exc}", err=True)
                raise SystemExit(_EXIT_CODES[type(exc).__name__]) from None

        for key in reversed((*flags, "format", "out")):
            callback = _option(key, settings[key])(callback)
        return main.command(name, help=body.__doc__)(callback)

    return wrap


def _range_flags(exc, s):
    """The flags that set the parameter an OutOfRange names."""
    if exc.param == "T":  # a thermo temperature: the end of the sweep it is
        return ("--tmin",) if exc.value == s.tmin else ("--tmax",)
    return {"t": ("--tmin", "--tmax"), "N": ("--particles",)}[exc.param]


def _csv(v):
    """One CSV field, or a comma-joined list/row: floats with 17 significant digits."""
    if isinstance(v, (list, tuple)):
        return ",".join(map(_csv, v))
    if isinstance(v, (str, numbers.Integral)):
        return str(v)
    return f"{float(v):.17g}"


def _emit(s, command, extras, columns, rows):
    """Write rows under a header of the _HEADER settings followed by the extras keys."""
    header = {key: getattr(s, key) for key in (*_HEADER, *extras)}
    if s.format == "csv":
        lines = [f"# majorana-lab {command}", *(f"# {k}={_csv(v)}" for k, v in header.items()),
                 ",".join(columns), *map(_csv, rows)]
        text = "\n".join(lines) + "\n"
    else:
        import json

        payload = {"command": command, "config": header, "columns": list(columns),
                   "rows": [dict(zip(columns, row)) for row in rows]}
        # numpy floats are floats to json; numpy integers are the only other non-JSON values
        text = json.dumps(payload, indent=2, default=int) + "\n"
    if s.out == "-":
        click.echo(text, nl=False)
        return
    try:
        with open(s.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise click.BadParameter(str(exc), param_hint="'--out'") from None


def _coords(omega, n, grid, space):
    """(radius, grid points) over the certified truncation radius of level n in space."""
    import numpy as np

    from .quadrature import truncation_radius
    from .spinor import space_frequency

    radius = truncation_radius(space_frequency(omega, space), n + 1, tail_tol=1e-12)
    return radius, np.linspace(-radius, radius, grid)


@click.group()
def main():
    """Quantum states, Shannon entropies, and thermodynamics of linear Majorana fermions."""


@_command("table1", ("omega_list", "n_list", "theta", "tol"),
          omega_list=(0.2, 0.4, 0.8), n_list=(0, 1, 2, 3))
def cmd_table1(s):
    """Entropy table: S_y, S_p, their sum, and the uncertainty bound per (n, omega)."""
    from .entropy import bbm_report

    reports = [(n, om, bbm_report(n, om, s.theta, s.tol)) for n in s.n_list for om in s.omega_list]
    rows = [(n, om, r.S_y, r.S_p, r.sum, r.bbm_bound) for n, om, r in reports]
    _emit(s, "table1", ("n_list", "omega_list"),
          ("n", "omega", "S_y", "S_p", "S_sum", "bbm_bound"), rows)


@_command("density", ("n", "omega", "k", "mass", "theta", "space", "grid"))
def cmd_density(s):
    """Probability density on a uniform grid over the certified truncation radius."""
    from .spinor import SpinorState, probability_density_at_phase

    s.radius, coords = _coords(s.omega, s.n, s.grid, s.space)
    values = probability_density_at_phase(SpinorState(n=s.n, omega=s.omega), coords, s.theta,
                                          s.space)
    rows = list(zip(coords.tolist(), values.tolist()))
    _emit(s, "density", ("n", "space", "grid", "radius"),
          ("y" if s.space == "position" else "p", "density"), rows)


@_command("entropy-density", ("n", "omega_list", "theta", "space", "grid"),
          n=1, omega_list=(0.2, 0.4, 0.8))
def cmd_entropy_density(s):
    """Entropic density rho*ln(rho) on a grid, one block per omega value."""
    from .entropy import entropic_density

    rows = []
    for om in s.omega_list:
        _, coords = _coords(om, s.n, s.grid, s.space)
        values = entropic_density(s.n, om, s.theta, coords, s.space)
        rows.extend(zip([om] * s.grid, coords.tolist(), values.tolist()))
    _emit(s, "entropy-density", ("n", "space", "grid", "omega_list"),
          ("omega", "y" if s.space == "position" else "p", "entropic_density"), rows)


@_command("heatmap", ("n", "omega", "k", "mass", "grid", "tmin", "tmax", "tsteps"), ("theta",),
          n=1)
def cmd_heatmap(s):
    """Position density rho(y, t) over a space-time grid (planar evolution data)."""
    from .spinor import SpinorState, phase, probability_density_at_phase

    pc = PhysicalConstants(c=s.c, hbar=s.hbar, k_B=s.k_B)
    state = SpinorState(n=s.n, omega=s.omega)
    s.radius, ys = _coords(s.omega, s.n, s.grid, "position")
    y_list, rows = ys.tolist(), []
    for t in linspace(s.tmin, s.tmax, s.tsteps):
        values = probability_density_at_phase(state, ys, phase(state, t, pc), "position")
        rows.extend(zip(y_list, [t] * s.grid, values.tolist()))
    _emit(s, "heatmap", ("n", "grid", "tmin", "tmax", "tsteps", "radius"),
          ("y", "t", "density"), rows)


@_command("thermo", ("k_list", "tmin", "tmax", "tsteps", "particles", "tol"),
          k_list=(0.2, 0.4, 0.8), tsteps=50,
          tmin=Setting(_POSITIVE, 0.1, "Lowest temperature."),
          tmax=Setting(_POSITIVE, 10.0, "Highest temperature."))
def cmd_thermo(s):
    """Partition function (exact series and closed form) and F, U, S, C_V over (k, T)."""
    from .thermo import EM_VALIDITY_WARN, EnsembleParams, thermo_sweep

    pc = PhysicalConstants(c=s.c, hbar=s.hbar, k_B=s.k_B)
    reports = thermo_sweep(s.k_list, linspace(s.tmin, s.tmax, s.tsteps), N=s.particles, pc=pc,
                           tol=s.tol)
    em_rel_err = [abs(r.Z_em - r.Z_exact) / r.Z_exact for r in reports]
    rows = [
        (r.k, r.T, r.beta, r.Z_exact, r.Z_em, err, r.F, r.U, r.S, r.C_V,
         r.F_exact, r.U_exact, r.S_exact, r.C_V_exact, r.truncation_n, r.tail_bound)
        for r, err in zip(reports, em_rel_err)
    ]
    worst = max(EnsembleParams(beta=r.beta, k=r.k, N=r.N, pc=pc).em_parameter for r in reports)
    if worst > EM_VALIDITY_WARN:
        click.echo(
            f"warning: c*hbar*k*beta^2 reaches {worst:.3g} > {EM_VALIDITY_WARN:g}; "
            "the closed-form (EM) columns are outside their validity window at low T "
            f"(measured |Z_em - Z|/Z up to {max(em_rel_err):.3g})",
            err=True,
        )
    _emit(s, "thermo", ("k_list", "tmin", "tmax", "tsteps", "particles"),
          ("k", "T", "beta", "Z_exact", "Z_em", "em_rel_err", "F_em", "U_em", "S_em", "C_V_em",
           "F_exact", "U_exact", "S_exact", "C_V_exact", "truncation_n", "tail_bound"), rows)


if __name__ == "__main__":
    main()
