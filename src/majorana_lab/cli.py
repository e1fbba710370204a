"""Command-line interface: every computation as a reproducible, file-emitting command.

Output files are self-describing: CSV carries the full effective configuration in
`#`-prefixed header comments, JSON mirrors the same rows one-to-one, and floats have
17 significant digits, so re-runs are bit-identical.  Settings come from flags, then
key=value lines of the file named by $MAJORANA_LAB_CONFIG, then defaults.  The parser
is plain Python and only `common` loads at import; each command imports its modules,
and json, when it runs.  Every command evaluates one float at a time, so none imports
numpy and the bytes do not depend on the CPU's vector units.
"""

import math
import os
import sys
from collections import namedtuple
from types import SimpleNamespace

from .common import (DEFAULT_THETA, DEFAULT_TOL, MAX_LEVEL, MAX_PARTICLES, SPACES, BoundViolation,
                     NonConvergence, OutOfRange, PhysicalConstants, linspace)

CONFIG_ENV_VAR = "MAJORANA_LAB_CONFIG"

EXIT_BBM_VIOLATION = 3
EXIT_NONCONVERGENCE = 4  # a --tol that the quadrature or the 200-term series cannot certify


class UsageError(Exception):
    """A bad command line, flag value or configuration: exit 2 with this message."""


# A setting's type (or a tuple of the allowed words) casts its --flag and its config value
# alike; a number must be finite and within [low, high].  help is the flag's.
Setting = namedtuple("Setting", "type default help low high", defaults=("", -math.inf, math.inf))
_TINY = math.ulp(0.0)  # the least positive float: low=_TINY means x > 0

SETTINGS = {
    **dict.fromkeys(("c", "hbar", "k_B"), Setting(float, 1.0, "", _TINY)),  # config file only
    "omega": Setting(float, 0.2, "Frequency omega.", _TINY),
    "k": Setting(float, None, "Potential slope; omega = k/(c hbar) unless --omega is set.", _TINY),
    "mass": Setting(float, 0.0, "Particle mass (records the y-origin shift).", 0.0),
    "theta": Setting(float, DEFAULT_THETA, "Evaluation phase."),
    "tol": Setting(float, DEFAULT_TOL, "Quadrature or series remainder tolerance.", _TINY),
    "format": Setting(("csv", "json"), "csv", "Output format."),
    "out": Setting(str, "-", "Output path, or - for stdout."),
    "n": Setting(int, 0, "Quantum number.", 0, MAX_LEVEL),
    "space": Setting(SPACES, "position", "Coordinate space."),
    "grid": Setting(int, 400, "Grid point count.", 1),
    "tmin": Setting(float, 0.0, "Start time."),
    "tmax": Setting(float, 10.0, "End time."),
    "tsteps": Setting(int, 25, "Number of time or temperature points.", 1),
    "particles": Setting(int, 1, "Particle count N.", 1, MAX_PARTICLES),
}
_HEADER = ("c", "hbar", "k_B", "omega", "k", "mass", "theta", "tol", "format", "out")
_READ_BY_ALL = ("c", "hbar", "k_B", "tol", "format", "out")
_COMMANDS = {}  # name: (body, the settings it reads, its flags)


def _kind(setting):
    """What a value of setting must be, as help and errors show it: FLOAT 0<x<inf, [csv|json]."""
    kind, _, _, low, high = setting
    if not isinstance(kind, type) or kind is str:
        return "TEXT" if kind is str else f"[{'|'.join(kind)}]"
    low = "0<x" if low == _TINY else f"{low:g}<=x" if low > -math.inf else "-inf<x"
    return f"{kind.__name__.upper()} {low}" + (f"<={high:g}" if high < math.inf else "<inf")


def _cast(setting, text, hint):
    """text, a flag's or a config value, as a value of setting; hint names where it came from."""
    kind = setting.type
    try:
        value = kind(text) if isinstance(kind, type) else text if text in kind else None
    except ValueError:
        value = None
    if value is None or kind in (int, float) and not (setting.low <= value <= setting.high
                                                      and abs(value) < math.inf):
        raise UsageError(f"Invalid value for {hint}: {text!r} does not match {_kind(setting)}.")
    return value


def _load_config():
    path = os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"${CONFIG_ENV_VAR} names an unreadable file: {exc}") from None
    cfg = {}
    for lineno, raw in enumerate(lines, 1):
        key, eq, value = (part.strip() for part in raw.partition("="))
        if key.startswith("#") or not (key or eq):
            continue
        if not eq:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        if key not in SETTINGS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        cfg[key] = value
    return cfg


def _resolve(settings, flags, cfg):
    """flag > config file > default for each key of settings; other keys keep their defaults.

    flags maps a flag's name to the texts it was given; a scalar setting takes the last.
    An `x_list` key reads setting x as a list, from a repeated --x flag or a comma list,
    and its first value stands as x in the header.  The slope rule also lives here: k
    sets omega = k/(c hbar) only when it was given more directly than omega (--k beats
    a config omega; a config k beats the default), and the header's k is 0 otherwise.
    """
    s = {key: setting.default for key, setting in {**SETTINGS, **settings}.items()}
    rank = {}
    for key, setting in settings.items():
        name = key.removesuffix("_list")
        many = key != name
        if name in flags:
            texts, hint, rank[key] = flags[name] if many else flags[name][-1:], f"'--{name}'", 2
        elif name in cfg:
            texts = [t.strip() for t in cfg[name].split(",") if t.strip()] if many else [cfg[name]]
            hint, rank[key] = f"{name!r} in ${CONFIG_ENV_VAR}", 1
        if key in rank:
            if not texts:
                raise UsageError(f"Invalid value for {hint}: expected at least one value")
            values = [_cast(setting, text, hint) for text in texts]
            s[key] = values if many else values[0]
        if many:
            s[name] = s[key][0]
    s["pc"] = pc = PhysicalConstants(s["c"], s["hbar"], s["k_B"])
    if rank.get("k", 0) > rank.get("omega", 0):
        try:
            s["omega"] = pc.omega(s["k"])
        except OutOfRange as exc:
            raise UsageError(f"Invalid value for '--k': {exc}") from None
    else:
        s["k"] = 0.0
    return SimpleNamespace(**s)


def _command(name, flags, config_only=(), **overrides):
    """Register a command with --flags (plus --format, --out) that also reads config_only keys.

    overrides replace a key's default, or its whole Setting; an `x_list` key must give its
    default list.  The body maps the resolved settings to _emit's extras, columns and rows.
    """
    settings = {key: SETTINGS.get(key) for key in (*flags, *config_only, *_READ_BY_ALL)}
    for key, value in overrides.items():
        base = SETTINGS[key.removesuffix("_list")]
        settings[key] = value if isinstance(value, Setting) else base._replace(default=value)

    def register(body):
        _COMMANDS[name] = (body, settings, (*flags, "format", "out"))
        return body

    return register


def _help(prog, names):
    """--help text: the usage line, then each named command's docstring and flags."""
    lines = [f"Usage: {prog} {'COMMAND ' * (len(names) > 1)}[OPTIONS]"]
    for name in names:
        body, settings, flags = _COMMANDS[name]
        lines += ["", f"{name}: {body.__doc__}"]
        for key in flags:
            setting, many = settings[key], key.endswith("_list")
            shown = " ".join(map(str, setting.default)) if many else setting.default
            lines.append(f"  --{key.removesuffix('_list')} {_kind(setting)}  {setting.help}"
                         + ("" if shown is None else f" Default {shown}{', repeatable' * many}."))
    return "\n".join(lines) + "\n"


def _field(value):
    """A header value: floats with 17 significant digits, a list's items comma-joined."""
    items = value if isinstance(value, (list, tuple)) else [value]
    return ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in items)


def _emit(s, command, extras, columns, rows):
    """Write rows under a header of the _HEADER settings and the extras keys; a CSV row is
    one %-format of 17 significant digits per field (an integer prints as with %d)."""
    header = {key: getattr(s, key) for key in (*_HEADER, *extras)}
    if s.format == "csv":
        row = ",".join(["%.17g"] * len(columns))
        lines = [f"# majorana-lab {command}", *(f"# {k}={_field(v)}" for k, v in header.items()),
                 ",".join(columns), *(row % values for values in rows)]
        text = "\n".join(lines) + "\n"
    else:
        import json

        payload = {"command": command, "config": header, "columns": list(columns),
                   "rows": [dict(zip(columns, row)) for row in rows]}
        text = json.dumps(payload, indent=2) + "\n"
    if s.out == "-":
        sys.stdout.write(text)
        sys.stdout.flush()
        return
    try:
        with open(s.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"Invalid value for '--out': {exc}") from None


def _grid(omega, n, grid, space):
    """(radius, grid points) over the certified truncation radius of level n in space."""
    from .quadrature import truncation_radius
    from .spinor import space_frequency

    radius = truncation_radius(space_frequency(omega, space), n + 1, tail_tol=1e-12)
    return radius, linspace(-radius, radius, grid)


@_command("table1", ("omega_list", "n_list", "theta", "tol"),
          omega_list=(0.2, 0.4, 0.8), n_list=(0, 1, 2, 3))
def cmd_table1(s):
    """Entropy table: S_y, S_p, their sum, and the uncertainty bound per (n, omega)."""
    from .entropy import bbm_reports

    rows = [(r.n, r.omega, r.S_y, r.S_p, r.sum, r.bbm_bound)
            for n in s.n_list for r in bbm_reports(n, s.omega_list, s.theta, s.tol)]
    return ("n_list", "omega_list"), ("n", "omega", "S_y", "S_p", "S_sum", "bbm_bound"), rows


@_command("density", ("n", "omega", "k", "mass", "theta", "space", "grid"))
def cmd_density(s):
    """Probability density on a uniform grid over the certified truncation radius."""
    from .spinor import SpinorState, density_evaluator

    density = density_evaluator(SpinorState(n=s.n, omega=s.omega), s.theta, s.space)
    s.radius, coords = _grid(s.omega, s.n, s.grid, s.space)
    return (("n", "space", "grid", "radius"), ("y" if s.space == "position" else "p", "density"),
            [(y, density(y)) for y in coords])


@_command("entropy-density", ("n", "omega_list", "theta", "space", "grid"),
          n=1, omega_list=(0.2, 0.4, 0.8))
def cmd_entropy_density(s):
    """Entropic density rho*ln(rho) on a grid, one block per omega value."""
    from .quadrature import xlogx
    from .spinor import SpinorState, density_evaluator

    rows = []
    for om in s.omega_list:
        density = density_evaluator(SpinorState(n=s.n, omega=om), s.theta, s.space)
        rows.extend((om, y, xlogx(density(y))) for y in _grid(om, s.n, s.grid, s.space)[1])
    return (("n", "space", "grid", "omega_list"),
            ("omega", "y" if s.space == "position" else "p", "entropic_density"), rows)


@_command("heatmap", ("n", "omega", "k", "mass", "grid", "tmin", "tmax", "tsteps"), ("theta",),
          n=1)
def cmd_heatmap(s):
    """Position density rho(y, t) over a space-time grid (planar evolution data)."""
    from .spinor import SpinorState, density_slices, phase

    if not math.isfinite(s.tmax - s.tmin):
        raise OutOfRange("t", s.tmax - s.tmin, f"the time span tmax - tmin = {s.tmax!r} - "
                         f"{s.tmin!r} leaves the float range")
    state = SpinorState(n=s.n, omega=s.omega)
    s.radius, ys = _grid(s.omega, s.n, s.grid, "position")
    times, rows = linspace(s.tmin, s.tmax, s.tsteps), []
    for t, values in zip(times, density_slices(state, ys, [phase(state, t, s.pc) for t in times])):
        rows.extend(zip(ys, [t] * s.grid, values))
    return ("n", "grid", "tmin", "tmax", "tsteps", "radius"), ("y", "t", "density"), rows


@_command("thermo", ("k_list", "tmin", "tmax", "tsteps", "particles", "tol"),
          k_list=Setting(float, (0.2, 0.4, 0.8), "Potential slope k; one sweep over T per value.",
                         _TINY), tsteps=50,
          tmin=Setting(float, 0.1, "Lowest temperature.", _TINY),
          tmax=Setting(float, 10.0, "Highest temperature.", _TINY))
def cmd_thermo(s):
    """Partition function (exact series and closed form) and F, U, S, C_V over (k, T)."""
    from .thermo import EM_VALIDITY_WARN, EnsembleParams, thermo_sweep

    reports = thermo_sweep(s.k_list, linspace(s.tmin, s.tmax, s.tsteps), N=s.particles, pc=s.pc,
                           tol=s.tol)
    em_rel_err = [abs(r.Z_em - r.Z_exact) / r.Z_exact for r in reports]
    rows = [
        (r.k, r.T, r.beta, r.Z_exact, r.Z_em, err, r.F, r.U, r.S, r.C_V,
         r.F_exact, r.U_exact, r.S_exact, r.C_V_exact, r.truncation_n, r.tail_bound)
        for r, err in zip(reports, em_rel_err)
    ]
    # c hbar k beta^2 is non-decreasing in beta and in k, so it is largest at the largest of each
    worst = EnsembleParams(max(r.beta for r in reports), max(s.k_list), pc=s.pc).em_parameter
    if worst > EM_VALIDITY_WARN:
        sys.stderr.write(
            f"warning: c*hbar*k*beta^2 reaches {worst:.3g} > {EM_VALIDITY_WARN:g}; "
            "the closed-form (EM) columns are outside their validity window at low T "
            f"(measured |Z_em - Z|/Z up to {max(em_rel_err):.3g})\n")
    return (("k_list", "tmin", "tmax", "tsteps", "particles"),
            ("k", "T", "beta", "Z_exact", "Z_em", "em_rel_err", "F_em", "U_em", "S_em", "C_V_em",
             "F_exact", "U_exact", "S_exact", "C_V_exact", "truncation_n", "tail_bound"), rows)


def main(args=None, prog_name="majorana-lab", standalone_mode=True):
    """Quantum states, Shannon entropies, and thermodynamics of linear Majorana fermions.

    Runs the command args (default sys.argv[1:]) names; a usage error exits 2, or is raised
    if not standalone_mode.  perfbench/run.py runs each op as
    main.main(args=..., prog_name=..., standalone_mode=False).
    """
    args = sys.argv[1:] if args is None else list(args)
    name = args[0] if args and args[0] in _COMMANDS else None
    prog = f"{prog_name} {name}" if name else prog_name
    try:
        if name:
            _run(prog, name, args[1:])
        elif args[:1] == ["--help"]:
            sys.stdout.write(_help(prog, sorted(_COMMANDS)))
        else:
            raise UsageError(f"No such command {args[0]!r}." if args else "Missing command.")
    except UsageError as exc:
        if not standalone_mode:
            raise
        sys.stderr.write(f"Usage: {prog} {'' if name else 'COMMAND '}[OPTIONS]\n"
                         f"Try '{prog} --help' for help.\n\nError: {exc}\n")
        raise SystemExit(2) from None
    except BrokenPipeError:  # the reader left: let the flush at exit write to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(1) from None


def _run(prog, name, args):
    """Parse args as the flags of command name, resolve its settings and run it."""
    body, settings, flags = _COMMANDS[name]
    options, given, tokens = {f"--{key.removesuffix('_list')}" for key in flags}, {}, iter(args)
    for token in tokens:
        if token == "--help":
            sys.stdout.write(_help(prog, [name]))
            return
        flag, eq, text = token.partition("=")
        if flag not in options:
            raise UsageError(f"No such option: {flag}" if token.startswith("-")
                             else f"Got unexpected extra argument ({token})")
        if not eq and (text := next(tokens, None)) is None:
            raise UsageError(f"Option {flag!r} requires an argument.")
        given.setdefault(flag[2:], []).append(text)
    s = _resolve(settings, given, _load_config())
    try:
        _emit(s, name, *body(s))
    except OutOfRange as exc:  # T is a thermo temperature: the end of the sweep it is; a field
        # out of range at N = 1 is the temperatures' doing, as no smaller N exists
        span = "'--tmin' / '--tmax'"
        hint = {"t": span, "N": "'--particles'" if exc.value > 1 else span,
                "T": "'--tmin'" if exc.value == s.tmin else "'--tmax'",
                "omega": "'--k'" if s.k else "'--omega'"}[exc.param]
        raise UsageError(f"Invalid value for {hint}: {exc}") from None
    except (BoundViolation, NonConvergence) as exc:
        sys.stderr.write(f"error: {exc}\n")
        raise SystemExit(EXIT_BBM_VIOLATION if isinstance(exc, BoundViolation)
                         else EXIT_NONCONVERGENCE) from None


main.main = main

if __name__ == "__main__":
    main()
