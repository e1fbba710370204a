"""Outside-in tracing of majorana_lab's layers, with no edit to the package.

Each module of the package is a layer.  `Tracer.install` finds every public
function of every module at run time and rebinds its name, in every
majorana_lab namespace that holds it, to a wrapper that records a span.  A
function added or renamed later is therefore traced without a change here.
`uninstall` puts the originals back.

A span's self time is its duration minus the time its child spans cover.
The run adds each module's import self time (`import_times`), which every
cold op pays, so a layer a workload never calls still reports what its
module body costs.
Counts are taken from the calls themselves:

  hermite     points = size of the coordinate argument (the last parameter
              without a default);
  quadrature  an integral is a call that receives a callable; the callable is
              wrapped to count integrand evaluations (its time is charged to
              the caller's layer, whose code it is); a failure is an integral
              that raised;
  entropy     a report is an outermost entropy call that ran integrals;
  thermo      a point is an outermost call taking ensemble parameters (an
              object with a `beta`); a series call returns (Z, terms, tail) or
              raises an error carrying `truncation_n`, and adds those terms;
              a budget failure is such an error.
"""

import functools
import importlib
import inspect
import pkgutil
import re
import subprocess
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "majorana_lab"


def layer_modules():
    """Import and return {layer name: module} for every module of the package."""
    pkg = importlib.import_module(PACKAGE)
    return {info.name: importlib.import_module(f"{PACKAGE}.{info.name}")
            for info in pkgutil.iter_modules(pkg.__path__)}


def public_functions(module):
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")}


class _Frame:
    __slots__ = ("layer", "start", "child", "integrals_at_entry", "point")

    def __init__(self, layer, integrals, point):
        self.layer = layer
        self.start = time.perf_counter()
        self.child = 0.0
        self.integrals_at_entry = integrals
        self.point = point


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._stack = []
        self._seen_errors = set()
        self._rebound = []  # (namespace, name, original)

    # --- spans ------------------------------------------------------------

    def enter(self, layer, point=False):
        frame = _Frame(layer, self.counts["quadrature.integrals"], point)
        self._stack.append(frame)
        return frame

    def exit(self, frame):
        duration = time.perf_counter() - frame.start
        self._stack.pop()
        self.self_s[frame.layer] += duration - frame.child
        if self._stack:
            self._stack[-1].child += duration

    def _in_layer(self, layer, point_only=False):
        return any(f.layer == layer and (f.point or not point_only) for f in self._stack)

    # --- wrappers ---------------------------------------------------------

    def _wrap(self, layer, fn):
        coord_index = _coordinate_index(fn) if layer == "hermite" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[layer] += 1
            if layer == "hermite" and coord_index is not None and len(args) > coord_index:
                self.counts["hermite.points"] += _size(args[coord_index])
            integral = False
            if layer == "quadrature" and any(callable(a) for a in args):
                integral = True
                self.counts["quadrature.integrals"] += 1
                caller = self._stack[-1].layer if self._stack else layer
                args = tuple(self._integrand(a, caller) if callable(a) else a for a in args)
            outer_entropy = layer == "entropy" and not self._in_layer("entropy")
            point = (layer == "thermo" and bool(args) and hasattr(args[0], "beta")
                     and not self._in_layer("thermo", point_only=True))
            frame = self.enter(layer, point)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.exit(frame)
                if integral:
                    self.counts["quadrature.failures"] += 1
                if layer == "thermo" and hasattr(exc, "truncation_n") \
                        and id(exc) not in self._seen_errors:
                    self._seen_errors.add(id(exc))
                    self.counts["thermo.budget_failures"] += 1
                    self.counts["thermo.series_calls"] += 1
                    self.counts["thermo.series_terms"] += int(exc.truncation_n)
                raise
            self.exit(frame)
            if outer_entropy:
                ran = self.counts["quadrature.integrals"] - frame.integrals_at_entry
                if ran:
                    self.counts["entropy.reports"] += 1
                    self.counts["entropy.report_integrals"] += ran
            if point:
                self.counts["thermo.points"] += 1
            if layer == "thermo" and _is_series_result(result):
                self.counts["thermo.series_calls"] += 1
                self.counts["thermo.series_terms"] += int(result[1])
            return result

        return traced

    def _integrand(self, f, layer):
        @functools.wraps(f)
        def counted(*args, **kwargs):
            self.counts["quadrature.integrand_evals"] += 1
            frame = self.enter(layer)
            try:
                return f(*args, **kwargs)
            finally:
                self.exit(frame)
        return counted

    def install(self):
        """Rebind every public function of every layer in every package namespace."""
        namespaces = [m for name, m in list(sys.modules.items())
                      if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for layer, module in layer_modules().items():
            for fn in public_functions(module).values():
                wrapper = self._wrap(layer, fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._rebound.append((ns, attr, fn))
                            setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, fn in reversed(self._rebound):
            setattr(ns, attr, fn)
        self._rebound.clear()


def _coordinate_index(fn):
    params = [p for p in inspect.signature(fn).parameters.values()
              if p.default is inspect.Parameter.empty
              and p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    return len(params) - 1 if params else None


def _size(x):
    size = getattr(x, "size", None)
    return int(size) if size is not None else 1


def _is_series_result(result):
    return (isinstance(result, tuple) and len(result) == 3
            and isinstance(result[1], int) and not isinstance(result[1], bool))


# --- the import layer ---------------------------------------------------------

_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)\s*$")


def import_times(env, cwd):
    """Import costs of `import majorana_lab.cli`, from `python -X importtime`.

    Returns (total_s, scipy_s, {layer: module self s}): the cumulative time of
    the top-level majorana_lab imports, the self time of every scipy module
    they pulled in, and the self time of each package module's own body.
    """
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", f"import {PACKAGE}.cli"],
                          env=env, cwd=cwd, capture_output=True, text=True, timeout=120,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"import {PACKAGE}.cli failed:\n{proc.stderr[-2000:]}")
    total_us = scipy_us = 0
    module_us = {}
    for line in proc.stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if not m:
            continue
        self_us, cumulative_us, indent, name = int(m[1]), int(m[2]), m[3], m[4]
        top, _, layer = name.partition(".")
        if top == PACKAGE:
            if len(indent) == 1:
                total_us += cumulative_us
            if layer:
                module_us[layer] = self_us
        if top == "scipy":
            scipy_us += self_us
    return total_us / 1e6, scipy_us / 1e6, {k: v / 1e6 for k, v in module_us.items()}
