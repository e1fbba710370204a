"""majorana-lab benchmark: three closed-loop workloads of cold CLI invocations.

    python3 perfbench/run.py --workload entropy-table --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; nothing needs installing.  Each op is
one cold `python -m majorana_lab.cli ...` process with PYTHONPATH=src, run one
at a time (one client, one op in flight).  The anchor ops (ROADMAP baseline
commands) always run, then whole cycles of generated ops: as many as take
--seconds on the reference machine (workloads.cycle_count), so every run of
a workload does the same amount and mix of work whatever the seed and the
machine's load.  A run that takes over twice --seconds starts no more cycles.
Every output file is then checked against an independent oracle (oracle.py).

A shared host's speed drifts by a quarter or more within minutes, more than
the bounds allow, so every end-to-end time is given in reference seconds.  A
calibration start - a cold interpreter that imports scipy.integrate and runs
a fixed loop, but no code of the package - is timed before the first timed
step and after every third, and each step's wall time is scaled by the
calibration's nominal time over its smoothed time around the step (`Speed`).
The raw wall times and the calibration times are in the record.

--trace 0 reports the end-to-end metrics.  --trace 1 instead runs the anchors
and one cycle of generated ops in-process, each op once untraced and once
with every layer traced (tracing.py), and reports the per-layer metrics.
`--workload all` runs the three workloads in turn.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
A full record (machine, versions, per-op exit codes, wall times, output
sha256) is written to .perfbench/results/.  METRICS.md defines each metric.

An op ends in one of three outcomes.  "ok": exit 0 and an output the oracle
accepts.  "refused": one of the CLI's documented exit codes 3/4/5 with its
one-line error and no output, as `thermo --k 0.01 --tmax 100 --tsteps 5`
does today when the series budget runs out.  "failed": anything else - a
traceback, another exit code, a timeout, an empty or unparsable file, an
oracle miss.  Only failed ops count in "failed"; ops that are not ok lower
done_ratio and rank at the op timeout in the latency figures.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from importlib import metadata
from pathlib import Path

import oracle
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

OP_TIMEOUT_S = 120.0
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
DEADLINE_FACTOR = 2.0  # start no cycle once a run has taken twice --seconds
TAIL_BEYOND = 10  # cmd_tail_s: the highest percentile with this many ops beyond it
DOCUMENTED_EXITS = (3, 4, 5)


class BenchError(RuntimeError):
    """The benchmark cannot run here (for instance, no program to run)."""


def op_env():
    env = {k: v for k, v in os.environ.items() if k not in ("MAJORANA_LAB_CONFIG", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


# --- machine speed ---------------------------------------------------------------

# The calibration start: a cold interpreter that imports scipy.integrate, as
# every op does, then runs a fixed loop of numpy and interpreter work of about
# the same length: an op is start-up and computation in roughly equal parts,
# and the host's speed drifts differently for the two.  It runs none of the
# package's code, so its time follows only the machine's speed.
CALIBRATION_CODE = """
import math
import numpy as np
import scipy.integrate
x = np.linspace(0.0, 1.0, 20000)
acc = 0.0
for i in range(300):
    acc += float((np.exp(-x * x) * np.cos(x * i)).sum())
def f(y):
    return math.exp(-y * y) * math.log1p(y * y)
for i in range(600000):
    acc += f(i * 1e-5)
"""
CALIBRATION_NOMINAL_S = 1.2  # about its time on the reference machine
CALIBRATE_EVERY = 3  # timed steps between calibration starts


class Speed:
    """Scales the wall times of a run's timed steps to reference seconds.

    The calibration start runs before the first step and after every
    CALIBRATE_EVERY steps (`step`) and the last one (`factors`).  A running
    median of three smooths its times, since a burst can slow any one start;
    a step's factor is CALIBRATION_NOMINAL_S over the mean of the two
    smoothed times that enclose it.
    """

    def __init__(self, env):
        self.env = env
        self.steps = 0
        self.samples = []  # calibration times, in order
        self.ends = []  # steps done before each sample
        self._calibrate()

    def _calibrate(self):
        code, wall, _, _ = _spawn([sys.executable, "-c", CALIBRATION_CODE], self.env,
                                  subprocess.DEVNULL, subprocess.DEVNULL)
        if code != 0:
            raise BenchError("the calibration start failed")
        self.samples.append(wall)
        self.ends.append(self.steps)

    def step(self):
        self.steps += 1
        if self.steps % CALIBRATE_EVERY == 0:
            self._calibrate()

    def factors(self):
        """One factor per step so far, in order."""
        if self.ends[-1] != self.steps:
            self._calibrate()
        n = len(self.samples)
        if n < 3:
            smooth = [statistics.median(self.samples)] * n
        else:
            smooth = [statistics.median(self.samples[j:j + 3])
                      for j in [0] + list(range(n - 2)) + [n - 3]]
        out = []
        for k in range(1, n):
            factor = CALIBRATION_NOMINAL_S / (0.5 * (smooth[k - 1] + smooth[k]))
            out += [factor] * (self.ends[k] - self.ends[k - 1])
        return out


# --- cold processes -------------------------------------------------------------

def _spawn(argv, env, stdout, stderr):
    """Run argv to completion; return (exit code, wall s, peak RSS MB, timed out)."""
    timed_out = threading.Event()
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=stdout, stderr=stderr)

    def kill():
        timed_out.set()
        proc.kill()

    timer = threading.Timer(OP_TIMEOUT_S, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, timed_out.is_set()


def measure_setup(env):
    """Wall times of cold interpreters that import majorana_lab.cli.

    Starts one that is not counted (it also writes bytecode caches), then the
    Speed that times the run, then SETUP_REPEATS counted ones as its first
    steps.  Returns (wall times, speed).
    """
    argv = [sys.executable, "-c", "import majorana_lab.cli"]
    walls = []
    for i in range(SETUP_REPEATS + 1):
        with open(WORK / "setup.err", "wb") as err:
            code, wall, _, _ = _spawn(argv, env, subprocess.DEVNULL, err)
        if code != 0:
            raise BenchError("cannot import majorana_lab.cli from src/:\n"
                             + (WORK / "setup.err").read_text(errors="replace")[-2000:])
        if i:
            walls.append(wall)
            speed.step()
        else:
            speed = Speed(env)
    return walls, speed


def run_cold(op, index, env, speed):
    """One op as a cold process; its output goes to a file under .perfbench/ops/."""
    out = WORK / "ops" / f"op{index:03d}.{op.params['format']}"
    err_path = out.with_suffix(".err")
    argv = [sys.executable, "-m", "majorana_lab.cli", *op.argv]
    with open(err_path, "wb") as err:
        if op.anchor:  # verbatim: the anchors write to stdout
            with open(out, "wb") as stdout:
                code, wall, rss, timed_out = _spawn(argv, env, stdout, err)
        else:
            code, wall, rss, timed_out = _spawn(argv + ["--out", str(out)], env,
                                                subprocess.DEVNULL, err)
    speed.step()
    stderr = err_path.read_text(errors="replace")
    return {"args": op.argv, "anchor": op.anchor, "exit": code, "wall_s": wall,
            "peak_rss_mb": rss, "timed_out": timed_out, "stderr": stderr, "out": out}


def judge(op, rec):
    """Classify an op ("ok", "refused", "failed") and run the oracle on its output."""
    out = rec.pop("out")
    stderr = rec.pop("stderr")
    rec["sha256"] = _sha256(out)
    rec["rows"] = rec["values"] = 0
    if rec.get("timed_out"):
        return _outcome(rec, "failed", f"timeout after {OP_TIMEOUT_S:g} s")
    if "Traceback (most recent call last)" in stderr:
        return _outcome(rec, "failed", "traceback: " + stderr.strip().splitlines()[-1])
    if rec["exit"] != 0:
        empty = not out.exists() or out.stat().st_size == 0
        error = [line for line in stderr.splitlines() if line.startswith("error: ")]
        if rec["exit"] in DOCUMENTED_EXITS and error and empty:
            return _outcome(rec, "refused", error[0])
        return _outcome(rec, "failed", f"exit {rec['exit']}: {stderr.strip()[-300:]}")
    try:
        rec["rows"], columns, extra = oracle.check(op, out)
    except oracle.OracleMiss as exc:
        return _outcome(rec, "failed", f"oracle: {exc}")
    rec["values"] = rec["rows"] * columns
    rec.update(extra)
    return _outcome(rec, "ok", "")


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def _outcome(rec, outcome, reason):
    rec["outcome"] = outcome
    rec["reason"] = reason
    return rec


def latency_figures(records, key="ref_s"):
    """Median and tail op latency; ops that are not ok rank at the op timeout."""
    lat = sorted(r[key] if r["outcome"] == "ok" else OP_TIMEOUT_S for r in records)
    n = len(lat)
    p50 = statistics.median(lat)
    i = n - 1 - TAIL_BEYOND
    if i >= n // 2:
        tail, percentile, beyond = lat[i], 100.0 * (i + 1) / n, TAIL_BEYOND
    else:  # too few ops for a tail above the median: report the median
        tail, percentile, beyond = p50, 50.0, n // 2
    return p50, tail, {"percentile": percentile, "samples": n, "ops_beyond": beyond}


def run_untraced(workload, seed, seconds, ops=None):
    env = op_env()
    setup_walls, speed = measure_setup(env)
    if ops is None:
        anchors, cycles = workloads.ANCHORS[workload], workloads.cycles(workload, seed)
    else:
        anchors, cycles = [], iter([ops])
    pending = []
    start = time.perf_counter()
    for op in anchors:
        pending.append((op, run_cold(op, len(pending), env, speed)))
    n_cycles = (workloads.cycle_count(workload, seconds, CALIBRATION_NOMINAL_S / CALIBRATE_EVERY)
                if ops is None else 1)
    for cycle in itertools.islice(cycles, n_cycles):
        if pending and time.perf_counter() - start > DEADLINE_FACTOR * seconds:
            break
        for op in cycle:
            pending.append((op, run_cold(op, len(pending), env, speed)))
    factors = speed.factors()
    setup_s = statistics.median(w * f for w, f in zip(setup_walls, factors))
    for (_, rec), factor in zip(pending, factors[len(setup_walls):]):
        rec["speed_factor"] = factor
        rec["ref_s"] = rec["wall_s"] * factor
    records = [judge(op, rec) for op, rec in pending]
    p50, tail, tail_info = latency_figures(records)
    ok = sum(r["outcome"] == "ok" for r in records)
    values = sum(r["values"] for r in records)
    metrics = {
        "setup_s": setup_s,
        "cmd_p50_s": p50,
        "cmd_tail_s": tail,
        "values_per_s": values / sum(r["ref_s"] for r in records),
        "done_ratio": ok / len(records),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in records),
    }
    wall_p50, wall_tail, _ = latency_figures(records, key="wall_s")
    extra = {"cmd_tail": tail_info, "fail_ratio": 1.0 - ok / len(records),
             "wall_metrics": {"setup_s": statistics.median(setup_walls), "cmd_p50_s": wall_p50,
                              "cmd_tail_s": wall_tail,
                              "values_per_s": values / sum(r["wall_s"] for r in records)},
             "setup_walls_s": setup_walls, "calibration_s": speed.samples}
    return metrics, records, extra


# --- the traced in-process run --------------------------------------------------

def _load_package():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import majorana_lab.cli
    return majorana_lab.cli


def run_in_process(cli, op, out, tracer=None):
    """One op through cli.main in this process; returns (record, wall s)."""
    stderr = io.StringIO()
    code = 0
    args = op.argv if op.anchor else op.argv + ["--out", str(out)]
    gc.collect()
    start = time.perf_counter()
    frame = tracer.enter("cli") if tracer else None
    with (open(out, "w", encoding="utf-8") if op.anchor else io.StringIO()) as stdout, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            cli.main.main(args=args, prog_name="majorana-lab", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash of the program under test is an op failure
            traceback.print_exc(file=stderr)
            code = 1
    if frame:
        tracer.exit(frame)
    wall = time.perf_counter() - start
    return {"args": op.argv, "anchor": op.anchor, "exit": code, "wall_s": wall,
            "stderr": stderr.getvalue(), "out": out}, wall


def run_traced(workload, seed, ops=None):
    env = op_env()
    imports = [tracing.import_times(env, ROOT) for _ in range(IMPORTTIME_REPEATS)]
    cli = _load_package()
    ops = workloads.one_cycle(workload, seed) if ops is None else ops
    tracer = tracing.Tracer()
    plain_s = traced_s = 0.0
    records = []
    for i, op in enumerate(ops):
        out = WORK / "ops" / f"op{i:03d}.{op.params['format']}"
        # Both passes write the same path (it is echoed in the file header), so
        # their outputs must be byte-identical; the order alternates so that
        # neither pass always runs on warm caches.
        outputs = {}
        for traced_pass in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_pass:
                tracer.install()
                try:
                    rec, wall = run_in_process(cli, op, out, tracer)
                finally:
                    tracer.uninstall()
                traced_s += wall
            else:
                plain_rec, wall = run_in_process(cli, op, out)
                plain_s += wall
            outputs[traced_pass] = _sha256(out)
        rec = judge(op, rec)
        rec["bytes_out"] = out.stat().st_size if out.exists() else 0
        if outputs[True] != outputs[False] or plain_rec["exit"] != rec["exit"]:
            _outcome(rec, "failed", "traced run differs from the untraced run")
        records.append(rec)
    c = tracer.counts
    module_s = {layer: statistics.median(imp[2].get(layer, 0.0) for imp in imports)
                for layer in tracing.layer_modules()}
    s = {layer: tracer.self_s[layer] + module_s[layer] for layer in module_s}
    metrics = {
        "import.total_s": statistics.median(imp[0] for imp in imports),
        "import.scipy_s": statistics.median(imp[1] for imp in imports),
        "hermite.calls": tracer.calls["hermite"],
        "hermite.points": c["hermite.points"],
        "hermite.self_s": s["hermite"],
        "spinor.calls": tracer.calls["spinor"],
        "spinor.self_s": s["spinor"],
        "quadrature.integrals": c["quadrature.integrals"],
        "quadrature.integrand_evals": c["quadrature.integrand_evals"],
        "quadrature.evals_per_integral": _ratio(c["quadrature.integrand_evals"],
                                                c["quadrature.integrals"]),
        "quadrature.failures": c["quadrature.failures"],
        "quadrature.self_s": s["quadrature"],
        "entropy.reports": c["entropy.reports"],
        "entropy.integrals_per_report": _ratio(c["entropy.report_integrals"],
                                               c["entropy.reports"]),
        "entropy.self_s": s["entropy"],
        "thermo.points": c["thermo.points"],
        "thermo.partition_calls_per_point": _ratio(c["thermo.series_calls"], c["thermo.points"]),
        "thermo.series_terms": c["thermo.series_terms"],
        "thermo.budget_failures": c["thermo.budget_failures"],
        "thermo.self_s": s["thermo"],
        "thermo.cv_max_rel_err": max((r.get("cv_max_rel_err", 0.0) for r in records), default=0.0),
        "cli.self_s": s["cli"],
        "cli.rows": sum(r["rows"] for r in records),
        "cli.bytes_out": sum(r["bytes_out"] for r in records),
        "trace.overhead_ratio": traced_s / plain_s,
    }
    extra = {"untraced_s": plain_s, "traced_s": traced_s, "self_s_by_layer": s,
             "module_import_s": module_s,
             "self_share_by_layer": {layer: t / traced_s for layer, t in tracer.self_s.items()},
             "calls_by_layer": dict(tracer.calls), "counts": dict(c)}
    return metrics, records, extra


def _ratio(a, b):
    return a / b if b else 0.0


# --- the result ----------------------------------------------------------------

def machine_info():
    info = {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform()}
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
    info["caches"] = caches
    for dist in ("numpy", "scipy", "click", "mpmath"):
        try:
            info[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            info[dist] = None
    return info


def source_identity():
    """The git commit when there is one, and a digest of src/ in any case."""
    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=False)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def run_workload(workload, seed, seconds, trace, ops=None):
    """Run one workload; return the result line's object and write the full record."""
    if not (SRC / "majorana_lab" / "cli.py").is_file():
        raise BenchError(f"no majorana_lab package under {SRC}")
    shutil.rmtree(WORK / "ops", ignore_errors=True)
    (WORK / "ops").mkdir(parents=True)
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    if trace:
        values, records, extra = run_traced(workload, seed, ops)
        declared = SPEC["per_layer"]
    else:
        values, records, extra = run_untraced(workload, seed, seconds, ops)
        declared = SPEC["end_to_end"]
    failed = sum(r["outcome"] == "failed" for r in records)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": metrics}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              **source_identity(), "machine": machine_info(), **extra,
              "result": result, "ops": records}
    path = WORK / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    shutil.rmtree(WORK / "ops", ignore_errors=True)
    for r in records:
        if r["outcome"] == "failed":
            print(f"[{workload}] failed op {' '.join(r['args'])}: {r['reason']}", file=sys.stderr)
    print(f"[{workload}] seed {seed}: {len(records)} ops, {failed} failed; record {path}",
          file=sys.stderr)
    for name, m in metrics.items():
        print(f"[{workload}]   {name:34s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    for name, value in extra.get("wall_metrics", {}).items():
        print(f"[{workload}]   {name + ' (raw wall)':34s} {value:.6g}", file=sys.stderr)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace)
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
