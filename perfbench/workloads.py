"""Seeded op lists for the three workloads.

An op is one `majorana-lab` invocation.  Each workload is a fixed list of
anchor ops (the ROADMAP baseline commands, verbatim) followed by cycles of
generated ops.  A cycle holds one op per slot; a slot fixes the op's kind and
the range of its size parameters, and the seed draws the values inside those
ranges.  Runs measure whole cycles, so the mix of work in a run is the same
whatever the seed.

Every op carries `params`, the effective parameters the program should have
used (defaults filled in), so the oracle never reads them back from the
program's own output header.
"""

import math
import random
from dataclasses import dataclass

WORKLOADS = ("entropy-table", "thermo-sweep", "field-emission")

QUARTER_PI = math.pi / 4.0


@dataclass(frozen=True)
class Op:
    command: str
    args: tuple  # CLI arguments after the command name, without --out
    params: dict
    anchor: bool = False

    @property
    def argv(self):
        return [self.command, *self.args]


def _num(x):
    return repr(float(x))


def table1_op(ns, omegas, theta):
    args = [a for n in ns for a in ("--n", str(n))]
    args += [a for w in omegas for a in ("--omega", _num(w))]
    args += ["--theta", _num(theta)]
    return Op("table1", tuple(args),
              {"n": list(ns), "omega": list(omegas), "theta": theta, "format": "csv"})


def density_op(n, omega, theta, space, grid, fmt):
    args = ("--n", str(n), "--omega", _num(omega), "--theta", _num(theta),
            "--space", space, "--grid", str(grid), "--format", fmt)
    return Op("density", args, {"n": n, "omega": omega, "theta": theta, "space": space,
                                "grid": grid, "format": fmt})


def entropy_density_op(n, omegas, theta, space, grid, fmt):
    args = ["--n", str(n)]
    args += [a for w in omegas for a in ("--omega", _num(w))]
    args += ["--theta", _num(theta), "--space", space, "--grid", str(grid), "--format", fmt]
    return Op("entropy-density", tuple(args),
              {"n": n, "omega": list(omegas), "theta": theta, "space": space,
               "grid": grid, "format": fmt})


def heatmap_op(n, omega, grid, tmin, tmax, tsteps, fmt):
    args = ("--n", str(n), "--omega", _num(omega), "--grid", str(grid), "--tmin", _num(tmin),
            "--tmax", _num(tmax), "--tsteps", str(tsteps), "--format", fmt)
    return Op("heatmap", args, {"n": n, "omega": omega, "grid": grid, "tmin": tmin,
                                "tmax": tmax, "tsteps": tsteps, "format": fmt})


def thermo_op(ks, tmin, tmax, tsteps, particles):
    args = [a for k in ks for a in ("--k", _num(k))]
    args += ["--tmin", _num(tmin), "--tmax", _num(tmax), "--tsteps", str(tsteps),
             "--particles", str(particles)]
    return Op("thermo", tuple(args), {"k": list(ks), "tmin": tmin, "tmax": tmax,
                                      "tsteps": tsteps, "particles": particles, "format": "csv"})


def _anchor(op, verbatim):
    """The same op, run with exactly the ROADMAP's arguments (output to stdout)."""
    return Op(op.command, tuple(verbatim), op.params, anchor=True)


# The ROADMAP baseline commands with the CLI defaults they run under.
ANCHORS = {
    "entropy-table": [
        _anchor(table1_op((0, 1, 2, 3), (0.2, 0.4, 0.8), QUARTER_PI), ()),
    ],
    "field-emission": [
        _anchor(density_op(0, 0.2, QUARTER_PI, "position", 800, "csv"), ("--grid", "800")),
        _anchor(heatmap_op(1, 0.2, 400, 0.0, 10.0, 40, "csv"), ("--tsteps", "40")),
    ],
    "thermo-sweep": [
        _anchor(thermo_op((0.2, 0.4, 0.8), 0.1, 10.0, 50, 1), ()),
        _anchor(thermo_op((0.05,), 0.1, 20.0, 50, 1), ("--k", "0.05", "--tmax", "20")),
        # Exhausts the 1e8-term series budget today and exits 5.
        _anchor(thermo_op((0.01,), 0.1, 100.0, 5, 1),
                ("--k", "0.01", "--tmax", "100", "--tsteps", "5")),
    ],
}


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _omega(rng):
    return _log_uniform(rng, 0.05, 5.0)


def _theta(rng):
    return rng.uniform(0.0, math.pi / 2.0)


def _space(rng):
    return rng.choice(("position", "momentum"))


# entropy-table: the high level n comes from one of eight strata of 9..64, so
# every cycle spans the whole range.  The time of an integral jumps about with
# n, theta and omega, and a run has only 17 ops, so the draws stay near the
# middle of each stratum and near theta = pi/4: towards 0 or pi/2 one spinor
# component vanishes and the integrals take up to three times longer.
def _entropy_slot(stratum):
    def make(rng):
        n_hi = 9 + 7 * stratum + rng.randint(2, 4)
        theta = QUARTER_PI + rng.uniform(-0.2, 0.2)
        return table1_op((rng.randint(0, 8), n_hi), (_omega(rng), _omega(rng)), theta)
    return make


# field-emission: formats alternate csv/json by position; the 120-slice json
# heatmap is the largest op of every cycle and sets the peak RSS of a run.
def _density_slot(grid_lo, grid_hi, fmt):
    def make(rng):
        return density_op(rng.randint(0, 64), _omega(rng), _theta(rng), _space(rng),
                          rng.randint(grid_lo, grid_hi), fmt)
    return make


def _entropy_density_slot(grid_lo, grid_hi, fmt):
    def make(rng):
        return entropy_density_op(rng.randint(0, 64), (_omega(rng), _omega(rng)), _theta(rng),
                                  _space(rng), rng.randint(grid_lo, grid_hi), fmt)
    return make


def _heatmap_slot(grid_range, tsteps_range, fmt):
    def make(rng):
        return heatmap_op(rng.randint(0, 64), _omega(rng), rng.randint(*grid_range), 0.0,
                          rng.uniform(5.0, 50.0), rng.randint(*tsteps_range), fmt)
    return make


# thermo-sweep: the smaller slope comes from one of four strata of log k, the
# larger is 1.2-2x it.  The T grid starts at strong coupling (k/T^2 >= 10 for
# both slopes) and ends at weak coupling.  Summing the series at one point
# takes about T^2/k terms, so tmax is set to make sum(T^2/k) over the op's
# points the same for every op: the ops differ in k, T and N but not in series
# work.  That puts the weak end at k/T^2 of 1.2e-4 to 2.4e-4 for the smaller
# slope (up to 4.8e-4 for the larger) and keeps every op inside the budget.
_K_LO, _K_HI = 0.005, 0.5
_SERIES_WORK = 1.2e4  # sum of T^2/k over an op's (k, T) points


def _thermo_slot(stratum, n_strata=4):
    def make(rng):
        span = math.log(_K_HI / _K_LO) / n_strata
        ks = [_K_LO * math.exp(span * (stratum + rng.random()))]
        ks.append(ks[0] * rng.uniform(1.2, 2.0))
        tsteps = rng.randint(2, 4)
        tmin = math.sqrt(ks[0] / _log_uniform(rng, 10.0, 100.0))
        # sum over the grid of (i / (tsteps - 1))^2, tmin neglected
        shape = tsteps * (2 * tsteps - 1) / (6.0 * (tsteps - 1))
        tmax = math.sqrt(_SERIES_WORK / (shape * sum(1.0 / k for k in ks)))
        return thermo_op(ks, tmin, tmax, tsteps, rng.randint(1, 8))
    return make


SLOTS = {
    "entropy-table": [_entropy_slot(s) for s in range(8)],
    "field-emission": [
        _density_slot(1000, 2000, "csv"),
        _heatmap_slot((1000, 1200), (40, 50), "json"),
        _entropy_density_slot(2000, 4000, "csv"),
        _density_slot(4000, 8000, "json"),
        _heatmap_slot((1500, 1700), (50, 60), "csv"),
        _heatmap_slot((1000, 1000), (120, 120), "json"),
        _entropy_density_slot(4000, 8000, "csv"),
        _entropy_density_slot(1000, 2000, "json"),
    ],
    "thermo-sweep": [_thermo_slot(s) for s in range(4)],
}


# Seconds taken by the anchors and by one cycle, measured at the first
# benchmarked commit on a 2-core Intel Xeon VM (Python 3.11, numpy 2.4).
NOMINAL_S = {
    "entropy-table": (1.0, 11.0),
    "field-emission": (1.5, 8.0),
    "thermo-sweep": (15.0, 5.6),
}


def cycle_count(workload, seconds, per_op_s=0.0):
    """Cycles a run makes: as many as fit in `seconds` after the anchors, at least one.

    `per_op_s` is time the runner adds to each op (its calibration start).
    """
    anchors_s, cycle_s = NOMINAL_S[workload]
    anchors_s += per_op_s * len(ANCHORS[workload])
    cycle_s += per_op_s * len(SLOTS[workload])
    return max(1, int((seconds - anchors_s) // cycle_s))


def cycles(workload, seed):
    """Endless seeded stream of cycles (lists of ops, one per slot).

    The same seed gives the same ops.
    """
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield [make(rng) for make in SLOTS[workload]]


def one_cycle(workload, seed):
    """The anchors plus the first cycle: the traced run's fixed op list."""
    return ANCHORS[workload] + next(cycles(workload, seed))
