"""Independent checks of the files the CLI writes.

Nothing here imports majorana_lab.  Reference values come from closed forms,
from mpmath, or from direct computation in this file:

  * table1: the n = 0 Gaussian closed form, the -/+ ln(omega)/2 scaling law
    between an op's omegas, and S_y + S_p >= 1 + ln(pi), at the acceptance
    suite's tolerances;
  * density, entropy-density, heatmap: unit mass of every density and
    heatmap slice, and sampled rows against an mpmath Hermite-Gauss density;
  * thermo: Z_exact against an mpmath sum (explicit terms plus an
    Euler-Maclaurin tail) to the series tolerance, F + T S = U on both routes,
    and U_exact / C_V_exact against the same mpmath moments.
"""

import json
import math
import random

import mpmath
import numpy as np

BBM_BOUND = 1.0 + math.log(math.pi)

# Tolerances, taken from tests/test_acceptance.py where it has one.
TOL_CLOSED_FORM = 1e-8  # criterion 4: n = 0 entropies
TOL_SCALING = 1e-6  # criterion 3: S(n, w2) - S(n, w1) = -/+ ln(w2/w1)/2
TOL_BBM = 1e-8  # criterion 2: BBM saturation; slack allowed below the bound
TOL_MASS = 1e-6  # criterion 10: heatmap slice mass
TOL_IDENTITY = 1e-12  # criterion 8: F + T S = U, relative to max(1, |F|, |U|, |T S|)
# Pointwise densities: relative to the value, absolute relative to the peak.
TOL_POINT_REL, TOL_POINT_ABS = 1e-9, 1e-12
# Z_exact may miss the true sum by its own tail bound plus float summation.
TOL_Z_REL = 1e-13
# U_exact and C_V_exact: relative error allowed against the mpmath moments.
# C_V_exact is a second central difference of ln Z with step h = beta*1e-3.
# Its O(h^2) error is about 5e-7 relative at weak coupling and grows with
# (beta E)^2 to about 2e-5 at c hbar k beta^2 = 100, the strongest coupling
# the workload asks for; thermo.cv_max_rel_err reports what is seen.
TOL_DERIVED_REL = 1e-4

SAMPLED_ROWS = 12
_DPS = 30


class OracleMiss(Exception):
    """The output file is unreadable or disagrees with the oracle."""


def parse_output(path, fmt):
    """Return (columns, rows as a 2-D float array) of a CSV or JSON output file."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise OracleMiss(f"unreadable output: {exc}") from exc
    if not text.strip():
        raise OracleMiss("empty output")
    try:
        if fmt == "json":
            payload = json.loads(text)
            columns = list(payload["columns"])
            data = np.array([[row[c] for c in columns] for row in payload["rows"]], dtype=float)
        else:
            lines = [line for line in text.splitlines() if line and not line.startswith("#")]
            columns = lines[0].split(",")
            data = np.loadtxt(lines[1:], delimiter=",", ndmin=2, dtype=float)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise OracleMiss(f"unparsable {fmt} output: {exc}") from exc
    if data.size == 0:
        raise OracleMiss("output has no rows")
    if data.ndim != 2 or data.shape[1] != len(columns):
        raise OracleMiss(f"rows do not match the {len(columns)} columns")
    return columns, data


def check(op, path):
    """Check one op's output; return (rows, columns, extra figures).  Raises OracleMiss."""
    columns, data = parse_output(path, op.params["format"])
    extra = _CHECKS[op.command](op.params, columns, data, _row_rng(op))
    return data.shape[0], data.shape[1], extra or {}


def _row_rng(op):
    return random.Random(" ".join(op.argv))


def _expect(ok, message):
    if not ok:
        raise OracleMiss(message)


def _expect_columns(columns, expected):
    _expect(list(columns) == list(expected), f"columns {columns} != {list(expected)}")


def _close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b))


# --- table1 -----------------------------------------------------------------

def _check_table1(p, columns, data, _rng):
    _expect_columns(columns, ("n", "omega", "S_y", "S_p", "S_sum", "bbm_bound"))
    ns, omegas = p["n"], p["omega"]
    _expect(data.shape[0] == len(ns) * len(omegas), f"{data.shape[0]} rows for {ns} x {omegas}")
    table = {}
    for row, (n, w) in zip(data, ((n, w) for n in ns for w in omegas)):
        _expect(row[0] == n and row[1] == w, f"row (n, omega) = {row[:2]} != ({n}, {w})")
        s_y, s_p, s_sum, bound = row[2:]
        _expect(abs(s_sum - (s_y + s_p)) <= 1e-14 * abs(s_sum), f"S_sum != S_y + S_p at n={n}")
        _expect(abs(bound - BBM_BOUND) <= 1e-15, f"bbm_bound {bound!r}")
        _expect(s_sum >= BBM_BOUND - TOL_BBM, f"S_y + S_p = {s_sum!r} below 1 + ln pi at n={n}")
        if n == 0:
            dev = max(abs(s_y - 0.5 * (1.0 + math.log(math.pi / w))),
                      abs(s_p - 0.5 * (1.0 + math.log(math.pi * w))))
            _expect(dev < TOL_CLOSED_FORM, f"n=0 closed form off by {dev:.3g} at omega={w}")
            _expect(abs(s_sum - BBM_BOUND) < TOL_BBM, f"n=0 does not saturate the bound at {w}")
        table[n, w] = (s_y, s_p)
    for n in ns:
        for w1, w2 in zip(omegas, omegas[1:]):
            shift = 0.5 * math.log(w2 / w1)
            dev = max(abs(table[n, w2][0] - table[n, w1][0] + shift),
                      abs(table[n, w2][1] - table[n, w1][1] - shift))
            _expect(dev < TOL_SCALING, f"ln(omega)/2 scaling off by {dev:.3g} at n={n}")


# --- densities ----------------------------------------------------------------

def _phi(n, freq, x):
    """Normalized Hermite-Gauss function at frequency freq, in mpmath."""
    z = mpmath.sqrt(freq) * x
    norm = (freq / mpmath.pi) ** mpmath.mpf(0.25) / mpmath.sqrt(2**n * mpmath.factorial(n))
    return norm * mpmath.exp(-z * z / 2) * mpmath.hermite(n, z)


def density_reference(n, omega, theta, space, coord):
    """|spinor|^2 at one coordinate: phi_n^2 sin^2 + phi_{n-1}^2 cos^2 (phi_0^2 at n = 0)."""
    with mpmath.workdps(_DPS):
        freq = mpmath.mpf(omega) if space == "position" else 1 / mpmath.mpf(omega)
        x = mpmath.mpf(coord)
        if n == 0:
            return float(_phi(0, freq, x) ** 2)
        th = mpmath.mpf(theta)
        return float(_phi(n, freq, x) ** 2 * mpmath.sin(th) ** 2
                     + _phi(n - 1, freq, x) ** 2 * mpmath.cos(th) ** 2)


def _xlogx(v):
    return v * math.log(v) if v > 0.0 else 0.0


def _check_grid(coords, grid, what):
    _expect(coords.size == grid, f"{what}: {coords.size} points, asked for {grid}")
    step = np.diff(coords)
    _expect(coords[0] == -coords[-1] and np.allclose(step, step[0], rtol=1e-9, atol=0.0),
            f"{what}: grid is not uniform and symmetric")


def _check_mass(coords, values, what):
    mass = float(np.trapezoid(values, coords))
    _expect(abs(mass - 1.0) <= TOL_MASS, f"{what}: mass {mass!r}")


def _check_points(rng, coords, values, reference, peak, what, transform=None):
    """Compare sampled rows (and the largest one) with the mpmath reference."""
    picks = rng.sample(range(coords.size), min(SAMPLED_ROWS, coords.size))
    picks.append(int(np.argmax(np.abs(values))))
    for i in picks:
        ref = reference(float(coords[i]))
        slack = TOL_POINT_ABS * peak
        if transform is not None:
            slack *= 1.0 + abs(math.log(ref)) if ref > 0.0 else 1.0
            ref = transform(ref)
        _expect(abs(values[i] - ref) <= TOL_POINT_REL * abs(ref) + slack,
                f"{what}: row {i} = {float(values[i])!r}, reference {ref!r}")


def _coord_name(space):
    return "y" if space == "position" else "p"


def _check_density(p, columns, data, rng):
    _expect_columns(columns, (_coord_name(p["space"]), "density"))
    coords, rho = data[:, 0], data[:, 1]
    _check_grid(coords, p["grid"], "density")
    _check_mass(coords, rho, "density")
    _check_points(rng, coords, rho,
                  lambda c: density_reference(p["n"], p["omega"], p["theta"], p["space"], c),
                  float(rho.max()), "density")


def _check_entropy_density(p, columns, data, rng):
    _expect_columns(columns, ("omega", _coord_name(p["space"]), "entropic_density"))
    grid, omegas = p["grid"], p["omega"]
    _expect(data.shape[0] == grid * len(omegas), f"{data.shape[0]} rows for {len(omegas)} blocks")
    for b, w in enumerate(omegas):
        block = data[b * grid:(b + 1) * grid]
        _expect(np.all(block[:, 0] == w), f"block {b} is not omega={w}")
        coords = block[:, 1]
        _check_grid(coords, grid, f"entropy-density block {b}")
        peak = max(density_reference(p["n"], w, p["theta"], p["space"], c) for c in coords[::97])
        _check_points(rng, coords, block[:, 2],
                      lambda c, w=w: density_reference(p["n"], w, p["theta"], p["space"], c),
                      peak, f"entropy-density block {b}", transform=_xlogx)


def _check_heatmap(p, columns, data, rng):
    _expect_columns(columns, ("y", "t", "density"))
    grid, tsteps, n, omega = p["grid"], p["tsteps"], p["n"], p["omega"]
    _expect(data.shape[0] == grid * tsteps, f"{data.shape[0]} rows for {tsteps} x {grid}")
    ts = np.linspace(p["tmin"], p["tmax"], tsteps)
    slices = data.reshape(tsteps, grid, 3)
    peak = float(data[:, 2].max())
    for j in range(tsteps):
        ys, rho = slices[j, :, 0], slices[j, :, 2]
        _expect(np.all(slices[j, :, 1] == ts[j]), f"slice {j} is not t={ts[j]!r}")
        _check_grid(ys, grid, f"heatmap slice {j}")
        _check_mass(ys, rho, f"heatmap slice {j}")
    for j in rng.sample(range(tsteps), min(3, tsteps)):
        theta = math.sqrt(2.0 * omega * n) * ts[j]  # theta_n(t) = E_n t / hbar
        _check_points(rng, slices[j, :, 0], slices[j, :, 2],
                      lambda y, th=theta: density_reference(n, omega, th, "position", y),
                      peak, f"heatmap slice {j}")


# --- thermo -------------------------------------------------------------------

THERMO_COLUMNS = ("k", "T", "beta", "Z_exact", "Z_em", "em_rel_err",
                  "F_em", "U_em", "S_em", "C_V_em",
                  "F_exact", "U_exact", "S_exact", "C_V_exact",
                  "truncation_n", "tail_bound")

_EM_M = 200  # explicit terms before the Euler-Maclaurin tail
_EM_ORDER = 4  # Bernoulli corrections


def spectrum_moments(beta, k):
    """sum_n n^(p/2) exp(-beta sqrt(2k n)) for p = 0, 1, 2, in mpmath.

    Sums n < M explicitly and adds the Euler-Maclaurin tail from M: the
    integral, which is 2 Gamma(p + 2, lam sqrt(M)) / lam^(p + 2) in closed
    form, the endpoint half-term and four Bernoulli corrections.  At M = 200
    the neglected remainder is far below double precision for every coupling.
    """
    with mpmath.workdps(_DPS):
        lam = mpmath.mpf(beta) * mpmath.sqrt(2 * mpmath.mpf(k))
        sums = [mpmath.mpf(0)] * 3
        for n in range(_EM_M):
            r = mpmath.sqrt(n)
            e = mpmath.exp(-lam * r)
            sums[0] += e
            sums[1] += r * e
            sums[2] += n * e
        root_m = mpmath.sqrt(_EM_M)
        for p in range(3):
            def g(x, p=p):
                return x ** (mpmath.mpf(p) / 2) * mpmath.exp(-lam * mpmath.sqrt(x))
            tail = 2 * mpmath.gammainc(p + 2, lam * root_m) / lam ** (p + 2) + g(_EM_M) / 2
            for j in range(1, _EM_ORDER + 1):
                tail -= (mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j)
                         * mpmath.diff(g, _EM_M, 2 * j - 1))
            sums[p] += tail
        return sums


def thermo_reference(beta, k, particles):
    """(Z, U, C_V) of N particles with Z_N = Z^N, in natural units."""
    with mpmath.workdps(_DPS):
        s0, s1, s2 = spectrum_moments(beta, k)
        a = mpmath.sqrt(2 * mpmath.mpf(k))
        mean_root, mean_n = s1 / s0, s2 / s0
        u = particles * a * mean_root
        cv = particles * mpmath.mpf(beta) ** 2 * a * a * (mean_n - mean_root**2)
        return float(s0), float(u), float(cv)


def _identity_dev(f, u, s, t):
    return abs(f + t * s - u) / max(1.0, abs(f), abs(u), abs(t * s))


def _check_thermo(p, columns, data, rng):
    _expect_columns(columns, THERMO_COLUMNS)
    col = {name: data[:, i] for i, name in enumerate(THERMO_COLUMNS)}
    ks, tsteps, particles = p["k"], p["tsteps"], p["particles"]
    _expect(data.shape[0] == len(ks) * tsteps, f"{data.shape[0]} rows for {ks} x {tsteps}")
    ts = np.linspace(p["tmin"], p["tmax"], tsteps)
    expected_k = np.repeat(np.asarray(ks, dtype=float), tsteps)
    _expect(np.all(col["k"] == expected_k)
            and np.allclose(col["T"], np.tile(ts, len(ks)), rtol=1e-14, atol=0.0),
            "(k, T) rows do not follow the requested grid")
    for i in range(data.shape[0]):
        k, t, beta = col["k"][i], col["T"][i], col["beta"][i]
        z, z_em = col["Z_exact"][i], col["Z_em"][i]
        _expect(_close(beta, 1.0 / t, 1e-15), f"row {i}: beta != 1/T")
        _expect(_close(z_em, 0.5 + 1.0 / (k * beta * beta), 1e-14), f"row {i}: Z_em")
        _expect(_close(col["em_rel_err"][i], abs(z_em - z) / z, 1e-12), f"row {i}: em_rel_err")
        _expect(_close(col["F_exact"][i], -(particles / beta) * math.log(z), 1e-12),
                f"row {i}: F_exact != -(N/beta) ln Z_exact")
        _expect(0.0 <= col["tail_bound"][i] <= 1e-10, f"row {i}: tail_bound above the tolerance")
        for route in ("em", "exact"):
            dev = _identity_dev(col[f"F_{route}"][i], col[f"U_{route}"][i],
                                col[f"S_{route}"][i], t)
            _expect(dev < TOL_IDENTITY, f"row {i}: F + T S - U = {dev:.3g} on the {route} route")
    rows = list(range(data.shape[0]))
    if len(rows) > SAMPLED_ROWS:
        ends = [b * tsteps + e for b in range(len(ks)) for e in (0, tsteps - 1)]
        rows = sorted(set(ends + rng.sample(rows, SAMPLED_ROWS)))
    worst = 0.0
    for i in rows:
        z_ref, u_ref, cv_ref = thermo_reference(col["beta"][i], col["k"][i], particles)
        z = col["Z_exact"][i]
        _expect(abs(z - z_ref) <= col["tail_bound"][i] + TOL_Z_REL * z_ref,
                f"row {i}: Z_exact {z!r} vs mpmath {z_ref!r}")
        err = max(abs(col["U_exact"][i] - u_ref) / abs(u_ref),
                  abs(col["C_V_exact"][i] - cv_ref) / abs(cv_ref))
        worst = max(worst, err)
        _expect(err <= TOL_DERIVED_REL, f"row {i}: U_exact/C_V_exact off by {err:.3g} relative")
    return {"cv_max_rel_err": worst}


_CHECKS = {
    "table1": _check_table1,
    "density": _check_density,
    "entropy-density": _check_entropy_density,
    "heatmap": _check_heatmap,
    "thermo": _check_thermo,
}
