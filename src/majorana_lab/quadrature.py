"""Adaptive integration for Gaussian-enveloped integrands with explicit error control.

The integrands in this package all decay like exp(-omega y^2) times a
polynomial, so instead of an infinite-domain transformation we certify a
truncation radius analytically and run an adaptive Gauss-Kronrod rule on the
finite interval, in pure Python: the integrand is called with one float at a
time, and every sum is a math.fsum, so a result does not depend on the order
in which panels are visited.  The 0*ln(0) -> 0 convention lives here too, so
entropy integrands never produce NaN at wavefunction nodes.
"""

import math
import sys

from .common import DEFAULT_TOL, NonConvergence, coordinate, level, scaled_root


# QUADPACK qk15: the Kronrod abscissae in [0, 1] in descending order and their weights; the
# 7-point Gauss rule uses every other abscissa (0 included) with the weights _G7.
_XK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
       0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
       0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
       0.207784955007898467600689403773245, 0.0)
_WK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
       0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
       0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
       0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_G7 = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
_NODES = tuple(-x for x in _XK) + _XK[-2::-1]  # the 15 nodes on [-1, 1], ascending
_KRONROD = _WK + _WK[-2::-1]
_GAUSS = _G7 + _G7[-2::-1]  # at the odd-indexed nodes
_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min
_MAX_PANELS = 2**20  # a guard against runaway subdivision; an n = 64 entropy ends below 2,000


def integrate(f, breakpoints, target_abs_tol=DEFAULT_TOL):
    """Integrate f from the first breakpoint to the last, adaptively; returns (value, err_estimate).

    Adaptive 15-point Gauss-Kronrod rule (G7K15; QUADPACK's qk15, Piessens et al. 1983), like
    scipy.integrate.quad: f is called with one float and returns one float.  The first round
    takes the panels between consecutive breakpoints, two or more finite real numbers (by
    coordinate's rule) that strictly increase.  Each panel carries qk15's error estimate,
    floored at 50 eps times the integral of |f| over it.  A panel retires once its error is at
    most tol * width / (b_last - b_first), or once it is at that roundoff floor or too narrow
    to halve; every other panel is halved for the next round.  Every sum is a math.fsum, so the
    result does not depend on the order of the panels.  On success err_estimate, the sum of the
    panel errors, satisfies err_estimate <= target_abs_tol.

    Raises NonConvergence (with the best estimate attached) when no panel can still be halved,
    when halving would exceed _MAX_PANELS panels, or as soon as the retired panels' errors
    alone exceed the tolerance, which no further round can undo.
    """
    points = [coordinate(b, "breakpoints") for b in breakpoints]
    if len(points) < 2 or any(lo >= hi for lo, hi in zip(points, points[1:])):
        raise ValueError("breakpoints must be two or more strictly increasing numbers")
    tol = coordinate(target_abs_tol, "target_abs_tol", positive=True)
    # each unfinished panel's (center, half-width), and half the span, from halved ends: no overflow
    active = [(0.5 * lo + 0.5 * hi, 0.5 * hi - 0.5 * lo) for lo, hi in zip(points, points[1:])]
    half_span = 0.5 * points[-1] - 0.5 * points[0]
    values, errs = [], []  # integral and error estimate of each retired panel
    while True:
        rules = [_qk15(f, center, half) for center, half in active]
        total = _fsum(values + [value for value, _, _ in rules])
        total_err = _fsum(errs + [err for _, err, _ in rules])
        if total_err <= tol:
            return total, total_err
        panels = len(values) + len(active)
        split = []
        for (center, half), (value, err, floor) in zip(active, rules):
            if err > tol * half / half_span and err > floor and half > 100.0 * _EPS * abs(center):
                split.append((center, 0.5 * half))
            else:
                values.append(value)
                errs.append(err)
        if not split or panels + len(split) > _MAX_PANELS or _fsum(errs) > tol:
            raise NonConvergence(
                f"quadrature did not reach tol={tol:g} on [{points[0]:g}, {points[-1]:g}] "
                f"(error estimate {total_err:g} over {panels} panels)",
                total, total_err)
        active = [(c, h) for center, h in split for c in (center - h, center + h)]


def _qk15(f, center, half):
    """(integral, error estimate, roundoff floor) of f over center -/+ half by qk15."""
    fx = [f(center + half * x) for x in _NODES]
    kronrod = _fsum([w * v for w, v in zip(_KRONROD, fx)])
    gauss = _fsum([w * v for w, v in zip(_GAUSS, fx[1::2])])
    mean = 0.5 * kronrod
    resasc = _fsum([w * abs(v - mean) for w, v in zip(_KRONROD, fx)]) * half
    resabs = _fsum([w * abs(v) for w, v in zip(_KRONROD, fx)]) * half
    # qk15's error estimate: |K - G| scaled by resasc, floored at 50 eps resabs.
    # min(1, r)**1.5 equals min(1, r**1.5) and cannot overflow.
    err = abs((kronrod - gauss) * half)
    if resasc > 0.0 and err > 0.0:
        err = resasc * min(1.0, 200.0 * err / resasc) ** 1.5
    floor = 50.0 * _EPS * resabs if resabs > _TINY / (50.0 * _EPS) else 0.0
    return kronrod * half, max(err, floor), floor


def _fsum(terms):
    """math.fsum of a list, or its plain sum (inf or nan) where fsum overflows or sees inf - inf."""
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):
        return sum(terms)


def truncation_radius(omega, n, tail_tol=1e-12):
    """Half-width R that covers level n's density and its entropic density rho ln rho.

    ln(rho) adds ~omega y^2 growth to the density's degree-2n polynomial, so R bounds the tail of
    exp(-omega y^2) * poly(deg 2n + 2) below tail_tol: R = sqrt((W + (n+3) ln(W+e)) / omega) with
    W = -ln(tail_tol), then doubled as a safety margin (doubling squares the Gaussian tail twice).
    """
    omega, n = coordinate(omega, "omega", positive=True), level(n)
    if (tail_tol := coordinate(tail_tol, "tail_tol", positive=True)) >= 1.0:
        raise ValueError("tail_tol must be less than 1")
    W = -math.log(tail_tol)
    w = W + (n + 3) * math.log(W + math.e)
    return 2.0 * scaled_root((w,), (omega,))


def xlogx(v):
    """v * ln(v) extended continuously with 0 at v = 0; rejects v < 0.

    Centralizing the convention here keeps rho*ln(rho) integrands NaN-free at density zeros.
    """
    if not v >= 0.0:  # not v < 0.0, which a nan passes
        raise ValueError("xlogx requires v >= 0")
    return v * math.log(v) if v > 0.0 else 0.0
