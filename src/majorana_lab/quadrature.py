"""Adaptive integration for Gaussian-enveloped integrands with explicit error control.

The integrands in this package all decay like exp(-omega y^2) times a
polynomial, so instead of an infinite-domain transformation we certify a
truncation radius analytically and run an adaptive Gauss-Kronrod rule on the
finite interval, in numpy: each round evaluates every unfinished panel in one
call of the integrand.  The 0*ln(0) -> 0 convention lives here too, so entropy
integrands never produce NaN at wavefunction nodes.
"""

import math
from dataclasses import dataclass

import numpy as np


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
_NODES = np.array([-x for x in _XK] + list(_XK[-2::-1]))  # the 15 nodes on [-1, 1], ascending
_KRONROD = np.array(_WK + _WK[-2::-1])
_GAUSS = np.zeros(15)
_GAUSS[1::2] = _G7 + _G7[-2::-1]
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


class NonConvergence(RuntimeError):
    """Subdivision budget exhausted (or the rule cannot reach the tolerance).

    Carries the best available estimate in `value` / `err_estimate`.
    """

    def __init__(self, message, value, err_estimate):
        super().__init__(message)
        self.value = value
        self.err_estimate = err_estimate


@dataclass(frozen=True)
class IntegrationSpec:
    """Settings for one integral: domain half-width, tolerance, budget."""

    truncation_radius: float
    target_abs_tol: float = 1e-10
    max_subdivisions: int = 2**20

    def __post_init__(self):
        if not (self.truncation_radius > 0.0 and math.isfinite(self.truncation_radius)):
            raise ValueError("truncation_radius must be positive and finite")
        if not (self.target_abs_tol > 0.0):
            raise ValueError("target_abs_tol must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


def integrate(f, spec):
    """Integrate f over [-R, R] adaptively; returns (value, err_estimate).

    Adaptive 15-point Gauss-Kronrod rule (G7K15; QUADPACK's qk15, Piessens et
    al. 1983) run on whole arrays: f receives a 1-D array holding the 15 nodes
    of every active panel and returns f at each.  Each panel carries qk15's
    error estimate, floored at 50 eps times the integral of |f| over it.  A
    panel retires once its error is at most tol * width / 2R, or once it is at
    that roundoff floor or too narrow to halve; every other panel is halved
    for the next round.  On success err_estimate, the sum of the panel errors,
    satisfies err_estimate <= target_abs_tol.

    Raises NonConvergence (with the best estimate attached) when no panel can
    still be halved, or halving would exceed spec.max_subdivisions panels.
    """
    R, tol = spec.truncation_radius, spec.target_abs_tol
    center, half = np.zeros(1), np.full(1, R)
    value = err = 0.0  # sums over the retired panels
    panels = 1
    while True:
        x = center[:, None] + half[:, None] * _NODES
        fx = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
        kronrod = fx @ _KRONROD
        # qk15's error estimate: |K - G| scaled by resasc, floored at 50 eps resabs
        abserr = np.abs((kronrod - fx @ _GAUSS) * half)
        resasc = np.abs(fx - 0.5 * kronrod[:, None]) @ _KRONROD * half
        resabs = np.abs(fx) @ _KRONROD * half
        with np.errstate(divide="ignore", invalid="ignore"):
            scaled = resasc * np.minimum(1.0, (200.0 * abserr / resasc) ** 1.5)
        abserr = np.where((resasc > 0.0) & (abserr > 0.0), scaled, abserr)
        floor = np.where(resabs > _TINY / (50.0 * _EPS), 50.0 * _EPS * resabs, 0.0)
        abserr = np.maximum(abserr, floor)
        kronrod *= half
        total, total_err = value + kronrod.sum(), err + abserr.sum()
        if total_err <= tol:
            return float(total), float(total_err)
        split = (abserr > tol * half / R) & (abserr > floor) & (half > 100.0 * _EPS * np.abs(center))
        value += kronrod[~split].sum()
        err += abserr[~split].sum()
        added = int(split.sum())
        if not added or panels + added > spec.max_subdivisions:
            raise NonConvergence(
                f"quadrature did not reach tol={tol:g} on [-{R:g}, {R:g}] "
                f"(error estimate {total_err:g} over {panels} panels)",
                float(total), float(total_err))
        panels += added
        center, half = center[split], 0.5 * half[split]
        center = np.concatenate([center - half, center + half])
        half = np.concatenate([half, half])


def truncation_radius(omega, n, tail_tol=1e-12):
    """Half-width R such that the tail of exp(-omega y^2) * poly(deg 2n) is < tail_tol.

    R = sqrt((W + (n+2) ln(W+e)) / omega) with W = -ln(tail_tol), then doubled
    as a safety margin (doubling squares the Gaussian tail twice over).  Where
    the quotient overflows (omega below ~1e-306), R is formed by the scaling law
    R = R_1/sqrt(omega) instead, which is finite for every positive finite omega.
    """
    if not (omega > 0.0 and math.isfinite(omega)):
        raise ValueError("omega must be positive and finite")
    if n < 0:
        raise ValueError("n must be >= 0")
    if not (0.0 < tail_tol < 1.0):
        raise ValueError("tail_tol must lie in (0, 1)")
    W = -math.log(tail_tol)
    w = W + (n + 2) * math.log(W + math.e)
    base = math.sqrt(w / omega) if w / omega < math.inf else math.sqrt(w) / math.sqrt(omega)
    return 2.0 * base


def xlogx(v):
    """v * ln(v) extended continuously with 0 at v = 0; rejects v < 0.

    Accepts scalars or ndarrays.  Centralizing the convention here keeps
    rho*ln(rho) integrands NaN-free at density zeros.
    """
    if np.ndim(v) == 0:
        v = float(v)
        if v < 0.0:
            raise ValueError("xlogx requires v >= 0")
        return v * math.log(v) if v > 0.0 else 0.0
    arr = np.asarray(v, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("xlogx requires v >= 0")
    safe = np.where(arr > 0.0, arr, 1.0)
    return np.where(arr > 0.0, arr * np.log(safe), 0.0)
