"""Shannon information entropies of the spinor states, with the BBM bound check.

S = -integral(rho ln rho) over position or momentum space, in nats.  The sum
S_y + S_p obeys the entropic uncertainty bound 1 + ln(pi) (one dimension),
saturated by the n = 0 Gaussian.  The evaluation phase theta defaults to
pi/4, the unique constant-weight choice sin^2 = cos^2 = 1/2.

omega enters only through a scaling law.  The position density at omega is
sqrt(omega) rho_1(sqrt(omega) y), with rho_1 the density at omega = 1, and
the momentum density at omega is the position density at 1/omega (|i^n| = 1).
So S_y = S_1(n, theta) - ln(omega)/2 and S_p = S_1(n, theta) + ln(omega)/2.
bbm_reports is the one entry: it takes a level's omegas together, so that one
quadrature of S_1 serves every omega and both spaces, and keeps nothing between
calls.  The entropic density rho ln rho at a point is
xlogx(density_evaluator(state, theta, space)(coord)).
"""

import math
from collections import namedtuple

from .common import DEFAULT_THETA, DEFAULT_TOL, BoundViolation, coordinate, level
from .quadrature import integrate, truncation_radius, xlogx
from .spinor import SpinorState, density_evaluator

BBM_BOUND = 1.0 + math.log(math.pi)  # spatial dimension D = 1

# BBM can only fail here through a numerics bug, so the guard is tight.
_BBM_GUARD = 1e-6

EntropyReport = namedtuple("EntropyReport", "n omega theta S_y S_p sum bbm_bound quad_err")


def bbm_reports(n, omegas, theta=DEFAULT_THETA, tol=DEFAULT_TOL):
    """One record of both entropies, their sum and the uncertainty bound per omega of the
    iterable omegas, which is read once.

    The level, every omega, theta and tol are taken, then one quadrature of S_1(n, theta) serves
    every omega (an empty omegas runs none).  The sum is 2 S_1(n, theta), the same
    for every omega, and quad_err is twice the quadrature's error estimate
    (it enters S_y and S_p alike).  Raises BoundViolation, naming the first
    omega, if the sum plus quad_err, the top of its certified interval,
    undercuts the bound by more than the numerical guard; that signals a
    bug, not physics.
    """
    n = level(n)
    omegas = [coordinate(omega, "omega", positive=True) for omega in omegas]
    theta, tol = coordinate(theta, "theta"), coordinate(tol, "tol", positive=True)
    if not omegas:
        return []
    s_1, err = _unit_entropy(n, theta, tol)
    total, quad_err = 2.0 * s_1, 2.0 * abs(err)
    if total + quad_err < BBM_BOUND - _BBM_GUARD:
        raise BoundViolation(
            f"S_y + S_p = {total!r} < {BBM_BOUND!r} - {_BBM_GUARD:g} "
            f"for n={n}, omega={omegas[0]!r}, theta={theta!r}"
        )
    shifts = [0.5 * math.log(omega) for omega in omegas]  # all omega changes in S_y and S_p
    return [EntropyReport(n, omega, theta, s_1 - shift, s_1 + shift, total, BBM_BOUND, quad_err)
            for omega, shift in zip(omegas, shifts)]


def _unit_entropy(n, theta, tol):
    """(S_1, error estimate): -integral(rho ln rho dy) at omega = 1, by certified quadrature."""
    density = density_evaluator(SpinorState(n=n, omega=1.0), theta)
    # The tail tolerance stays at or above the least positive float, where tol * 1e-2 would
    # underflow to 0; R grows only like sqrt(ln(1/tail_tol)), and such a tol fails in the
    # quadrature instead.
    radius = truncation_radius(1.0, n, tail_tol=max(min(tol * 1e-2, 1e-12), 5e-324))
    # rho is even, and doubling is exact: 2 rho ln rho over [0, R] has the whole line's bits
    value, err = integrate(lambda y: 2.0 * xlogx(density(y)), (0.0, radius), tol)
    return -value, err
