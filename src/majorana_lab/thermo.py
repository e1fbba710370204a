"""Canonical-ensemble thermodynamics for the sqrt(n) spectrum E_n = common.energy(n, k, pc).

The exact route is one Euler-Maclaurin pass (moment_sums) that returns the moments
t_p = sum_n (beta E_n)^p exp(-beta E_n), p = 0, 1, 2, with a certified remainder bound;
Z = t_0, U = N <E> and C_V = N k_B beta^2 Var E follow without finite differences.  The
em route is the closed form 1/2 + 1/(c hbar k beta^2), the zeroth-order term of the same
expansion: valid at weak coupling (c hbar k beta^2 << 1), it tends to 1/2 instead of 1 as
beta -> inf.  Z_N = Z^N counts N independent, distinguishable copies, the paper's ensemble (not
N fermions under exclusion); F, U, S, C_V carry N on both routes.
"""

import math
import sys
from collections import defaultdict, namedtuple
from operator import mul

from .common import (DEFAULT_TOL, NATURAL_UNITS, NonConvergence, OutOfRange, constants,
                     coordinate, energy, level, over_product, scaled_quotient)

EM_VALIDITY_WARN = 0.1  # warn threshold on c*hbar*k*beta^2
EM_PARAMETER_RANGE = (1e-300, 1e150)  # c*hbar*k*beta^2 over which every report field is finite

_M = 200  # explicit terms before the Euler-Maclaurin tail
_BERNOULLI = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0)  # B_2, B_4, B_6, B_8
_REMAINDER = 1.0 / 1209600.0  # |B_8| / 8! = 2 zeta(8) / (2 pi)^8


class EnsembleParams(namedtuple("EnsembleParams", "beta k N pc")):
    """Inverse temperature beta = 1/(k_B T), slope k, particle count N; OutOfRange names
    "em_parameter" where c hbar k beta^2 leaves EM_PARAMETER_RANGE, "N" past the largest float."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too

    def __new__(cls, beta, k, N=1, pc=NATURAL_UNITS):
        beta, k = coordinate(beta, "beta", positive=True), coordinate(k, "k", positive=True)
        if (N := level(N, "N", 1, math.inf)) > sys.float_info.max:  # as an int: float(N) overflows
            raise OutOfRange("N", N, f"N exceeds the largest float, {sys.float_info.max:g}")
        ep = super().__new__(cls, beta, k, N, constants(pc))
        lo, hi = EM_PARAMETER_RANGE
        if not lo <= (x := ep.em_parameter) <= hi:
            raise OutOfRange("em_parameter", x, f"c*hbar*k*beta^2 = {x:g} is out of [{lo:g}, "
                                                f"{hi:g}], where the sums stay finite")
        return ep

    @property
    def em_parameter(self):
        """c hbar k beta^2, which the closed form requires << 1: the exactly scaled c hbar k times
        beta^2 where the plain c hbar k and beta^2 are normal floats (the grouping of its pinned
        bits), else the exactly scaled product of all five factors."""
        pc, beta = self.pc, self.beta
        if sys.float_info.min <= pc.c * pc.hbar * self.k < math.inf and 1e-150 < beta < 1e150:
            return scaled_quotient((pc.c, pc.hbar, self.k)) * beta**2
        return scaled_quotient((pc.c, pc.hbar, self.k, beta, beta))


# One (beta, k, N) evaluation: both partition routes and all four functions.
ThermoReport = namedtuple("ThermoReport", "beta k N T Z_exact Z_em F U S C_V F_exact U_exact "
                                          "S_exact C_V_exact truncation_n tail_bound")


def _tail_terms(p):
    """(tail, bound) of t_p from n = M on: terms (c, a, M**e), each c lam^a M^e exp(-lam sqrt M).

    With g(x) = (lam sqrt x)^p exp(-lam sqrt x), tail is the integral
    2 Gamma(p + 2, lam sqrt M) / lam^2 (a finite sum: the order is an integer),
    g(M)/2 and four Bernoulli corrections.  bound majorizes the remainder
    2 zeta(8)/(2 pi)^8 int_M^inf |g^(8)| (DLMF 2.10(i)): each term of g^(8) has
    e <= -3, and exp(-lam sqrt x) <= exp(-lam sqrt M) on [M, inf).
    """
    tail = defaultdict(float)
    for j in range(p + 2):
        tail[j - 2, j / 2] += 2.0 * math.factorial(p + 1) / math.factorial(j)
    tail[p, p / 2] += 0.5
    g = {(p, p / 2): 1.0}  # the current derivative of g, as {(a, e): c}
    for order in range(1, 9):
        prev, g = g, defaultdict(float)
        for (a, e), c in prev.items():
            g[a, e - 1.0] += c * e
            g[a + 1, e - 0.5] -= 0.5 * c
        if order % 2:
            for key, c in g.items():
                tail[key] -= _BERNOULLI[order // 2] / math.factorial(order + 1) * c
    bound = [(_REMAINDER * abs(c) / (-e - 1.0), a, _M ** (e + 1.0)) for (a, e), c in g.items()]
    return [(c, a, _M**e) for (a, e), c in tail.items()], bound


_TERMS = [_tail_terms(p) for p in range(3)]
_POWERS = sorted({a for pair in _TERMS for terms in pair for _, a, _ in terms})  # of lam
_ROOTS = tuple(math.sqrt(n) for n in range(_M))


def _heads(lam):
    """[t_0, t_1, t_2] summed over n < _M with math.fsum."""
    x = [lam * root for root in _ROOTS]
    e0 = [math.exp(-v) for v in x]
    e1 = list(map(mul, x, e0))
    return [math.fsum(e0), math.fsum(e1), math.fsum(map(mul, x, e1))]


def _tails(lam):
    """((tail of t_0, t_1, t_2 from n = _M on), bound on the remainder of all three)."""
    w = math.exp(-lam * math.sqrt(_M))
    if w == 0.0:  # tail and bound underflow to 0, while lam**a may overflow
        return (0.0, 0.0, 0.0), 0.0
    power = {a: lam**a for a in _POWERS}  # each term stays (c * lam**a) * M**e

    def at(t):
        return w * math.fsum([c * power[a] * m_e for c, a, m_e in t])

    return tuple(at(tail) for tail, _ in _TERMS), max(at(bound) for _, bound in _TERMS)


def moment_sums(ep, tol=DEFAULT_TOL):
    """((t_0, t_1, t_2), M, bound) with t_p = sum_n (beta E_n)^p exp(-beta E_n).

    The sums depend on beta and k only through lam = beta sqrt(2 c hbar k): beta times the
    spectrum's E_1 = common.energy(1, k, pc) where the plain c hbar k is a normal float, else
    sqrt(2 x) from the in-range x = c hbar k beta^2.  Sums n < M = 200 explicitly and adds
    the Euler-Maclaurin tail; bound caps the remainder of all three sums.  bound is at most
    1.6e-19 for any lam, below 1e-3 of half an ulp of each sum, so no larger M could move a
    double.  Where bound > tol, it raises NonConvergence(message, this pass's Z, bound).
    """
    tol = coordinate(tol, "tol", positive=True)
    if sys.float_info.min <= ep.pc.c * ep.pc.hbar * ep.k < math.inf:
        lam = ep.beta * energy(1, ep.k, ep.pc)
    else:  # the plain c hbar k is not a normal float, while x = c hbar k beta^2 is in range
        lam = math.sqrt(2.0 * ep.em_parameter)
    tails, bound = _tails(lam)
    sums = tuple(h + t for h, t in zip(_heads(lam), tails))
    if bound > tol:
        raise NonConvergence(f"partition series remainder bound {bound:g} at M = {_M} exceeds "
                             f"tol={tol:g} (beta={ep.beta!r}, k={ep.k!r})", sums[0], bound)
    return sums, _M, bound


def report(ep, tol=DEFAULT_TOL):
    """Both partition routes and F, U, S, C_V along each at one (beta, k, N), T = 1/(k_B beta).

    With x = c hbar k beta^2 the closed forms are Z_em = 1/2 + 1/x as printed, which tends to
    1/2, not 1, as beta -> inf, F = -(N/beta) ln Z_em, U = 4N / (beta (2 + x)),
    S = 4 N k_B/(2 + x) + N k_B ln Z_em and C_V = 4 k_B N (2 + 3x) / (2 + x)^2 -> 2 N k_B as
    T -> inf.  The series gives F = -(N/beta) ln Z, U = N <E>, S = k_B beta (U - F) and
    C_V = N k_B beta^2 Var E.  OutOfRange naming "N" is raised when k_B and N carry a field, T
    among them, out of the float range.
    """
    (t0, t1, t2), m, bound = moment_sums(ep, tol)
    x, N, k_B = ep.em_parameter, ep.N, ep.pc.k_B
    z_em = 0.5 + 1.0 / x
    mean = t1 / t0  # beta <E>
    f_exact = -(N / ep.beta) * math.log(t0)
    u_exact = N * mean / ep.beta
    rep = ThermoReport(
        ep.beta, ep.k, N, over_product(1.0, k_B, ep.beta), t0, z_em,
        -(N / ep.beta) * math.log(z_em), 4.0 * N / (ep.beta * (2.0 + x)),
        4.0 * N * k_B / (2.0 + x) + N * k_B * math.log(z_em),
        4.0 * k_B * N * (2.0 + 3.0 * x) / (2.0 + x) ** 2,
        f_exact, u_exact, k_B * ep.beta * (u_exact - f_exact),
        N * k_B * (t2 / t0 - mean * mean), m, bound,
    )
    if not all(map(math.isfinite, rep)):
        raise OutOfRange("N", N, f"k_B={k_B:g} with N={N} takes a field of the report "
                                 "out of the float range")
    return rep


def thermo_sweep(k_values, T_values, N=1, pc=NATURAL_UNITS, tol=DEFAULT_TOL):
    """Reports over the (k, T) grid in deterministic (k-major, T-minor) order; an empty k or T
    list is an empty grid and gives [] once every input is taken, as bbm_reports(n, ()) does.
    Each report carries the T it was asked for: 1/(k_B beta) may round to a neighbour of T.

    pc is taken by common.constants, each k by coordinate(k, "k", positive=True), N and tol by
    EnsembleParams' and moment_sums' rules, then each T in order by coordinate(T, "T"). OutOfRange
    names "T" at the first T <= 0 ("T must be positive and finite") or whose c hbar k beta^2 leaves
    EM_PARAMETER_RANGE for some k or 1/(k_B T) the float range; refusals naming "N" pass through.
    """
    pc, k_values = constants(pc), [coordinate(k, "k", positive=True) for k in k_values]
    N, tol = level(N, "N", 1, math.inf), coordinate(tol, "tol", positive=True)
    lo, hi = EM_PARAMETER_RANGE
    grid = []  # (T, its ensembles, one per k) for each T in T_values
    for T in (coordinate(T, "T") for T in T_values):
        if T <= 0.0:
            raise OutOfRange("T", T, "T must be positive and finite")
        beta = over_product(1.0, pc.k_B, T)
        try:
            points = ([EnsembleParams(beta=beta, k=k, N=N, pc=pc) for k in k_values]
                      if 0.0 < beta < math.inf else None)
        except OutOfRange as exc:
            if exc.param != "em_parameter":
                raise
            points = None
        if points is None:
            raise OutOfRange("T", T, f"{T:g} takes c*hbar*k*beta^2 out of [{lo:g}, {hi:g}], "
                                     "where the sums stay finite")
        grid.append((T, points))
    return [report(points[j], tol)._replace(T=T)
            for j in range(len(k_values)) for T, points in grid]
