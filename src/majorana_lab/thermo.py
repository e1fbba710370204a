"""Canonical-ensemble thermodynamics for the sqrt(n) spectrum E_n = sqrt(2 c hbar k n).

The exact route is one Euler-Maclaurin pass (moment_sums) that returns the moments
t_p = sum_n (beta E_n)^p exp(-beta E_n), p = 0, 1, 2, with a certified remainder bound;
Z = t_0, U = N <E> and C_V = N k_B beta^2 Var E follow without finite differences.  The
em route is the closed form 1/2 + 1/(c hbar k beta^2), the zeroth-order term of the same
expansion: valid at weak coupling (c hbar k beta^2 << 1), it tends to 1/2 instead of 1 as
beta -> inf.  N indistinguishable fermions enter as Z_N = Z^N; F, U, S, C_V carry N on
both routes.
"""

import functools
import math
from collections import defaultdict
from dataclasses import dataclass
from operator import mul

from .common import NATURAL_UNITS, OutOfRange, PhysicalConstants, linspace

DEFAULT_TOL = 1e-10
MAX_TERMS = 10**8
EM_VALIDITY_WARN = 0.1  # warn threshold on c*hbar*k*beta^2
EM_PARAMETER_RANGE = (1e-300, 1e150)  # c*hbar*k*beta^2 over which every report field is finite
# N up to which every report field stays finite at both ends of EM_PARAMETER_RANGE at beta = 1
# in natural units: per particle they stay below ~700, and C_V's closed form forms 12 N x.
MAX_PARTICLES = 10**150

_M = 200  # explicit terms before the Euler-Maclaurin tail
_BERNOULLI = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0)  # B_2, B_4, B_6, B_8
_REMAINDER = 1.0 / 1209600.0  # |B_8| / 8! = 2 zeta(8) / (2 pi)^8


class TruncationBudget(RuntimeError):
    """The series remainder bound could not reach the tolerance within the term budget."""

    def __init__(self, message, partial_sum, truncation_n, tail_bound):
        super().__init__(message)
        self.partial_sum = partial_sum
        self.truncation_n = truncation_n
        self.tail_bound = tail_bound


@dataclass(frozen=True)
class EnsembleParams:
    """Inverse temperature beta = 1/(k_B T), slope k, particle count N."""

    beta: float
    k: float
    N: int = 1
    pc: PhysicalConstants = NATURAL_UNITS

    def __post_init__(self):
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise ValueError("beta must be positive and finite")
        if not (self.k > 0.0):
            raise ValueError("k must be > 0")
        if self.N < 1:
            raise ValueError("N must be >= 1")

    @property
    def coupling(self):
        """c hbar k, the only combination the spectrum depends on."""
        return self.pc.c * self.pc.hbar * self.k

    @property
    def em_parameter(self):
        """c hbar k beta^2; the closed form requires this << 1.

        beta^2 is formed only where it is a normal float; elsewhere the product is taken
        left to right, so it neither underflows to 0 nor overflows where beta^2 alone would.
        """
        if 1e-150 < self.beta < 1e150:
            return self.coupling * self.beta**2
        return self.coupling * self.beta * self.beta

    @property
    def temperature(self):
        return 1.0 / (self.pc.k_B * self.beta)


@dataclass(frozen=True)
class ThermoReport:
    """One (beta, k, N) evaluation: both partition routes and all four functions."""

    beta: float
    k: float
    N: int
    T: float
    Z_exact: float
    Z_em: float
    F: float
    U: float
    S: float
    C_V: float
    F_exact: float
    U_exact: float
    S_exact: float
    C_V_exact: float
    truncation_n: int
    tail_bound: float


def _tail_terms(p):
    """(tail, bound) for t_p from n = M on, as terms (c, a, e) meaning c lam^a M^e exp(-lam sqrt M).

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
    bound = [(_REMAINDER * abs(c) / (-e - 1.0), a, e + 1.0) for (a, e), c in g.items()]
    return [(c, a, e) for (a, e), c in tail.items()], bound


_TERMS = [_tail_terms(p) for p in range(3)]
_POWERS = sorted({a for pair in _TERMS for terms in pair for _, a, _ in terms})  # of lam
_BLOCK = 4096  # explicit terms held in memory at once


def _heads(lam, m):
    """[t_0, t_1, t_2] summed over n < m with math.fsum, a block of _BLOCK terms at a time."""
    blocks = []
    for start in range(0, m, _BLOCK):
        x = [lam * math.sqrt(n) for n in range(start, min(m, start + _BLOCK))]
        e0 = [math.exp(-v) for v in x]
        e1 = list(map(mul, x, e0))
        blocks.append((math.fsum(e0), math.fsum(e1), math.fsum(map(mul, x, e1))))
    return [math.fsum(sums) for sums in zip(*blocks)]


@functools.lru_cache(maxsize=32)
def _terms_at(m):
    """_TERMS with M = m, as terms (c, a, m**e)."""
    return tuple(tuple(tuple((c, a, m**e) for c, a, e in t) for t in pair) for pair in _TERMS)


def _tails(lam, m):
    """((tail of t_0, t_1, t_2 from n = m on), bound on the remainder of all three)."""
    w = math.exp(-lam * math.sqrt(m))
    if w == 0.0:  # tail and bound underflow to 0, while lam**a may overflow
        return (0.0, 0.0, 0.0), 0.0
    power = {a: lam**a for a in _POWERS}  # each term stays (c * lam**a) * m**e

    def at(t):
        return w * math.fsum([c * power[a] * m_e for c, a, m_e in t])

    terms = _terms_at(m)
    return tuple(at(tail) for tail, _ in terms), max(at(bound) for _, bound in terms)


def moment_sums(ep, tol=DEFAULT_TOL):
    """((t_0, t_1, t_2), M, bound) with t_p = sum_n (beta E_n)^p exp(-beta E_n).

    Sums n < M = 200 explicitly and adds the Euler-Maclaurin tail; bound caps
    the remainder of all three sums.  M doubles until bound <= tol (the bound
    needs no explicit terms, so only the final M is summed).  When that needs
    more than MAX_TERMS explicit terms, TruncationBudget is raised without
    summing them.  It carries Z and its bound at M = 200, the best estimate:
    that bound is at most 1.6e-19 for any lam, far below the rounding of Z >= 1.
    """
    lam = ep.beta * math.sqrt(2.0 * ep.coupling)
    m = _M
    tails, bound = _tails(lam, m)
    while bound > tol and 2 * m <= MAX_TERMS:
        m *= 2
        tails, bound = _tails(lam, m)
    if bound > tol:
        tails, bound = _tails(lam, _M)
        raise TruncationBudget(f"partition series needs more than {MAX_TERMS} terms for "
                               f"tol={tol:g} (beta={ep.beta!r}, k={ep.k!r})",
                               partial_sum=_heads(lam, _M)[0] + tails[0],
                               truncation_n=MAX_TERMS, tail_bound=bound)
    return tuple(h + t for h, t in zip(_heads(lam, m), tails)), m, bound


def partition_exact(ep, tol=DEFAULT_TOL):
    """(Z, truncation_n, tail_bound): Z = sum_n exp(-beta E_n) with moment_sums' M and bound."""
    (z, _, _), m, bound = moment_sums(ep, tol)
    return z, m, bound


def partition_em(ep):
    """Closed form 1/2 + 1/(c hbar k beta^2) as printed; it tends to 1/2, not 1, as beta -> inf."""
    return 0.5 + 1.0 / ep.em_parameter


def report(ep, tol=DEFAULT_TOL):
    """Both partition routes and F, U, S, C_V along each at one (beta, k, N).

    With x = c hbar k beta^2 the closed forms are F = -(N/beta) ln Z_em,
    U = 4N / (beta (2 + x)), S = 4 N k_B/(2 + x) + N k_B ln Z_em and
    C_V = 4 k_B N (2 + 3x) / (2 + x)^2 -> 2 N k_B as T -> inf.  The series gives
    F = -(N/beta) ln Z, U = N <E>, S = k_B beta (U - F) and C_V = N k_B beta^2 Var E.
    """
    (t0, t1, t2), m, bound = moment_sums(ep, tol)
    x, N, k_B = ep.em_parameter, ep.N, ep.pc.k_B
    z_em = partition_em(ep)
    mean = t1 / t0  # beta <E>
    f_exact = -(N / ep.beta) * math.log(t0)
    u_exact = N * mean / ep.beta
    return ThermoReport(
        ep.beta, ep.k, N, ep.temperature, t0, z_em,
        -(N / ep.beta) * math.log(z_em), 4.0 * N / (ep.beta * (2.0 + x)),
        4.0 * N * k_B / (2.0 + x) + N * k_B * math.log(z_em),
        4.0 * k_B * N * (2.0 + 3.0 * x) / (2.0 + x) ** 2,
        f_exact, u_exact, k_B * ep.beta * (u_exact - f_exact),
        N * k_B * (t2 / t0 - mean * mean), m, bound,
    )


def thermo_sweep(k_values=(0.2, 0.4, 0.8), T_values=None, N=1, pc=NATURAL_UNITS, tol=DEFAULT_TOL):
    """Reports over the (k, T) grid in deterministic (k-major, T-minor) order.

    The range rules of a sweep live here.  OutOfRange names "T" when at some
    temperature (the first such, in T order) c hbar k beta^2 leaves
    EM_PARAMETER_RANGE for some k, or k_B T leaves the float range; it names
    "N" when k_B and N carry a field of an in-range point out of the float range.
    """
    T_values = linspace(0.1, 10.0, 50) if T_values is None else [float(T) for T in T_values]
    k_values = [float(k) for k in k_values]
    lo, hi = EM_PARAMETER_RANGE
    grid = []  # grid[i][j]: the ensemble at T_values[i] and k_values[j]
    for T in T_values:
        kT = pc.k_B * T
        beta = 1.0 / kT if kT > 0.0 else math.inf
        points = ([EnsembleParams(beta=beta, k=k, N=N, pc=pc) for k in k_values]
                  if 0.0 < beta < math.inf else None)
        if points is None or not all(lo <= ep.em_parameter <= hi for ep in points):
            raise OutOfRange("T", T, f"{T:g} takes c*hbar*k*beta^2 out of [{lo:g}, {hi:g}], "
                                     "where the sums stay finite")
        grid.append(points)
    rows = [report(points[j], tol) for j in range(len(k_values)) for points in grid]
    if not all(math.isfinite(v) for r in rows for v in vars(r).values()):
        raise OutOfRange("N", N, f"k_B={pc.k_B:g} with N={N} takes a field of the sweep "
                                 "out of the float range")
    return rows

