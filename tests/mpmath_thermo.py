"""The thermo reference of the tests: 40-digit moments of the sqrt(n) spectrum, by mpmath.

With lam = sqrt(2 x), x = c hbar k beta^2, the moments are t_p = sum_n (lam sqrt n)^p
exp(-lam sqrt n), p = 0, 1, 2.  Nothing here imports majorana_lab or uses its
Euler-Maclaurin tail.  For x <= 30 they come from the Mellin expansion of Z(lam) = t_0
(Flajolet, Gourdon and Dumas, Theor. Comput. Sci. 144, 1995):

    Z = 2/lam^2 + 1/2 + sum_{k>=1} a_k lam^k,  a_k = (-1)^k zeta(-k/2) / k!,

whose k = 0 truncation 1/x + 1/2 is the paper's closed form, with t_1 = -lam Z'(lam) and
t_2 = lam^2 Z''(lam) term by term; zeta at negative half-integers is mpmath's (DLMF 25.4).
Above x = 30 they are summed directly until lam (sqrt n - 1) > 200, where a term is below
1e-80 of the n = 1 term, which leads t_1 and t_2 (and is below the n = 0 term of t_0).
"""

import mpmath

HAND_OVER = 30.0  # the series for x <= HAND_OVER, the direct sum above it
_DPS = 50
# 110 terms keep t_0, t_1 and t_2 to 46 digits up to x = HAND_OVER; 90 would leave
# t_2 with 34 there
with mpmath.workdps(_DPS):
    _COEFFS = [(k, (-1) ** k * mpmath.zeta(-mpmath.mpf(k) / 2) / mpmath.factorial(k))
               for k in range(1, 111)]


def series(x):
    """(t_0, t_1, t_2) at x by the zeta series, at 50 digits."""
    with mpmath.workdps(_DPS):
        x = mpmath.mpf(x)
        lam = mpmath.sqrt(2 * x)
        terms = [(k, a * lam**k) for k, a in _COEFFS]
        return (1 / x + mpmath.mpf(0.5) + mpmath.fsum(term for _, term in terms),
                2 / x - mpmath.fsum(k * term for k, term in terms),
                6 / x + mpmath.fsum(k * (k - 1) * term for k, term in terms))


def direct_sum(x):
    """(t_0, t_1, t_2) at x summed term by term until lam (sqrt n - 1) > 200, at 50 digits."""
    with mpmath.workdps(_DPS):
        lam = mpmath.sqrt(2 * mpmath.mpf(x))
        t, n = [mpmath.mpf(0)] * 3, 0
        while (w := lam * mpmath.sqrt(n)) <= lam + 200:
            e = mpmath.exp(-w)
            t = [t[0] + e, t[1] + w * e, t[2] + w * w * e]
            n += 1
        return tuple(t)


def moments(*factors):
    """(t_0, t_1, t_2) to at least 40 digits at x = the product of factors.

    The factors are floats such as (c, hbar, k, beta, beta), or x itself; their product is
    formed at 50 digits, so x is not rounded to a double on the way.
    """
    with mpmath.workdps(_DPS):
        x = mpmath.fprod(map(mpmath.mpf, factors))
    return series(x) if x <= HAND_OVER else direct_sum(x)


def fields(t, beta, N=1, k_B=1):
    """(Z, F, U, S, C_V) from the moments t by the identities that thermo.report documents:
    F = -(N/beta) ln Z, U = N <E>, S = k_B beta (U - F), C_V = N k_B beta^2 Var E."""
    with mpmath.workdps(_DPS):
        beta, k_B = mpmath.mpf(beta), mpmath.mpf(k_B)
        mean = t[1] / t[0]  # beta <E>
        f = -(N / beta) * mpmath.log(t[0])
        u = N * mean / beta
        return t[0], f, u, k_B * beta * (u - f), N * k_B * (t[2] / t[0] - mean**2)
