"""Exact Haar moments of X = |<phi_q|U|1^n>|^2 for every photon pattern q.

E[X] = 1/d.  |v>|v> lies in the swap-symmetric components S_(n+L, n-L),
L = n, n-2, ..., of Sym^n (x) Sym^n, so E[X^2] = sum_L w_L(q) w_L(1^n) / D_L(m):
D_L(m) is the hook-content dimension and, by (GL_m, GL_2) Howe duality,
w_L(q) is the M = 0 total-spin-L weight of spins q_1..q_k, coupled one at a
time with the rational <j1 0 j2 0|J 0>^2.  The top component has closed forms
w_n(q) = prod C(2 q_i, q_i) / C(2n, n) and D_n(m) = C(m+2n-1, 2n), so only
L < n needs the walk; the bunched pattern q = (n) needs none.
References: Fulton & Harris, Representation Theory (1991), section 6; Howe,
Trans. AMS 313, 539 (1989).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import DomainError
from .fock import PatternLike, PhotonPattern, as_pattern, dim_hilbert, enumerate_patterns

#: Largest n at which ``max_two_gamma`` compares every pattern.  On 2 vCPUs the
#: 1 958 patterns of n = 25 took 1.7 s at m = 100 000 (2.0 s at m = 10^12), the
#: 2 436 of n = 26 took 2.4 s.
EXHAUSTIVE_N_MAX = 25


@functools.lru_cache(maxsize=1 << 16)
def _cg_square(j1: int, j2: int, J: int) -> Fraction:
    """<j1 0 j2 0|J 0>^2 for integer spins with j1 + j2 + J even."""
    g = (j1 + j2 + J) // 2
    f = math.factorial
    outer = Fraction((2 * J + 1) * f(2 * g - 2 * j1) * f(2 * g - 2 * j2) * f(2 * g - 2 * J), f(2 * g + 1))
    return outer * (f(g) // (f(g - j1) * f(g - j2) * f(g - J))) ** 2


@functools.lru_cache(maxsize=256)
def _spin_weights(parts: tuple[int, ...], floor: int) -> dict[int, Fraction]:
    """M = 0 total-spin weights of spins ``parts``; those below ``floor`` may be dropped."""
    weights = {0: Fraction(1)}
    left = sum(parts)
    for j in parts:
        left -= j
        new: dict[int, Fraction] = {}
        for L, w in weights.items():
            for J in range(max(abs(L - j), floor - left), L + j + 1):
                if (L + j + J) % 2 == 0:
                    new[J] = new.get(J, 0) + w * _cg_square(L, j, J)
        weights = new
    return weights


def _two_row_dim(m: int, a: int, b: int) -> int:
    """Dimension of S_(a, b)(C^m) by the hook-content formula."""
    num = den = 1
    for j in range(1, a + 1):
        num *= m + j - 1
        den *= a - j + (2 if j <= b else 1)
    for j in range(1, b + 1):
        num *= m + j - 2
        den *= b - j + 1
    return num // den


def second_moment(m: int, q: PatternLike) -> Fraction:
    """E[X^2] exactly, for any pattern q that fits in m modes."""
    q = as_pattern(q)
    n = q.n
    if not 1 <= n <= m:
        raise DomainError(f"need 1 <= n <= m, got (m, n) = ({m}, {n})")
    if len(q.parts) > m:
        raise DomainError(f"pattern {q.parts} does not fit in m = {m} modes")
    top_q = math.prod(math.comb(2 * p, p) for p in q.parts)
    total = Fraction(top_q * 2**n, math.comb(2 * n, n) ** 2 * math.comb(m + 2 * n - 1, 2 * n))
    low = {L: w for L, w in _spin_weights(q.parts, 0).items() if L < n}
    if low:
        ones = _spin_weights((1,) * n, min(low))
        total += sum(w * ones[L] / _two_row_dim(m, n + L, n - L) for L, w in low.items())
    return total


def two_gamma(m: int, q: PatternLike) -> float:
    """Exact 2*gamma_q = 2 d^2 E[X^2], rounded to float once."""
    q = as_pattern(q)
    d = dim_hilbert(m, q.n)
    try:
        return float(2 * d * d * second_moment(m, q))
    except OverflowError:
        raise DomainError(f"2*gamma of pattern {q.label()} at m = {m} exceeds float range") from None


def max_two_gamma(m: int, n: int) -> tuple[float, PhotonPattern, bool]:
    """(max_q 2*gamma_q, argmax, exhaustive): above ``EXHAUSTIVE_N_MAX`` the
    bunched pattern stands in as the conjectured maximiser."""
    if not 1 <= n <= m:
        raise DomainError(f"need 1 <= n <= m, got (m, n) = ({m}, {n})")
    patterns = enumerate_patterns(m, n) if n <= EXHAUSTIVE_N_MAX else [PhotonPattern((n,))]
    value, q = max(((two_gamma(m, q), q) for q in patterns), key=lambda t: t[0])
    return value, q, n <= EXHAUSTIVE_N_MAX
