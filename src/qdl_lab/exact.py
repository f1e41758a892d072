"""Exact Haar moments of X = |<phi|U|1^n>|^2, and a bound on 2*gamma over all states.

E[X] = 1/d, as Sym^n(C^m) is irreducible.  phi (x) phi lies in the swap-symmetric
components S_(n+L, n-L), L = n, n-2, ..., of Sym^n (x) Sym^n, which are
multiplicity-free, so by Schur's lemma E[X^2] = sum_L w_L(phi) w_L(1^n) / D_L(m),
with w_L(phi) >= 0 summing to 1 and D_L(m) the hook-content dimension.  For a
pattern q, by (GL_m, GL_2) Howe duality, w_L(q) is the M = 0 total-spin-L weight
of spins q_1..q_k, coupled one at a time with the rational <j1 0 j2 0|J 0>^2.
References: Fulton & Harris, Representation Theory (1991), sections 6 and 15.3;
Howe, Trans. AMS 313, 539 (1989).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import DomainError
from .fock import PatternLike, as_pattern, dim_hilbert


@functools.lru_cache(maxsize=1 << 16)
def _cg_square(j1: int, j2: int, J: int) -> Fraction:
    """<j1 0 j2 0|J 0>^2 for integer spins with j1 + j2 + J even."""
    g = (j1 + j2 + J) // 2
    f = math.factorial
    outer = Fraction((2 * J + 1) * f(2 * g - 2 * j1) * f(2 * g - 2 * j2) * f(2 * g - 2 * J), f(2 * g + 1))
    return outer * (f(g) // (f(g - j1) * f(g - j2) * f(g - J))) ** 2


@functools.lru_cache(maxsize=256)
def _spin_weights(parts: tuple[int, ...]) -> dict[int, Fraction]:
    """M = 0 total-spin weights of spins ``parts``."""
    weights = {0: Fraction(1)}
    for j in parts:
        new: dict[int, Fraction] = {}
        for L, w in weights.items():
            for J in range(abs(L - j), L + j + 1, 2):
                new[J] = new.get(J, 0) + w * _cg_square(L, j, J)
        weights = new
    return weights


def _ones_weight(n: int, L: int) -> Fraction:
    """w_L(1^n) = (2L+1)/2 int_{-1}^{1} P_L(x) x^n dx, for L = n, n-2, ... >= 0,
    = (2L+1) 2^L n! ((n+L)/2)! / (((n-L)/2)! (n+L+1)!), here in binomials."""
    den = (n + L + 1) * math.comb(n + L, (n + L) // 2)
    return Fraction((2 * L + 1) * 2**L * math.comb(n, (n - L) // 2), den)


def _two_row_dim(m: int, a: int, b: int) -> int:
    """Dimension of S_(a, b)(C^m) by the hook-content formula: contents give
    m^(a) (m-1)^(b) in rising factorials, hooks (a+1)! b! / (a-b+1)."""
    if b == 0:
        return math.comb(m + a - 1, a)
    f = math.factorial
    return math.perm(m + a - 1, a) * math.perm(m + b - 2, b) * (a - b + 1) // (f(a + 1) * f(b))


def second_moment(m: int, q: PatternLike) -> Fraction:
    """E[X^2] exactly, for any pattern q that fits in m modes."""
    q = as_pattern(q)
    n = q.n
    if not 1 <= n <= m:
        raise DomainError(f"need 1 <= n <= m, got (m, n) = ({m}, {n})")
    if len(q.parts) > m:
        raise DomainError(f"pattern {q.parts} does not fit in m = {m} modes")
    weights = _spin_weights(q.parts).items()
    return sum(w * _ones_weight(n, L) / _two_row_dim(m, n + L, n - L) for L, w in weights)


def two_gamma(m: int, q: PatternLike) -> float:
    """Exact 2*gamma_q = 2 d^2 E[X^2], rounded to float once."""
    q = as_pattern(q)
    d = dim_hilbert(m, q.n)
    try:
        return float(2 * d * d * second_moment(m, q))
    except OverflowError:
        raise DomainError(f"2*gamma of pattern {q.label()} at m = {m} exceeds float range") from None


def max_two_gamma(m: int, n: int) -> tuple[float, int, bool]:
    """(B, L, attained): B = 2 d^2 max_L w_L(1^n) / D_L(m) >= 2*gamma_phi for
    every unit phi in Sym^n(C^m), as the w_L(phi) sum to 1.  L is the argmax
    (the larger on a tie); at L = n, B is the bunched pattern's 2*gamma, so
    B is attained and is the maximum over all states."""
    if not 1 <= n <= m:
        raise DomainError(f"need 1 <= n <= m, got (m, n) = ({m}, {n})")
    # t_L = w_L(1^n) / D_L(m) is t_(L-2) times the ratio below: walk log t_L in
    # floats, then compare exactly only the L within 1e-9 of the top.
    log_t, logs = 0.0, {n % 2: 0.0}
    for L in range(n % 2 + 2, n + 1, 2):
        num, den = (n + L) * (m + n - L) * (m + n - L - 1), (n - L + 1) * (m + n + L - 1) * (m + n + L - 2)
        log_t += math.log(num / den)
        logs[L] = log_t
    top = max(logs.values())
    near = [L for L, v in logs.items() if v >= top - 1e-9]
    term = lambda L: _ones_weight(n, L) / _two_row_dim(m, n + L, n - L)
    L = near[0] if len(near) == 1 else max(reversed(near), key=term)
    d = dim_hilbert(m, n)
    w = _ones_weight(n, L)
    try:
        return 2 * d * d * w.numerator / (w.denominator * _two_row_dim(m, n + L, n - L)), L, L == n
    except OverflowError:
        raise DomainError(f"the bound on 2*gamma at (m, n) = ({m}, {n}) exceeds float range") from None
