"""Independent oracles used by the test suite.

Nothing here goes through the permanent code path or the Monte Carlo
estimators under test:

* ``fock_column`` expands creation operators symbolically to get the
  action of an interferometer on a Fock state.
* ``exact_mean`` / ``exact_second_moment`` give closed-form Haar moments
  of X = |<phi_q|U|psi>|^2.  The mean is 1/d for every pattern because
  the n-photon representation is irreducible, so the Haar twirl of a
  pure state is maximally mixed.  The second moment comes from Schur
  orthogonality applied to the two-fold symmetric power: the tensor
  square of the representation is multiplicity free, v (x) v has weight
  only on the swap-symmetric components, and for n <= 3 there are
  exactly two of those.  For the fully bunched pattern the amplitude
  collapses to a product of column entries, whose squared moduli are
  Dirichlet(1, ..., 1) distributed, giving a closed form at every n.
  Both routes agree where they overlap.
* ``casimir_components`` splits Sym^n (x) Sym^n numerically, with no
  Clebsch-Gordan algebra: the gl(m) Casimir sum_ij E_ij E_ji of the tensor
  square acts on S_(n+L, n-L) as (n+L)(n+L+m-1) + (n-L)(n-L+m-3), distinct
  in L, so ``eigh`` separates the components and D_L is a projector's rank.
  ``casimir_second_moment`` then gives E|<phi|U|1^n>|^4 for any state phi
  by Schur's lemma.  Reference: Fulton & Harris, Representation Theory
  (1991), sections 6 and 15.3.
* ``lossy_mi_bruteforce`` enumerates the loss channel's joint
  distribution directly.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from qdl_lab.fock import ModeConfig, PatternLike, as_pattern, enumerate_basis


def fock_column(u: np.ndarray, config_in: ModeConfig) -> np.ndarray:
    """Amplitudes <t|U|in> over the canonical basis, permanent-free."""
    u = np.asarray(u, dtype=complex)
    m = config_in.m
    state: dict[tuple[int, ...], complex] = {(0,) * m: 1.0 + 0.0j}
    for mode in config_in.modes:
        new: dict[tuple[int, ...], complex] = {}
        for occ, coef in state.items():
            for j in range(m):
                uij = u[mode, j]
                if uij == 0:
                    continue
                t = occ[:j] + (occ[j] + 1,) + occ[j + 1 :]
                new[t] = new.get(t, 0.0 + 0.0j) + coef * uij
        state = new
    in_norm = 1.0
    for v in config_in.occupations:
        in_norm *= math.factorial(v)
    basis = enumerate_basis(m, config_in.n)
    out = np.zeros(len(basis), dtype=complex)
    for i, cfg in enumerate(basis):
        coef = state.get(cfg.occupations)
        if coef is None:
            continue
        t_norm = 1.0
        for v in cfg.occupations:
            t_norm *= math.factorial(v)
        out[i] = coef * math.sqrt(t_norm) / math.sqrt(in_norm)
    return out


def _rising(a: int, k: int) -> Fraction:
    out = Fraction(1)
    for i in range(k):
        out *= a + i
    return out


def exact_mean(m: int, n: int) -> Fraction:
    """E[X] = 1/dim for every pattern (irreducibility of the twirl)."""
    return Fraction(1, math.comb(n + m - 1, n))


def _sym_square_dims(m: int, n: int) -> tuple[int, Fraction]:
    """(dim of the top component, dim of the second) for n = 2, 3."""
    top = math.comb(m + 2 * n - 1, 2 * n)
    if n == 2:
        second = Fraction(m * m * (m * m - 1), 12)
    elif n == 3:
        second = Fraction(m * m * (m * m - 1) * (m + 2) * (m + 3), 80)
    else:
        raise ValueError("two-component decomposition only holds for n <= 3")
    return top, second


def _top_weight(q: PatternLike) -> Fraction:
    q = as_pattern(q)
    n = q.n
    num = 1
    for part in q.parts:
        num *= math.comb(2 * part, part)
    return Fraction(num, math.comb(2 * n, n))


def exact_second_moment(m: int, n: int, q: PatternLike) -> Fraction:
    """E[X^2] in closed form (n <= 3 any pattern; any n fully bunched)."""
    q = as_pattern(q)
    if len(q.parts) == 1:
        # Dirichlet moments of the squared first-column entries
        return Fraction(math.factorial(n)) ** 2 * 2**n / _rising(m, 2 * n)
    if n > 3:
        raise ValueError(f"no closed form implemented for pattern {q.parts} at n={n}")
    top, second = _sym_square_dims(m, n)
    w_q = _top_weight(q)
    w_psi = _top_weight((1,) * n)
    return w_q * w_psi / top + (1 - w_q) * (1 - w_psi) / second


def exact_two_gamma(m: int, n: int, q: PatternLike) -> float:
    d = Fraction(math.comb(n + m - 1, n))
    return float(2 * exact_second_moment(m, n, q) * d * d)


def exact_raw_c(m: int, n: int, q: PatternLike) -> Fraction:
    q = as_pattern(q)
    fac = 1
    for part in q.parts:
        fac *= math.factorial(part)
    return Fraction(fac, math.comb(n + m - 1, n))


@functools.lru_cache(maxsize=8)
def casimir_components(m: int, n: int) -> tuple[list[tuple[int, ...]], dict[int, np.ndarray]]:
    """Fock basis of Sym^n(C^m) and, per L, orthonormal columns spanning
    S_(n+L, n-L) inside Sym^n (x) Sym^n (Kronecker order, first factor major)."""
    basis = [cfg.occupations for cfg in enumerate_basis(m, n)]
    index = {occ: k for k, occ in enumerate(basis)}
    d = len(basis)
    e = np.zeros((m, m, d, d))  # e[i, j] = a_i^dag a_j on Sym^n
    for k, occ in enumerate(basis):
        for i in range(m):
            for j in range(m):
                if occ[j]:
                    new = list(occ)
                    new[j] -= 1
                    new[i] += 1
                    e[i, j, index[tuple(new)], k] = math.sqrt(occ[j] * new[i])
    one = np.eye(d)
    c1 = sum(e[i, j] @ e[j, i] for i in range(m) for j in range(m))
    # (E_ij x 1 + 1 x E_ij)(E_ji x 1 + 1 x E_ji), summed over i, j
    casimir = np.kron(c1, one) + np.kron(one, c1)
    casimir += 2 * sum(np.kron(e[i, j], e[j, i]) for i in range(m) for j in range(m))
    values, vectors = np.linalg.eigh(casimir)
    comps = {}
    for L in range(n + 1):
        at = np.abs(values - ((n + L) * (n + L + m - 1) + (n - L) * (n - L + m - 3))) < 0.5
        if at.any():
            comps[L] = vectors[:, at]
    if sum(c.shape[1] for c in comps.values()) != d * d:
        raise AssertionError(f"Casimir eigenvalues at ({m}, {n}) are not all of the form expected")
    return basis, comps


def casimir_weights(m: int, n: int, phi: np.ndarray) -> dict[int, np.ndarray]:
    """w_L(phi) = |P_L (phi x phi)|^2 for unit vectors phi over the Fock basis
    (the last axis), so a stack of states gives a stack of weights."""
    _, comps = casimir_components(m, n)
    phi = np.asarray(phi)
    v = (phi[..., :, None] * phi[..., None, :]).reshape(*phi.shape[:-1], -1)
    return {L: np.linalg.norm(v @ cols, axis=-1) ** 2 for L, cols in comps.items()}


def casimir_second_moment(m: int, n: int, phi: np.ndarray) -> np.ndarray:
    """E|<phi|U|1^n>|^4 = sum_L w_L(phi) w_L(1^n) / D_L(m) over Haar U."""
    basis, comps = casimir_components(m, n)
    ones = np.zeros(len(basis))
    ones[basis.index((1,) * n + (0,) * (m - n))] = 1.0
    w_phi, w_ones = casimir_weights(m, n, phi), casimir_weights(m, n, ones)
    return sum(w_phi[L] * w_ones[L] / cols.shape[1] for L, cols in comps.items())


def lossy_mi_bruteforce(m: int, n: int, eta: float) -> float:
    """I(X;Y) of the per-photon loss channel by full enumeration."""
    codewords = list(combinations(range(m), n))
    M = len(codewords)
    joint: dict[tuple[int, tuple[int, ...]], float] = {}
    for x, modes in enumerate(codewords):
        for k in range(n + 1):
            for kept in combinations(modes, k):
                p = eta**k * (1.0 - eta) ** (n - k) / M
                if p:
                    joint[(x, kept)] = joint.get((x, kept), 0.0) + p
    px: dict[int, float] = {}
    py: dict[tuple[int, ...], float] = {}
    for (x, y), p in joint.items():
        px[x] = px.get(x, 0.0) + p
        py[y] = py.get(y, 0.0) + p
    acc = 0.0
    for (x, y), p in joint.items():
        acc += p * math.log2(p / (px[x] * py[y]))
    return acc
