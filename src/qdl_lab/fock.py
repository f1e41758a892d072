"""Fock-space combinatorics for n photons in m optical modes.

Basis states are occupation tuples ``(n_1, ..., n_m)`` with ``sum = n``.
The canonical ordering is descending lexicographic on the occupation
tuple, so ``|n,0,...,0>`` always has index 0.  A photon *pattern* is the
multiset of nonzero occupations, normalised to non-increasing order;
patterns label the bunching subspaces that the Haar-averaged state is
block diagonal over.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import DomainError, ResourceError

#: Largest d * (m + n) enumerate_basis and basis_tables build: d ModeConfigs
#: of m modes, then a (d, n) column table.  On 2 vCPUs basis_tables took 6.6 s
#: and 670 MB peak RSS at (m, n) = (21, 7), 24.9 M, and 6.5 s at (100, 3), 17.7 M.
BASIS_CAP = 20_000_000

#: Largest codebook sample_codebook builds.  As ModeConfig objects, 100 000
#: codewords of 60 modes take about 3 s and 120 MB to build on 2 vCPUs; a
#: million take 33 s and 0.9 GB.
CODEBOOK_CAP = 100_000

#: Largest n * min(m, n), the big-integer additions of count_patterns.  On
#: 2 vCPUs at the cap it took 0.36 s at (m, n) = (3162, 3162), 0.77 s at
#: (100, 10^5) and 0.65 s and 220 MB peak RSS at (2, 5 * 10^6), where its
#: n + 1 counts are distinct integers.
PATTERN_COUNT_CAP = 10_000_000

#: Largest n whose n! fits a float, for the factorial norms of basis_tables.
NORM_N_MAX = 170


def _check_mn(m: int, n: int) -> None:
    if m < 1 or n < 0:
        raise DomainError(f"need m >= 1 and n >= 0, got (m, n) = ({m}, {n})")


@dataclass(frozen=True)
class ModeConfig:
    """Occupation numbers of m modes holding n photons in total."""

    occupations: tuple[int, ...]

    def __post_init__(self) -> None:
        occ = tuple(int(v) for v in self.occupations)
        object.__setattr__(self, "occupations", occ)
        if len(occ) < 1 or any(v < 0 for v in occ):
            raise DomainError(f"invalid occupations {occ}")

    @property
    def m(self) -> int:
        return len(self.occupations)

    @property
    def n(self) -> int:
        return sum(self.occupations)

    @property
    def modes(self) -> tuple[int, ...]:
        """Indices of occupied modes, each repeated by its occupancy."""
        out: list[int] = []
        for i, v in enumerate(self.occupations):
            out.extend([i] * v)
        return tuple(out)

    def is_single_occupancy(self) -> bool:
        return all(v <= 1 for v in self.occupations)


@dataclass(frozen=True)
class PhotonPattern:
    """Non-increasing positive parts summing to the photon number."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        parts = tuple(int(v) for v in self.parts)
        object.__setattr__(self, "parts", parts)
        if any(v <= 0 for v in parts):
            raise DomainError(f"pattern parts must be positive, got {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise DomainError(f"pattern parts must be non-increasing, got {parts}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    def subspace_dim(self, m: int) -> int:
        """Number of distinct ModeConfigs on m modes with this pattern."""
        if m < len(self.parts):
            raise DomainError(f"pattern {self.parts} needs at least {len(self.parts)} modes")
        counts: dict[int, int] = {}
        for v in self.parts:
            counts[v] = counts.get(v, 0) + 1
        denom = math.factorial(m - len(self.parts))
        for c in counts.values():
            denom *= math.factorial(c)
        return math.factorial(m) // denom

    def norm_factor(self) -> int:
        """prod_j q_j!, the repeated-mode normalisation of the pattern."""
        out = 1
        for v in self.parts:
            out *= math.factorial(v)
        return out

    def label(self) -> str:
        """Dash-joined parts, e.g. ``2-1`` for pattern (2, 1)."""
        return "-".join(str(v) for v in self.parts)

    @classmethod
    def from_label(cls, text: str) -> "PhotonPattern":
        try:
            parts = tuple(int(tok) for tok in text.strip().split("-"))
        except ValueError as exc:
            raise DomainError(f"cannot parse pattern label {text!r}") from exc
        return cls(parts)


PatternLike = Union[PhotonPattern, Sequence[int]]


def as_pattern(q: PatternLike) -> PhotonPattern:
    if isinstance(q, PhotonPattern):
        return q
    return PhotonPattern(tuple(q))


@dataclass(frozen=True)
class CodeBook:
    """Ordered collection of distinct single-occupancy codewords."""

    codewords: tuple[ModeConfig, ...]

    def __post_init__(self) -> None:
        if not self.codewords:
            raise DomainError("empty codebook")
        m = self.codewords[0].m
        n = self.codewords[0].n
        seen = set()
        for cw in self.codewords:
            if cw.m != m or cw.n != n:
                raise DomainError("codewords disagree on (m, n)")
            if not cw.is_single_occupancy():
                raise DomainError(f"codeword {cw.occupations} is not single occupancy")
            if cw.occupations in seen:
                raise DomainError(f"duplicate codeword {cw.occupations}")
            seen.add(cw.occupations)

    @property
    def m(self) -> int:
        return self.codewords[0].m

    @property
    def n(self) -> int:
        return self.codewords[0].n

    def __len__(self) -> int:
        return len(self.codewords)

    def __getitem__(self, i: int) -> ModeConfig:
        return self.codewords[i]


def dim_hilbert(m: int, n: int) -> int:
    """Dimension binomial(n+m-1, n) of the n-photon m-mode space."""
    _check_mn(m, n)
    return math.comb(n + m - 1, n)


def log2_dim_hilbert(m: int, n: int) -> float:
    """log2 of dim_hilbert, from the exact integer."""
    return math.log2(dim_hilbert(m, n))


def num_codewords(m: int, n: int) -> int:
    """Number binomial(m, n) of single-occupancy basis states."""
    _check_mn(m, n)
    if n > m:
        raise DomainError(f"no single-occupancy states for n={n} > m={m}")
    return math.comb(m, n)


def log2_num_codewords(m: int, n: int) -> float:
    """log2 of num_codewords, from the exact integer."""
    return math.log2(num_codewords(m, n))


def _check_basis(m: int, n: int) -> None:
    """DomainError above ``NORM_N_MAX`` photons; ResourceError above ``BASIS_CAP``, read per call."""
    if n > NORM_N_MAX:
        raise DomainError(f"n = {n} exceeds {NORM_N_MAX}, the largest n whose n! fits a float")
    size = dim_hilbert(m, n) * (m + n)
    if size > BASIS_CAP:
        raise ResourceError(f"basis d*(m+n) = {size} exceeds cap {BASIS_CAP} at ({m}, {n})")


def enumerate_basis(m: int, n: int) -> tuple[ModeConfig, ...]:
    """All occupation tuples in descending lexicographic order.

    The position of a config in this sequence is its canonical index, the
    row of ``basis_tables`` and of every output distribution.
    """
    _check_basis(m, n)
    return _basis_cached(m, n)


@functools.lru_cache(maxsize=256)
def _basis_cached(m: int, n: int) -> tuple[ModeConfig, ...]:
    # sorted mode tuples in lexicographic order are the occupation tuples
    # in descending lexicographic order
    out = []
    for modes in itertools.combinations_with_replacement(range(m), n):
        occ = [0] * m
        for mode in modes:
            occ[mode] += 1
        out.append(ModeConfig(tuple(occ)))
    return tuple(out)


def basis_tables(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Permanent column indices (d, n) and factorial norms (d,) of the basis.

    Row i of the first table lists the occupied modes of basis state i,
    each repeated by its occupancy; entry i of the second is
    ``prod_j n_j!``.  Both are cached per (m, n) and read-only; the
    ``BASIS_CAP`` check runs on every call, outside the cache.
    """
    _check_basis(m, n)
    return _tables_cached(m, n)


@functools.lru_cache(maxsize=256)
def _tables_cached(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    occ = np.array([cfg.occupations for cfg in enumerate_basis(m, n)]).reshape(-1, m)
    cols = np.repeat(np.tile(np.arange(m), len(occ)), occ.ravel()).reshape(len(occ), n)
    norms = np.array([math.factorial(v) for v in range(n + 1)], dtype=float)[occ].prod(axis=1)
    cols.setflags(write=False)
    norms.setflags(write=False)
    return cols, norms


def enumerate_patterns(m: int, n: int) -> list[PhotonPattern]:
    """All photon patterns (partitions of n into at most m parts).

    Ordered descending-lexicographically, i.e. the fully bunched pattern
    ``(n,)`` first and the no-collision pattern ``(1, ..., 1)`` last.
    """
    _check_mn(m, n)
    if n == 0:
        return []
    out: list[PhotonPattern] = []

    def parts_of(left: int, most: int, acc: list[int]) -> None:
        if left == 0:
            out.append(PhotonPattern(tuple(acc)))
            return
        if len(acc) == m:
            return
        for v in range(min(left, most), 0, -1):
            acc.append(v)
            parts_of(left - v, v, acc)
            acc.pop()

    parts_of(n, n, [])
    return out


def count_patterns(m: int, n: int) -> int:
    """``len(enumerate_patterns(m, n))`` without building the patterns.

    Partitions of n into at most m parts are, by conjugation, those into
    parts of size at most m; p(j, k) = p(j, k-1) + p(j-k, k) counts them
    in O(n min(m, n)) integer steps; above ``PATTERN_COUNT_CAP`` steps it
    raises ResourceError.
    """
    _check_mn(m, n)
    if n * min(m, n) > PATTERN_COUNT_CAP:
        raise ResourceError(
            f"counting patterns takes n*min(m, n) = {n * min(m, n)} steps at ({m}, {n}), "
            f"above cap {PATTERN_COUNT_CAP}"
        )
    if n == 0:
        return 0
    ways = [0] * (n + 1)
    ways[0] = 1
    for k in range(1, min(m, n) + 1):
        for j in range(k, n + 1):
            ways[j] += ways[j - k]
    return ways[n]


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def codebook_size(m: int, n: int, xi: float) -> int:
    """M = max(1, round(xi*C)); above ``CODEBOOK_CAP`` it raises ResourceError."""
    if not 0 < xi <= 1:
        raise DomainError(f"need 0 < xi <= 1, got {xi}")
    M = max(1, _round_half_up(xi * num_codewords(m, n)))
    if M > CODEBOOK_CAP:
        raise ResourceError(
            f"codebook size {M} exceeds cap {CODEBOOK_CAP} for (m, n, xi) = ({m}, {n}, {xi})"
        )
    return M


def sample_codebook(m: int, n: int, xi: float, rng: Union[int, np.random.Generator]) -> CodeBook:
    """Uniform sample of M = max(1, round(xi*C)) single-occupancy codewords.

    Sampling is without replacement and deterministic for a given seed.
    Rounding is half-up so the cardinality is reproducible across
    platforms.  M above ``CODEBOOK_CAP`` raises ResourceError before any
    sampling.
    """
    M = codebook_size(m, n, xi)
    C = num_codewords(m, n)
    rng = np.random.default_rng(rng)
    if C <= 1_000_000:
        picks = rng.permutation(C)[:M]
    else:
        chosen: set[int] = set()
        order: list[int] = []
        while len(order) < M:
            r = int(rng.integers(C))
            if r not in chosen:
                chosen.add(r)
                order.append(r)
        picks = np.array(order)
    codewords = tuple(_unrank_combination(m, n, int(r)) for r in picks)
    return CodeBook(codewords)


def _unrank_combination(m: int, n: int, r: int) -> ModeConfig:
    """r-th n-subset of m modes in lexicographic order, as a ModeConfig."""
    occ = [0] * m
    need = n
    pos = 0
    while need > 0:
        block = math.comb(m - pos - 1, need - 1)
        if r < block:
            occ[pos] = 1
            need -= 1
        else:
            r -= block
        pos += 1
    return ModeConfig(tuple(occ))
