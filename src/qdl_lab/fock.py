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

#: Largest d * (m + n) basis_tables and enumerate_basis build.  On 2 vCPUs, in
#: fresh processes with numpy's import, basis_tables took 0.24 s and 89 MB peak
#: RSS at (m, n) = (20, 7), 17.8 M, and 0.04 s and 40 MB at (100, 3), 17.7 M;
#: enumerate_basis, whose d ModeConfigs of m modes come on top, 3.7 s and 304 MB
#: at (20, 7) and 2.6 s and 206 MB at (100, 3).
BASIS_CAP = 20_000_000

#: Largest codebook sample_codebook builds.  On 2 vCPUs, in fresh processes,
#: the (M, m) occupancy matrix of 100 000 codewords of 60 modes took 0.08 s and
#: 47 MB peak RSS; sample_codebook's ModeConfigs of them 2.1-2.3 s and 112 MB.
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
    cols, _ = basis_tables(m, n)
    occ = np.zeros((len(cols), m), dtype=np.uint8)  # n <= NORM_N_MAX fits
    np.add.at(occ, (np.arange(len(cols))[:, None], cols), 1)
    return tuple(ModeConfig(tuple(row.tolist())) for row in occ)


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
    # sorted mode tuples in lexicographic order are the occupation tuples
    # in descending lexicographic order
    d = dim_hilbert(m, n)
    modes = itertools.chain.from_iterable(itertools.combinations_with_replacement(range(m), n))
    cols = np.fromiter(modes, dtype=np.intp, count=d * n).reshape(d, n)
    # float(k!) of each run of k equal modes, multiplied in mode order
    fact = np.array([math.factorial(v) for v in range(n + 1)], dtype=float)
    norms, run = np.ones(d), np.ones(d, dtype=np.intp)  # run: length of the run ending at column j - 1
    for j in range(1, n):
        same = cols[:, j] == cols[:, j - 1]
        norms *= np.where(same, 1.0, fact[run])
        run = np.where(same, run + 1, 1)
    norms *= fact[run] if n else 1.0
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
    platforms.  M above ``CODEBOOK_CAP`` raises ResourceError, and C(m, n)
    past int64 DomainError, before any sampling.
    """
    occ = _codebook_occupancy(m, n, xi, rng)
    return CodeBook(tuple(ModeConfig(tuple(row.tolist())) for row in occ))


def _codebook_occupancy(m: int, n: int, xi: float, rng: Union[int, np.random.Generator]) -> np.ndarray:
    """(M, m) int8 occupancy matrix of ``sample_codebook``'s codewords, in draw order: their
    lexicographic ranks among the n-subsets of m modes, unranked all at once, one mode per step."""
    M = codebook_size(m, n, xi)
    C = num_codewords(m, n)
    if C > np.iinfo(np.int64).max:
        raise DomainError(f"C({m}, {n}) = {C} codewords exceed the int64 ranks of the sampler")
    rng = np.random.default_rng(rng)
    if C <= 1_000_000:
        ranks = rng.permutation(C)[:M]
    else:
        chosen: dict[int, None] = {}  # distinct ranks in first-draw order
        while len(chosen) < M:
            chosen.setdefault(int(rng.integers(C)))
        ranks = np.array(list(chosen), dtype=np.int64)
    # block[a, k] = C(a, k - 1), 0 at k = 0; no rank reaches an entry above C
    block = np.array([[0] + [min(math.comb(a, k), C) for k in range(n)] for a in range(m)], dtype=np.int64)
    occ = np.zeros((M, m), dtype=np.int8)
    need = np.full(M, n)
    for pos in range(m):
        b = block[m - pos - 1, need]
        occ[:, pos] = take = ranks < b
        ranks = ranks - np.where(take, 0, b)
        need = need - take
    return occ
