"""End-to-end simulation of the locking protocol: key selection,
encoding, scrambling, optional loss, keyed decoding, and empirical
mutual-information diagnostics, as one batched pass per shard of trials.

Loss is applied in the codeword basis: uniform single-photon loss
commutes with any passive interferometer, and the keyed receiver applies
the exact inverse unitary, so the detected click statistics match the
loss-channel analysis without simulating mixed states over variable
photon number.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import DomainError, ResourceError
from .fock import CodeBook, ModeConfig, _check_basis, codebook_size, dim_hilbert, sample_codebook
from .linop import BLOCK_BYTES, check_unitary, haar_batch, output_distributions

SHARD = 4096

#: Fewest shards per process for which run_trials starts processes.  On 2
#: vCPUs, in fresh `qdl-lab simulate` runs (medians of 6 interleaved pairs,
#: processes forced on), workers 2 against workers 1 took, at (m, n, K) =
#: (8, 3, 64), eta 0.8: 0.75 against 0.66 s at 6 shards per process, 0.63
#: against 0.60 s at 8 and 0.65 against 0.99 s at 10; at (4, 2, 16), eta 0.5,
#: whose shards cost about 1 ms: 0.31 against 0.27 s at 8, 0.43 against
#: 0.44 s at 64 and 0.73 against 0.96 s at 256.  8 sits at the first shape's
#: break-even; the second needs about 64.
MIN_SHARDS_PER_PROCESS = 8

#: Cap on trials * d.  The blind diagnostic draws one of d outcomes per
#: trial, from the d-point distributions of up to one (k, x) pair per trial,
#: so trials * d bounds its permanents.  The codebook, basis and pool have
#: their own caps (fock.CODEBOOK_CAP, fock.BASIS_CAP, POOL_CAP); all raise
#: ResourceError, exit 4.
DEFAULT_BUDGET = 50_000_000

#: Cap on K * m^2, the pool's complex entries.  On 2 vCPUs gen_unitary_pool at
#: the cap took 1.3-1.5 s and 129 MB peak RSS at m = 1 (K = 4 M), 0.9 s and
#: 129 MB at m = 4, 0.9 s and 130 MB at m = 200 and 1.5-1.8 s and 209 MB at
#: m = 1000.
POOL_CAP = 4_000_000

LN2 = math.log(2.0)


@dataclass(frozen=True)
class ProtocolConfig:
    m: int
    n: int
    K: int
    xi: float = 1.0
    eta: float = 1.0
    trials: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n > self.m or self.n < 1:
            raise DomainError(f"need 1 <= n <= m, got ({self.m}, {self.n})")
        if self.K < 1:
            raise DomainError(f"need K >= 1, got {self.K}")
        if self.trials < 1:
            raise DomainError(f"need trials >= 1, got {self.trials}")
        if not 0.0 < self.xi <= 1.0:
            raise DomainError(f"need 0 < xi <= 1, got {self.xi}")
        if not 0.0 <= self.eta <= 1.0:
            raise DomainError(f"need 0 <= eta <= 1, got {self.eta}")


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    x: int
    k: int
    clicks: int
    detected: ModeConfig
    decoded: Optional[int]
    ambiguity: int


@dataclass(frozen=True)
class DecodeResult:
    decoded: Optional[int]
    ambiguity: tuple[int, ...]


@dataclass(frozen=True)
class TrialSummary:
    m: int
    n: int
    K: int
    M: int
    xi: float
    eta: float
    trials: int
    seed: int
    keyed_success_rate: float
    keyed_mi_bits: float
    blind_mi_bits: float
    keyed_bias_bound: float
    blind_bias_bound: float
    records: Optional[tuple[TrialRecord, ...]] = None


def gen_unitary_pool(m: int, K: int, seed: Union[int, np.random.Generator]) -> np.ndarray:
    """K i.i.d. Haar unitaries as one read-only (K, m, m) array, bitwise stable for a
    seed; refused above ``POOL_CAP`` before sampling, checked unitary after it."""
    if K < 1:
        raise DomainError(f"need K >= 1, got {K}")
    if K * m * m > POOL_CAP:
        raise ResourceError(f"pool of K = {K} unitaries of m = {m} modes exceeds cap {POOL_CAP}")
    pool = haar_batch(np.random.default_rng(seed), K, m)
    check_unitary(pool)
    pool.setflags(write=False)
    return pool


def decode_with_key(
    k: int,
    pool: np.ndarray,
    received: ModeConfig,
    codebook: CodeBook,
) -> DecodeResult:
    """Bob's side: inverse of pool unitary k, then photo-detection.

    The inverse composes with the scrambler to the exact identity, so of
    the (K, m, m) pool array only ``len(pool)`` is read and the detected
    clicks are the surviving codeword modes.  With all n clicks the message
    is recovered uniquely; with fewer, the result is the set of codewords
    containing the detected sub-configuration.
    """
    if not 0 <= k < len(pool):
        raise DomainError(f"key index {k} out of range [0, {len(pool)})")
    if received.m != codebook.m:
        raise DomainError("received configuration does not match the codebook modes")
    clicks = received.n
    if clicks > codebook.n:
        raise DomainError(f"{clicks} clicks exceed the {codebook.n}-photon codewords")
    occ = np.array([cw.occupations for cw in codebook.codewords])
    mask = _compatible(occ, np.array([received.occupations]))[0]
    compatible = tuple(np.flatnonzero(mask).tolist())
    decoded = compatible[0] if len(compatible) == 1 else None
    return DecodeResult(decoded=decoded, ambiguity=compatible)


def _compatible(codewords: np.ndarray, detected: np.ndarray) -> np.ndarray:
    """(T, M) mask: row j of the (M, m) occupancy matrix ``codewords`` holds
    every photon of row t of the (T, m) matrix ``detected``."""
    return (detected[:, None, :] <= codewords[None, :, :]).all(axis=2)


def empirical_mutual_info(counts: Mapping) -> float:
    """Plug-in estimate of I(X;Y) in bits from a joint count table.

    ``counts`` maps each (x, y) pair to its count.
    """
    items = [(key, float(c)) for key, c in counts.items() if c]
    if any(c < 0 for _, c in items):
        raise DomainError("counts must be non-negative")
    total = sum(c for _, c in items)
    if total <= 0:
        raise DomainError("count table is empty")
    px: dict = {}
    py: dict = {}
    for (x, y), c in items:
        px[x] = px.get(x, 0.0) + c
        py[y] = py.get(y, 0.0) + c
    acc = 0.0
    for (x, y), c in items:
        acc += c / total * math.log2(c * total / (px[x] * py[y]))
    return max(acc, 0.0)


def _process_map(fn: Callable, tasks: Sequence, workers: int) -> list:
    """``[fn(t) for t in tasks]``, in task order.

    When ``min(workers, len(tasks) // MIN_SHARDS_PER_PROCESS, os.cpu_count()
    or 1)`` is 2 or more, the calls run in a process pool of that many
    processes that lives for this call only, at most 8 tasks per dispatch
    but never fewer batches than processes; otherwise they run inline, as
    starting processes costs more than fewer tasks per process save.
    Shards spend most of their time in Python that holds the GIL, so
    processes, unlike the Monte Carlo's threads, run them in parallel.
    Results do not depend on ``workers``.
    """
    count = min(workers, len(tasks) // MIN_SHARDS_PER_PROCESS, os.cpu_count() or 1)
    if count <= 1:
        return [fn(t) for t in tasks]
    # imported here: importing qdl_lab then loads no multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=count) as pool:
        return list(pool.map(fn, tasks, chunksize=min(8, math.ceil(len(tasks) / count))))


def _run_shard(
    args: tuple[ProtocolConfig, np.ndarray, np.ndarray, int, int, int, bool]
) -> tuple[dict, dict, int, list[TrialRecord]]:
    """Trials ``start .. start+count-1``, as array operations over the shard.

    ``occ`` is the (M, m) int8 codeword occupancy matrix and ``units`` the
    (K, m, m) pool array of ``gen_unitary_pool``, both built once by ``run_trials``.
    The shard's stream ``[seed, 3, shard_idx]`` draws messages, keys,
    blind uniforms and loss masks, in that order.  A trial's detected
    configuration depends only on its message x and on which of its n
    photons survive, so trials are grouped once by ``x << n | kept-slot
    bits``, and every code is decoded once: the codewords that hold each
    distinct detected row are counted, for blocks of rows of at most
    ``BLOCK_BYTES`` comparisons, and a lone compatible codeword is the
    sent one.  Blind outcomes come from ``_photodetect``.  Count tables
    list their keys in order of first appearance, as a per-trial loop
    would fill them; per-trial columns are built only for ``collect``.
    """
    config, occ, units, shard_idx, start, count, collect = args
    rng = np.random.default_rng([config.seed, 3, shard_idx])
    M, K, n = len(occ), len(units), config.n

    xs = rng.integers(0, M, size=count)
    ks = rng.integers(0, K, size=count)
    u_blind = rng.random(size=count)
    keep = rng.random(size=(count, n)) < config.eta

    modes = np.nonzero(occ)[1].reshape(M, n)  # loss-mask slot -> mode
    first, counts, code_of = _first_appearance(xs << n | keep @ (1 << np.arange(n)))
    x_code = xs[first]
    detected = occ[x_code]
    lost_c, lost_slot = np.nonzero(~keep[first])
    detected[lost_c, modes[x_code[lost_c], lost_slot]] = 0
    step = max(1, BLOCK_BYTES // (M * config.m))
    ambiguity = np.concatenate(
        [_compatible(occ, detected[s:s + step]).sum(axis=1) for s in range(0, len(first), step)]
    )
    z = _photodetect(units, modes, xs, ks, u_blind)

    rows = detected.tolist()
    keyed_counts = {
        (x, tuple(det)): c for x, det, c in zip(x_code.tolist(), rows, counts.tolist())
    }
    d = dim_hilbert(config.m, n)
    blind_first, blind_n, _ = _first_appearance(xs * d + z)
    blind_counts = {
        (int(xs[t]), int(z[t])): c for t, c in zip(blind_first.tolist(), blind_n.tolist())
    }
    records = []
    if collect:
        found = [ModeConfig(tuple(det)) for det in rows]
        amb = ambiguity.tolist()
        records = [
            TrialRecord(start + t, x, k, found[c].n, found[c], x if amb[c] == 1 else None, amb[c])
            for t, (x, k, c) in enumerate(zip(xs.tolist(), ks.tolist(), code_of.tolist()))
        ]
    return keyed_counts, blind_counts, int(counts[ambiguity == 1].sum()), records


def _first_appearance(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First index and count of each distinct value of ``keys``, in order of
    first index, and the position of each key's value in that order."""
    order, bounds = _runs(keys)
    first, counts = order[bounds[:-1]], np.diff(bounds)
    by_first = np.argsort(first)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(len(by_first))
    group_of = np.empty_like(order)
    group_of[order] = np.repeat(rank, counts)
    return first[by_first], counts[by_first], group_of


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable sort order of non-negative integer ``keys`` and the bounds of its
    runs of equal keys: run i is ``order[bounds[i]:bounds[i + 1]]``, first index first.

    Keys are sorted as the narrowest unsigned type that holds them: numpy's
    stable sort is a radix sort for 8- and 16-bit integers, on a 4096-trial
    shard 5-10x faster than its merge sort of int64.
    """
    order = np.argsort(keys.astype(np.min_scalar_type(keys.max())), kind="stable")
    sorted_keys = keys[order]
    return order, np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1], True])


def _photodetect(
    units: np.ndarray, modes: np.ndarray, xs: np.ndarray, ks: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Key-blind photodetection outcome index of every trial.

    A diagnostic lower bound on the accessible information, with no claim
    of measurement optimality.  Each distinct (k, x) pair's distribution
    is computed once, for blocks of pairs whose permanent input fits
    ``BLOCK_BYTES``, in ascending pair order; one stable sort groups the
    trials by pair.  Its trials draw by inverse CDF on their ``u``, as
    ``searchsorted(cum, u, side="left")`` clipped to d - 1, since rounding
    may leave the last cumulative value below u: with that value set to
    infinity, the first cumulative value not below u is ``(cum < u).argmin()``.
    """
    M, n = modes.shape
    d = dim_hilbert(units.shape[1], n)
    key = ks * M + xs
    order, bounds = _runs(key)
    pairs = key[order[bounds[:-1]]]
    pair_of = np.repeat(np.arange(len(pairs)), np.diff(bounds))  # pair of trial order[j]
    pair_step = max(1, BLOCK_BYTES // (16 * n * n * d))
    trial_step = max(1, BLOCK_BYTES // (8 * d))
    z = np.empty(len(xs), dtype=np.intp)
    for s in range(0, len(pairs), pair_step):
        block = pairs[s:s + pair_step]
        cum = np.cumsum(output_distributions(units, block // M, modes[block % M]), axis=1)
        cum[:, -1] = np.inf
        end = bounds[min(s + pair_step, len(pairs))]
        for c in range(bounds[s], end, trial_step):
            j = slice(c, min(c + trial_step, end))
            t = order[j]
            z[t] = (cum[pair_of[j] - s] < u[t, None]).argmin(axis=1)
    return z


def run_trials(
    config: ProtocolConfig,
    workers: int = 1,
    collect_records: bool = False,
) -> TrialSummary:
    """Simulate the protocol and report empirical diagnostics.

    The codebook (stream ``[seed, 2]``) and the (K, m, m) ``gen_unitary_pool``
    array (stream ``[seed, 1]``) are sampled once and handed to every shard.
    Trials are sharded by index (``SHARD`` per shard) with per-shard RNG
    streams, and ``_process_map`` maps the shards over up to ``workers``
    processes, so the transcript is identical for any worker count.  Each
    shard runs as one batched pass (``_run_shard``) whose temporaries are
    bounded by ``linop.BLOCK_BYTES`` per block.  The summary carries
    plug-in mutual-information estimates for the keyed receiver and for
    a key-blind photodetector, with their standard bias bounds.

    trials * d above ``DEFAULT_BUDGET``, a codebook above
    ``fock.CODEBOOK_CAP``, a basis above ``fock.BASIS_CAP`` and a pool
    above ``POOL_CAP`` raise ResourceError, in that order, before any
    sampling.  The basis cap also bounds the codebook's M * m entries.
    """
    d = dim_hilbert(config.m, config.n)
    if config.trials * d > DEFAULT_BUDGET:
        raise ResourceError(
            f"trials*d = {config.trials * d} exceeds budget {DEFAULT_BUDGET}; reduce trials"
        )
    codebook_size(config.m, config.n, config.xi)
    _check_basis(config.m, config.n)
    units = gen_unitary_pool(config.m, config.K, np.random.default_rng([config.seed, 1]))
    codebook = sample_codebook(config.m, config.n, config.xi, np.random.default_rng([config.seed, 2]))
    occ = np.array([cw.occupations for cw in codebook.codewords], dtype=np.int8)
    M = len(occ)
    shards = [
        (config, occ, units, idx, start, min(SHARD, config.trials - start), collect_records)
        for idx, start in enumerate(range(0, config.trials, SHARD))
    ]
    parts = _process_map(_run_shard, shards, workers)

    keyed_counts: dict = {}
    blind_counts: dict = {}
    successes = 0
    records: list[TrialRecord] = []
    for kc, bc, succ, recs in parts:
        for key, c in kc.items():
            keyed_counts[key] = keyed_counts.get(key, 0) + c
        for key, c in bc.items():
            blind_counts[key] = blind_counts.get(key, 0) + c
        successes += succ
        records.extend(recs)

    n_keyed_y = len({y for _, y in keyed_counts})
    n_blind_y = len({y for _, y in blind_counts})
    bias = lambda ny: (M - 1) * (ny - 1) / (2.0 * config.trials * LN2)
    return TrialSummary(
        m=config.m,
        n=config.n,
        K=config.K,
        M=M,
        xi=config.xi,
        eta=config.eta,
        trials=config.trials,
        seed=config.seed,
        keyed_success_rate=successes / config.trials,
        keyed_mi_bits=empirical_mutual_info(keyed_counts),
        blind_mi_bits=empirical_mutual_info(blind_counts),
        keyed_bias_bound=bias(n_keyed_y),
        blind_bias_bound=bias(n_blind_y),
        records=tuple(records) if collect_records else None,
    )
