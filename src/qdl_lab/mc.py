"""Seeded Monte Carlo estimation of the averaged-state coefficients c_q
and the concentration factor gamma_q.

For a fixed single-occupancy codeword psi = |1,...,1,0,...,0> and a
representative phi_q carrying pattern q on the leading modes, the
estimators accumulate X = |<phi_q| U |psi>|^2 over Haar draws of U.
c_q is E[X]; the tables' convention "2 gamma_q" is 2 E[X^2] / E[X]^2.
X depends only on the top n rows of U's first columns, so no draw grows
with m (Mezzadri, Notices AMS 54, 2007; Zyczkowski & Sommers, J. Phys. A
33, 2045, 2000).

Samples are accumulated in fixed 4096-sample chunks whose RNG streams
derive from (seed, chunk index), and chunk sums are combined in index
order with compensated addition, so results are bit-identical for any
worker count.  Chunks run on the calling thread and on helper threads
that live for the process (``_thread_map``): their frame sampling and
permanents are numpy and LAPACK calls that release the GIL, and threads
pay no process start-up.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from queue import SimpleQueue
from threading import Condition, Event, Lock, Thread
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError
from .fock import PatternLike, PhotonPattern, as_pattern
from .linop import _neumaier_add, _permanent_batch, stiefel_batch

CHUNK = 4096

MIN_SAMPLES = 1_000

#: Spec'd defaults: c_q runs are cheap, gamma_q runs want the full 1e6.
DEFAULT_C_SAMPLES = 200_000
DEFAULT_GAMMA_SAMPLES = 1_000_000

_BOOTSTRAP_RESAMPLES = 200


@dataclass(frozen=True)
class MomentEstimate:
    """First and second moments of X with their standard errors."""

    mean: float
    second_moment: float
    stderr_mean: float
    stderr_ratio: float
    samples: int
    seed: int
    m: int
    n: int
    q: PhotonPattern

    @property
    def ratio(self) -> float:
        """E[X^2] / E[X]^2 (>= 1 by Jensen up to sampling noise)."""
        return self.second_moment / self.mean**2


@dataclass(frozen=True)
class GammaRecord:
    """A single numeric 2*gamma_q value with its provenance."""

    m: int
    n: int
    q: PhotonPattern
    two_gamma_q: float
    stderr: float
    samples: int
    seed: int


class _Helpers:
    """Daemon threads, started as first needed, that run the jobs put on one
    shared queue.  They live as long as the process: a thread started per
    call can start before the last one has fully exited, get a malloc arena
    of its own, and so grow the process's memory call by call.  A forked
    child has none of them; ``_thread_map`` then runs every task on the
    calling thread, as it waits only for helpers that took its job."""

    def __init__(self) -> None:
        self.jobs: SimpleQueue = SimpleQueue()
        self.started = 0
        self.lock = Lock()

    def run(self, job: Callable[[], None], copies: int) -> None:
        """Queue ``copies`` calls of ``job``, with at least that many threads."""
        with self.lock:
            while self.started < copies:
                Thread(target=self._serve, daemon=True).start()
                self.started += 1
        for _ in range(copies):
            self.jobs.put(job)

    def _serve(self) -> None:
        while True:
            self.jobs.get()()


_HELPERS = _Helpers()


def _thread_map(fn: Callable, tasks: Sequence, workers: int) -> list:
    """``[fn(t) for t in tasks]``, in task order, on the calling thread and
    ``min(workers, len(tasks), os.cpu_count() or 1) - 1`` helper threads.

    Every thread takes the next task index from one shared iterator and
    writes its result to that index's slot, so results do not depend on
    ``workers``.  Once a task raises, or the caller is interrupted, no
    thread takes a new task; after the helpers finish their current tasks
    the exception of the lowest-index failed task is raised, the one a
    sequential run would raise first.  The caller waits only for helpers
    that took its job before it finished, so a helper slow to wake costs
    nothing.
    """
    count = min(workers, len(tasks), os.cpu_count() or 1)
    if count <= 1:
        return [fn(t) for t in tasks]
    results = [None] * len(tasks)
    errors: dict[int, BaseException] = {}
    indices = iter(range(len(tasks)))
    cond = Condition()
    stop = Event()
    active = 0  # helpers inside work()

    def work() -> None:
        while not stop.is_set():
            with cond:
                i = next(indices, None)
            if i is None:
                return
            try:
                results[i] = fn(tasks[i])
            except BaseException as exc:  # re-raised by the caller below
                errors[i] = exc
                stop.set()

    def helper() -> None:
        nonlocal active
        with cond:
            if stop.is_set():
                return
            active += 1
        try:
            work()
        finally:
            with cond:
                active -= 1
                cond.notify_all()

    _HELPERS.run(helper, count - 1)
    try:
        work()
    finally:
        with cond:
            stop.set()
            cond.wait_for(lambda: active == 0)
    if errors:
        raise errors[min(errors)]
    return results


def _chunk_power_sums(args: tuple[int, int, tuple[int, ...], int, int, int]) -> np.ndarray:
    """Power sums (sum Y, sum Y^2, sum Y^3, sum Y^4) for one chunk.

    Y is X for patterns with several parts, from the top n rows of Haar
    frames.  For the bunched pattern q = (n), X = n! prod_{i<n} |U_i1|^2 =
    T^n Y with T = sum_{i<n} |U_i1|^2 ~ Beta(n, m - n) independent of the
    direction V = |U_i1|^2 / T ~ Dirichlet(1^n), and Y = n! prod V_i; V is
    drawn as n normalised standard exponentials per sample, and
    ``estimate_moments`` scales by the exact moments of T.
    """
    m, n, parts, seed, chunk_idx, count = args
    # spawn_key form: no list entropy gives this stream once seed >= 2**32
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk_idx,)))
    ncols = len(parts)
    if ncols == 1:
        e = rng.standard_exponential((count, n))
        y = np.prod(n * e / e.sum(axis=1, keepdims=True), axis=1) * (math.factorial(n) / n**n)
    else:
        frame = stiefel_batch(rng, count, m, ncols, rows=n)
        a = frame if ncols == n else frame[:, :, np.repeat(np.arange(ncols), parts)]
        y = np.abs(_permanent_batch(a)) ** 2 / PhotonPattern(parts).norm_factor()
    return np.array([y.sum(), (y**2).sum(), (y**3).sum(), (y**4).sum()])


def _radial_moments(m: int, n: int, q: PhotonPattern) -> tuple[Fraction, Fraction]:
    """(E[T^n], E[T^2n]) of the radius T by which X = T^n Y; T = 1 unless q = (n).

    E[T^r] = n (n+1) ... (n+r-1) / (m (m+1) ... (m+r-1)) for T ~ Beta(n, m - n).
    """
    if len(q.parts) > 1:
        return Fraction(1), Fraction(1)
    return tuple(Fraction(math.perm(n + r - 1, r), math.perm(m + r - 1, r)) for r in (n, 2 * n))


def _validate(m: int, n: int, q: PhotonPattern, samples: int) -> None:
    if n > m:
        raise DomainError(f"codeword needs n <= m, got (m, n) = ({m}, {n})")
    if q.n != n:
        raise DomainError(f"pattern {q.parts} is not a pattern of n = {n}")
    if len(q.parts) > m:
        raise DomainError(f"pattern {q.parts} does not fit in m = {m} modes")
    if samples < MIN_SAMPLES:
        raise DomainError(f"need samples >= {MIN_SAMPLES}, got {samples}")


def estimate_moments(
    m: int,
    n: int,
    q: PatternLike,
    samples: int,
    seed: int,
    workers: int = 1,
) -> MomentEstimate:
    """Monte Carlo moments of X = |<phi_q|U|psi>|^2 under Haar U.

    The samples are cut into ``CHUNK``-sized chunks, each with its own
    stream, which ``_thread_map`` runs on up to ``workers`` threads; their
    power sums are added in chunk order with compensation, so the result is
    deterministic for a given seed regardless of ``workers``.  The moments
    and standard errors are computed for the sampled Y of
    ``_chunk_power_sums`` and scaled exactly to X = T^n Y: the mean and its
    stderr by E[T^n], the second moment by E[T^2n] and the ratio's stderr
    by E[T^2n] / E[T^n]^2.  So the bunched estimate is unbiased with Y <=
    n!/n^n bounding its tail, and at n = 1 it is exact with stderr 0.  The
    ratio standard error comes from first-order propagation with the
    sample covariance of (Y, Y^2); a block bootstrap over chunk sums takes
    over when the propagated estimate is degenerate.
    """
    q = as_pattern(q)
    _validate(m, n, q, samples)
    sizes = [min(CHUNK, samples - start) for start in range(0, samples, CHUNK)]
    tasks = [(m, n, q.parts, seed, idx, size) for idx, size in enumerate(sizes)]
    chunk_sums = _thread_map(_chunk_power_sums, tasks, workers)
    s, comp = np.zeros(4), np.zeros(4)
    for row in chunk_sums:
        s = _neumaier_add(s, comp, row)
    s += comp
    nN = float(samples)
    m1, m2, m3, m4 = (float(v) for v in s / nN)
    t1, t2 = _radial_moments(m, n, q)
    mean, second_moment = m1 * float(t1), m2 * float(t2)
    if not (mean > 0.0 and second_moment > 0.0):
        raise DomainError(f"the moments of X at (m, n) = ({m}, {n}) underflow a float")

    var_x = max(m2 - m1**2, 0.0)
    stderr_mean = math.sqrt(var_x / nN)

    ratio = m2 / m1**2
    var22 = max(m4 - m2**2, 0.0)
    cov12 = m3 - m1 * m2
    rel_var = var22 / m2**2 + 4.0 * var_x / m1**2 - 4.0 * cov12 / (m1 * m2)
    stderr_ratio = ratio * math.sqrt(max(rel_var, 0.0) / nN)
    if not math.isfinite(stderr_ratio) or rel_var <= 0.0 or stderr_ratio > 0.5 * ratio:
        stderr_ratio = _bootstrap_ratio_stderr(chunk_sums, sizes, seed)

    return MomentEstimate(
        mean=mean,
        second_moment=second_moment,
        stderr_mean=stderr_mean * float(t1),
        stderr_ratio=stderr_ratio * float(t2 / t1**2),
        samples=samples,
        seed=seed,
        m=m,
        n=n,
        q=q,
    )


def _bootstrap_ratio_stderr(
    chunk_sums: Sequence[np.ndarray], sizes: Sequence[int], seed: int
) -> float:
    """Block bootstrap of E[X^2]/E[X]^2 over per-chunk sums."""
    sums = np.array([row[:2] for row in chunk_sums])
    sizes = np.array(sizes, dtype=float)
    k = len(sizes)
    rng = np.random.default_rng([seed, 0xB007])
    ratios = np.empty(_BOOTSTRAP_RESAMPLES)
    for b in range(_BOOTSTRAP_RESAMPLES):
        pick = rng.integers(0, k, size=k)
        tot = sums[pick].sum(axis=0)
        nn = sizes[pick].sum()
        mean = tot[0] / nn
        ratios[b] = (tot[1] / nn) / mean**2
    return float(np.std(ratios))


def estimate_raw_c_q(
    m: int, n: int, q: PatternLike, samples: int, seed: int, workers: int = 1
) -> float:
    """Unnormalised permanent second moment (prod q_j!) * c_q.

    This is the quantity some published tables report for bunched
    patterns; it differs from c_q exactly by the repeated-mode factor.
    """
    q = as_pattern(q)
    return q.norm_factor() * estimate_moments(m, n, q, samples, seed, workers).mean


def estimate_gamma_q(
    m: int, n: int, q: PatternLike, samples: int, seed: int, workers: int = 1
) -> GammaRecord:
    """Tables-convention 2*gamma_q = 2 E[X^2]/E[X]^2 with standard error.

    The ratio is normalisation independent: any constant factor on X
    cancels between numerator and denominator.
    """
    est = estimate_moments(m, n, q, samples, seed, workers)
    return GammaRecord(
        m=m,
        n=n,
        q=est.q,
        two_gamma_q=2.0 * est.ratio,
        stderr=2.0 * est.stderr_ratio,
        samples=samples,
        seed=seed,
    )


def no_collision_values(m: int, n: int) -> tuple[float, float]:
    """(log2 c_min, gamma) in the diluted regime m >> n^2 >> 1.

    Returns (log2(n!/m^n), 2(n+1)), from exact integers, so m^n need not fit
    a float.  The single-photon case is exact rather than asymptotic: the
    factor-2 penalty of the basis-vector reduction is not needed there, so
    gamma = 2 and c_min = 1/m.
    """
    if m < 1 or not 0 <= n <= m:
        raise DomainError(f"need m >= 1 and 0 <= n <= m, got ({m}, {n})")
    return math.log2(math.factorial(n)) - n * math.log2(m), 2.0 if n == 1 else 2.0 * (n + 1)
