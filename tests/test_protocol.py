import concurrent.futures
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qdl_lab import protocol
from qdl_lab.bounds import mutual_info_lossy
from qdl_lab.errors import DomainError, ResourceError
from qdl_lab.fock import (
    CodeBook,
    ModeConfig,
    dim_hilbert,
    enumerate_basis,
    num_codewords,
    sample_codebook,
)
from qdl_lab.linop import UnitaryMatrix, haar_batch, output_distribution
from qdl_lab.protocol import (
    ProtocolConfig,
    TrialRecord,
    decode_with_key,
    empirical_mutual_info,
    gen_unitary_pool,
    run_trials,
)


class TestPool:
    def test_deterministic(self):
        a = gen_unitary_pool(4, 3, seed=9)
        assert np.array_equal(a, gen_unitary_pool(4, 3, seed=9))
        # the read-only Haar batch of the seed's stream, bit for bit
        assert a.dtype == complex and not a.flags.writeable
        assert np.array_equal(a, haar_batch(np.random.default_rng(9), 3, 4))

    def test_single_member(self):
        assert gen_unitary_pool(5, 1, seed=0).shape == (1, 5, 5)

    def test_distinct_seeds_differ(self):
        a = gen_unitary_pool(4, 2, seed=1)
        b = gen_unitary_pool(4, 2, seed=2)
        assert (np.abs(a - b).max(axis=(1, 2)) > 1e-6).all()

    def test_unitarity(self):
        for u in gen_unitary_pool(6, 8, seed=3):
            dev = np.abs(u.conj().T @ u - np.eye(6)).max()
            assert dev <= 1e-12

    def test_rejects_nonunitary_batch(self, monkeypatch):
        def skewed(rng, count, m):
            pool = haar_batch(rng, count, m)
            pool[-1, 0, 0] *= 1 + 1e-9
            return pool

        monkeypatch.setattr(protocol, "haar_batch", skewed)
        with pytest.raises(DomainError, match="not unitary"):
            gen_unitary_pool(4, 3, seed=9)

    def test_cap(self, monkeypatch):
        # K * m^2 pool entries, with no floor per key
        monkeypatch.setattr(protocol, "POOL_CAP", 36 * 8)
        assert gen_unitary_pool(6, 8, seed=3).shape == (8, 6, 6)
        assert gen_unitary_pool(2, 72, seed=3).shape == (72, 2, 2)
        assert gen_unitary_pool(1, 288, seed=3).shape == (288, 1, 1)
        for m, K in [(6, 9), (2, 73), (1, 289)]:
            with pytest.raises(ResourceError):
                gen_unitary_pool(m, K, seed=3)


class TestLossyChannel:
    """Per-photon loss inside run_trials, seen through its transcript."""

    def test_eta_one_identity(self):
        cfg = ProtocolConfig(m=4, n=2, K=1, eta=1.0, trials=50, seed=0)
        for r in run_trials(cfg, collect_records=True).records:
            # all n clicks decode uniquely to x only if they are codeword x
            assert r.clicks == 2 and r.decoded == r.x

    def test_eta_zero_empty(self):
        cfg = ProtocolConfig(m=4, n=2, K=1, eta=0.0, trials=50, seed=0)
        s = run_trials(cfg, collect_records=True)
        assert all(r.clicks == 0 and r.ambiguity == s.M for r in s.records)

    def test_click_histogram_binomial(self):
        trials = 100_000
        cfg = ProtocolConfig(m=4, n=2, K=1, eta=0.5, trials=trials, seed=5)
        counts = np.bincount([r.clicks for r in run_trials(cfg, collect_records=True).records])
        for k in range(3):
            p = math.comb(2, k) * 0.5**2
            se = math.sqrt(trials * p * (1 - p))
            assert abs(counts[k] - trials * p) < 3 * se


class TestDecode:
    def test_full_clicks_unique(self):
        cb = sample_codebook(4, 2, 1.0, rng=0)
        pool = gen_unitary_pool(4, 4, seed=1)
        for x in range(len(cb)):
            res = decode_with_key(1, pool, cb[x], cb)
            assert res.decoded == x and len(res.ambiguity) == 1

    def test_partial_clicks_ambiguity_size(self):
        # one click out of two at m=4 leaves binomial(3, 1) = 3 candidates
        cb = sample_codebook(4, 2, 1.0, rng=0)
        pool = gen_unitary_pool(4, 1, seed=2)
        res = decode_with_key(0, pool, ModeConfig((1, 0, 0, 0)), cb)
        assert res.decoded is None
        assert len(res.ambiguity) == math.comb(3, 1) == 3

    def test_zero_clicks_full_ambiguity(self):
        cb = sample_codebook(5, 2, 1.0, rng=0)
        pool = gen_unitary_pool(5, 1, seed=3)
        res = decode_with_key(0, pool, ModeConfig((0,) * 5), cb)
        assert len(res.ambiguity) == num_codewords(5, 2)

    def test_bad_key(self):
        cb = sample_codebook(4, 2, 1.0, rng=0)
        pool = gen_unitary_pool(4, 2, seed=4)
        with pytest.raises(DomainError):
            decode_with_key(5, pool, cb[0], cb)


def _modes(codebook):
    """(M, n) occupied modes of each codeword, as run_trials passes them."""
    return np.array([cw.modes for cw in codebook.codewords])


class TestEavesdrop:
    """Key-blind photodetection of the scrambled codewords (protocol._photodetect)."""

    def test_identity_pool_reveals_message(self):
        cb = sample_codebook(4, 2, 1.0, rng=0)
        xs = np.arange(len(cb))
        u = np.random.default_rng(0).random(len(cb))
        z = protocol._photodetect(np.eye(4)[None], _modes(cb), xs, np.zeros_like(xs), u)
        assert z.tolist() == [enumerate_basis(4, 2).index(cw) for cw in cb.codewords]

    def test_outcome_frequencies(self):
        cb = sample_codebook(3, 1, 1.0, rng=0)
        pool = gen_unitary_pool(3, 1, seed=8)
        dist = output_distribution(UnitaryMatrix(pool[0]), cb[0])
        trials = 100_000
        xs = np.zeros(trials, dtype=np.intp)
        u = np.random.default_rng(1).random(trials)
        z = protocol._photodetect(pool[:1], _modes(cb), xs, xs, u)
        counts = np.bincount(z, minlength=len(dist))
        for i, p in enumerate(dist):
            se = math.sqrt(trials * p * (1 - p)) + 1e-9
            assert abs(counts[i] - trials * p) <= 4 * se

    def test_outcome_valid_config(self):
        cb = sample_codebook(5, 2, 1.0, rng=0)
        units = gen_unitary_pool(5, 2, seed=9)
        rng = np.random.default_rng(2)
        xs, ks, u = rng.integers(0, len(cb), 50), rng.integers(0, 2, 50), rng.random(50)
        z = protocol._photodetect(units, _modes(cb), xs, ks, u)
        assert 0 <= z.min() and z.max() < dim_hilbert(5, 2)


class TestEmpiricalMI:
    def test_identity_uniform(self):
        counts = {(i, i): 25 for i in range(4)}
        assert empirical_mutual_info(counts) == pytest.approx(2.0)

    def test_independent_uniform(self):
        counts = {(i, j): 10 for i in range(3) for j in range(3)}
        assert empirical_mutual_info(counts) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        counts = {(0, 0): 2, (0, 1): 1, (1, 0): 1, (1, 1): 2}
        assert empirical_mutual_info(counts) == pytest.approx(0.0817, abs=5e-5)

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            empirical_mutual_info({})
        with pytest.raises(DomainError):
            empirical_mutual_info({(0, 0): 0, (1, 1): 0})

    def test_rejects_negative_counts(self):
        with pytest.raises(DomainError):
            empirical_mutual_info({(0, 0): 3, (0, 1): -1})

    @given(st.integers(2, 6))
    def test_deterministic_permutation_table(self, k):
        counts = {(i, (i + 1) % k): 7 for i in range(k)}
        assert empirical_mutual_info(counts) == pytest.approx(math.log2(k))

    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(1, 20)),
            min_size=1,
            max_size=20,
        )
    )
    def test_bounds_property(self, triples):
        counts: dict = {}
        for x, y, c in triples:
            counts[(x, y)] = counts.get((x, y), 0) + c
        mi = empirical_mutual_info(counts)
        nx = len({x for x, _ in counts})
        ny = len({y for _, y in counts})
        assert 0.0 <= mi <= min(math.log2(nx), math.log2(ny)) + 1e-9


class TestRunTrials:
    def test_noiseless_success_rate(self):
        cfg = ProtocolConfig(m=4, n=2, K=16, eta=1.0, trials=10_000, seed=1)
        s = run_trials(cfg)
        assert s.keyed_success_rate == 1.0

    def test_keyed_mi_noiseless_near_log2M(self):
        cfg = ProtocolConfig(m=4, n=2, K=16, eta=1.0, trials=20_000, seed=2)
        s = run_trials(cfg)
        assert s.keyed_mi_bits == pytest.approx(math.log2(s.M), abs=5 * s.keyed_bias_bound + 0.01)

    @pytest.mark.parametrize("m,n,eta", [(4, 2, 0.3), (4, 2, 0.7), (5, 2, 0.3), (6, 3, 0.7)])
    def test_lossy_mi_matches_closed_form(self, m, n, eta):
        cfg = ProtocolConfig(m=m, n=n, K=8, eta=eta, trials=40_000, seed=3)
        s = run_trials(cfg)
        expected = mutual_info_lossy(m, n, eta)
        assert s.keyed_mi_bits == pytest.approx(expected, abs=0.03)

    def test_shard_determinism_across_workers(self, monkeypatch):
        monkeypatch.setattr(protocol, "MIN_SHARDS_PER_PROCESS", 1)  # 3 shards start 2 processes
        cfg = ProtocolConfig(m=4, n=2, K=8, eta=0.5, trials=9_000, seed=4)
        a = run_trials(cfg, workers=1, collect_records=True)
        b = run_trials(cfg, workers=2, collect_records=True)
        assert a.records == b.records
        assert a == b

    @pytest.mark.parametrize(
        "workers,cpus,processes", [(100_000, 64, 3), (100_000, 2, 2), (2, 64, 2), (1, 64, None)]
    )
    def test_process_count_bounded(self, monkeypatch, workers, cpus, processes):
        # 9 000 trials are 3 shards: with a minimum of 1 shard per process,
        # min(workers, 3, cpus) processes, or none at one; with a minimum of 2,
        # 3 // 2 = 1 process, so none.  The recorder runs the shards inline
        made = _record_pools(monkeypatch, cpus)
        cfg = ProtocolConfig(m=4, n=2, K=8, eta=0.5, trials=9_000, seed=4)
        serial = run_trials(cfg, workers=1, collect_records=True)
        for minimum, expected in ((1, processes), (2, None)):
            monkeypatch.setattr(protocol, "MIN_SHARDS_PER_PROCESS", minimum)
            made.clear()
            got = run_trials(cfg, workers=workers, collect_records=True)
            assert made == ([] if expected is None else [expected])
            assert got == serial

    @pytest.mark.parametrize("spare", [-1, 0])
    def test_min_shards_per_process(self, monkeypatch, spare):
        # two processes start only once each gets MIN_SHARDS_PER_PROCESS shards
        made = _record_pools(monkeypatch, cpus=2)
        monkeypatch.setattr(protocol, "SHARD", 100)
        shards = 2 * protocol.MIN_SHARDS_PER_PROCESS + spare
        cfg = ProtocolConfig(m=4, n=2, K=8, eta=0.5, trials=100 * shards, seed=4)
        got = run_trials(cfg, workers=2)
        assert made == ([] if spare < 0 else [2])
        assert got == run_trials(cfg, workers=1)

    def test_transcript_rows(self):
        cfg = ProtocolConfig(m=4, n=2, K=4, eta=0.6, trials=500, seed=5)
        s = run_trials(cfg, collect_records=True)
        assert len(s.records) == 500
        assert [r.trial for r in s.records] == list(range(500))
        for r in s.records[:20]:
            assert r.clicks == r.detected.n <= 2

    def test_blind_mi_sanity_bound(self):
        cfg = ProtocolConfig(m=4, n=2, K=16, eta=1.0, trials=5_000, seed=6)
        s = run_trials(cfg)
        assert s.blind_mi_bits <= math.log2(s.M) + s.blind_bias_bound + 1e-9

    def test_budget(self):
        cfg = ProtocolConfig(m=30, n=10, K=2, eta=1.0, trials=10_000, seed=0)
        with pytest.raises(ResourceError):
            run_trials(cfg)

    def test_exhaustive_roundtrip_small_spaces(self):
        # noiseless keyed decoding is exact for every (codeword, key) pair
        for m, n, K in [(4, 2, 8), (5, 2, 6), (4, 3, 6)]:
            cb = sample_codebook(m, n, 1.0, rng=0)
            pool = gen_unitary_pool(m, K, seed=100 + m)
            for x in range(len(cb)):
                for k in range(K):
                    res = decode_with_key(k, pool, cb[x], cb)
                    assert res.decoded == x


def _record_pools(monkeypatch, cpus):
    """Replace the process pool by a recorder that runs tasks inline; returns
    the list of pool sizes made.  os.cpu_count reports ``cpus``."""
    made = []

    class RecordingPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize):
            assert chunksize == min(8, math.ceil(len(tasks) / made[-1]))
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(protocol.os, "cpu_count", lambda: cpus)
    return made


def _stream(*entropy):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=list(entropy))))


def _shard_args(config, collect):
    """The shard arguments run_trials builds, with the codebook and pool streams spelled out."""
    codebook = sample_codebook(config.m, config.n, config.xi, _stream(config.seed, 2))
    units = gen_unitary_pool(config.m, config.K, _stream(config.seed, 1))
    occ = np.array([cw.occupations for cw in codebook.codewords], dtype=np.int8)
    for idx, start in enumerate(range(0, config.trials, protocol.SHARD)):
        count = min(protocol.SHARD, config.trials - start)
        yield config, occ, units, idx, start, count, collect


def _loop_shard(args):
    """The per-trial simulator loop, kept as the reference for the batched shard."""
    config, occ, units, shard_idx, start, count, collect = args
    codebook = CodeBook(tuple(ModeConfig(tuple(row)) for row in occ.tolist()))
    pool = tuple(UnitaryMatrix(u) for u in units)
    rng = _stream(config.seed, 3, shard_idx)
    M, K, n = len(codebook), config.K, config.n

    xs = rng.integers(0, M, size=count)
    ks = rng.integers(0, K, size=count)
    u_blind = rng.random(size=count)
    keep = rng.random(size=(count, n)) < config.eta

    dist_cum = {}
    keyed_counts = {}
    blind_counts = {}
    successes = 0
    records = []
    for t in range(count):
        x, k = int(xs[t]), int(ks[t])
        codeword = codebook[x]
        occ = list(codeword.occupations)
        for slot, mode in enumerate(codeword.modes):
            if not keep[t, slot]:
                occ[mode] = 0
        detected = ModeConfig(tuple(occ))
        compatible = [
            i
            for i, cw in enumerate(codebook.codewords)
            if all(c >= v for c, v in zip(cw.occupations, occ))
        ]
        decoded = compatible[0] if len(compatible) == 1 else None
        if decoded == x:
            successes += 1
        key_y = detected.occupations
        keyed_counts[(x, key_y)] = keyed_counts.get((x, key_y), 0) + 1

        pair = (k, x)
        if pair not in dist_cum:
            dist_cum[pair] = np.cumsum(output_distribution(pool[k], codeword))
        z = int(np.searchsorted(dist_cum[pair], u_blind[t]))
        z = min(z, len(dist_cum[pair]) - 1)
        blind_counts[(x, z)] = blind_counts.get((x, z), 0) + 1

        if collect:
            records.append(
                TrialRecord(
                    trial=start + t,
                    x=x,
                    k=k,
                    clicks=detected.n,
                    detected=detected,
                    decoded=decoded,
                    ambiguity=len(compatible),
                )
            )
    return keyed_counts, blind_counts, successes, records


ORACLE_GRID = [
    ProtocolConfig(m=4, n=2, K=1, eta=1.0, trials=600, seed=21),
    ProtocolConfig(m=5, n=2, K=6, eta=0.5, xi=0.6, trials=1500, seed=22),
    ProtocolConfig(m=6, n=3, K=8, eta=0.0, trials=800, seed=23),
    ProtocolConfig(m=8, n=3, K=64, eta=0.8, trials=1024, seed=24),
    ProtocolConfig(m=6, n=1, K=5, eta=0.7, trials=700, seed=25),
    ProtocolConfig(m=4, n=2, K=8, eta=0.5, trials=9000, seed=26),  # 3 shards
    ProtocolConfig(m=70, n=2, K=2, eta=0.6, xi=0.05, trials=400, seed=27),  # m > 64
    ProtocolConfig(m=12, n=4, K=4, eta=0.7, xi=0.6, trials=600, seed=28),  # M = 297
]


def _grid_id(c):
    return f"{c.m}-{c.n}-K{c.K}-eta{c.eta}-xi{c.xi}-T{c.trials}"


class TestSimulatorOracle:
    @pytest.mark.parametrize("config", ORACLE_GRID, ids=_grid_id)
    def test_shards_match_loop(self, config):
        for args in [*_shard_args(config, False), *_shard_args(config, True)]:
            got, want = protocol._run_shard(args), _loop_shard(args)
            # count tables equal in content and in insertion order
            assert list(got[0].items()) == list(want[0].items())
            assert list(got[1].items()) == list(want[1].items())
            assert got[2] == want[2]
            assert got[3] == want[3]

    @pytest.mark.parametrize("collect", [False, True])
    @pytest.mark.parametrize("config", ORACLE_GRID, ids=_grid_id)
    def test_summary_matches_loop(self, config, collect, monkeypatch):
        monkeypatch.setattr(protocol, "_run_shard", _loop_shard)
        want = run_trials(config, collect_records=collect)
        monkeypatch.undo()
        mi = ("keyed_mi_bits", "blind_mi_bits")
        for workers in (1, 2):
            got = run_trials(config, workers=workers, collect_records=collect)
            for name in mi:
                assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12)
            assert dataclasses.replace(got, **dict.fromkeys(mi, 0.0)) == dataclasses.replace(
                want, **dict.fromkeys(mi, 0.0)
            )
