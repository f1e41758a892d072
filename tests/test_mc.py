import csv
import math
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest

from oracles import exact_mean, exact_second_moment, exact_two_gamma
from qdl_lab import cache, exact, mc
from qdl_lab.errors import DomainError
from qdl_lab.fock import PhotonPattern, dim_hilbert, enumerate_patterns, log2_dim_hilbert
from qdl_lab.mc import (
    estimate_gamma_q,
    estimate_moments,
    estimate_raw_c_q,
    no_collision_values,
)

SAMPLES = 60_000


class TestMoments:
    def test_mean_is_one_over_d_2_2(self):
        # exact Haar moment: 2 E|U11|^2 |U21|^2 = 2/(m(m+1)) = 1/3
        est = estimate_moments(2, 2, (2,), SAMPLES, seed=11)
        assert est.mean == pytest.approx(1 / 3, abs=3 * est.stderr_mean)

    def test_mean_is_one_over_d_6_2(self):
        est = estimate_moments(6, 2, (1, 1), SAMPLES, seed=12)
        assert est.mean == pytest.approx(1 / 21, abs=3 * est.stderr_mean)

    def test_no_collision_mean_40_2(self):
        est = estimate_moments(40, 2, (1, 1), SAMPLES, seed=13)
        # the diluted-regime value n!/m^n = 0.00125 approximates the exact
        # 1/d = 1/820 to 2.5%
        assert est.mean == pytest.approx(1 / 820, abs=3 * est.stderr_mean)
        assert est.mean == pytest.approx(2 / 1600, rel=0.05)

    def test_second_moment_matches_closed_form(self):
        for q in [(2,), (1, 1)]:
            est = estimate_moments(6, 2, q, SAMPLES, seed=14)
            exact = float(exact_second_moment(6, 2, q))
            assert est.second_moment == pytest.approx(exact, rel=0.05)

    def test_sample_variance_nonnegative(self):
        est = estimate_moments(4, 2, (1, 1), SAMPLES, seed=15)
        assert est.second_moment >= est.mean**2

    def test_stderr_scales_with_samples(self):
        small = estimate_moments(5, 2, (1, 1), 10_000, seed=16)
        large = estimate_moments(5, 2, (1, 1), 90_000, seed=16)
        assert large.stderr_mean < small.stderr_mean
        assert large.stderr_mean == pytest.approx(small.stderr_mean / 3, rel=0.25)

    def test_validation(self):
        with pytest.raises(DomainError):
            estimate_moments(3, 4, (4,), SAMPLES, seed=0)  # n > m
        with pytest.raises(DomainError):
            estimate_moments(6, 2, (3,), SAMPLES, seed=0)  # pattern of wrong n
        with pytest.raises(DomainError):
            estimate_moments(2, 3, (1, 1, 1), SAMPLES, seed=0)  # pattern needs 3 modes
        with pytest.raises(DomainError):
            estimate_moments(6, 2, (1, 1), 10, seed=0)  # too few samples

    def test_determinism_across_workers(self):
        ests = [estimate_moments(6, 2, (2,), 12_000, seed=21, workers=w) for w in (1, 2, 8)]
        assert ests[0] == ests[1] == ests[2]

    def test_representative_placement_irrelevant(self):
        # the estimator fixes phi_q on the leading modes; check against a
        # direct simulation with a random placement of both vectors
        from qdl_lab.linop import haar_batch

        rng = np.random.default_rng(99)
        m, n, samples = 5, 2, 40_000
        est = estimate_moments(m, n, (2,), samples, seed=22)
        # pattern (2) on mode 3, codeword on modes {1, 4}
        u = haar_batch(rng, samples, m)
        amps = math.sqrt(2.0) * u[:, 1, 3] * u[:, 4, 3]
        x = np.abs(amps) ** 2
        se = math.sqrt(x.var() / samples + est.stderr_mean**2)
        assert x.mean() == pytest.approx(est.mean, abs=4 * se)


class TestCq:
    def test_c_q_example_10_3(self):
        val = estimate_moments(10, 3, (1, 1, 1), SAMPLES, seed=31).mean
        assert val == pytest.approx(1 / 220, rel=0.05)

    def test_raw_c_q_is_scaled_mean(self):
        q = (3,)
        est = estimate_moments(10, 3, q, SAMPLES, seed=32)
        raw = estimate_raw_c_q(10, 3, q, SAMPLES, seed=32)
        assert raw == pytest.approx(6 * est.mean, rel=1e-12)

    @pytest.mark.parametrize("m,n", [(4, 2), (5, 3)])
    def test_schur_uniformity_all_patterns(self, m, n):
        d = dim_hilbert(m, n)
        for q in enumerate_patterns(m, n):
            est = estimate_moments(m, n, q, SAMPLES, seed=33)
            assert est.mean == pytest.approx(1 / d, abs=3 * est.stderr_mean), q.parts

    def test_completeness(self):
        # sum_q c_q dim(H_q) = 1 within combined error
        m, n = 6, 2
        total, var = 0.0, 0.0
        for q in enumerate_patterns(m, n):
            est = estimate_moments(m, n, q, SAMPLES, seed=34)
            w = q.subspace_dim(m)
            total += w * est.mean
            var += (w * est.stderr_mean) ** 2
        assert total == pytest.approx(1.0, abs=3 * math.sqrt(var))

    def test_no_collision_convergence_monotone(self):
        # mean / (n!/m^n) = m^n / (n! d) climbs toward 1 as m grows
        ratios = []
        for m in (10, 20, 40):
            est = estimate_moments(m, 2, (1, 1), SAMPLES, seed=35)
            ratios.append(est.mean / (2 / m**2))
        exact = [m**2 / (2 * dim_hilbert(m, 2)) for m in (10, 20, 40)]
        for r, e in zip(ratios, exact):
            assert r == pytest.approx(e, rel=0.05)
        assert exact[0] < exact[1] < exact[2] < 1


class TestGamma:
    def test_two_gamma_2_2(self):
        rec = estimate_gamma_q(2, 2, (2,), SAMPLES, seed=41)
        assert rec.two_gamma_q == pytest.approx(2.4, abs=3 * rec.stderr)

    @pytest.mark.parametrize(
        "m,n,q",
        [(6, 2, (2,)), (6, 2, (1, 1)), (10, 3, (3,)), (10, 3, (2, 1)), (10, 3, (1, 1, 1))],
    )
    def test_two_gamma_matches_exact(self, m, n, q):
        rec = estimate_gamma_q(m, n, q, SAMPLES, seed=42)
        exact = exact_two_gamma(m, n, q)
        assert rec.two_gamma_q == pytest.approx(exact, abs=4 * rec.stderr)
        assert rec.two_gamma_q == pytest.approx(exact, rel=0.05)

    def test_bunched_fast_path_vs_generic_distribution(self):
        # the bunched estimator uses the product form; cross-check its
        # moments against the generic permanent path on a clone pattern
        # by comparing against the exact values at (7, 3)
        rec = estimate_gamma_q(7, 3, (3,), SAMPLES, seed=43)
        assert rec.two_gamma_q == pytest.approx(exact_two_gamma(7, 3, (3,)), rel=0.05)

    @pytest.mark.parametrize("m", [1, 2, 7, 250])
    def test_bunched_single_photon_exact(self, m):
        # n = 1: Y = 1, so only the exact radial moments of |U_11|^2 remain
        est = estimate_moments(m, 1, (1,), 2_000, seed=46)
        assert est.mean == pytest.approx(1 / m, rel=1e-15)
        assert est.second_moment == pytest.approx(2 / (m * (m + 1)), rel=1e-15)
        assert est.stderr_mean == 0.0 and est.stderr_ratio == 0.0
        assert 2 * est.ratio == pytest.approx(exact.two_gamma(m, (1,)), rel=1e-14)

    @pytest.mark.parametrize("m,n", [(250, 4), (7, 3)])
    def test_bunched_two_gamma_within_stderr(self, m, n):
        rec = estimate_gamma_q(m, n, (n,), SAMPLES, seed=47)
        assert rec.two_gamma_q == pytest.approx(exact.two_gamma(m, (n,)), abs=4 * rec.stderr)

    def test_bunched_draws_no_frame(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the bunched pattern drew a frame")

        monkeypatch.setattr(mc, "stiefel_batch", refuse)
        assert estimate_moments(250, 4, (4,), 5_000, seed=48).mean > 0

    def test_bunched_underflow_refused(self):
        # E[X^2] ~ 1e-500 at (10^6, 40): a DomainError, not a 0/0 ratio
        with pytest.raises(DomainError, match="underflow"):
            estimate_moments(10**6, 40, (40,), 1_000, seed=50)

    def test_permanent_cap(self):
        # 26 rows exceed linop.PERMANENT_CAP: refused, not a 2^25-step walk per sample
        with pytest.raises(DomainError, match="permanent cap"):
            estimate_moments(27, 26, (2,) + (1,) * 24, 1_000, seed=49)

    def test_jensen_floor(self):
        for q in enumerate_patterns(5, 3):
            rec = estimate_gamma_q(5, 3, q, 20_000, seed=44)
            assert rec.two_gamma_q >= 2.0 - 3.0 * rec.stderr

    def test_gamma_determinism_across_workers(self):
        recs = [estimate_gamma_q(10, 3, (3,), 12_000, seed=45, workers=w) for w in (1, 2, 8)]
        assert recs[0] == recs[1] == recs[2]


@pytest.fixture
def helpers(monkeypatch):
    """A fresh helper set, so a test's patched CPU count leaves the module's alone."""
    fresh = mc._Helpers()
    monkeypatch.setattr(mc, "_HELPERS", fresh)
    return fresh


class TestThreadMap:
    @pytest.mark.parametrize(
        "workers,tasks,cpus,started",
        [(100_000, 2, 64, 1), (100_000, 50, 2, 1), (3, 50, 64, 2), (1, 50, 64, 0), (4, 1, 64, 0)],
    )
    def test_thread_count_bounded(self, monkeypatch, helpers, workers, tasks, cpus, started):
        # min(workers, tasks, cpus) - 1 helpers; the recorder starts no thread,
        # so the caller takes every task itself
        made = []

        class RecordingThread:
            def __init__(self, target, daemon):
                assert daemon
                made.append(target)

            def start(self):
                pass

        monkeypatch.setattr(mc, "Thread", RecordingThread)
        monkeypatch.setattr(mc.os, "cpu_count", lambda: cpus)
        for _ in range(2):  # the second call reuses the first call's helpers
            assert mc._thread_map(lambda t: t * t, list(range(tasks)), workers) == [
                t * t for t in range(tasks)
            ]
            assert len(made) == helpers.started == started

    @pytest.mark.parametrize("workers", [2, 8])
    def test_no_task_taken_after_failure(self, monkeypatch, helpers, workers):
        monkeypatch.setattr(mc.os, "cpu_count", lambda: workers)
        calls = []
        raised = threading.Event()

        def task(i):
            calls.append(i)
            if i == 0:
                raised.set()
                raise ValueError("task 0 failed")
            raised.wait(5.0)
            time.sleep(0.05)  # the failing thread sets the stop flag meanwhile

        with pytest.raises(ValueError, match="^task 0 failed$"):
            mc._thread_map(task, list(range(100)), workers)
        assert 0 in calls and len(calls) <= workers

    def test_lowest_index_error_raised(self, monkeypatch, helpers):
        # index 5 fails first in time, but a sequential run raises index 3's error
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 8)

        def task(i):
            if i == 3:
                time.sleep(0.1)
                raise ValueError("task 3 failed")
            if i == 5:
                raise KeyError("task 5 failed")
            return i

        for workers in (1, 8):
            with pytest.raises(ValueError, match="^task 3 failed$"):
                mc._thread_map(task, list(range(40)), workers)

    def test_interrupt_stops_helpers(self, monkeypatch, helpers):
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 2)
        calls = []

        def task(i):
            calls.append(i)
            if threading.current_thread() is threading.main_thread():
                raise KeyboardInterrupt
            time.sleep(0.05)

        with pytest.raises(KeyboardInterrupt):
            mc._thread_map(task, list(range(100)), 2)
        taken = len(calls)
        time.sleep(0.2)
        assert taken <= 2 and len(calls) == taken  # the helper took no task after

    def test_each_task_once_under_contention(self, monkeypatch, helpers):
        # more threads than cores and a short switch interval: a task index
        # handed out twice, or a result written to the wrong slot, shows here
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 16)
        calls = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            start = time.perf_counter()
            for _ in range(3):
                calls.clear()
                results = mc._thread_map(lambda i: calls.append(i) or -i, list(range(3000)), 16)
                assert results == [-i for i in range(3000)]
                assert sorted(calls) == list(range(3000))
            assert time.perf_counter() - start < 30.0
        finally:
            sys.setswitchinterval(interval)
        assert helpers.started == 15


class TestClosedForms:
    def test_exact_c_min(self):
        # c_min = 1/d is exact: Sym^n is irreducible, so E[X_phi] = 1/d
        assert -log2_dim_hilbert(6, 2) == pytest.approx(math.log2(1 / 21))
        assert -log2_dim_hilbert(8000, 20) == pytest.approx(-198.27, abs=0.05)

    def test_no_collision_values(self):
        l2c, g = no_collision_values(20, 2)
        assert l2c == pytest.approx(math.log2(2 / 400))
        assert g == 6.0
        # m^n overflows a float here; the log2 of the exact integers does not
        l2c, g = no_collision_values(1000, 200)
        assert l2c == pytest.approx(math.log2(math.factorial(200)) - math.log2(1000**200), rel=1e-12)
        assert g == 402.0
        for m, n in [(3, 4), (0, 0), (3, -1)]:
            with pytest.raises(DomainError):
                no_collision_values(m, n)

    def test_single_photon_exact(self):
        l2c, g = no_collision_values(17, 1)
        assert l2c == pytest.approx(math.log2(1 / 17))
        assert g == 2.0

    def test_exact_oracle_selfconsistency(self):
        # the bunched Dirichlet route and the two-component route agree
        for m, n in [(6, 2), (10, 2), (9, 3), (12, 3)]:
            top_only = Fraction(math.factorial(n)) ** 2 * 2**n
            assert exact_second_moment(m, n, (n,)) > 0
            assert exact_mean(m, n) == Fraction(1, dim_hilbert(m, n))

    def test_bunched_two_gamma_domain(self):
        # n > m, n = 0 and a value beyond float range
        for m, q in [(3, (4,)), (5, ()), (5000, (4300,))]:
            with pytest.raises(DomainError):
                exact.two_gamma(m, q)


class TestGammaBound:
    def test_insufficient_coverage(self):
        # no pattern of (m, n) exists to back a maximum when n = 0 or n > m
        for m, n in [(6, 0), (3, 4)]:
            with pytest.raises(DomainError):
                exact.max_two_gamma(m, n)


class TestCacheIO:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "cache.csv"
        rows = [
            cache.CacheRow(6, 2, PhotonPattern((2,)), "two_gamma", 4.66, 0.02, 1000, 7),
            cache.CacheRow(6, 2, PhotonPattern((1, 1)), "c", 1 / 21, 0.0003, 1000, 7),
        ]
        cache.append_rows(path, rows)
        with path.open(newline="") as fh:
            back = list(csv.reader(fh))
        assert back == [cache.HEADER] + [r.as_csv_row() for r in rows]

    def test_dash_label(self, tmp_path):
        path = tmp_path / "cache.csv"
        cache.append_rows(path, [cache.CacheRow(10, 3, PhotonPattern((2, 1)), "two_gamma", 5.8, 0.1, 1000, 1)])
        text = path.read_text()
        assert "10,3,2-1,two_gamma" in text
