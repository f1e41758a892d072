import concurrent.futures
import hashlib
import math
import platform
import subprocess
import sys
import time
import types

import pytest

from oracles import exact_raw_c, exact_two_gamma
from qdl_lab import bounds, cli, mc, protocol
from qdl_lab.errors import DomainError


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDim:
    def test_dim(self, capsys):
        code, out, _ = run_cli(["dim", "4", "3"], capsys)
        assert code == 0
        assert "# qdl-lab v" in out and "cmd=dim" in out
        assert "4,3,20," in out

    def test_exact_logs_at_huge_m(self, capsys):
        m = 10**18
        code, out, _ = run_cli(["dim", str(m), "2"], capsys)
        assert code == 0
        row = out.splitlines()[2].split(",")
        assert float(row[3]) == math.log2(math.comb(m + 1, 2))  # log2_d
        assert float(row[5]) == math.log2(math.comb(m, 2))  # log2_C

    def test_pattern_count_without_enumeration(self, capsys):
        start = time.perf_counter()
        code, out, _ = run_cli(["dim", "1000", "60"], capsys)
        assert code == 0
        assert out.splitlines()[2].split(",")[6] == "966467"  # p(60)
        assert time.perf_counter() - start < 1.0

    def test_pattern_count_cap_exit_code(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(["dim", "100000", "100000"], capsys)
        assert code == 4
        assert out == "" and "resource cap" in err
        assert time.perf_counter() - start < 1.0

    def test_digit_limit_exit_code(self, capsys):
        # d = C(1001999, 2000) has 6 266 digits, past the 4 300 Python prints
        code, out, err = run_cli(["dim", "1000000", "2000"], capsys)
        assert code == 4
        assert out == ""
        assert err == (
            "resource cap: d has 6266 decimal digits, over Python's 4300-digit limit "
            "for printing an integer; log2_d gives its size\n"
        )


class TestEstimate:
    def test_gamma_all_patterns(self, tmp_path, capsys):
        out_path = tmp_path / "g.csv"
        code, _, err = run_cli(
            ["estimate", "gamma", "6", "2", "--samples", "2000", "--seed", "7",
             "--out", str(out_path), "--cache", str(tmp_path / "cache.csv")],
            capsys,
        )
        assert code == 0
        text = out_path.read_text()
        assert text.startswith("# qdl-lab v")
        assert "6,2,2,two_gamma," in text and "6,2,1-1,two_gamma," in text
        assert (tmp_path / "cache.csv").exists()

    def test_c_emits_raw_variant(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["estimate", "c", "4", "2", "--samples", "2000", "--seed", "3",
             "--cache", str(tmp_path / "cache.csv")],
            capsys,
        )
        assert code == 0
        assert ",c," in out and ",raw_c," in out

    def test_same_seed_byte_identical(self, tmp_path, capsys):
        paths = [tmp_path / f"{i}.csv" for i in range(2)]
        for p in paths:
            run_cli(
                ["estimate", "gamma", "5", "2", "--samples", "2000", "--seed", "11",
                 "--out", str(p), "--cache", str(tmp_path / f"c{p.name}")],
                capsys,
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_bad_samples_usage_error(self, tmp_path, capsys, samples):
        code, _, err = run_cli(
            ["estimate", "c", "4", "2", "--pattern", "2", "--samples", samples, "--seed", "1",
             "--cache", str(tmp_path / "c.csv")],
            capsys,
        )
        assert code == 2
        assert f"need --samples >= 1000, got {samples}" in err
        assert not (tmp_path / "c.csv").exists()

    def test_invalid_pattern_lists_valid_ones(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["estimate", "gamma", "6", "2", "--pattern", "3-1", "--samples", "2000",
             "--seed", "1", "--cache", str(tmp_path / "c.csv")],
            capsys,
        )
        assert code == 2
        assert "valid patterns" in err and "1-1" in err

    def test_single_pattern_not_enumerated(self, tmp_path, capsys):
        # n = 60 has 966 467 patterns; validating one needs none of them
        start = time.perf_counter()
        code, out, _ = run_cli(
            ["estimate", "gamma", "100", "60", "--pattern", "60", "--samples", "1000",
             "--seed", "1", "--cache", str(tmp_path / "c.csv")],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[2].startswith("100,60,60,two_gamma,")
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("workers", ["1", "2"], ids=["w1", "w2"])
    @pytest.mark.parametrize(
        "argv",
        [["gamma", "1000000", "2", "--pattern", "1-1"], ["c", "3000000", "1"]],
        ids=["gamma-m1e6-n2", "c-m3e6-n1"],
    )
    def test_frame_cap_exit_code(self, tmp_path, capsys, argv, workers):
        # full frames would be 32 GB and 48 GB; the Monte Carlo draws the top n
        # rows and a 2 x 2 Bartlett factor of 1-1, and no frame for the bunched 1
        start = time.perf_counter()
        code, out, _ = run_cli(
            ["estimate", *argv, "--samples", "1000", "--seed", "1", "--workers", workers,
             "--cache", str(tmp_path / "c.csv")],
            capsys,
        )
        assert code == 0
        rows = out.splitlines()[2:]
        assert rows and all(r.startswith(f"{argv[1]},{argv[2]},") for r in rows)
        assert time.perf_counter() - start < 1.0


class TestKeysize:
    def test_worked_example_text(self, capsys):
        code, out, _ = run_cli(
            ["keysize", "8000", "20", "--xi", "0.01", "--eps", "1e-10",
             "--gamma-source", "no-collision"],
            capsys,
        )
        assert code == 0
        assert "log2_M          = 191.560" in out
        assert "log2_K_epsilon  = 127.115" in out

    def test_exact_log2_M_at_huge_m(self, capsys):
        code, out, _ = run_cli(["keysize", "1000000000000000000", "2", "--eps", "0.1"], capsys)
        assert code == 0
        assert f"log2_M          = {math.log2(math.comb(10**18, 2)):.3f}" in out
        assert "log2_M          = 118.589" in out

    def test_epsilon_monotonicity_surface(self, capsys):
        _, out_tight, _ = run_cli(
            ["keysize", "40", "2", "--xi", "1", "--eps", "1e-10"], capsys
        )
        _, out_loose, _ = run_cli(
            ["keysize", "40", "2", "--xi", "1", "--eps", "0.5"], capsys
        )
        k_tight = float(out_tight.splitlines()[1].split("=")[1])
        k_loose = float(out_loose.splitlines()[1].split("=")[1])
        assert k_loose < k_tight

    def test_fig2_sweep(self, tmp_path, capsys):
        out_path = tmp_path / "fig2.csv"
        code, _, _ = run_cli(
            ["keysize", "--fig2", "--s", "0.5", "--n-max", "12", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[1] == "n,m,epsilon,log2_M,log2_K_epsilon,branch"
        assert len(lines) == 2 + 11  # n = 2..12
        svg = (tmp_path / "fig2.svg").read_text()
        assert svg.count("<polyline") == 2 and "log2 K_eps" in svg

    def test_no_collision_past_float_range(self, capsys):
        # m^n = 1000^200 overflows a float; c_min goes through as its log2
        code, out, err = run_cli(["keysize", "1000", "200", "--eps", "0.1"], capsys)
        assert code == 0 and err == ""
        log2_c_min = math.log2(math.factorial(200)) - math.log2(1000**200)
        rep = bounds.k_epsilon_single(1000, 200, xi=1.0, epsilon=0.1, gamma=402.0, log2_c_min=log2_c_min)
        assert f"log2_K_epsilon  = {rep.log2_K_epsilon:.3f}" in out

    def test_fig2_past_float_range(self, tmp_path, capsys):
        out_path = tmp_path / "fig2.csv"
        code, _, _ = run_cli(["keysize", "--fig2", "--n-max", "60", "--out", str(out_path)], capsys)
        assert code == 0
        rows = [line.split(",") for line in out_path.read_text().splitlines()[2:]]
        assert [int(r[0]) for r in rows] == list(range(2, 61))
        assert all(math.isfinite(float(v)) for r in rows for v in r[2:5])

    def test_fig2_sweep_cap(self, tmp_path, capsys):
        out_path = tmp_path / "fig2.csv"
        start = time.perf_counter()
        code, out, err = run_cli(
            ["keysize", "--fig2", "--n-max", str(cli.FIG2_N_MAX + 1), "--out", str(out_path)], capsys
        )
        assert code == 4 and out == ""
        assert f"sweeps n up to at most {cli.FIG2_N_MAX}" in err
        assert not out_path.exists() and time.perf_counter() - start < 1.0

    def test_fig2_selecting_no_n_usage_error(self, tmp_path, capsys):
        out_path = tmp_path / "fig2.csv"
        code, _, err = run_cli(["keysize", "--fig2", "--n-max", "1", "--out", str(out_path)], capsys)
        assert code == 2
        assert "--n-max >= 2" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("s,n_max,first", [("2000", "3", 2), ("1", "1100", 1075)])
    def test_fig2_default_epsilon_underflow(self, tmp_path, capsys, s, n_max, first):
        # 2^(-n^s) is 0 in floats once n^s > 1074, or n^s itself overflows
        out_path = tmp_path / "fig2.csv"
        code, out, err = run_cli(
            ["keysize", "--fig2", "--s", s, "--n-max", n_max, "--out", str(out_path)], capsys
        )
        assert code == 2 and out == ""
        assert f"from n = {first} at --s {s};" in err
        assert "--n-max" in err and "--eps" in err and "got 0.0" not in err
        assert not out_path.exists()

    def test_fig2_smallest_default_epsilon(self, tmp_path, capsys):
        out_path = tmp_path / "fig2.csv"
        code, _, _ = run_cli(["keysize", "--fig2", "--s", "1", "--n-max", "1074", "--out", str(out_path)], capsys)
        assert code == 0
        last = out_path.read_text().splitlines()[-1].split(",")
        assert int(last[0]) == 1074 and float(last[2]) == 2.0**-1074

    def test_literal_gamma(self, capsys):
        code, out, _ = run_cli(
            ["keysize", "30", "10", "--xi", "1", "--eps", "1e-8",
             "--gamma-source", "literal", "--gamma", "111.5"],
            capsys,
        )
        assert code == 0

    def test_multi_use_nu(self, capsys):
        code, out, _ = run_cli(
            ["keysize", "10", "3", "--xi", "0.5", "--eps", "1e-4", "--nu", "1000",
             "--gamma-source", "literal", "--gamma", "7.75"],
            capsys,
        )
        assert code == 0
        log2_k = float(out.splitlines()[1].split("=")[1])
        assert log2_k > 1000  # scales with the number of channel uses

    def test_exact_source_gamma_in_csv(self, tmp_path, capsys):
        out_path = tmp_path / "k.csv"
        code, _, err = run_cli(
            ["keysize", "7", "2", "--xi", "1", "--eps", "0.1", "--gamma-source", "exact",
             "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        gamma = out_path.read_text().splitlines()[2].split(",")[5]
        assert float(gamma) == exact_two_gamma(7, 2, (2,))
        assert "gamma from exact: 4.978 (certified maximum over all states)" in err

    def test_exact_source_non_bunched_maximiser(self, capsys):
        # at (2, 2) no state reaches the bound B = 6 (the best pattern, 1-1, has 3.6)
        code, out, err = run_cli(["keysize", "2", "2", "--eps", "0.1", "--gamma-source", "exact"], capsys)
        assert code == 0
        assert "gamma from exact: 6 (upper bound, not attained; argmax L = 0)" in err
        assert "log2_K_epsilon  = 24.813" in out

    def test_exact_source_worked_example(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(
            ["keysize", "8000", "20", "--xi", "0.01", "--eps", "1e-10", "--gamma-source", "exact"],
            capsys,
        )
        assert code == 0
        assert "(certified maximum over all states)" in err
        assert "log2_K_epsilon  = 142.651" in out
        assert time.perf_counter() - start < 3.0

    def test_missing_eps_usage_error(self, capsys):
        code, _, _ = run_cli(["keysize", "6", "2"], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--gamma-source", "literal", "--gamma", "nan"], "need finite gamma >= 1"),
            (["--gamma-source", "literal", "--gamma", "inf"], "need finite gamma >= 1"),
            (["--xi", "1e-300"], "fewer than one codeword"),
            (["--xi", "1e-300", "--nu", "2"], "fewer than one codeword"),
        ],
        ids=["nan-gamma", "inf-gamma", "xi-below-one-codeword", "xi-below-one-codeword-nu"],
    )
    def test_bad_input_usage_error(self, capsys, flags, message):
        code, out, err = run_cli(["keysize", "10", "3", "--eps", "0.1", *flags], capsys)
        assert code == 2
        assert message in err and out == ""


class TestRate:
    def test_rate_csv_and_svg(self, tmp_path, capsys):
        out_path = tmp_path / "rate.csv"
        code, _, _ = run_cli(
            ["rate", "--m", "10,20", "--eta-start", "0.8", "--eta-stop", "1.0",
             "--eta-steps", "3", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[1] == "m,eta,best_n,rate_per_mode,rate"
        assert len(lines) == 2 + 6
        assert (tmp_path / "rate.svg").exists()
        svg = (tmp_path / "rate.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_negative_rates_not_clipped(self, tmp_path, capsys):
        out_path = tmp_path / "rate.csv"
        code, _, _ = run_cli(
            ["rate", "--m", "10", "--eta-start", "0.05", "--eta-stop", "0.3",
             "--eta-steps", "3", "--beta", "1.0", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        body = out_path.read_text().splitlines()[2:]
        rates = [float(line.split(",")[3]) for line in body]
        assert any(r < 0 for r in rates)

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--m", "10,abc"], "--m needs comma-separated integers"),
            (["--m", ""], "--m selects no mode count"),
            (["--m", "0"], "need m >= 1"),
            (["--m", "-4"], "need m >= 1"),
            (["--m", "10", "--n-max", "0"], "need n_max >= 1"),
            (["--m", "10", "--n-max", "-3"], "need n_max >= 1"),
            (["--m", "10", "--beta", "2"], "need 0 <= beta <= 1"),
        ],
        ids=["not-an-int", "no-modes", "zero-modes", "negative-modes", "zero-n-max", "negative-n-max", "beta-above-1"],
    )
    def test_bad_input_usage_error(self, tmp_path, capsys, flags, message):
        out_path = tmp_path / "rate.csv"
        code, _, err = run_cli(["rate", *flags, "--out", str(out_path)], capsys)
        assert code == 2
        assert message in err
        assert not out_path.exists()


    def test_any_mode_count(self, capsys):
        code, out, _ = run_cli(["rate", "--m", "50"], capsys)
        assert code == 0
        assert len(out.splitlines()) == 2 + 26

    def test_sweep_cap_exit_code(self, tmp_path, capsys):
        out_path = tmp_path / "rate.csv"
        start = time.perf_counter()
        code, _, err = run_cli(["rate", "--m", "10,20,2000", "--out", str(out_path)], capsys)
        assert code == 4
        assert "loss terms" in err
        assert not out_path.exists()
        assert time.perf_counter() - start < 1.0


class TestSimulate:
    def test_noiseless(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "4", "2", "--K", "16", "--eta", "1", "--trials", "2000",
             "--seed", "5"],
            capsys,
        )
        assert code == 0
        assert "keyed_success_rate = 1.000000" in out

    def test_transcript_row_count(self, tmp_path, capsys):
        transcript = tmp_path / "t.csv"
        code, _, _ = run_cli(
            ["simulate", "4", "2", "--K", "4", "--eta", "0.5", "--trials", "300",
             "--seed", "6", "--transcript", str(transcript)],
            capsys,
        )
        assert code == 0
        lines = transcript.read_text().splitlines()
        assert lines[1] == "trial,x,k,clicks,detected,decoded,ambiguity"
        assert len(lines) == 2 + 300

    def test_resource_cap_exit_code(self, capsys):
        code, _, _ = run_cli(
            ["simulate", "30", "10", "--K", "2", "--trials", "100000", "--seed", "1"],
            capsys,
        )
        assert code == 4

    def test_basis_cap_exit_code(self, capsys):
        # trials*d = 3.2e7 passes the budget and 74 codewords pass the codebook
        # cap; the d = 7.9 M basis is refused before it is built
        start = time.perf_counter()
        code, _, err = run_cli(
            ["simulate", "24", "8", "--xi", "0.0001", "--trials", "4", "--seed", "1"], capsys
        )
        assert code == 4
        assert "exceeds cap" in err
        assert time.perf_counter() - start < 1.0

    def test_codebook_cap_exit_code(self, capsys):
        # d = 7.6 M passes the trials*d budget; C(60, 5) = 5.46 M codewords
        # do not pass the codebook cap, which is checked before any sampling
        start = time.perf_counter()
        code, _, err = run_cli(["simulate", "60", "5", "--trials", "1", "--seed", "1"], capsys)
        assert code == 4
        assert "codebook size 5461512 exceeds cap" in err
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "argv,message",
        [(["5000", "1"], "basis d*(m+n) = 25005000 exceeds cap"),
         (["3", "2", "--K", "100000000"], "pool of K = 100000000 unitaries of m = 3 modes exceeds cap")],
        ids=["basis", "pool"],
    )
    def test_caps_before_pool(self, capsys, argv, message):
        # either pool would take gigabytes (16 unitaries of 5000 modes: 6.4 GB);
        # both caps are checked before it is sampled
        start = time.perf_counter()
        code, _, err = run_cli(["simulate", *argv, "--trials", "1", "--seed", "1"], capsys)
        assert code == 4
        assert message in err
        assert time.perf_counter() - start < 1.0

    def test_pool_cap_counts_entries(self, capsys):
        # K * m^2 = 1.2 M pool entries pass the 4 M cap; 4 M + 4 do not
        code, out, _ = run_cli(["simulate", "2", "1", "--K", "300000", "--trials", "1", "--seed", "1"], capsys)
        assert code == 0 and "keyed_success_rate" in out
        code, _, err = run_cli(["simulate", "2", "1", "--K", "1000001", "--trials", "1", "--seed", "1"], capsys)
        assert code == 4
        assert "pool of K = 1000001 unitaries of m = 2 modes exceeds cap" in err


TABLE_ROWS = {"I": 15, "II": 14, "III": 72, "IV": 36, "V": 20}


def table_rows(which, capsys):
    code, out, err = run_cli(["tables", which], capsys)
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0] == f"# qdl-lab v{cli.__version__} cmd=tables seed=0"
    assert lines[1] == "m,n,q,exact,published,rel_gap"
    return [line.split(",") for line in lines[2:]]


class TestTables:
    @pytest.fixture(autouse=True)
    def no_monte_carlo(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("tables ran Monte Carlo")

        monkeypatch.setattr(cli.mc, "estimate_moments", refuse)

    @pytest.mark.parametrize("which", list(TABLE_ROWS))
    def test_row_counts_without_monte_carlo(self, capsys, which):
        assert len(table_rows(which, capsys)) == TABLE_ROWS[which]

    def test_exact_matches_oracles(self, capsys):
        checked = 0
        for which in TABLE_ROWS:
            for m, n, q, exact, _, _ in table_rows(which, capsys):
                m, n, parts = int(m), int(n), tuple(int(v) for v in q.split("-"))
                if which == "I":
                    assert float(exact) == float(exact_raw_c(m, n, parts))
                elif n <= 3 or len(parts) == 1:
                    assert float(exact) == exact_two_gamma(m, n, parts)
                else:
                    continue
                checked += 1
        assert checked == 61

    def test_rel_gap(self, capsys):
        for which in TABLE_ROWS:
            for *_, exact, published, gap in table_rows(which, capsys):
                assert float(gap) == (float(published) - float(exact)) / float(exact)


class TestWorkers:
    def test_negative_workers_usage_error(self, capsys):
        code, _, err = run_cli(
            ["simulate", "4", "2", "--trials", "10", "--seed", "1", "--workers", "-3"], capsys
        )
        assert code == 2
        assert "--workers" in err

    def test_estimate_starts_no_process(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("estimate started a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 2)
        code, out, _ = run_cli(
            ["estimate", "gamma", "8", "3", "--samples", "10000", "--seed", "1", "--workers", "2",
             "--cache", str(tmp_path / "c.csv")],
            capsys,
        )
        assert code == 0
        assert len(out.splitlines()) == 2 + 3  # header lines and the 3 patterns of n = 3

    @pytest.mark.parametrize("pattern", ["4", "1-1-1-1", "2-2"])
    def test_estimate_csv_identical_across_threads(self, tmp_path, capsys, monkeypatch, pattern):
        # 5 chunks; with 8 CPUs reported, --workers 8 runs 5 threads
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 8)
        outputs = []
        for w in ("1", "2", "8"):
            out = tmp_path / f"w{w}.csv"
            code, _, _ = run_cli(
                ["estimate", "gamma", "9", "4", "--pattern", pattern, "--samples", "20000",
                 "--seed", "5", "--workers", w, "--out", str(out),
                 "--cache", str(tmp_path / "c.csv")],
                capsys,
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_chunk_domain_error_exit_code(self, tmp_path, capsys, monkeypatch, workers):
        chunk = mc._chunk_power_sums

        def refuse_first(args):
            if args[4] == 0:
                raise DomainError("chunk 0 refused")
            return chunk(args)

        monkeypatch.setattr(mc, "_chunk_power_sums", refuse_first)
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 2)
        code, out, err = run_cli(
            ["estimate", "gamma", "8", "3", "--pattern", "1-1-1", "--samples", "20000",
             "--seed", "1", "--workers", workers, "--cache", str(tmp_path / "c.csv")],
            capsys,
        )
        assert code == 2
        assert err == "error: chunk 0 refused\n"
        assert out == ""

    def test_simulate_identical_across_processes(self, tmp_path, capsys, monkeypatch):
        # 3 shards, one shard per process at least: workers 2 and 8 start 2 and 3 processes
        monkeypatch.setattr(protocol, "MIN_SHARDS_PER_PROCESS", 1)
        monkeypatch.setattr(protocol.os, "cpu_count", lambda: 8)
        outputs = []
        for w in ("1", "2", "8"):
            out, transcript = tmp_path / f"w{w}.csv", tmp_path / f"t{w}.csv"
            code, stdout, _ = run_cli(
                ["simulate", "5", "3", "--K", "6", "--eta", "0.7", "--trials", "9000", "--seed", "9",
                 "--workers", w, "--out", str(out), "--transcript", str(transcript)],
                capsys,
            )
            assert code == 0
            outputs.append((stdout, out.read_bytes(), transcript.read_bytes()))
        assert outputs[0] == outputs[1] == outputs[2]


class TestMallocThresholds:
    @pytest.mark.skipif(
        not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
        reason="glibc's mallopt only",
    )
    def test_simulate_faults_no_block_back_in(self):
        # under glibc's default thresholds each op faulted about 5 000 pages
        # back in: its per-block temporaries went back to the kernel
        script = (
            "import contextlib, io, resource\n"
            "from qdl_lab import cli\n"
            "def op(seed):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(['simulate', '8', '3', '--K', '64', '--eta', '0.8',\n"
            "                         '--trials', '1024', '--seed', str(seed)]) == 0\n"
            "for seed in range(3):\n"
            "    op(seed)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for seed in range(20):\n"
            "    op(seed)\n"
            "print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < 500

    @pytest.mark.parametrize("libc", ["missing", "no-mallopt", "refused"])
    def test_without_mallopt(self, capsys, monkeypatch, libc):
        # macOS and Windows have no mallopt; musl's accepts nothing
        def cdll(name):
            if libc == "missing":
                raise OSError("no C library")
            if libc == "no-mallopt":
                return types.SimpleNamespace()
            return types.SimpleNamespace(mallopt=lambda param, value: 0)

        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        cli._keep_freed_heap.cache_clear()
        try:
            assert cli._keep_freed_heap() is False
            code, out, _ = run_cli(["dim", "4", "3"], capsys)
        finally:
            cli._keep_freed_heap.cache_clear()
        assert code == 0
        assert "4,3,20," in out


class TestCommandOptions:
    @pytest.mark.parametrize(
        "argv",
        [
            ["dim", "3", "2", "--samples", "5"],
            ["keysize", "10", "3", "--eps", "0.1", "--workers", "2"],
            ["simulate", "4", "2", "--accept-long"],
            ["tables", "II", "--samples", "1000"],
            ["tables", "III", "--workers", "2"],
            ["tables", "V", "--accept-long"],
        ],
        ids=["dim-samples", "keysize-workers", "simulate-accept-long", "tables-samples",
             "tables-workers", "tables-accept-long"],
    )
    def test_option_of_another_command_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestGolden:
    """Values recorded from fixed seeds; a change to any RNG stream fails here."""

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_estimate_value(self, tmp_path, capsys, workers):
        code, out, _ = run_cli(
            ["estimate", "gamma", "10", "2", "--pattern", "1-1", "--samples", "9000", "--seed", "3",
             "--workers", workers, "--cache", str(tmp_path / "c.csv")],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[2] == "10,2,1-1,two_gamma,4.494639166095991,0.04964352271526231,9000,3"

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_simulate_transcript(self, tmp_path, capsys, workers):
        transcript = tmp_path / "t.csv"
        code, _, _ = run_cli(
            ["simulate", "5", "2", "--K", "6", "--eta", "0.5", "--xi", "0.6", "--trials", "9000",
             "--seed", "22", "--workers", workers, "--transcript", str(transcript)],
            capsys,
        )
        assert code == 0
        header, body = transcript.read_text().split("\n", 1)  # the header names the version
        assert header == "# qdl-lab v" + cli.__version__ + " cmd=simulate-transcript seed=22"
        assert hashlib.sha256(bytes(body, "utf-8")).hexdigest() == (
            "b6ab354b1b86505270dd3056309d977654dfdf3be52cf191c193fcd0f7c81c8b"
        )


class TestConfigFile:
    def test_config_defaults_applied(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples=2500\nseed=13\n")
        out_path = tmp_path / "out.csv"
        code, _, _ = run_cli(
            ["estimate", "gamma", "4", "2", "--config", str(cfg),
             "--out", str(out_path), "--cache", str(tmp_path / "c.csv")],
            capsys,
        )
        assert code == 0
        text = out_path.read_text()
        assert "seed=13" in text.splitlines()[0]
        assert ",2500,13" in text

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples=2500\n")
        out_path = tmp_path / "out.csv"
        run_cli(
            ["estimate", "gamma", "4", "2", "--config", str(cfg), "--samples", "1500",
             "--seed", "1", "--out", str(out_path), "--cache", str(tmp_path / "c.csv")],
            capsys,
        )
        assert ",1500,1" in out_path.read_text()

    @pytest.mark.parametrize(
        "text,message",
        [
            ("seed=1\nsamples\n", ":2: config line is not key=value"),
            ("samples=abc\n", ":1: bad value for samples"),
            ("# typo\nsampels=2500\n", ":2: unknown config key 'sampels'"),
            ("gamma-source=bogus\n", ":1: bad value for gamma_source: invalid choice"),
        ],
        ids=["no-equals", "not-an-int", "unknown-key", "bad-choice"],
    )
    def test_bad_config_usage_error(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code, _, err = run_cli(
            ["estimate", "c", "4", "2", "--config", str(cfg), "--cache", str(tmp_path / "c.csv")],
            capsys,
        )
        assert code == 2
        assert f"{cfg}{message}" in err
        assert not (tmp_path / "c.csv").exists()

    def test_config_holds_for_its_own_call_only(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=13\n")
        code, out, _ = run_cli(["dim", "3", "2", "--config", str(cfg)], capsys)
        assert code == 0 and "seed=13" in out.splitlines()[0]
        code, out, _ = run_cli(["dim", "3", "2"], capsys)
        assert code == 0 and "seed=0" in out.splitlines()[0]

    def test_missing_config_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "absent.cfg"
        code, _, err = run_cli(["dim", "3", "2", "--config", str(cfg)], capsys)
        assert code == 2
        assert str(cfg) in err

    def test_key_of_another_command_accepted(self, tmp_path, capsys):
        # one config file may serve several commands
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trials=50\nfig2=yes\n")
        code, out, _ = run_cli(["dim", "3", "2", "--config", str(cfg)], capsys)
        assert code == 0
        assert "3,2,6," in out


class TestEntryPoint:
    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qdl_lab.cli", "dim", "3", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "3,2,6," in proc.stdout

    def test_generated_seed_printed(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "qdl_lab.cli", "estimate", "gamma", "4", "2",
             "--samples", "1500", "--cache", str(tmp_path / "cache.csv")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "seed=" in proc.stderr
