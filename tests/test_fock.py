import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qdl_lab import fock
from qdl_lab.errors import DomainError, ResourceError
from qdl_lab.fock import (
    CodeBook,
    ModeConfig,
    PhotonPattern,
    basis_tables,
    codeword_config,
    config_for_pattern,
    dim_hilbert,
    enumerate_basis,
    enumerate_patterns,
    log2_dim_hilbert,
    num_codewords,
    pattern_of,
    rank,
    sample_codebook,
    unrank,
)


class TestDims:
    def test_dim_hilbert_examples(self):
        assert dim_hilbert(4, 3) == 20
        assert dim_hilbert(7, 0) == 1
        assert dim_hilbert(1, 5) == 1

    def test_log2_dim_matches_exact_bigint(self):
        # the worked large case: m=8000, n=20
        exact = math.comb(20 + 8000 - 1, 20)
        assert log2_dim_hilbert(8000, 20) == pytest.approx(math.log2(exact), abs=1e-9)
        assert log2_dim_hilbert(8000, 20) == pytest.approx(198.27, abs=0.05)

    def test_num_codewords_examples(self):
        assert num_codewords(4, 2) == 6
        assert num_codewords(4, 1) == 4
        assert num_codewords(9, 9) == 1

    def test_num_codewords_rejects_n_gt_m(self):
        with pytest.raises(DomainError):
            num_codewords(3, 4)

    def test_invalid_mn(self):
        with pytest.raises(DomainError):
            dim_hilbert(0, 2)
        with pytest.raises(DomainError):
            dim_hilbert(3, -1)

    @given(st.integers(1, 40), st.integers(0, 12))
    def test_log2_agrees_with_comb(self, m, n):
        assert log2_dim_hilbert(m, n) == pytest.approx(math.log2(dim_hilbert(m, n)), rel=1e-12)

    @given(st.integers(1, 30), st.integers(0, 12))
    def test_codeword_count_vs_dim(self, m, n):
        if n > m:
            return
        assert num_codewords(m, n) <= dim_hilbert(m, n)
        # equality exactly in the 0- and 1-photon sectors
        assert (num_codewords(m, n) == dim_hilbert(m, n)) == (n <= 1)


class TestEnumeration:
    def test_basis_2_2(self):
        assert [c.occupations for c in enumerate_basis(2, 2)] == [(2, 0), (1, 1), (0, 2)]

    def test_basis_3_1(self):
        assert [c.occupations for c in enumerate_basis(3, 1)] == [
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
        ]

    def test_basis_length_6_2(self):
        assert len(enumerate_basis(6, 2)) == dim_hilbert(6, 2) == 21

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(fock, "BASIS_CAP", 1000)
        with pytest.raises(ResourceError):
            enumerate_basis(40, 20)

    def test_descending_lex_order(self):
        basis = [c.occupations for c in enumerate_basis(5, 3)]
        assert basis == sorted(basis, reverse=True)

    @pytest.mark.parametrize("m,n", [(3, 2), (4, 3), (5, 3), (2, 4), (6, 2)])
    def test_order_is_rank_order(self, m, n):
        assert [rank(c) for c in enumerate_basis(m, n)] == list(range(dim_hilbert(m, n)))

    def test_many_modes(self):
        # one mode per recursion level would pass Python's recursion limit
        basis = enumerate_basis(1500, 1)
        assert len(basis) == 1500
        assert basis[0].occupations[0] == 1 and basis[-1].occupations[-1] == 1

    @pytest.mark.parametrize("m,n", [(1, 3), (4, 1), (5, 3), (3, 6)])
    def test_basis_tables(self, m, n, monkeypatch):
        cols, norms = basis_tables(m, n)
        basis = enumerate_basis(m, n)
        assert cols.tolist() == [list(cfg.modes) for cfg in basis]
        assert norms.tolist() == [math.prod(map(math.factorial, cfg)) for cfg in basis]
        assert not cols.flags.writeable and not norms.flags.writeable
        # the cached (m, n) entry does not pass a lowered cap
        monkeypatch.setattr(fock, "BASIS_CAP", len(basis) * (m + n) - 1)
        with pytest.raises(ResourceError):
            basis_tables(m, n)


class TestRankUnrank:
    def test_bijection_exhaustive_all_small_spaces(self):
        # every (m, n) up to 12 modes / 8 photons with d <= 1e4
        for m in range(1, 13):
            for n in range(0, 9):
                if dim_hilbert(m, n) > 10_000:
                    continue
                for i, cfg in enumerate(enumerate_basis(m, n)):
                    assert rank(cfg) == i
                    assert unrank(m, n, i) == cfg

    def test_examples(self):
        assert rank(ModeConfig((2, 0))) == 0
        assert unrank(2, 2, 2) == ModeConfig((0, 2))

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            unrank(2, 2, 3)

    @given(st.integers(1, 10), st.integers(0, 6), st.data())
    def test_roundtrip_random(self, m, n, data):
        d = dim_hilbert(m, n)
        i = data.draw(st.integers(0, d - 1))
        assert rank(unrank(m, n, i)) == i


class TestPatterns:
    def test_pattern_of_examples(self):
        assert pattern_of(ModeConfig((0, 1, 2, 0))).parts == (2, 1)
        assert pattern_of(ModeConfig((1, 1, 1, 0))).parts == (1, 1, 1)
        assert pattern_of(ModeConfig((3, 0, 0, 0))).parts == (3,)

    def test_enumerate_patterns_4_3(self):
        assert {q.parts for q in enumerate_patterns(4, 3)} == {(1, 1, 1), (2, 1), (3,)}

    def test_subspace_dim(self):
        assert PhotonPattern((1, 1)).subspace_dim(6) == 15
        assert PhotonPattern((3,)).subspace_dim(4) == 4
        assert PhotonPattern((1, 1, 1)).subspace_dim(4) == 4

    @pytest.mark.parametrize("m", range(1, 13))
    @pytest.mark.parametrize("n", range(0, 13))
    def test_pattern_completeness(self, m, n):
        total = sum(q.subspace_dim(m) for q in enumerate_patterns(m, n))
        expected = dim_hilbert(m, n) if n > 0 else 1
        if n == 0:
            assert total == 0
        else:
            assert total == expected

    def test_counts_match_full_enumeration(self):
        basis = enumerate_basis(6, 3)
        by_pattern: dict[tuple, int] = {}
        for cfg in basis:
            by_pattern[pattern_of(cfg).parts] = by_pattern.get(pattern_of(cfg).parts, 0) + 1
        for q in enumerate_patterns(6, 3):
            assert by_pattern[q.parts] == q.subspace_dim(6)

    def test_label_roundtrip(self):
        q = PhotonPattern((3, 2, 1, 1))
        assert PhotonPattern.from_label(q.label()) == q

    def test_pattern_validation(self):
        with pytest.raises(DomainError):
            PhotonPattern((1, 2))
        with pytest.raises(DomainError):
            PhotonPattern((2, 0))

    def test_config_for_pattern(self):
        assert config_for_pattern(5, (2, 1)).occupations == (2, 1, 0, 0, 0)


class TestCodebook:
    def test_full_codebook(self):
        cb = sample_codebook(4, 2, 1.0, rng=0)
        assert cb.M == 6
        assert {cw.occupations for cw in cb.codewords} == {
            c.occupations for c in enumerate_basis(4, 2) if c.is_single_occupancy()
        }

    def test_half_codebook(self):
        cb = sample_codebook(4, 2, 0.5, rng=123)
        assert cb.M == 3
        assert len({cw.occupations for cw in cb.codewords}) == 3

    def test_determinism(self):
        a = sample_codebook(9, 3, 0.25, rng=7)
        b = sample_codebook(9, 3, 0.25, rng=7)
        assert a == b

    def test_all_single_occupancy(self):
        cb = sample_codebook(8, 3, 0.4, rng=3)
        for cw in cb.codewords:
            assert pattern_of(cw).parts == (1, 1, 1)

    def test_min_one_codeword(self):
        cb = sample_codebook(6, 2, 0.01, rng=1)
        assert cb.M == 1

    def test_cap_before_sampling(self):
        # C(60, 5) = 5 461 512 codewords; the check precedes any draw
        rng = np.random.default_rng(0)
        with pytest.raises(ResourceError):
            sample_codebook(60, 5, 1.0, rng=rng)
        assert rng.random() == np.random.default_rng(0).random()

    def test_rejects_bad_xi(self):
        with pytest.raises(DomainError):
            sample_codebook(4, 2, 0.0, rng=0)
        with pytest.raises(DomainError):
            sample_codebook(4, 2, 1.5, rng=0)

    def test_codebook_invariants(self):
        with pytest.raises(DomainError):
            CodeBook((ModeConfig((2, 0)),))
        with pytest.raises(DomainError):
            CodeBook((ModeConfig((1, 0)), ModeConfig((1, 0))))

    def test_codeword_config(self):
        assert codeword_config(5, 3).occupations == (1, 1, 1, 0, 0)
        with pytest.raises(DomainError):
            codeword_config(2, 3)
