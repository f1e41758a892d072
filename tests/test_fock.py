import itertools
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
    count_patterns,
    dim_hilbert,
    enumerate_basis,
    enumerate_patterns,
    log2_dim_hilbert,
    num_codewords,
    sample_codebook,
)
from qdl_lab.linop import UnitaryMatrix, output_distribution


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
        # 171! overflows a float: the factorial norms refuse n > 170
        for call in (
            lambda: basis_tables(2, 200),
            lambda: basis_tables(1, 171),
            lambda: output_distribution(UnitaryMatrix(np.eye(2)), ModeConfig((171, 0))),
        ):
            with pytest.raises(DomainError, match="largest n whose n! fits a float"):
                call()

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
        # a config's index is the number of configs above it in descending lex order
        basis = enumerate_basis(m, n)
        above = [sum(o.occupations > c.occupations for o in basis) for c in basis]
        assert [basis.index(c) for c in basis] == above == list(range(dim_hilbert(m, n)))

    def test_many_modes(self):
        # one mode per recursion level would pass Python's recursion limit
        basis = enumerate_basis(1500, 1)
        assert len(basis) == 1500
        assert basis[0].occupations[0] == 1 and basis[-1].occupations[-1] == 1

    @pytest.mark.parametrize(
        "m,n", [(1, 0), (3, 0), (1, 3), (4, 1), (5, 3), (3, 6), (7, 4), (2, 25), (3, 24)]
    )
    def test_basis_tables(self, m, n, monkeypatch):
        # reference: every occupation tuple of sum n, in descending order
        basis = sorted((o for o in itertools.product(range(n + 1), repeat=m) if sum(o) == n), reverse=True)
        occ = np.array(basis).reshape(len(basis), m)
        cols, norms = basis_tables(m, n)
        assert cols.shape == (len(basis), n)
        assert cols.tolist() == [[i for i, v in enumerate(o) for _ in range(v)] for o in basis]
        # the factorial norms carry the bits of prod over modes of float(n_j!)
        fact = np.array([math.factorial(v) for v in range(n + 1)], dtype=float)
        assert norms.tobytes() == fact[occ].prod(axis=1).tobytes()
        assert [c.occupations for c in enumerate_basis(m, n)] == basis
        assert not cols.flags.writeable and not norms.flags.writeable
        # the cached (m, n) entry does not pass a lowered cap
        monkeypatch.setattr(fock, "BASIS_CAP", len(basis) * (m + n) - 1)
        with pytest.raises(ResourceError):
            basis_tables(m, n)


class TestPatterns:
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

    @pytest.mark.parametrize("m", range(1, 9))
    def test_count_patterns(self, m):
        for n in range(0, 13):  # n > m too, where the at-most-m-parts limit binds
            assert count_patterns(m, n) == len(enumerate_patterns(m, n))

    def test_count_patterns_cap(self, monkeypatch):
        monkeypatch.setattr(fock, "PATTERN_COUNT_CAP", 36)  # n * min(m, n)
        assert count_patterns(6, 6) == 11
        assert count_patterns(100, 6) == 11
        with pytest.raises(ResourceError, match="cap 36"):
            count_patterns(7, 7)
        with pytest.raises(ResourceError):
            count_patterns(1, 37)

    def test_counts_match_full_enumeration(self):
        basis = enumerate_basis(6, 3)
        by_pattern: dict[tuple, int] = {}
        for cfg in basis:
            parts = tuple(sorted((v for v in cfg.occupations if v), reverse=True))
            by_pattern[parts] = by_pattern.get(parts, 0) + 1
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


class TestCodebook:
    def test_full_codebook(self):
        cb = sample_codebook(4, 2, 1.0, rng=0)
        assert len(cb) == 6
        assert {cw.occupations for cw in cb.codewords} == {
            c.occupations for c in enumerate_basis(4, 2) if c.is_single_occupancy()
        }

    def test_half_codebook(self):
        cb = sample_codebook(4, 2, 0.5, rng=123)
        assert len(cb) == 3
        assert len({cw.occupations for cw in cb.codewords}) == 3

    def test_determinism(self):
        a = sample_codebook(9, 3, 0.25, rng=7)
        b = sample_codebook(9, 3, 0.25, rng=7)
        assert a == b

    def test_all_single_occupancy(self):
        cb = sample_codebook(8, 3, 0.4, rng=3)
        for cw in cb.codewords:
            assert tuple(sorted((v for v in cw.occupations if v), reverse=True)) == (1, 1, 1)

    def test_min_one_codeword(self):
        cb = sample_codebook(6, 2, 0.01, rng=1)
        assert len(cb) == 1

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

    @pytest.mark.parametrize(
        "m,n,xi", [(8, 3, 1.0), (6, 2, 0.6), (100, 99, 1.0), (25, 8, 0.01), (30, 15, 1e-4)]
    )
    def test_unrank_matches_scalar(self, m, n, xi):
        # C(25, 8) = 1 081 575 and C(30, 15) = 155 117 520 take the rejection path
        C, M = math.comb(m, n), fock.codebook_size(m, n, xi)
        rng = np.random.default_rng(11)
        if C <= 1_000_000:
            ranks = rng.permutation(C)[:M].tolist()
        else:
            ranks, seen = [], set()
            while len(ranks) < M:
                r = int(rng.integers(C))
                if r not in seen:
                    seen.add(r)
                    ranks.append(r)
        cb = sample_codebook(m, n, xi, rng=np.random.default_rng(11))
        assert [cw.occupations for cw in cb.codewords] == [_unrank(m, n, r) for r in ranks]

    def test_ranks_past_int64(self):
        # C(200, 100) ~ 9e58 ranks do not fit the sampler; the check precedes any draw
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError, match="int64"):
            sample_codebook(200, 100, 1e-55, rng=rng)
        assert rng.random() == np.random.default_rng(0).random()

    def test_codebook_invariants(self):
        with pytest.raises(DomainError):
            CodeBook((ModeConfig((2, 0)),))
        with pytest.raises(DomainError):
            CodeBook((ModeConfig((1, 0)), ModeConfig((1, 0))))


def _unrank(m, n, r):
    """r-th n-subset of m modes in lexicographic order, as an occupation tuple."""
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
    return tuple(occ)
