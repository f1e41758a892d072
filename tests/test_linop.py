import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import fock_column
from qdl_lab import fock, linop
from qdl_lab.errors import DomainError, ResourceError
from qdl_lab.fock import ModeConfig, enumerate_basis
from qdl_lab.linop import (
    UnitaryMatrix,
    _permanent_batch,
    haar_batch,
    haar_unitary,
    output_distribution,
    output_distributions,
    permanent,
    stiefel_batch,
)

HOM = UnitaryMatrix(np.array([[1, 1], [1, -1]]) / np.sqrt(2))


def naive_permanent(a: np.ndarray) -> complex:
    k = a.shape[0]
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(k)):
        term = 1.0 + 0.0j
        for i, j in enumerate(perm):
            term *= a[i, j]
        total += term
    return total


class TestPermanent:
    def test_2x2(self):
        assert permanent(np.array([[1, 2], [3, 4]])) == pytest.approx(10)

    def test_identity(self):
        for k in (1, 3, 6):
            assert permanent(np.eye(k)) == pytest.approx(1)

    def test_all_ones(self):
        assert permanent(np.ones((4, 4))) == pytest.approx(24)

    def test_empty(self):
        assert permanent(np.zeros((0, 0))) == pytest.approx(1)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_matches_naive_expansion(self, k):
        rng = np.random.default_rng(k)
        a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        expected = naive_permanent(a)
        got = permanent(a)
        assert abs(got - expected) <= 1e-10 * max(abs(expected), 1.0)
        # the batched path, b > 1, matrix by matrix
        stack = np.stack([a, rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)), a.T])
        for value, mat in zip(_permanent_batch(stack), stack):
            expected = naive_permanent(mat)
            assert abs(value - expected) <= 1e-10 * max(abs(expected), 1.0)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_single_matrix_has_batch_bits(self, k):
        rng = np.random.default_rng(100 + k)
        stack = rng.standard_normal((7, k, k)) + 1j * rng.standard_normal((7, k, k))
        for value, mat in zip(_permanent_batch(stack), stack):
            assert permanent(mat) == value  # every bit, not approximately

    def test_compensated_branch_agrees(self):
        # k = 16 activates the compensated accumulation
        rng = np.random.default_rng(5)
        a = rng.standard_normal((16, 16)) * 0.3
        got = permanent(a)
        # row sums of scaled Gaussian: compare against a second evaluation
        # with rows permuted (the permanent is row-permutation invariant)
        shuffled = a[np.argsort(rng.standard_normal(16))]
        assert permanent(shuffled) == pytest.approx(got, rel=1e-8)

    @pytest.mark.parametrize("k,blocks", [(16, (4, 4, 4, 4)), (18, (6, 6, 6))])
    def test_compensated_branch_closed_forms(self, k, blocks):
        # rank one: perm(u v^T) = k! prod u_i prod v_j; block diagonal:
        # the product of the blocks' permanents
        rng = np.random.default_rng(k)
        u, v = rng.standard_normal((2, k)) + 1j * rng.standard_normal((2, k))
        block_diag = np.zeros((k, k), dtype=complex)
        expected_block = 1.0 + 0.0j
        start = 0
        for size in blocks:
            blk = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            block_diag[start:start + size, start:start + size] = blk
            expected_block *= naive_permanent(blk)
            start += size
        got = _permanent_batch(np.stack([np.outer(u, v), block_diag]))
        expected_rank_one = math.factorial(k) * np.prod(u) * np.prod(v)
        assert abs(got[0] - expected_rank_one) <= 1e-9 * abs(expected_rank_one)
        assert abs(got[1] - expected_block) <= 1e-9 * abs(expected_block)

    def test_rejects_nonsquare_and_oversize(self):
        with pytest.raises(DomainError):
            permanent(np.ones((2, 3)))
        with pytest.raises(DomainError):
            permanent(np.eye(linop.PERMANENT_CAP + 1))  # raises before any work

    @given(st.integers(2, 5), st.randoms(use_true_random=False))
    def test_row_swap_invariance(self, k, rnd):
        rng = np.random.default_rng(rnd.randrange(2**32))
        a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        b = a[::-1].copy()
        assert permanent(b) == pytest.approx(permanent(a), rel=1e-10)


class TestHaar:
    def test_m1_is_phase(self):
        u = haar_unitary(1, 3)
        assert abs(abs(u.entries[0, 0]) - 1.0) < 1e-12

    def test_unitarity_batch(self):
        rng = np.random.default_rng(0)
        batch = haar_batch(rng, 1000, 20)
        eye = np.eye(20)
        dev = np.abs(np.conj(np.transpose(batch, (0, 2, 1))) @ batch - eye).max()
        assert dev < 1e-12

    def test_mean_abs_square_entry(self):
        # Haar columns are uniform unit vectors, so E|U_11|^2 = 1/m
        rng = np.random.default_rng(1)
        m, samples = 6, 100_000
        u = stiefel_batch(rng, samples, m, 1)
        vals = np.abs(u[:, 0, 0]) ** 2
        se = vals.std() / math.sqrt(samples)
        assert vals.mean() == pytest.approx(1 / m, abs=3 * se)

    def test_stiefel_matches_full_haar_marginal(self):
        # first column moments agree between the frame sampler and full QR
        rng1, rng2 = np.random.default_rng(2), np.random.default_rng(3)
        samples, m = 40_000, 5
        a = np.abs(stiefel_batch(rng1, samples, m, 1)[:, 0, 0]) ** 2
        b = np.abs(haar_batch(rng2, samples, m)[:, 0, 0]) ** 2
        se = math.sqrt(a.var() / samples + b.var() / samples)
        assert a.mean() == pytest.approx(b.mean(), abs=4 * se)

    def test_blocked_qr_matches_one_shot(self):
        # 1100 frames of 20 x 10 span several QR blocks, the last one partial
        count, m, k = 1100, 20, 10
        assert count % (linop.BLOCK_BYTES // (16 * m * k)) != 0
        got = stiefel_batch(np.random.default_rng(8), count, m, k)
        rng = np.random.default_rng(8)
        g = rng.standard_normal((count, m, k)) + 1j * rng.standard_normal((count, m, k))
        q, r = np.linalg.qr(g)
        d = np.einsum("...ii->...i", r)
        assert np.array_equal(got, q * (d / np.abs(d))[:, None, :])

    def test_rejects_bad_m(self):
        with pytest.raises(DomainError):
            haar_unitary(0, 1)

    # m - rows > ncols takes the Bartlett-compressed path; the others draw all m rows
    @pytest.mark.parametrize("m,rows,ncols", [(12, 3, 2), (8, 4, 3), (7, 4, 3), (6, 5, 2)])
    def test_top_block_haar_moments(self, m, rows, ncols):
        samples = 100_000
        q = stiefel_batch(np.random.default_rng(m * 100 + rows), samples, m, ncols, rows=rows)
        assert q.shape == (samples, rows, ncols)
        p = np.abs(q) ** 2
        cases = [
            (p[:, 0, 0], 1 / m),
            (p[:, 0, 0] ** 2, 2 / (m * (m + 1))),
            (p[:, 0, 0] * p[:, 1, 1], 1 / (m * m - 1)),
            (p[:, 0, 0] * p[:, 0, 1], 1 / (m * (m + 1))),
        ]
        for x, exact in cases:
            z = (x.mean() - exact) / (x.std() / math.sqrt(samples))
            assert abs(z) <= 4

    def test_full_path_top_rows_are_full_frame_rows(self):
        # m - rows = 3 = ncols: all m rows are drawn, as for the whole frame
        got = stiefel_batch(np.random.default_rng(4), 50, 7, 3, rows=4)
        assert np.array_equal(got, stiefel_batch(np.random.default_rng(4), 50, 7, 3)[:, :4])

    def test_frame_cap_counts_drawn_rows(self, monkeypatch):
        # the truncated path draws rows + ncols = 5 rows of each 10**6-row frame
        monkeypatch.setattr(linop, "FRAME_CAP_BYTES", 16 * 10 * 5 * 2)
        assert stiefel_batch(np.random.default_rng(0), 10, 10**6, 2, rows=3).shape == (10, 3, 2)
        with pytest.raises(ResourceError):
            stiefel_batch(np.random.default_rng(0), 11, 10**6, 2, rows=3)

    def test_frame_cap_before_drawing(self, monkeypatch):
        monkeypatch.setattr(linop, "FRAME_CAP_BYTES", 16 * 10 * 6 * 2)
        assert stiefel_batch(np.random.default_rng(0), 10, 6, 2).shape == (10, 6, 2)
        rng = np.random.default_rng(0)
        with pytest.raises(ResourceError):
            stiefel_batch(rng, 11, 6, 2)
        assert rng.random() == np.random.default_rng(0).random()

    def test_unitary_matrix_rejects_nonunitary(self):
        with pytest.raises(DomainError):
            UnitaryMatrix(np.ones((2, 2)))
        with pytest.raises(DomainError):
            UnitaryMatrix(np.full((2, 2), np.nan))


class TestTransitionAmplitude:
    """Squared amplitudes |<out|U|in>|^2, read off output_distribution."""

    def test_identity_diagonal(self):
        u = UnitaryMatrix(np.eye(4))
        basis = enumerate_basis(4, 2)
        for cfg in basis:
            expected = np.zeros(len(basis))
            expected[basis.index(cfg)] = 1.0
            assert np.allclose(output_distribution(u, cfg), expected, rtol=0, atol=1e-12)

    def test_hong_ou_mandel_cancellation(self):
        dist = output_distribution(HOM, ModeConfig((1, 1)))
        assert dist[enumerate_basis(2, 2).index(ModeConfig((1, 1)))] < 1e-24

    def test_hong_ou_mandel_bunching(self):
        dist = output_distribution(HOM, ModeConfig((1, 1)))
        assert dist[enumerate_basis(2, 2).index(ModeConfig((2, 0)))] == pytest.approx(0.5, abs=1e-12)

    def test_amplitude_bound(self):
        u = haar_unitary(4, 9)
        for cfg_in in enumerate_basis(4, 3):
            dist = output_distribution(u, cfg_in)
            assert dist.min() >= 0 and dist.max() <= 1 + 1e-9

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (3, 3), (4, 2)])
    def test_against_symbolic_oracle(self, m, n):
        u = haar_unitary(m, 100 + m * 10 + n)
        cfg_in = enumerate_basis(m, n)[1]
        expected = np.abs(fock_column(u.entries, cfg_in)) ** 2
        assert np.allclose(output_distribution(u, cfg_in), expected, rtol=0, atol=1e-11)


class TestOutputDistribution:
    def test_permanent_cap(self):
        # 26 photons in one mode: the 27-point basis passes its caps, the kernel refuses
        with pytest.raises(DomainError, match="permanent cap"):
            output_distribution(UnitaryMatrix(np.eye(2)), ModeConfig((26, 0)))

    def test_identity_point_mass(self):
        u = UnitaryMatrix(np.eye(4))
        cfg = ModeConfig((1, 0, 1, 0))
        dist = output_distribution(u, cfg)
        assert dist[enumerate_basis(4, 2).index(cfg)] == pytest.approx(1.0)
        assert dist.sum() == pytest.approx(1.0)

    def test_hom_distribution(self):
        dist = output_distribution(HOM, ModeConfig((1, 1)))
        idx = {cfg.occupations: i for i, cfg in enumerate(enumerate_basis(2, 2))}
        assert dist[idx[(2, 0)]] == pytest.approx(0.5, abs=1e-12)
        assert dist[idx[(1, 1)]] == pytest.approx(0.0, abs=1e-12)
        assert dist[idx[(0, 2)]] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("m", range(1, 7))
    @pytest.mark.parametrize("n", range(1, 7))
    def test_normalisation_exhaustive(self, m, n):
        u = haar_unitary(m, 1000 + m + n)
        for cfg in enumerate_basis(m, n):
            assert output_distribution(u, cfg).sum() == pytest.approx(1.0, abs=1e-9)

    def test_against_oracle_full_matrix(self):
        m, n = 4, 2
        u = haar_unitary(m, 77)
        for cfg in enumerate_basis(m, n):
            expected = np.abs(fock_column(u.entries, cfg)) ** 2
            got = output_distribution(u, cfg)
            assert np.abs(got - expected).max() < 1e-9

    def test_blocks_change_no_bit(self, monkeypatch):
        # d = 35 outputs of 5 inputs in blocks of 20, 7, 4 and 1 outputs; one
        # input alone then goes in blocks of 20 outputs and of 1, a single
        # matrix per kernel call.
        m, n = 5, 3
        units = haar_batch(np.random.default_rng(4), 3, m)
        keys = np.array([2, 0, 1, 2, 0])
        rows = np.array([[0, 1, 2], [0, 0, 4], [1, 3, 4], [2, 2, 2], [0, 1, 2]])
        whole = output_distributions(units, keys, rows)
        for outputs in (20, 7, 4, 1):
            monkeypatch.setattr(linop, "BLOCK_BYTES", 16 * n * n * len(keys) * outputs)
            assert np.array_equal(output_distributions(units, keys, rows), whole)
        for outputs in (20, 1):
            monkeypatch.setattr(linop, "BLOCK_BYTES", 16 * n * n * outputs)
            for i in (0, 2):
                u = UnitaryMatrix(units[keys[i]])
                cfg = ModeConfig(tuple(np.bincount(rows[i], minlength=m)))
                assert np.array_equal(output_distribution(u, cfg), whole[i])

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(fock, "BASIS_CAP", 50)
        with pytest.raises(ResourceError):
            output_distribution(haar_unitary(6, 1), ModeConfig((1, 1, 1, 0, 0, 0)))

    def test_dagger_inverts_at_2_1(self):
        # doubly stochastic transition matrices of inverse maps are transposes;
        # at (4, 2) this is |<b|U|a>|^2 = |<a|U^-1|b>|^2 with photon bunching
        for m, n in [(2, 1), (4, 2)]:
            u = haar_unitary(m, 5)
            v = UnitaryMatrix(u.entries.conj().T)
            basis = enumerate_basis(m, n)
            mat_u = np.array([output_distribution(u, cfg) for cfg in basis])
            mat_v = np.array([output_distribution(v, cfg) for cfg in basis])
            assert np.allclose(mat_v, mat_u.T, atol=1e-12)
