import math

import numpy as np
import pytest

from oracles import (
    casimir_components,
    casimir_second_moment,
    casimir_weights,
    exact_second_moment,
    exact_two_gamma,
)
from qdl_lab import exact
from qdl_lab.errors import DomainError
from qdl_lab.fock import PhotonPattern, enumerate_patterns
from qdl_lab.mc import estimate_gamma_q


class TestOracles:
    @pytest.mark.parametrize("m", [3, 6, 10, 40])
    def test_rational_equals_oracle(self, m):
        for n in range(1, min(m, 3) + 1):
            for q in enumerate_patterns(m, n):
                assert exact.second_moment(m, q) == exact_second_moment(m, n, q), (m, q)
        for n in range(1, min(m, 20) + 1):
            assert exact.second_moment(m, (n,)) == exact_second_moment(m, n, (n,)), (m, n)

    def test_bunched_float_equals_oracle(self):
        for m in range(1, 120):
            for n in range(1, m + 1):
                assert exact.two_gamma(m, (n,)) == exact_two_gamma(m, n, (n,)), (m, n)

    def test_domain(self):
        for m, q in [(2, (1, 1, 1)), (4, (0, 2)), (6, (4, 3))]:
            with pytest.raises(DomainError):
                exact.two_gamma(m, q)


class TestMonteCarlo:
    @pytest.mark.parametrize("m,q", [(10, (2, 2)), (8, (3, 2)), (12, (2, 2, 1, 1))])
    def test_beyond_oracle_reach(self, m, q):
        rec = estimate_gamma_q(m, sum(q), q, 100_000, seed=51)
        assert abs(rec.two_gamma_q - exact.two_gamma(m, q)) <= 4 * rec.stderr


def _random_states(rng, d, count):
    z = rng.normal(size=(count, d)) + 1j * rng.normal(size=(count, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _coherent_states(rng, basis, n, count):
    """All n photons in one random mode superposition alpha: U|n, 0, ..., 0>."""
    alpha = rng.normal(size=(count, len(basis[0]))) + 1j * rng.normal(size=(count, len(basis[0])))
    alpha /= np.linalg.norm(alpha, axis=1, keepdims=True)
    occ = np.array(basis)
    coef = np.array([math.sqrt(math.factorial(n) / math.prod(map(math.factorial, o))) for o in basis])
    return coef * np.prod(alpha[:, None, :] ** occ[None, :, :], axis=2)


def _fock_state(basis, q):
    phi = np.zeros(len(basis))
    phi[basis.index(tuple(q.parts) + (0,) * (len(basis[0]) - len(q.parts)))] = 1.0
    return phi


ORACLE_CASES = [(3, 2), (4, 2), (6, 2), (3, 3), (4, 3), (5, 3), (4, 4)]  # d <= 35
NOT_ATTAINED = [(2, 2), (3, 2), (3, 3), (4, 4), (5, 5)]


class TestCasimirOracle:
    @pytest.mark.parametrize("m,n", ORACLE_CASES)
    def test_second_moment_every_pattern(self, m, n):
        basis, _ = casimir_components(m, n)
        for q in enumerate_patterns(m, n):
            want = float(casimir_second_moment(m, n, _fock_state(basis, q)))
            assert float(exact.second_moment(m, q)) == pytest.approx(want, rel=1e-12), q

    @pytest.mark.parametrize("m,n", ORACLE_CASES)
    def test_bound_covers_every_state(self, m, n):
        basis, _ = casimir_components(m, n)
        d = len(basis)
        bound, _, attained = exact.max_two_gamma(m, n)
        rng = np.random.default_rng(1)
        for kind, states in [("random", _random_states(rng, d, 200)),
                             ("coherent", _coherent_states(rng, basis, n, 200))]:
            values = 2 * d * d * casimir_second_moment(m, n, states)
            # coherent states are U|n, 0, ..., 0>, so they sit at B when it is
            # attained; 1e-12 covers the oracle's float rounding (~3e-15 here)
            assert values.max() <= bound * (1 + 1e-12), kind
            if kind == "coherent" and attained:
                assert values.min() == pytest.approx(bound, rel=1e-12)

    def test_state_above_every_pattern(self):
        # at (3, 2) the bound is not attained, and the pattern maximum (1-1,
        # 3.467) is not the maximum over states either
        basis, _ = casimir_components(3, 2)
        best_pattern = max(exact.two_gamma(3, q) for q in enumerate_patterns(3, 2))
        values = 2 * 6 * 6 * casimir_second_moment(3, 2, _random_states(np.random.default_rng(1), 6, 200))
        assert best_pattern == pytest.approx(52 / 15) and best_pattern < values.max() < 4.0

    @pytest.mark.parametrize("m,n", NOT_ATTAINED[:4] + [(4, 3)])
    def test_bound_from_oracle_components(self, m, n):
        basis, comps = casimir_components(m, n)
        d = len(basis)
        ones = casimir_weights(m, n, _fock_state(basis, PhotonPattern((1,) * n)))
        want = max(2 * d * d * ones[L] / comps[L].shape[1] for L in range(n % 2, n + 1, 2))
        assert exact.max_two_gamma(m, n)[0] == pytest.approx(want, rel=1e-12)


class TestGammaMax:
    def test_full_coverage(self):
        # at (6, 2) the bunched pattern attains B, so B is the maximum over all states
        value, L, attained = exact.max_two_gamma(6, 2)
        assert value == exact_two_gamma(6, 2, (2,)) and L == 2 and attained

    @pytest.mark.parametrize("m,n", NOT_ATTAINED)
    def test_bunched_conjecture_fails_at_small_m(self, m, n):
        value, L, attained = exact.max_two_gamma(m, n)
        assert not attained and L < n
        assert value > max(exact.two_gamma(m, q) for q in enumerate_patterns(m, n))

    def test_tie_takes_larger_L(self):
        # at (4, 3) the L = 1 and L = 3 terms are equal, so B is the bunched value
        assert exact.max_two_gamma(4, 3) == (exact.two_gamma(4, (3,)), 3, True)

    def test_above_every_pattern(self):
        for n in range(1, 13):
            for q in enumerate_patterns(n, n):
                for m in sorted({n, n + 1, 2 * n, 50, 10**6}):
                    assert exact.max_two_gamma(m, n)[0] >= exact.two_gamma(m, q), (m, q)

    def test_attained_is_bunched_bit_for_bit(self):
        grid = [(m, n) for m in range(1, 61) for n in range(1, m + 1)]
        grid += [(m, n) for n in (25, 100, 400) for m in (n, n + 7, 3 * n, n**2, 10**9, 10**18)]
        for m, n in grid:
            value, L, attained = exact.max_two_gamma(m, n)
            assert attained == ((m, n) not in NOT_ATTAINED), (m, n)
            if attained:
                assert L == n and value == exact.two_gamma(m, (n,)), (m, n)

    def test_ratio_walk_finds_argmax(self):
        for n in range(1, 41):
            for m in sorted({n, n + 1, n + 5, 2 * n, n**2, 10**6}):
                terms = {L: exact._ones_weight(n, L) / exact._two_row_dim(m, n + L, n - L)
                         for L in range(n % 2, n + 1, 2)}
                top = max(terms.values())
                assert exact.max_two_gamma(m, n)[1] == max(L for L, t in terms.items() if t == top)

    def test_large_m_limit(self):
        # B -> 2^(n+1) as m / n^2 grows
        for n in range(10, 41):
            value, _, attained = exact.max_two_gamma(10**18, n)
            assert attained and value / 2 ** (n + 1) == pytest.approx(1, abs=1e-6)

    def test_closed_form_ones_weights(self):
        for n in range(1, 21):
            walk = exact._spin_weights((1,) * n)
            assert walk == {L: exact._ones_weight(n, L) for L in range(n % 2, n + 1, 2)}, n

    def test_beyond_float_range(self):
        with pytest.raises(DomainError, match="exceeds float range"):
            exact.max_two_gamma(10**18, 1100)
