import pytest

from oracles import exact_second_moment, exact_two_gamma
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


class TestGammaMax:
    def test_full_coverage(self):
        value, argmax, exhaustive = exact.max_two_gamma(6, 2)
        assert value == exact_two_gamma(6, 2, (2,)) and argmax == PhotonPattern((2,))
        assert exhaustive

    def test_conjecture_mode(self):
        n = exact.EXHAUSTIVE_N_MAX + 1
        value, argmax, exhaustive = exact.max_two_gamma(1000, n)
        assert value == exact.two_gamma(1000, (n,)) and argmax == PhotonPattern((n,))
        assert not exhaustive

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (3, 3), (4, 4)])
    def test_bunched_conjecture_fails_at_small_m(self, m, n):
        _, argmax, _ = exact.max_two_gamma(m, n)
        assert argmax == PhotonPattern((1,) * n)
