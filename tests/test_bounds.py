import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import exact_two_gamma, lossy_mi_bruteforce
from qdl_lab.bounds import (
    check_rate_sweep,
    failure_prob_bounds,
    k_epsilon_multi,
    k_epsilon_single,
    key_consumption_rate,
    mutual_info_lossy,
    rate_loss_curve,
)
from qdl_lab.errors import DomainError, ResourceError
from qdl_lab.fock import dim_hilbert, log2_dim_hilbert, log2_num_codewords, num_codewords
from qdl_lab.mc import no_collision_values

LN2 = math.log(2.0)


class TestKeySizeSingle:
    def test_worked_example(self):
        log2_c_min, gamma = no_collision_values(8000, 20)
        rep = k_epsilon_single(8000, 20, xi=0.01, epsilon=1e-10, gamma=gamma, log2_c_min=log2_c_min)
        assert gamma == 42.0
        assert rep.log2_M == pytest.approx(192, abs=1)
        assert rep.log2_K_epsilon == pytest.approx(127, abs=1)
        assert rep.active_branch == "maurer"

    def test_single_photon_regime(self):
        log2_c_min, gamma = no_collision_values(64, 1)
        rep = k_epsilon_single(64, 1, xi=1.0, epsilon=1e-3, gamma=gamma, log2_c_min=log2_c_min)
        assert gamma == 2.0
        assert rep.log2_M == pytest.approx(6.0)
        assert rep.log2_K_epsilon > 0

    def test_monotone_in_epsilon(self):
        prev = None
        for eps in [0.5, 0.1, 1e-2, 1e-4, 1e-8, 1e-12][:-1]:
            rep = k_epsilon_single(6, 2, M=10, epsilon=eps, gamma=4.0, c_min=1 / 21)
            if prev is not None:
                assert rep.log2_K_epsilon >= prev
            prev = rep.log2_K_epsilon

    def test_exact_vs_log_space(self):
        # at small parameters the bound fits comfortably in float64, so the
        # log-space evaluation must match the direct formula to 1e-9
        m, n, M, eps, gamma, c_min = 6, 2, 10, 0.1, 4.667, 1 / 21
        d = dim_hilbert(m, n)
        direct = max(
            gamma * ((256 / eps**3) * (d / M) * math.log(20 / (eps * c_min)) + (32 / eps**2) * math.log(M)),
            (32 / eps**2) * math.log(2 * d) ** 2 / (M * c_min),
        )
        rep = k_epsilon_single(m, n, M=M, epsilon=eps, gamma=gamma, c_min=c_min)
        assert rep.log2_K_epsilon == pytest.approx(math.log2(direct), rel=1e-9)

    def test_branch_report_consistent(self):
        rep = k_epsilon_single(6, 2, M=10, epsilon=0.1, gamma=4.0, c_min=1 / 21)
        recomputed = max(rep.log2_maurer, rep.log2_chernoff)
        assert rep.log2_K_epsilon == recomputed
        assert rep.active_branch == ("maurer" if rep.log2_maurer >= rep.log2_chernoff else "chernoff")

    @given(
        st.integers(2, 12),
        st.integers(1, 4),
        st.floats(1e-6, 0.9),
        st.floats(1.0, 50.0),
    )
    def test_branch_consistency_random(self, m, n, eps, gamma):
        if n > m:
            return
        rep = k_epsilon_single(m, n, xi=1.0, epsilon=eps, gamma=gamma, log2_c_min=-log2_dim_hilbert(m, n))
        assert rep.log2_K_epsilon == max(rep.log2_maurer, rep.log2_chernoff)

    def test_appendix_condition_regrouping(self):
        # the heavy-tail branch is exactly 128*gamma*[ (2/eps^3)(d/M)L + ln(M)/(4 eps^2) ]
        m, n, M, eps, gamma, c_min = 8, 3, 20, 0.2, 5.0, 1 / dim_hilbert(8, 3)
        d = dim_hilbert(m, n)
        L = math.log(20 / (eps * c_min))
        condition = 128 * gamma * ((2 / eps**3) * (d / M) * L + math.log(M) / (4 * eps**2))
        rep = k_epsilon_single(m, n, M=M, epsilon=eps, gamma=gamma, c_min=c_min)
        assert rep.log2_maurer == pytest.approx(math.log2(condition), rel=1e-12)

    def test_k_epsilon_int(self):
        rep = k_epsilon_single(6, 2, M=10, epsilon=0.1, gamma=4.667, c_min=1 / 21)
        k = rep.k_epsilon_int
        assert k is not None and k == math.ceil(2**rep.log2_K_epsilon)
        huge = k_epsilon_single(8000, 20, xi=0.01, epsilon=1e-10, gamma=42.0,
                                log2_c_min=-198.27)
        assert huge.k_epsilon_int is None

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            k_epsilon_single(6, 2, M=10, epsilon=1.5, gamma=4.0, c_min=1 / 21)
        with pytest.raises(DomainError):
            k_epsilon_single(6, 2, M=10, epsilon=0.1, gamma=0.5, c_min=1 / 21)
        with pytest.raises(DomainError):
            k_epsilon_single(6, 2, epsilon=0.1, gamma=4.0, c_min=1 / 21)  # no M or xi
        for gamma in (math.nan, math.inf):
            with pytest.raises(DomainError):
                k_epsilon_single(6, 2, M=10, epsilon=0.1, gamma=gamma, c_min=1 / 21)
            with pytest.raises(DomainError):
                k_epsilon_multi(6, 2, 2, 0.5, 0.1, gamma, c_min=1 / 21)
        with pytest.raises(DomainError):
            k_epsilon_single(10, 3, xi=1e-300, epsilon=0.1, gamma=4.0, c_min=1 / 21)  # xi C < 1
        with pytest.raises(DomainError):
            k_epsilon_multi(10, 3, 2, 1e-300, 0.1, 4.0, c_min=1 / 21)  # xi C^2 < 1


class TestKeySizeMulti:
    def test_nu1_vs_single_constants(self):
        # at nu = 1 only the printed constants differ (512 vs 256, 64 vs 32),
        # i.e. the heavy-tail branch doubles and the Chernoff branch matches
        m, n, xi, eps, gamma = 6, 2, 0.5, 0.05, 4.0
        l2c = -log2_dim_hilbert(m, n)
        single = k_epsilon_single(m, n, xi=xi, epsilon=eps, gamma=gamma, log2_c_min=l2c)
        multi = k_epsilon_multi(m, n, 1, xi, eps, gamma, log2_c_min=l2c)
        assert multi.log2_maurer == pytest.approx(single.log2_maurer + 1.0, rel=1e-12)
        assert multi.log2_chernoff == pytest.approx(single.log2_chernoff, rel=1e-12)

    def test_rate_limit_matches_consumption(self):
        m, n, gamma = 30, 10, 111.5
        l2c = -log2_dim_hilbert(m, n)
        k = key_consumption_rate(gamma, m, n, log2_c_min=l2c)
        nu = 10**6
        rep = k_epsilon_multi(m, n, nu, 0.01, 1e-8, gamma, log2_c_min=l2c)
        assert rep.log2_K_epsilon / nu == pytest.approx(k, abs=1e-3)

    def test_affine_scaling(self):
        # log2 K(nu) = nu*k + log2(nu) + const + o(1), so the doubling gap
        # minus nu*k converges to exactly 1 bit
        m, n, gamma = 10, 3, 7.0
        l2c = -log2_dim_hilbert(m, n)
        k = key_consumption_rate(gamma, m, n, log2_c_min=l2c)
        gaps = []
        for nu in (10_000, 20_000, 40_000):
            a = k_epsilon_multi(m, n, nu, 0.1, 1e-6, gamma, log2_c_min=l2c)
            b = k_epsilon_multi(m, n, 2 * nu, 0.1, 1e-6, gamma, log2_c_min=l2c)
            gaps.append(b.log2_K_epsilon - a.log2_K_epsilon - nu * k)
        assert abs(gaps[2] - 1.0) < abs(gaps[1] - 1.0) < abs(gaps[0] - 1.0)
        assert gaps[2] == pytest.approx(1.0, abs=1e-3)


class TestConsumptionRate:
    def test_worked_example_30_10(self):
        l2c = -log2_dim_hilbert(30, 10)
        assert log2_num_codewords(30, 10) == pytest.approx(24.84, abs=0.05)
        k = key_consumption_rate(111.5, 30, 10, log2_c_min=l2c)
        assert k == pytest.approx(11.2, abs=0.1)

    def test_branch_order_with_conjectured_c(self):
        # with c_min = 1/d the Chernoff branch log2(d/C) can never win
        for m, n in [(6, 2), (10, 3), (30, 10)]:
            l2c = -log2_dim_hilbert(m, n)
            k_low = key_consumption_rate(1.0, m, n, log2_c_min=l2c)
            k_high = key_consumption_rate(50.0, m, n, log2_c_min=l2c)
            assert k_high > k_low
            assert k_low == pytest.approx(
                math.log2(dim_hilbert(m, n)) - math.log2(num_codewords(m, n)), rel=1e-9
            )


class TestLossyMutualInfo:
    def test_closed_form_4_2_half(self):
        val = mutual_info_lossy(4, 2, 0.5)
        assert val == pytest.approx(0.75 * math.log2(6) - 0.5 * math.log2(3), rel=1e-12)
        assert val == pytest.approx(1.1462, abs=1e-4)

    def test_eta_one_exact(self):
        assert mutual_info_lossy(4, 2, 1.0) == math.log2(6)
        assert mutual_info_lossy(30, 10, 1.0) == pytest.approx(24.8406, abs=1e-3)

    def test_eta_zero_exact(self):
        assert mutual_info_lossy(9, 4, 0.0) == 0.0

    @pytest.mark.parametrize("m,n,eta", [(4, 2, 0.5), (5, 2, 0.3), (6, 3, 0.7), (5, 4, 0.9)])
    def test_against_bruteforce_channel(self, m, n, eta):
        assert mutual_info_lossy(m, n, eta) == pytest.approx(
            lossy_mi_bruteforce(m, n, eta), abs=1e-12
        )

    @pytest.mark.parametrize("m,n", [(4, 2), (8, 3), (12, 5)])
    def test_monotone_in_eta(self, m, n):
        grid = np.linspace(0, 1, 101)
        vals = [mutual_info_lossy(m, n, e) for e in grid]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            mutual_info_lossy(4, 2, 1.2)
        with pytest.raises(DomainError):
            mutual_info_lossy(2, 4, 0.5)

    def test_weights_past_float_range(self):
        # C(1030, k) overflows a float; the weights are taken in log space.
        # Reference: the exact rational sum of C(n, k) 2^-n log2 C(m-k, n-k)
        m, n = 2000, 1030
        acc = math.fsum(
            float(Fraction(math.comb(n, k), 2**n)) * math.log2(math.comb(m - k, n - k))
            for k in range(n + 1)
        )
        want = math.log2(math.comb(m, n)) - acc
        assert mutual_info_lossy(m, n, 0.5) == pytest.approx(want, rel=1e-12)


class TestNetRate:
    """Net rates beta * I - k, as rate_loss_curve maximises them over n."""

    def test_beta_zero(self):
        # with no information credit the best n is the one whose key is cheapest
        def k(n):
            gamma = 2.0 if n == 1 else exact_two_gamma(10, n, (n,))
            return key_consumption_rate(gamma, 10, n, log2_c_min=-log2_dim_hilbert(10, n))

        (p,) = rate_loss_curve(10, [0.8], beta=0.0, n_max=3)
        assert p.rate == -min(k(n) for n in (1, 2, 3)) <= 0

    def test_monotone_in_eta(self):
        vals = [p.rate for p in rate_loss_curve(8, np.linspace(0, 1, 21), n_max=3)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestRateLossCurve:
    def test_shape_with_exact_gammas(self):
        curve = rate_loss_curve(10, [0.6, 0.8, 1.0])
        assert [p.eta for p in curve] == [0.6, 0.8, 1.0]
        best = {p.eta: p.best_n for p in curve}
        assert best[1.0] >= best[0.6]
        assert all(p.rate == pytest.approx(p.rate_per_mode * 10) for p in curve)

    def test_rate_uses_exact_bunched_gamma(self):
        # at eta = 1 the net rate of the winning n is log2 C minus its consumption
        (point,) = rate_loss_curve(30, [1.0])
        n = point.best_n
        gamma = exact_two_gamma(30, n, (n,))
        k = key_consumption_rate(gamma, 30, n, log2_c_min=-log2_dim_hilbert(30, n))
        assert point.rate == log2_num_codewords(30, n) - k

    def test_rate_is_net_of_consumption(self):
        # each point's rate is beta * I(eta) - k at its best n, k from the certified maximum gamma
        beta = 0.8
        for p in rate_loss_curve(12, [0.5, 0.9], beta=beta, n_max=6):
            n = p.best_n
            gamma = 2.0 if n == 1 else exact_two_gamma(12, n, (n,))
            k = key_consumption_rate(gamma, 12, n, log2_c_min=-log2_dim_hilbert(12, n))
            assert p.rate == beta * mutual_info_lossy(12, n, p.eta) - k

    def test_sweep_cap(self):
        # n = 1029 at one eta is the largest sweep admitted
        check_rate_sweep([1029], None, 1)
        assert math.isfinite(mutual_info_lossy(2000, 1029, 0.5))
        for m_list, n_max, steps in [([1030], None, 1), ([2000], None, 2), ([10, 10**6], 300, 26)]:
            with pytest.raises(ResourceError):
                check_rate_sweep(m_list, n_max, steps)
        start = time.perf_counter()
        with pytest.raises(ResourceError):
            rate_loss_curve(10**6, [0.9, 1.0])
        assert time.perf_counter() - start < 1.0


class TestFailureProbs:
    def test_monotone_decreasing_in_K(self):
        prev = (math.inf, math.inf)
        for K in np.geomspace(1e4, 1e8, 10):
            p1, p2 = failure_prob_bounds(K, 10, 21, 0.1, c_min=1 / 21, gamma=4.667)
            assert p1 < prev[0] and p2 < prev[1]
            prev = (p1, p2)

    def test_combined_below_one_at_k_epsilon(self):
        rep = k_epsilon_single(6, 2, M=10, epsilon=0.1, gamma=4.667, c_min=1 / 21)
        p1, p2 = failure_prob_bounds(rep.k_epsilon_int, 10, 21, 0.1, c_min=1 / 21, gamma=4.667)
        assert math.exp(p1) + math.exp(p2) < 1.0

    def test_vacuous_epsilon_limit(self):
        d = 21
        p1, _ = failure_prob_bounds(10**6, 10, d, 1e-12, c_min=1 / 21, gamma=4.667)
        assert p1 == pytest.approx(math.log(2 * d), rel=1e-3)
