"""Closed-form key sizes, consumption rates, failure probabilities, and
lossy mutual information, all evaluated in log space.

The minimum pool size for security parameter epsilon is

    K_eps = max{ gamma * [ (256/eps^3) (d/M) ln(20/(eps c_min))
                           + (32/eps^2) ln M ],
                 (32/eps^2) (ln 2d)^2 / (M c_min) }

with d the n-photon space dimension and M the number of codewords in
use.  The first branch comes from the heavy-tail (Maurer) concentration
step, the second from the matrix Chernoff step; the report records which
one is active.  Everything is computed from log2 quantities so the
m = 8000, n = 20 regime (K ~ 2^127) never leaves floating point range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, ResourceError
from .fock import log2_dim_hilbert, log2_num_codewords
from .exact import max_two_gamma

LN2 = math.log(2.0)

#: Largest n at which the binomial weights C(n, k) of ``mutual_info_lossy``
#: fit a float; at 0 < eta < 1 a larger n raises DomainError.
LOSSY_N_MAX = 1029

#: Largest rate sweep in loss-sum terms (see ``check_rate_sweep``).  It keeps
#: n_top <= LOSSY_N_MAX; the costliest accepted sweep, one eta at n_top =
#: 1029, takes 6.4 s on a 2-vCPU host.
RATE_SWEEP_TERMS = 530_000


@dataclass(frozen=True)
class KeySizeReport:
    """log2 of the key-space size with branch diagnostics and input echo."""

    log2_M: float
    log2_K_epsilon: float
    active_branch: str  # "maurer" | "chernoff"
    gamma_used: float
    log2_c_min: float
    m: int
    n: int
    nu: int
    epsilon: float
    log2_d: float
    log2_maurer: float
    log2_chernoff: float

    @property
    def k_epsilon_int(self) -> Optional[int]:
        """ceil(K_eps) when it fits comfortably in exact float range."""
        if self.log2_K_epsilon < 52:
            return max(1, math.ceil(2.0**self.log2_K_epsilon))
        return None

    @property
    def margin_bits(self) -> float:
        """log2 M - log2 K_eps; positive when locking beats one-time pad."""
        return self.log2_M - self.log2_K_epsilon


def _resolve_log2_c_min(c_min: Optional[float], log2_c_min: Optional[float]) -> float:
    if log2_c_min is not None:
        if c_min is not None:
            raise DomainError("pass either c_min or log2_c_min, not both")
        return float(log2_c_min)
    if c_min is None:
        raise DomainError("one of c_min or log2_c_min is required")
    if not 0.0 < c_min <= 1.0:
        raise DomainError(f"need 0 < c_min <= 1, got {c_min}")
    return math.log2(c_min)


def _resolve_log2_M(
    m: int, n: int, M: Optional[float], xi: Optional[float], nu: int = 1
) -> float:
    """log2 M from M itself or from M = xi C^nu, which must be >= 1."""
    if M is not None:
        if xi is not None:
            raise DomainError("pass either M or xi, not both")
        if not M >= 1:
            raise DomainError(f"need M >= 1, got {M}")
        return math.log2(M)
    if xi is None:
        raise DomainError("one of M or xi is required")
    if not 0.0 < xi <= 1.0:
        raise DomainError(f"need 0 < xi <= 1, got {xi}")
    l2M = math.log2(xi) + nu * log2_num_codewords(m, n)
    if l2M < 0.0:
        raise DomainError(f"xi = {xi} leaves fewer than one codeword (log2 M = {l2M:.3f})")
    return l2M


def _k_epsilon(
    m: int, n: int, nu: int, l2M: float, l2c: float, eps: float, gamma: float, a: float, b: float
) -> KeySizeReport:
    """K_eps for nu channel uses, with heavy-tail constants ``a`` and ``b``.

    The bound evaluated is the module docstring's with d^nu, gamma^nu and
    c_min^nu, and ``a`` / ``b`` in place of 256 / 32 in the heavy-tail
    branch; ``l2M`` and ``l2c`` are log2 M and log2 c_min.
    """
    l2d = log2_dim_hilbert(m, n)
    ln_eps = math.log(eps)
    ln_M = l2M * LN2
    ln_c = l2c * LN2
    ln_d = l2d * LN2

    # ln(20 / (eps c_min^nu)) — already a log, safe as a plain float
    ln_inner = math.log(20.0) - ln_eps - nu * ln_c
    term_a = math.log(a) - 3.0 * ln_eps + nu * ln_d - ln_M + math.log(ln_inner)
    term_b = math.log(b) - 2.0 * ln_eps + math.log(ln_M) if ln_M > 0.0 else -math.inf
    ln_maurer = nu * math.log(gamma) + np.logaddexp(term_a, term_b)
    ln_chernoff = (
        math.log(32.0) - 2.0 * ln_eps + 2.0 * math.log(LN2 + nu * ln_d) - ln_M - nu * ln_c
    )
    ln_k = max(ln_maurer, ln_chernoff)
    return KeySizeReport(
        log2_M=l2M,
        log2_K_epsilon=ln_k / LN2,
        active_branch="maurer" if ln_maurer >= ln_chernoff else "chernoff",
        gamma_used=gamma,
        log2_c_min=l2c,
        m=m,
        n=n,
        nu=nu,
        epsilon=eps,
        log2_d=l2d,
        log2_maurer=ln_maurer / LN2,
        log2_chernoff=ln_chernoff / LN2,
    )


def k_epsilon_single(
    m: int,
    n: int,
    M: Optional[float] = None,
    *,
    xi: Optional[float] = None,
    epsilon: float,
    gamma: float,
    c_min: Optional[float] = None,
    log2_c_min: Optional[float] = None,
) -> KeySizeReport:
    """Minimum scrambling-pool size for one channel use.

    ``M`` may be given directly (any real >= 1) or via the code-space
    fraction ``xi``.  ``gamma`` is the concentration ratio in the tables'
    doubled convention; ``c_min`` may be supplied in log2 form for the
    regimes where it underflows.
    """
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"need 0 < epsilon < 1, got {epsilon}")
    if not 1.0 <= gamma < math.inf:
        raise DomainError(f"need finite gamma >= 1, got {gamma}")
    l2c = _resolve_log2_c_min(c_min, log2_c_min)
    l2M = _resolve_log2_M(m, n, M, xi)
    return _k_epsilon(m, n, 1, l2M, l2c, epsilon, gamma, 256.0, 32.0)


def k_epsilon_multi(
    m: int,
    n: int,
    nu: int,
    xi: float,
    epsilon: float,
    gamma: float,
    c_min: Optional[float] = None,
    log2_c_min: Optional[float] = None,
) -> KeySizeReport:
    """Pool size for nu channel uses with local unitaries.

    Same structure as the single-use bound with M = xi C^nu, d^nu,
    gamma^nu, c_min^nu and the printed constants 512 and 64 in the
    heavy-tail branch.
    """
    if nu < 1:
        raise DomainError(f"need nu >= 1, got {nu}")
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"need 0 < epsilon < 1, got {epsilon}")
    if not 1.0 <= gamma < math.inf:
        raise DomainError(f"need finite gamma >= 1, got {gamma}")
    l2c = _resolve_log2_c_min(c_min, log2_c_min)
    l2M = _resolve_log2_M(m, n, None, xi, nu)
    return _k_epsilon(m, n, nu, l2M, l2c, epsilon, gamma, 512.0, 64.0)


def key_consumption_rate(
    gamma: float,
    m: int,
    n: int,
    c_min: Optional[float] = None,
    log2_c_min: Optional[float] = None,
) -> float:
    """Asymptotic secret-key consumption in bits per channel use:

        k = max{ log2 gamma + log2(d/C), log2(1 / (C c_min)) }.
    """
    if not 1.0 <= gamma < math.inf:
        raise DomainError(f"need finite gamma >= 1, got {gamma}")
    l2c = _resolve_log2_c_min(c_min, log2_c_min)
    l2d = log2_dim_hilbert(m, n)
    l2C = log2_num_codewords(m, n)
    return max(math.log2(gamma) + l2d - l2C, -l2C - l2c)


def mutual_info_lossy(m: int, n: int, eta: float) -> float:
    """I(X;Y|key) in bits through a transmissivity-eta loss channel.

    Each photon survives independently with probability eta; a receiver
    who knows the key photo-detects the surviving subset, which is
    compatible with binomial(m-k, n-k) codewords after k clicks.
    """
    if not 0.0 <= eta <= 1.0:
        raise DomainError(f"need 0 <= eta <= 1, got {eta}")
    if n > m:
        raise DomainError(f"need n <= m, got ({m}, {n})")
    l2C = log2_num_codewords(m, n)
    if eta == 1.0:
        return l2C
    if eta == 0.0:
        return 0.0
    if n > LOSSY_N_MAX:
        raise DomainError(f"need n <= {LOSSY_N_MAX} at 0 < eta < 1, got n = {n}")
    acc, c = 0.0, 1
    for k in range(n - 1, -1, -1):  # the k = n term is log2 C(m-n, 0) = 0
        c = c * (m - k) // (n - k)  # exact C(m-k, n-k) = C(m-k-1, n-k-1) (m-k) / (n-k)
        pmf = math.comb(n, k) * eta**k * (1.0 - eta) ** (n - k)
        acc += pmf * math.log2(c)
    return l2C - acc


@dataclass(frozen=True)
class RatePoint:
    eta: float
    best_n: int
    rate_per_mode: float
    rate: float


def check_rate_sweep(m_list: Sequence[int], n_max: Optional[int], steps: int) -> None:
    """Refuse a rate sweep whose loss sums exceed ``RATE_SWEEP_TERMS`` terms.

    Each (m, n, eta) point sums n terms, so a sweep costs about
    ``steps * n_top^2 / 2`` per mode count, with ``n_top = min(n_max, m)``.
    """
    terms = 0
    for m in m_list:
        top = max(0, m if n_max is None else min(n_max, m))
        terms += steps * top * (top + 1) // 2
    if terms > RATE_SWEEP_TERMS:
        raise ResourceError(
            f"rate sweep needs {terms} loss terms, above the cap of {RATE_SWEEP_TERMS}; "
            "lower --n-max, --eta-steps or the mode counts"
        )


def rate_loss_curve(
    m: int,
    eta_grid: Sequence[float],
    beta: float = 1.0,
    n_max: Optional[int] = None,
) -> list[RatePoint]:
    """Loss-rate trade-off: maximise the net rate over n at each eta.

    gamma is ``exact.max_two_gamma``, the certified maximum of 2*gamma over
    every state (an upper bound at the few small m where it is not
    attained); n = 1 uses the single-photon value 2.  c_min is the exact
    1/d: Sym^n is irreducible, so E[X_phi] = 1/d for every unit phi.
    """
    if m < 1:
        raise DomainError(f"need m >= 1, got {m}")
    if n_max is not None and n_max < 1:
        raise DomainError(f"need n_max >= 1, got {n_max}")
    if not 0.0 <= beta <= 1.0:
        raise DomainError(f"need 0 <= beta <= 1, got {beta}")
    check_rate_sweep([m], n_max, len(eta_grid))
    candidates = range(1, (m if n_max is None else min(n_max, m)) + 1)
    consumption = {
        n: key_consumption_rate(
            2.0 if n == 1 else max_two_gamma(m, n)[0], m, n, log2_c_min=-log2_dim_hilbert(m, n)
        )
        for n in candidates
    }
    out: list[RatePoint] = []
    for eta in eta_grid:
        best_n, best_r = None, -math.inf
        for n in candidates:
            r = beta * mutual_info_lossy(m, n, eta) - consumption[n]
            if r > best_r:
                best_n, best_r = n, r
        out.append(RatePoint(eta=float(eta), best_n=best_n, rate_per_mode=best_r / m, rate=best_r))
    return out


def failure_prob_bounds(
    K: float,
    M: float,
    d: float,
    epsilon: float,
    c_min: Optional[float] = None,
    gamma: float = 2.0,
    log2_c_min: Optional[float] = None,
) -> tuple[float, float]:
    """(ln p1, ln p2) bounds on the two bad events of the construction:

        ln p1 <= ln(2d) - (eps/4) sqrt(M K c_min / 2)
        ln p2 <= 2d ln(20/(eps c_min)) + (eps M / 4) ln M
                 - K M eps^3 / (128 gamma)

    Values may be positive (vacuous) for small K.
    """
    if K < 1 or M < 1 or d < 1:
        raise DomainError("need K, M, d >= 1")
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"need 0 < epsilon < 1, got {epsilon}")
    if not 1.0 <= gamma < math.inf:
        raise DomainError(f"need finite gamma >= 1, got {gamma}")
    l2c = _resolve_log2_c_min(c_min, log2_c_min)
    ln_c = l2c * LN2
    half_log = 0.5 * (math.log(M) + math.log(K) + ln_c - math.log(2.0))
    ln_p1 = math.log(2.0 * d) - (epsilon / 4.0) * math.exp(half_log)
    ln_inner = math.log(20.0) - math.log(epsilon) - ln_c
    ln_p2 = (
        2.0 * d * ln_inner
        + (epsilon * M / 4.0) * math.log(M)
        - K * M * epsilon**3 / (128.0 * gamma)
    )
    return ln_p1, ln_p2
