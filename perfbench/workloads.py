"""Workload definitions and the per-op correctness gate.

Each workload is a fixed round of ``qdl-lab`` invocations (shapes); a run
repeats whole rounds in a closed loop, one op at a time, and every op
gets its own seed drawn from the benchmark seed.  Shapes within a round
are sized so that the latency percentiles reported (the median and a
tail near p80) fall inside a group of shapes of similar cost, never in
the gap between two groups.

The gate checks every op against exact values that do not come from
the code path under test: the mean 1/d of every estimate, the closed
form 2*gamma where one exists (bunched patterns, n <= 3), and for the
simulator the success rate eta^n and the lossy-channel mutual
information.  Tolerances are statistical (``Z`` standard deviations of
the exact sampling distribution where it is known), so a correct change
of random streams still passes.  Published tables are never used: they
disagree with the exact moments by design.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, replace
from typing import Optional, Union

#: Gate width in standard deviations.  Several thousand ops are checked
#: per benchmark session, so the per-op false-alarm rate must be tiny.
Z = 7.0


@dataclass(frozen=True)
class Gamma:
    """``estimate gamma m n --pattern q --samples N``."""

    m: int
    n: int
    q: str
    samples: int

    @property
    def parts(self) -> tuple[int, ...]:
        return tuple(int(p) for p in self.q.split("-"))

    @property
    def work(self) -> int:
        return self.samples

    def warmup(self) -> "Gamma":
        return replace(self, samples=1000)  # the CLI's minimum

    def argv(self, seed: int, workers: int, cache_path: str) -> list[str]:
        return [
            "estimate", "gamma", str(self.m), str(self.n), "--pattern", self.q,
            "--samples", str(self.samples), "--seed", str(seed),
            "--workers", str(workers), "--cache", cache_path,
        ]


@dataclass(frozen=True)
class Sim:
    """``simulate m n --K K --eta eta --trials T``."""

    m: int
    n: int
    K: int
    eta: float
    trials: int

    @property
    def work(self) -> int:
        return self.trials

    def warmup(self) -> "Sim":
        return replace(self, trials=64)

    def argv(self, seed: int, workers: int, cache_path: str) -> list[str]:
        return [
            "simulate", str(self.m), str(self.n), "--K", str(self.K),
            "--eta", repr(self.eta), "--trials", str(self.trials),
            "--seed", str(seed), "--workers", str(workers),
        ]


Shape = Union[Gamma, Sim]


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str  # what one unit of work_per_s is
    workers: int
    trace_rounds: int  # rounds in the traced run (--trace 1)
    shapes: tuple[Shape, ...]


def _ones(k: int) -> str:
    return "-".join(["1"] * k)


WORKLOADS = {
    w.name: w
    for w in (
        # the permanent kernel at k = 8..10 does most of the work; 2-2-2-2
        # has repeated columns.  1-2 chunks per op: three ~0.65 s ops and
        # two ~0.3 s ops, so the median and tail fall inside the slow group.
        Workload("gamma_perm", "samples", 1, 3, (
            Gamma(20, 10, _ones(10), 4096),
            Gamma(16, 10, _ones(10), 4096),
            Gamma(16, 9, _ones(9), 8192),
            Gamma(16, 8, _ones(8), 8192),
            Gamma(16, 8, "2-2-2-2", 8192),
        )),
        # QR frame sampling does most of the work (k <= 3 permanents are
        # trivial, the bunched op skips them); 16 chunks so that the
        # chunksize=8 map gives both workers the same share.
        Workload("gamma_wide", "samples", 2, 3, (
            Gamma(100, 2, "1-1", 65536),
            Gamma(60, 3, "1-1-1", 65536),
            Gamma(250, 4, "4", 65536),
        )),
        # most trials miss the per-shard distribution cache, so rebuilding
        # output-distribution tables dominates
        Workload("sim_blind", "trials", 1, 16, (Sim(8, 3, 64, 0.8, 1024),)),
        # few distribution calls per trial: the per-trial loop, loss and
        # keyed decoding dominate
        Workload("sim_lossy", "trials", 1, 24, (Sim(4, 2, 16, 0.5, 20000),)),
    )
}


# ---------------------------------------------------------------- gate


def _rising(a: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= a + i
    return out


def bunched_moment(m: int, n: int, k: int) -> float:
    """E[X^k] for the bunched pattern: (n!)^k (k!)^n / (m)^(kn) (Dirichlet)."""
    num = math.factorial(n) ** k * math.factorial(k) ** n
    return num / _rising(m, k * n)


def _ratio_sigma(mu: tuple[float, float, float, float], samples: int) -> float:
    """Delta-method standard deviation of the sample ratio E[X^2]/E[X]^2."""
    m1, m2, m3, m4 = mu
    rel_var = (m4 - m2**2) / m2**2 + 4 * (m2 - m1**2) / m1**2 - 4 * (m3 - m1 * m2) / (m1 * m2)
    return (m2 / m1**2) * math.sqrt(max(rel_var, 0.0) / samples)


def _gamma_row(stdout: str) -> Optional[dict]:
    lines = [ln for ln in stdout.splitlines() if ln and not ln.startswith("#")]
    rows = [r for r in csv.DictReader(lines) if r.get("kind") == "two_gamma"]
    return rows[0] if len(rows) == 1 else None


def check_gamma(shape: Gamma, stdout: str, estimate, oracles) -> Optional[str]:
    """None if the op's output is correct, else the reason it is not."""
    row = _gamma_row(stdout)
    if row is None:
        return "expected exactly one two_gamma CSV row"
    try:
        echo = (int(row["m"]), int(row["n"]), row["q"], int(row["samples"]))
        two_gamma = float(row["value"])
    except (KeyError, TypeError, ValueError) as exc:
        return f"unreadable CSV row: {exc!r}"
    if echo != (shape.m, shape.n, shape.q, shape.samples):
        return f"CSV row {echo} does not echo the request"
    if estimate is None:
        return "mc.estimate_moments result was not captured"

    m, n, N = shape.m, shape.n, shape.samples
    bunched = len(shape.parts) == 1
    mu1 = float(oracles.exact_mean(m, n))
    exact_two_gamma = None
    if bunched or n <= 3:
        exact_two_gamma = oracles.exact_two_gamma(m, n, shape.parts)
    r_max = bunched_moment(m, n, 2) / mu1**2  # the conjectured maximiser

    # sample ratio is >= 1 by Cauchy-Schwarz; above the bunched value
    # by a factor 3 is no sampling fluctuation
    if not 2.0 * (1 - 1e-9) <= two_gamma <= 6.0 * r_max:
        return f"2gamma {two_gamma} outside [2, 3 * bunched 2gamma {2 * r_max:.4g}]"

    ratio = exact_two_gamma / 2 if exact_two_gamma is not None else min(two_gamma / 2, r_max)
    sd_mean = mu1 * math.sqrt(max(ratio - 1.0, 0.0) / N)
    if abs(estimate.mean - mu1) > Z * sd_mean:
        return f"mean {estimate.mean!r} vs exact 1/d {mu1!r} (tol {Z * sd_mean:.3g})"
    if abs(2.0 * estimate.ratio - two_gamma) > 1e-9 * two_gamma:
        return f"CSV 2gamma {two_gamma!r} differs from the estimate {2 * estimate.ratio!r}"

    if exact_two_gamma is None:
        return None
    # sd from the bunched pattern's exact moments, scaled to this pattern.
    # There are no exact 3rd/4th moments for other patterns, and the
    # estimate's own stderr is too small when a 1000-sample op misses the
    # heavy tail; the bunched pattern (the conjectured maximiser) spreads
    # wider than 1^n in every case measured.
    mu = tuple(bunched_moment(m, n, k) for k in (1, 2, 3, 4))
    sd = _ratio_sigma(mu, N) / r_max * exact_two_gamma
    if abs(two_gamma - exact_two_gamma) > Z * sd:
        return f"2gamma {two_gamma!r} vs exact {exact_two_gamma!r} (tol {Z * sd:.3g})"
    return None


_SIM_LINES = {
    "success": re.compile(r"^keyed_success_rate\s*=\s*(\S+)", re.M),
    "mi": re.compile(r"^keyed_mi_bits\s*=\s*(\S+)\s*\(plug-in bias <= (\S+)\)", re.M),
    "closed": re.compile(r"^closed_form_mi\s*=\s*(\S+)", re.M),
}


def _info_density_sd(m: int, n: int, eta: float) -> float:
    """Std. dev. of the keyed information density over a full codebook.

    After k of n photons survive, the received clicks leave C(m-k, n-k)
    compatible codewords, so i = log2(C(m, n) / C(m-k, n-k)) with k
    binomial(n, eta).
    """
    big = math.comb(m, n)
    pk = [math.comb(n, k) * eta**k * (1 - eta) ** (n - k) for k in range(n + 1)]
    info = [math.log2(big / math.comb(m - k, n - k)) for k in range(n + 1)]
    mean = sum(p * i for p, i in zip(pk, info))
    return math.sqrt(max(sum(p * i * i for p, i in zip(pk, info)) - mean**2, 0.0))


def check_sim(shape: Sim, stdout: str, oracles) -> Optional[str]:
    found = {k: rx.search(stdout) for k, rx in _SIM_LINES.items()}
    missing = [k for k, v in found.items() if v is None]
    if missing:
        return f"simulate output lacks {missing}"
    success = float(found["success"].group(1))
    mi, bias = float(found["mi"].group(1)), float(found["mi"].group(2))
    closed = float(found["closed"].group(1))
    m, n, eta, T = shape.m, shape.n, shape.eta, shape.trials

    p = eta**n
    sd = math.sqrt(p * (1 - p) / T)
    if abs(success - p) > Z * sd + 1e-6:
        return f"keyed_success_rate {success} vs eta^n {p:.6f} (tol {Z * sd:.3g})"

    exact_mi = oracles.lossy_mi_bruteforce(m, n, eta)
    if abs(closed - exact_mi) > 2e-6:  # printed to 6 decimals
        return f"closed_form_mi {closed} vs brute-force {exact_mi:.6f}"
    sd_mi = _info_density_sd(m, n, eta) / math.sqrt(T)
    if not exact_mi - Z * sd_mi - 1e-6 <= mi <= exact_mi + bias + Z * sd_mi + 1e-6:
        return (
            f"keyed_mi_bits {mi} vs closed form {exact_mi:.6f} "
            f"+ bias bound {bias:.3g} (tol {Z * sd_mi:.3g})"
        )
    return None
