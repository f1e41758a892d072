"""Command-line front end.

Commands: estimate, keysize, rate, simulate, tables, dim.  Machine
output is CSV (stdout or --out) with a version header line
``# qdl-lab v<semver> cmd=<name> seed=<seed>``; human diagnostics go to
stderr.  Every command honours --seed for byte-identical output across
runs and worker counts.  --seed, --out and --config are shared;
--workers is taken by estimate and simulate, and --samples by estimate.

Exit codes: 0 success, 2 usage error, 4 resource cap.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import math
import os
import secrets
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import __version__, bounds, cache, exact, mc, protocol, reference
from .errors import DomainError, ResourceError
from .fock import (
    PhotonPattern,
    count_patterns,
    dim_hilbert,
    enumerate_patterns,
    log2_dim_hilbert,
    log2_num_codewords,
    num_codewords,
)
from .mc import DEFAULT_C_SAMPLES, DEFAULT_GAMMA_SAMPLES
from .svg import line_chart

#: glibc's M_TRIM_THRESHOLD, set by main: free memory at the top of the heap
#: goes back to the kernel only beyond it.  Under glibc's defaults the
#: per-block temporaries of linop.output_distributions, _permanent_batch and
#: protocol._compatible went back after each block and were faulted in again
#: by the next.  On 2 vCPUs, 60-100 ops of a 1024-trial `simulate 8 3 --K 64
#: --eta 0.8` in one process took 4 800-5 200 minor page faults and 21-28 ms
#: of CPU per op under the defaults, and 1.1-1.9 faults and 13-17 ms with this.
TRIM_THRESHOLD = 64 << 20

#: glibc's M_MMAP_THRESHOLD, set by main: blocks below it come from the heap,
#: not from a fresh mapping; 32 MB is glibc's largest on 64-bit.  It pins a
#: threshold that glibc otherwise moves with each mapped block freed, so
#: which temporaries are mapped afresh does not depend on what ran before.
#: Alone it took 5 800 faults per op on the op above, as glibc then stops
#: raising the trim threshold too; with TRIM_THRESHOLD, 1.7.
MMAP_THRESHOLD = 32 << 20

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameter numbers, <malloc.h>

#: Largest n in the keysize --fig2 sweep, whose n-th row takes the exact log2 of
#: C(n^3, n) and C(n^3 + n - 1, n): on 2 vCPUs the sweep to n = 1 000 took 0.4 s,
#: to 2 000 2.8 s and to 3 000 9.2 s.
FIG2_N_MAX = 2000


@functools.cache
def _keep_freed_heap() -> bool:
    """Raise glibc's malloc thresholds so per-block temporaries reuse heap pages.

    True when glibc accepted both.  Without glibc's mallopt (macOS, musl,
    Windows) nothing changes.  Called by ``main`` only: the CLI owns its
    process, and library callers keep their allocator's settings.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return (
        mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
        and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1
    )


def _msg(text: str) -> None:
    print(text, file=sys.stderr)


def _resolve_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    seed = secrets.randbelow(2**63)
    _msg(f"seed={seed} (generated; pass --seed {seed} to reproduce)")
    return seed


def _resolve_workers(args: argparse.Namespace) -> int:
    if args.workers < 0:
        raise DomainError(f"need --workers >= 0 (0 = auto), got {args.workers}")
    if args.workers == 0:
        return os.cpu_count() or 1
    return args.workers


def _write_csv(
    out: Optional[str], cmd: str, seed: int, header: Sequence[str], rows: Sequence[Sequence]
) -> None:
    lines = [f"# qdl-lab v{__version__} cmd={cmd} seed={seed}"]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(str(v) for v in row))
    text = "\n".join(lines) + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)
        _msg(f"wrote {out}")


def _fmt(x: float) -> str:
    return repr(float(x))


def _chart(svg: Optional[str], out: Optional[str], series, x_label: str, y_label: str) -> None:
    """Write an SVG chart to ``svg``, or beside a file ``out`` with its stem."""
    if svg is None and out not in (None, "-"):
        svg = str(Path(out).with_suffix(".svg"))
    if svg:
        line_chart(series, svg, x_label=x_label, y_label=y_label)
        _msg(f"wrote {svg}")


_FLAG_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def _config_value(action: argparse.Action, value: str):
    """Type one config value the way its command-line option would be."""
    if action.nargs == 0:  # an on/off flag such as --fig2
        if value.lower() not in _FLAG_WORDS:
            raise ValueError(f"expected one of {', '.join(_FLAG_WORDS)}, got {value!r}")
        return _FLAG_WORDS[value.lower()]
    typed = action.type(value) if action.type is not None else value
    if action.choices is not None and typed not in action.choices:
        raise ValueError(f"invalid choice {value!r} (choose from {', '.join(action.choices)})")
    return typed


def _load_config_file(path: str, options: dict[str, argparse.Action]) -> dict:
    """Flat key=value config file, typed per option; flags override its entries."""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise DomainError(f"cannot read config file {path}: {exc.strerror}") from None
    overrides = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{path}:{lineno}"
        if "=" not in line:
            raise DomainError(f"{where}: config line is not key=value: {line!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in options:
            raise DomainError(
                f"{where}: unknown config key {key!r}; known keys: {', '.join(sorted(options))}"
            )
        try:
            overrides[key] = _config_value(options[key], value.strip())
        except ValueError as exc:
            raise DomainError(f"{where}: bad value for {key}: {exc}") from None
    return overrides


def _build_parser() -> tuple[
    argparse.ArgumentParser, dict[str, argparse.ArgumentParser], dict[str, argparse.Action]
]:
    """The parser, its subcommand parsers by name, and every option by dest."""
    options: dict[str, argparse.Action] = {}

    def opt(p, *names, **kwargs) -> None:
        action = p.add_argument(*names, **kwargs)
        options[action.dest] = action

    common = argparse.ArgumentParser(add_help=False)
    opt(common, "--seed", type=int, default=None, help="RNG seed (generated and printed if absent)")
    opt(common, "--out", default=None, help="output CSV path ('-' or absent = stdout)")
    common.add_argument("--config", default=None, help="flat key=value config file")
    workers = argparse.ArgumentParser(add_help=False)
    opt(workers, "--workers", type=int, default=1,
        help="estimate: threads, simulate: processes, at most the CPU count; 0 = auto")

    parser = argparse.ArgumentParser(prog="qdl-lab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"qdl-lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dim", parents=[common], help="space dimensions and pattern count")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)

    p = sub.add_parser("estimate", parents=[common, workers], help="Monte Carlo c_q / gamma_q estimation")
    p.add_argument("kind", choices=["c", "gamma"])
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    opt(p, "--samples", type=int, default=None, help="Monte Carlo sample count override")
    opt(p, "--pattern", default=None, help="dash-joined pattern, e.g. 2-1 (default: every pattern)")
    opt(p, "--cache", default="gamma_cache.csv", help="CSV record of Monte Carlo estimates, appended to")

    p = sub.add_parser("keysize", parents=[common], help="minimum pool size log2 K_epsilon")
    p.add_argument("m", type=int, nargs="?")
    p.add_argument("n", type=int, nargs="?")
    opt(p, "--xi", type=float, default=1.0)
    opt(p, "--eps", type=float, default=None)
    opt(p, "--nu", type=int, default=None, help="evaluate the nu-channel-use bound")
    opt(p, "--gamma-source", choices=["no-collision", "exact", "literal"], default="no-collision")
    opt(p, "--gamma", type=float, default=None, help="gamma value for --gamma-source literal")
    opt(p, "--fig2", action="store_true", help="sweep n with m = n^3 (a file --out also gets an SVG)")
    opt(p, "--s", type=float, default=0.5, help="epsilon = 2^(-n^s) exponent for --fig2")
    opt(p, "--n-max", type=int, default=40, help="largest n in the --fig2 sweep")

    p = sub.add_parser("rate", parents=[common], help="rate-loss trade-off from the certified maximum of gamma")
    opt(p, "--m", dest="m_list", default="10,20,30,40", help="comma-separated mode counts")
    opt(p, "--eta-start", type=float, default=0.5)
    opt(p, "--eta-stop", type=float, default=1.0)
    opt(p, "--eta-steps", type=int, default=26)
    opt(p, "--beta", type=float, default=1.0)
    opt(p, "--n-max", type=int, default=None)
    opt(p, "--svg", default=None, help="SVG chart path (default: derived from --out)")

    p = sub.add_parser("simulate", parents=[common, workers], help="end-to-end protocol simulation")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    opt(p, "--K", type=int, default=16)
    opt(p, "--xi", type=float, default=1.0)
    opt(p, "--eta", type=float, default=1.0)
    opt(p, "--trials", type=int, default=10_000)
    opt(p, "--transcript", default=None, help="write per-trial transcript CSV here")

    p = sub.add_parser("tables", parents=[common], help="exact values beside a published table")
    p.add_argument("which", choices=["I", "II", "III", "IV", "V"])

    return parser, sub.choices, options


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """One parser per process for argv without --config: parsing leaves it as
    it was, and building one per call cost 1.2 ms and left a cyclic garbage
    that piled up between collections (1.2 MB of RSS over repeated calls)."""
    return _build_parser()[0]


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """Parse argv; a --config file supplies defaults that flags override."""
    args = _shared_parser().parse_args(argv)
    if args.config is None:
        return args
    parser, commands, options = _build_parser()  # a fresh parser takes the defaults
    overrides = _load_config_file(args.config, options)
    for p in commands.values():
        p.set_defaults(**overrides)
    return parser.parse_args(argv)


def cmd_dim(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else 0
    m, n = args.m, args.n
    patterns = count_patterns(m, n)  # first: its cap refuses before d is built
    d = dim_hilbert(m, n)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit and d >= 10**limit:  # C <= d, so C prints whenever d does
        low = int((d.bit_length() - 1) * math.log10(2))  # 10**low <= d
        raise ResourceError(
            f"d has {low + 1 + (d >= 10 ** (low + 1))} decimal digits, over Python's "
            f"{limit}-digit limit for printing an integer; log2_d gives its size"
        )
    rows = [[
        m,
        n,
        d,
        _fmt(log2_dim_hilbert(m, n)),
        num_codewords(m, n) if n <= m else 0,
        _fmt(log2_num_codewords(m, n)) if n <= m else "",
        patterns,
    ]]
    _write_csv(args.out, "dim", seed, ["m", "n", "d", "log2_d", "C", "log2_C", "patterns"], rows)
    return 0


def _patterns_for(args: argparse.Namespace) -> list[PhotonPattern]:
    m, n = args.m, args.n
    if args.pattern is None:
        return enumerate_patterns(m, n)  # default to the full pattern set
    ones = "-".join(["1"] * n) if n <= 10 else f"1-1-...-1 ({n} ones)"
    valid = (
        f"valid patterns: non-increasing positive parts summing to n={n}, at most m={m} "
        f"of them, from {n} to {ones}"
    )
    try:
        q = PhotonPattern.from_label(args.pattern)
    except DomainError:
        raise DomainError(f"cannot parse pattern {args.pattern!r}; {valid}")
    if q.n != n or len(q.parts) > m:
        raise DomainError(f"{args.pattern!r} is not a pattern of (m, n) = ({m}, {n}); {valid}")
    return [q]


def cmd_estimate(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    workers = _resolve_workers(args)
    if args.n > args.m:
        raise DomainError(f"need n <= m, got ({args.m}, {args.n})")
    patterns = _patterns_for(args)
    samples = args.samples
    if samples is None:
        samples = DEFAULT_C_SAMPLES if args.kind == "c" else DEFAULT_GAMMA_SAMPLES
    if samples < mc.MIN_SAMPLES:
        raise DomainError(f"need --samples >= {mc.MIN_SAMPLES}, got {samples}")
    cache_rows = []
    for q in patterns:
        est = mc.estimate_moments(args.m, args.n, q, samples, seed, workers)
        row = lambda kind, value, stderr: cache.CacheRow(args.m, args.n, q, kind, value, stderr, samples, seed)
        if args.kind == "gamma":
            cache_rows.append(row("two_gamma", 2.0 * est.ratio, 2.0 * est.stderr_ratio))
        else:
            fac = q.norm_factor()
            cache_rows.append(row("c", est.mean, est.stderr_mean))
            cache_rows.append(row("raw_c", fac * est.mean, fac * est.stderr_mean))
    _write_csv(args.out, "estimate", seed, cache.HEADER, [r.as_csv_row() for r in cache_rows])
    cache.append_rows(args.cache, cache_rows)
    _msg(f"appended {len(cache_rows)} record(s) to {args.cache}")
    return 0


def _keysize_gamma(args: argparse.Namespace, m: int, n: int) -> tuple[float, float]:
    """Resolve (gamma, log2_c_min) from the requested source."""
    if args.gamma_source == "no-collision":
        log2_c_min, gamma = mc.no_collision_values(m, n)
        return gamma, log2_c_min
    log2_c_min = -log2_dim_hilbert(m, n)  # c_min = 1/d exactly: Sym^n is irreducible
    if args.gamma_source == "literal":
        if args.gamma is None:
            raise DomainError("--gamma-source literal requires --gamma")
        return args.gamma, log2_c_min
    gamma, L, attained = exact.max_two_gamma(m, n)
    what = "certified maximum over all states" if attained else f"upper bound, not attained; argmax L = {L}"
    _msg(f"gamma from exact: {gamma:.4g} ({what})")
    return gamma, log2_c_min


def cmd_keysize(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else 0
    if args.fig2:
        if args.n_max < 2:
            raise DomainError(f"--fig2 sweeps n from 2, so it needs --n-max >= 2, got {args.n_max}")
        if args.n_max > FIG2_N_MAX:
            raise ResourceError(f"--fig2 sweeps n up to at most {FIG2_N_MAX}, got --n-max {args.n_max}")
        reps = []
        for n in range(2, args.n_max + 1):
            m = n**3
            eps = args.eps if args.eps is not None else 2.0 ** (-(n**args.s))
            log2_c_min, gamma = mc.no_collision_values(m, n)
            reps.append(bounds.k_epsilon_single(
                m, n, xi=args.xi, epsilon=eps, gamma=gamma, log2_c_min=log2_c_min
            ))
        rows = [
            [r.n, r.m, _fmt(r.epsilon), _fmt(r.log2_M), _fmt(r.log2_K_epsilon), r.active_branch]
            for r in reps
        ]
        _write_csv(
            args.out, "keysize", seed, ["n", "m", "epsilon", "log2_M", "log2_K_epsilon", "branch"], rows
        )
        ns = [r.n for r in reps]
        series = [
            ("log2 M", ns, [r.log2_M for r in reps]),
            ("log2 K_eps", ns, [r.log2_K_epsilon for r in reps]),
        ]
        _chart(None, args.out, series, x_label="photon number n (m = n^3)", y_label="bits")
        return 0

    if args.m is None or args.n is None:
        raise DomainError("keysize requires positional m and n (or --fig2)")
    if args.eps is None:
        raise DomainError("keysize requires --eps")
    gamma, log2_c_min = _keysize_gamma(args, args.m, args.n)
    if args.nu is not None:
        rep = bounds.k_epsilon_multi(
            args.m, args.n, args.nu, args.xi, args.eps, gamma, log2_c_min=log2_c_min
        )
    else:
        rep = bounds.k_epsilon_single(
            args.m, args.n, xi=args.xi, epsilon=args.eps, gamma=gamma, log2_c_min=log2_c_min
        )
    print(f"log2_M          = {rep.log2_M:.3f}")
    print(f"log2_K_epsilon  = {rep.log2_K_epsilon:.3f}")
    print(f"active_branch   = {rep.active_branch}")
    print(f"margin_bits     = {rep.margin_bits:.3f}")
    if args.out:
        header = [
            "m", "n", "nu", "xi", "epsilon", "gamma", "log2_c_min",
            "log2_M", "log2_K_epsilon", "active_branch", "margin_bits",
        ]
        row = [
            rep.m, rep.n, rep.nu, _fmt(args.xi), _fmt(args.eps), _fmt(gamma), _fmt(rep.log2_c_min),
            _fmt(rep.log2_M), _fmt(rep.log2_K_epsilon), rep.active_branch, _fmt(rep.margin_bits),
        ]
        _write_csv(args.out, "keysize", seed, header, [row])
    return 0


def cmd_rate(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else 0
    try:
        m_list = [int(tok) for tok in args.m_list.split(",") if tok]
    except ValueError:
        raise DomainError(f"--m needs comma-separated integers, got {args.m_list!r}") from None
    if not m_list:
        raise DomainError("--m selects no mode count")
    if args.eta_steps < 2 or not (0.0 <= args.eta_start < args.eta_stop <= 1.0):
        raise DomainError("need 0 <= eta-start < eta-stop <= 1 and eta-steps >= 2")
    etas = [
        args.eta_start + i * (args.eta_stop - args.eta_start) / (args.eta_steps - 1)
        for i in range(args.eta_steps)
    ]
    bounds.check_rate_sweep(m_list, args.n_max, len(etas))
    rows = []
    series = []
    for m in m_list:
        curve = bounds.rate_loss_curve(m, etas, beta=args.beta, n_max=args.n_max)
        series.append((f"m={m}", [p.eta for p in curve], [p.rate_per_mode for p in curve]))
        for p in curve:
            rows.append([m, _fmt(p.eta), p.best_n, _fmt(p.rate_per_mode), _fmt(p.rate)])
    _write_csv(args.out, "rate", seed, ["m", "eta", "best_n", "rate_per_mode", "rate"], rows)
    _chart(args.svg, args.out, series, x_label="transmissivity eta", y_label="net bits per mode")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    workers = _resolve_workers(args)
    config = protocol.ProtocolConfig(
        m=args.m, n=args.n, K=args.K, xi=args.xi, eta=args.eta, trials=args.trials, seed=seed
    )
    summary = protocol.run_trials(config, workers=workers, collect_records=args.transcript is not None)
    closed_form = bounds.mutual_info_lossy(args.m, args.n, args.eta)
    print(f"keyed_success_rate = {summary.keyed_success_rate:.6f}")
    print(f"keyed_mi_bits      = {summary.keyed_mi_bits:.6f} (plug-in bias <= {summary.keyed_bias_bound:.2e})")
    print(f"blind_mi_bits      = {summary.blind_mi_bits:.6f}")
    print(f"closed_form_mi     = {closed_form:.6f}  (keyed deviation {summary.keyed_mi_bits - closed_form:+.4f})")
    if args.out:
        header = [
            "m", "n", "K", "M", "xi", "eta", "trials", "seed",
            "keyed_success_rate", "keyed_mi_bits", "blind_mi_bits", "closed_form_mi_bits",
        ]
        row = [
            summary.m, summary.n, summary.K, summary.M, _fmt(summary.xi), _fmt(summary.eta),
            summary.trials, summary.seed, _fmt(summary.keyed_success_rate),
            _fmt(summary.keyed_mi_bits), _fmt(summary.blind_mi_bits), _fmt(closed_form),
        ]
        _write_csv(args.out, "simulate", seed, header, [row])
    if args.transcript:
        header = ["trial", "x", "k", "clicks", "detected", "decoded", "ambiguity"]
        rows = [
            [
                r.trial,
                r.x,
                r.k,
                r.clicks,
                "-".join(str(v) for v in r.detected.occupations),
                "" if r.decoded is None else r.decoded,
                r.ambiguity,
            ]
            for r in summary.records
        ]
        _write_csv(args.transcript, "simulate-transcript", seed, header, rows)
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else 0
    table = reference.TABLE_I if args.which == "I" else reference.gamma_tables()[args.which]
    rows = []
    for (m, n), patterns in sorted(table.items()):
        for parts, published in patterns.items():
            q = PhotonPattern(parts)
            if args.which == "I":  # table I publishes the raw coefficient (prod q_j!) c_q, c_q = 1/d
                value = float(Fraction(q.norm_factor(), dim_hilbert(m, n)))
            else:
                value = exact.two_gamma(m, q)
            rows.append([m, n, q.label(), _fmt(value), _fmt(published), _fmt((published - value) / value)])
    _write_csv(args.out, "tables", seed, ["m", "n", "q", "exact", "published", "rel_gap"], rows)
    return 0


_HANDLERS = {
    "dim": cmd_dim,
    "estimate": cmd_estimate,
    "keysize": cmd_keysize,
    "rate": cmd_rate,
    "simulate": cmd_simulate,
    "tables": cmd_tables,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    _keep_freed_heap()
    try:
        args = _parse_args(argv)
        return _HANDLERS[args.command](args)
    except DomainError as exc:
        _msg(f"error: {exc}")
        return 2
    except ResourceError as exc:
        _msg(f"resource cap: {exc}")
        return 4


if __name__ == "__main__":
    sys.exit(main())
