"""qdl-lab benchmark: seeded closed-loop workloads through ``qdl_lab.cli.main``.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload gamma_perm --seed 1 --seconds 28 --trace 0

One client issues one ``qdl-lab`` command at a time, in-process, and the
next starts when the last returns.  ``--trace 0`` reports the end-to-end
metrics over ``--seconds`` of ops; ``--trace 1`` patches spans around
each layer (see tracer.py) over a fixed number of rounds and reports the
per-layer metrics.  Every op passes the correctness gate
in workloads.py or counts as failed.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os

# One BLAS thread per process, before numpy is imported anywhere: OpenBLAS
# would otherwise start one thread per core in every pool worker.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Layer, Tracer  # noqa: E402
from workloads import WORKLOADS, Gamma, check_gamma, check_sim  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".perfbench_run"
SETUP_PROBES = 5  # child set-ups per run, on top of the run's own

CLI = 0  # index of the cli.main layer below
LAYERS = (
    Layer("cli.main", ()),
    Layer("mc.estimate_moments", (("mc", "estimate_moments"),), lambda r: r.samples),
    Layer("linop.stiefel_batch", (("mc", "stiefel_batch"), ("linop", "stiefel_batch")), len),
    Layer("linop.permanent_batch", (("mc", "_permanent_batch"), ("linop", "_permanent_batch")), len),
    Layer("linop.output_distribution", (("protocol", "output_distribution"), ("linop", "output_distribution"))),
    Layer("fock.enumerate_basis", (("linop", "enumerate_basis"), ("fock", "enumerate_basis"))),
    Layer("protocol.run_trials", (("protocol", "run_trials"),), lambda r: r.trials),
    Layer("protocol.decode_with_key", (("protocol", "decode_with_key"),)),
    Layer("protocol.gen_unitary_pool", (("protocol", "gen_unitary_pool"),)),
    Layer("fock.sample_codebook", (("protocol", "sample_codebook"), ("fock", "sample_codebook"))),
    Layer("bounds.mutual_info_lossy", (("bounds", "mutual_info_lossy"),)),
    Layer("cache.append_rows", (("cache", "append_rows"),)),
)

def fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import qdl_lab from the checkout's src/ and the exact test oracles."""
    if not (ROOT / "src" / "qdl_lab" / "cli.py").is_file():
        fail_setup(f"no src/qdl_lab/cli.py under {ROOT}; run from a qdl-lab checkout")
    oracle_path = ROOT / "tests" / "oracles.py"
    if not oracle_path.is_file():
        fail_setup(f"no exact oracles at {oracle_path}")
    sys.path.insert(0, str(ROOT / "src"))
    import qdl_lab
    import qdl_lab.cli

    spec = importlib.util.spec_from_file_location("qdl_oracles", oracle_path)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return qdl_lab, oracles


@dataclass
class OpResult:
    seconds: float
    output: str  # stdout, or the --out file when one was given
    error: str | None  # None when the op passed the gate


@dataclass
class Runner:
    """Issues ops through cli.main and applies the correctness gate."""

    package: object
    oracles: object
    workdir: Path
    tracer: Tracer | None = None
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    _captured: list = field(default_factory=list)

    def __post_init__(self) -> None:
        # keep each estimate_moments result so the gate can check its mean,
        # which the gamma CSV does not print (one extra call frame per op)
        mc = self.package.mc
        original = getattr(mc, "estimate_moments", None)
        if callable(original):
            def capture(*args, **kwargs):
                result = original(*args, **kwargs)
                self._captured.append(result)
                return result

            mc.estimate_moments = capture

    def run(self, shape, seed: int, workers: int, out: str | None = None) -> OpResult:
        argv = shape.argv(seed, workers, str(self.workdir / "gamma_cache.csv"))
        if out is not None:
            argv += ["--out", out]
        main = self.package.cli.main
        self._captured.clear()
        stdout, stderr = io.StringIO(), io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                if self.tracer is None:
                    code = main(argv)
                else:
                    code = self.tracer.call(CLI, main, argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an op that raises is a failed op, not a crash
            code, error = None, f"raised {exc!r}"
        seconds = time.perf_counter() - start
        text = stdout.getvalue()
        if error is None and code != 0:
            error = f"exit code {code}: {stderr.getvalue().strip()[-200:]}"
        if error is None and out is not None:
            text = Path(out).read_text() if Path(out).is_file() else ""
        if error is None:
            error = self.check(shape, text)
        self.record(" ".join(argv), error)
        return OpResult(seconds, text, error)

    def check(self, shape, stdout: str) -> str | None:
        try:
            if isinstance(shape, Gamma):
                est = self._captured[-1] if len(self._captured) == 1 else None
                return check_gamma(shape, stdout, est, self.oracles)
            return check_sim(shape, stdout, self.oracles)
        except Exception as exc:  # a gate that cannot read the output fails the op
            return f"gate raised {exc!r}"

    def record(self, what: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{what}: {error}")


def op_plan(workload, seed: int):
    """Endless (round, shape, op seed) stream; the benchmark seed fixes all of it."""
    rng = random.Random(seed)
    shapes = list(workload.shapes)
    round_idx = 0
    while True:
        start = rng.randrange(len(shapes))
        for shape in shapes[start:] + shapes[:start]:
            yield round_idx, shape, rng.randrange(1, 2**31)
        round_idx += 1


def closed_loop(plan, step, stop) -> list:
    """Whole rounds of ``step(op_index, shape, seed)`` until ``stop(rounds, seconds)``.

    ``stop`` is asked after each round with the rounds done and the seconds
    passed.  Returns [(round, shape, seed, step result)].
    """
    done = []
    start = time.perf_counter()
    for round_idx, shape, seed in plan:
        if done and done[-1][0] != round_idx and stop(round_idx, time.perf_counter() - start):
            break
        done.append((round_idx, shape, seed, step(len(done), shape, seed)))
    return done


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 ops beyond it.

    With 10 ops or fewer no percentile qualifies, and the maximum is returned.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def blas_info() -> str:
    """BLAS name, version and the thread count the loaded library reports."""
    import ctypes

    import numpy as np

    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{cfg.get('name')} {cfg.get('version')}"
    except (TypeError, KeyError, AttributeError):
        name = "unknown"
    threads = "unknown"
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    except OSError:
        libs = []
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = str(fn())
                break
    return f"blas={name!r} blas_threads={threads}"


def warm_up(runner: Runner, workload, seed: int) -> None:
    """One small op per shape, so every (m, n) is set up before timing starts."""
    for shape in workload.shapes:
        runner.run(shape.warmup(), seed, workload.workers)


def setup_probe(workload, seed: int) -> None:
    """Child mode: time import qdl_lab plus the warm-up ops, print seconds."""
    start = time.perf_counter()
    package, oracles = load_program()
    workdir = RUN_DIR / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(package, oracles, workdir)
        warm_up(runner, workload, seed)
        print(json.dumps({"setup_s": time.perf_counter() - start, "failures": runner.failures}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_probes(workload, seed: int, runner: Runner) -> list[float]:
    times = []
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
               "--seed", str(seed), "--seconds", "0", "--setup-probe"]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            runner.record(f"setup probe {i}", "timed out after 120 s")
            continue
        try:
            report = json.loads(proc.stdout.strip().splitlines()[-1])
            times.append(report["setup_s"])
            error = "; ".join(report["failures"]) or None
        except (IndexError, ValueError, KeyError):
            error = f"probe exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
        runner.record(f"setup probe {i}", error)
    return times


def end_to_end(workload, runner: Runner, seed: int, seconds: float, setup: float, plan) -> dict:
    probe_times = run_probes(workload, seed, runner)
    setup_times = [setup] + probe_times
    ops = closed_loop(plan, lambda _, shape, s: runner.run(shape, s, workload.workers),
                      lambda _, elapsed: elapsed >= seconds)

    latencies = [r.seconds for *_, r in ops]
    work = sum(shape.work for _, shape, _, _ in ops)
    tail_value, tail_pct = tail(latencies)

    if workload.name == "gamma_wide":
        # README guarantee: same bytes at any worker count (untimed)
        shape = workload.shapes[0]
        paths = [str(runner.workdir / f"det-w{w}.csv") for w in (1, 2)]
        for w, path in zip((1, 2), paths):
            runner.run(shape, seed, w, out=path)
        same = all(Path(p).is_file() for p in paths) and (
            Path(paths[0]).read_bytes() == Path(paths[1]).read_bytes())
        runner.record("determinism workers 1 vs 2", None if same else "CSV bytes differ")

    print(f"# {len(ops)} ops in {ops[-1][0] + 1} rounds at workers {workload.workers}; "
          f"op_tail_s is p{tail_pct:.1f}; setup_s is the median of {len(setup_times)} set-ups; "
          f"work_per_s is {workload.unit}_per_s")
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "work_per_s": (work / sum(latencies), "1/s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (tail_value, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(workload, runner: Runner, package, plan) -> dict:
    tracer = Tracer(package, LAYERS)
    walls = {"traced": 0.0, "w1": 0.0, "w2": 0.0}

    def traced_run(shape, s: int):
        runner.tracer = tracer
        tracer.patch()
        try:
            return runner.run(shape, s, 1)
        finally:
            tracer.unpatch()
            runner.tracer = None

    def step(op: int, shape, s: int) -> None:
        # each op runs traced and untraced back to back, alternating which
        # goes first, so drift in machine speed cancels out of the overhead;
        # then untraced at workers 2, for the fan-out efficiency
        if op % 2:
            untraced = runner.run(shape, s, 1)
            traced = traced_run(shape, s)
        else:
            traced = traced_run(shape, s)
            untraced = runner.run(shape, s, 1)
        fanned = runner.run(shape, s, 2)
        walls["traced"] += traced.seconds
        walls["w1"] += untraced.seconds
        walls["w2"] += fanned.seconds
        if untraced.error is None and fanned.error is None and untraced.output != fanned.output:
            runner.record("determinism workers 1 vs 2", "output differs")

    # a fixed number of rounds, so two commits trace the same ops and the
    # totals below compare layer by layer
    ops = closed_loop(plan, step, lambda rounds, _: rounds >= workload.trace_rounds)

    tot = tracer.totals()
    absent = set(tracer.absent)
    cli_busy = tot["cli.main"].busy_s
    trials = tot["protocol.run_trials"].work
    dist_calls = tot["linop.output_distribution"].calls

    # None marks a metric of an absent layer, or a rate with no base; it is
    # left out of the result rather than given a number that could read as
    # a change
    def get(layer: str, attr: str) -> float | None:
        return None if layer in absent else float(getattr(tot[layer], attr))

    def rate(layer: str) -> float | None:
        t = tot[layer]
        return None if layer in absent or t.busy_s <= 0 else t.work / t.busy_s

    def share(layer: str, attr: str = "busy_s") -> float | None:
        return None if layer in absent or cli_busy <= 0 else getattr(tot[layer], attr) / cli_busy

    metrics = {
        "linop.permanent_batch.busy_s": (get("linop.permanent_batch", "busy_s"), "s"),
        "linop.permanent_batch.matrices": (get("linop.permanent_batch", "work"), "count"),
        "linop.permanent_batch.matrices_per_s": (rate("linop.permanent_batch"), "1/s"),
        "linop.permanent_batch.share": (share("linop.permanent_batch"), "ratio"),
        "linop.stiefel_batch.busy_s": (get("linop.stiefel_batch", "busy_s"), "s"),
        "linop.stiefel_batch.frames": (get("linop.stiefel_batch", "work"), "count"),
        "linop.stiefel_batch.frames_per_s": (rate("linop.stiefel_batch"), "1/s"),
        "linop.stiefel_batch.share": (share("linop.stiefel_batch"), "ratio"),
        "linop.output_distribution.busy_s": (get("linop.output_distribution", "busy_s"), "s"),
        "linop.output_distribution.calls": (get("linop.output_distribution", "calls"), "count"),
        "linop.output_distribution.self_s": (get("linop.output_distribution", "self_s"), "s"),
        "linop.output_distribution.share": (share("linop.output_distribution"), "ratio"),
        "protocol.run_trials.busy_s": (get("protocol.run_trials", "busy_s"), "s"),
        "protocol.run_trials.self_s": (get("protocol.run_trials", "self_s"), "s"),
        "protocol.run_trials.self_share": (share("protocol.run_trials", "self_s"), "ratio"),
        "protocol.decode_with_key.busy_s": (get("protocol.decode_with_key", "busy_s"), "s"),
        "protocol.decode_with_key.calls": (get("protocol.decode_with_key", "calls"), "count"),
        "protocol.decode_with_key.share": (share("protocol.decode_with_key"), "ratio"),
        # 0 where no trial runs: no trial, no distribution built
        "protocol.dist_per_trial": (
            None if {"protocol.run_trials", "linop.output_distribution"} & absent
            else dist_calls / (trials or 1), "ratio"),
        "protocol.gen_unitary_pool.calls": (get("protocol.gen_unitary_pool", "calls"), "count"),
        "protocol.gen_unitary_pool.busy_s": (get("protocol.gen_unitary_pool", "busy_s"), "s"),
        "fock.sample_codebook.calls": (get("fock.sample_codebook", "calls"), "count"),
        "fock.sample_codebook.busy_s": (get("fock.sample_codebook", "busy_s"), "s"),
        "mc.estimate_moments.busy_s": (get("mc.estimate_moments", "busy_s"), "s"),
        "mc.estimate_moments.self_s": (get("mc.estimate_moments", "self_s"), "s"),
        "mc.estimate_moments.samples": (get("mc.estimate_moments", "work"), "count"),
        "fanout_efficiency": (walls["w1"] / (2.0 * walls["w2"]), "ratio"),
        "fock.enumerate_basis.busy_s": (get("fock.enumerate_basis", "busy_s"), "s"),
        "bounds.mutual_info_lossy.busy_s": (get("bounds.mutual_info_lossy", "busy_s"), "s"),
        "cache.append_rows.busy_s": (get("cache.append_rows", "busy_s"), "s"),
        "cli.self_s": (tot["cli.main"].self_s, "s"),
        "trace_overhead": (walls["traced"] / walls["w1"] - 1.0, "ratio"),
    }
    left_out = sorted(name for name, (value, _) in metrics.items() if value is None)
    print(f"# traced {len(ops)} ops in {workload.trace_rounds} rounds at workers 1, "
          f"each also run untraced at workers 1 and 2")
    print(f"# absent layers: {sorted(absent) or 'none'}; "
          f"metrics left out of the result: {left_out or 'none'}")
    return {name: v for name, v in metrics.items() if v[0] is not None}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        setup_probe(workload, warmup_seed(args.seed))
        return 0

    start = time.perf_counter()
    package, oracles = load_program()
    workdir = RUN_DIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(package, oracles, workdir)
        warm_up(runner, workload, warmup_seed(args.seed))
        setup = time.perf_counter() - start

        import numpy as np

        print(f"# perfbench workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace}")
        print(f"# nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
              f"python={platform.python_version()} numpy={np.__version__} {blas_info()} "
              f"BLAS env=" + ",".join(f"{v}={os.environ[v]}" for v in BLAS_THREAD_VARS[:2]))
        plan = op_plan(workload, args.seed)
        if args.trace:
            metrics = per_layer(workload, runner, package, plan)
        else:
            metrics = end_to_end(workload, runner, args.seed, args.seconds, setup, plan)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            RUN_DIR.rmdir()  # kept only while another run is using it

    failed = len(runner.failures)
    for line in runner.failures[:20]:
        print(f"# FAILED {line}")
    print(f"# fail_rate={failed / runner.attempted:.6g} ({failed}/{runner.attempted} ops)")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def warmup_seed(seed: int) -> int:
    return random.Random(f"warmup-{seed}").randrange(1, 2**31)


if __name__ == "__main__":
    sys.exit(main())
