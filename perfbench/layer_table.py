"""Layer timings in the shape of the ROADMAP baseline table.

    python3 perfbench/layer_table.py

Times direct calls into ``qdl_lab.linop`` (best of 3, one BLAS thread)
for the baseline rows that no workload isolates: 4096 frames at m = 40,
k = 8 and 4096 permanents at k = 8 and k = 10.  Run from the root of a
checkout.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from qdl_lab import linop  # noqa: E402

REPEATS = 3


def best(fn) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def main() -> int:
    rng = np.random.default_rng(0)
    t = best(lambda: linop.stiefel_batch(rng, 4096, 40, 8))
    print(f"stiefel_batch 4096 frames m=40 k=8: {t * 1e3:.0f} ms")
    for k in (8, 10):
        a = linop.stiefel_batch(rng, 4096, 2 * k, k)[:, :k, :].copy()
        t = best(lambda: linop._permanent_batch(a))
        print(f"_permanent_batch 4096 matrices k={k}: {t * 1e3:.0f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
