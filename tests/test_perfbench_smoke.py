"""The benchmark harness's output contract: its last stdout line is one
strict-JSON result with ``correct`` true and no failed op."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _reject(constant):
    raise ValueError(f"non-finite number {constant} in the result line")


@pytest.mark.parametrize("workload", ["sim_blind", "sim_lossy"])
def test_traced_run_ends_with_strict_json(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject)
    assert result["correct"] is True and result["failed"] == 0
