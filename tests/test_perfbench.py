"""The traced benchmark run still works against this source tree.

`perfbench/spans.py` wraps program functions by name; a rename or deletion in
`src/` breaks only the traced run, so each workload is traced once at its
self-test size. Its work counters repeat exactly from run to run, so they
also gate the work per operation: each ideal and module gets one basis and
Q none (8 Buchberger runs, 9 where the deep checks present Q for the oracle
of `oracle-fp`, and 50 basis elements on these inputs), and that oracle
adds at most 3100 echelon rows.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


@pytest.mark.parametrize("workload", ["qci-fp", "qci-q", "oracle-fp"])
def test_traced_benchmark_runs(workload):
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0.1", "--trace", "1", "--tiny"]
    proc = subprocess.run(
        [sys.executable, str(RUN), *argv], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    assert "linalg.hilbert_function_calls" in metrics
    assert metrics["groebner.buchberger_calls"]["value"] <= (9 if workload == "oracle-fp" else 8)
    assert metrics["groebner.basis_elements"]["value"] <= 50
    if workload == "oracle-fp":
        # the deep checks evaluate the minimal presentations of N and Q
        assert metrics["linalg.echelon_rows"]["value"] <= 3100
