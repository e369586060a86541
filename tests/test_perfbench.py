"""The traced benchmark run still works against this source tree.

`perfbench/spans.py` wraps program functions by name; a rename or deletion in
`src/` breaks only the traced run, so each workload is traced once at its
self-test size. Its work counters repeat exactly from run to run, so they
also gate the work per operation: each ideal and module gets one basis, Q
none, not even under the deep checks, saturation rejects a line with no
basis, and a resolution step whose elements are independent at a point
ends without a syzygy run (at most 5 Buchberger runs on every workload, 5
measured, and at most 50 basis elements, 24-25 measured, on these
inputs). The deep checks of `oracle-fp` add at most 900 echelon rows (834
measured), Q's Koszul oracle and the certificate's evaluation rows
included, in at most 17 `hilbert_function` calls: S/I_sigma and N are
evaluated, Q is not.
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
    assert metrics["groebner.buchberger_calls"]["value"] <= 5
    assert metrics["groebner.basis_elements"]["value"] <= 50
    if workload == "oracle-fp":
        # the deep checks evaluate the presentations of S/I_sigma and N, and
        # take Q's table by Koszul homology
        assert metrics["linalg.echelon_rows"]["value"] <= 900
        assert metrics["linalg.hilbert_function_calls"]["value"] <= 17
