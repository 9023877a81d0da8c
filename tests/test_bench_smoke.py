"""One short untraced round of every benchmark workload.

Each workload drives inputs the unit tests do not reach together (the
3,000-row clusters set-up spans several embedding chunks, chunks without
an exterior row and a bucketed complex), so an exception there shows up
as a nonzero exit of the harness rather than as a failed check.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "bench", "run.py")
WORKLOADS = ("spiral-train", "clusters3d-serve", "iris-sweep")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_round_runs_clean(workload):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
