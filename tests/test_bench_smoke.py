"""The benchmark runs end to end and its correctness gate passes.

One untimed pass per workload at seed 7, checked by the benchmark's own
gate. On ``exact_wide`` that is the golden ``check.json``/``joint_table.csv``
comparison, the slot-correlated model's deviation and the doubled model's
all-zero conditionals; on ``trials`` it includes ``trials.csv`` against
``golden.json``, written through ``write_trials_csv``; on ``monte_carlo`` it
includes the Monte Carlo S within 6 sigma of the exact S at 2e6 trials per
pair. A change that breaks ``perfbench/run.py`` or the outputs it compares
fails here.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["trials", "exact_wide", "monte_carlo"])
def test_benchmark_pass_is_correct(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
