import subprocess
import sys
from pathlib import Path

from harness_digests import compare

ROOT = Path(__file__).resolve().parent.parent


def test_compare_names_each_difference():
    previous = {"a/seed1/replica0": "x", "b/seed1/replica0": "y", "c/seed1/replica0": "z"}
    now = {"a/seed1/replica0": "x", "b/seed1/replica0": "Y", "d/seed1/replica0": "w"}
    assert compare(previous, previous) == []
    assert compare(now, previous) == [
        "differs: b/seed1/replica0",
        "missing: c/seed1/replica0 (not in this run)",
        "missing: d/seed1/replica0 (not in the previous run)",
    ]


def test_seed1_digests_match_the_committed_ones():
    # In its own process: the script pins BLAS to one thread before numpy loads.
    tests = ROOT / "tests"
    done = subprocess.run(
        [sys.executable, tests / "harness_digests.py", "--seeds", "1",
         "--against", tests / "harness_digests_seed1.json"],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
