"""Digests of the benchmark's scenarios, printed as one JSON object.

Run from the repository root:

    python tests/harness_digests.py > digests.json

Each digest is `simtools.digest` of one run: the trace CSV, the byte
counters, the final parameters and the full transfer log. The scenarios are
the `perfbench/workloads.py` workloads (cohort-sync, stream-faults and
sched-scale), seeds 1-3 by every replica: 36 runs, about a minute. A change
that must keep traces byte-identical runs this in the parent's checkout and in
its own, and the two outputs must be equal. Options: `--seeds` and
`--workloads` narrow the set. `--against FILE` compares this run's digests
with a previous run's output (made with the same `--seeds` and `--workloads`):
it names on stderr each digest that differs or is in only one of the two, and
exits 1 if there is any.

    python tests/harness_digests.py --against parent-digests.json > digests.json

`tests/harness_digests_seed1.json` holds the `--seeds 1` output (12 runs, numpy
2.4.6), and `tests/harness_digests_seed2.json` the `--seeds 2` output, a second
set of fault and refresh interleavings. `tests/test_harness_digests.py` runs
the first comparison with the tier-1 tests, and CI runs the second, so a change
to the bits of any of those runs fails:

    python tests/harness_digests.py --seeds 1 --against tests/harness_digests_seed1.json
    python tests/harness_digests.py --seeds 2 --against tests/harness_digests_seed2.json

`--workloads sched-1000` selects a scenario outside the default set:
sched-scale at N=1000/G=20 (still H=45), the scale of ROADMAP item 16. Its
runs take about 2 s each. `tests/harness_digests_sched1000_seed1.json` holds
its `--seeds 1` output (4 runs, numpy 2.4.6), and CI compares against it too:

    python tests/harness_digests.py --workloads sched-1000 --seeds 1 --against tests/harness_digests_sched1000_seed1.json

The file is not named `test_*.py`, so pytest does not collect it. It reads
`perfbench/workloads.py` and changes nothing there.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def compare(digests: dict, previous: dict) -> list[str]:
    """One line per digest that differs between two runs or is in only one."""
    lines = []
    for key in sorted(digests.keys() | previous.keys()):
        if key not in previous:
            lines.append(f"missing: {key} (not in the previous run)")
        elif key not in digests:
            lines.append(f"missing: {key} (not in this run)")
        elif digests[key] != previous[key]:
            lines.append(f"differs: {key}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--workloads", nargs="+")
    ap.add_argument("--against", type=Path, metavar="FILE")
    args = ap.parse_args(argv)
    # Read first, so that a bad path fails before the minute of runs.
    previous = json.loads(args.against.read_text()) if args.against else None

    # The benchmark's BLAS setting, fixed before numpy loads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]
    from hfedsim.simulator import run
    from simtools import digest
    from workloads import REPLICAS, WORKLOADS, build

    scenarios = dict(WORKLOADS)
    scenarios["sched-1000"] = dataclasses.replace(
        WORKLOADS["sched-scale"], name="sched-1000", num_devices=1000, num_gateways=20
    )
    names = args.workloads or list(WORKLOADS)
    unknown = sorted(set(names) - scenarios.keys())
    if unknown:
        ap.error(f"unknown workloads {unknown}; choose from {sorted(scenarios)}")
    digests = {}
    for name in names:
        for seed in args.seeds:
            for replica in range(REPLICAS):
                cfg, _ = build(scenarios[name], seed, replica)
                digests[f"{name}/seed{seed}/replica{replica}"] = digest(run(cfg))
    json.dump(digests, sys.stdout, indent=1)
    print()
    if previous is None:
        return 0
    differences = compare(digests, previous)
    for line in differences:
        print(line, file=sys.stderr)
    total = len(digests.keys() | previous.keys())
    print(f"{total - len(differences)} of {total} digests equal {args.against}", file=sys.stderr)
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
