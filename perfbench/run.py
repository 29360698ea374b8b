"""Host-time benchmark of `hfedsim.simulator.run`, with layer tracing.

Run from the repository root:

    python3 perfbench/run.py --workload cohort-sync --seed 1 --seconds 30 --trace 0

`--trace 0` times untraced runs and reports the end-to-end metrics.
`--trace 1` alternates untraced and traced runs and reports the per-layer
metrics. Every run builds a fresh scenario from the seed and has its output
checked; two runs of one scenario must give the same trace digest, traced or
not. Earlier stdout lines give the environment and a readable table; the last
line is one JSON object with the keys correct, attempted, failed and metrics.

Host timings in the JSON are divided by the host's slowness, measured with a
reference kernel timed during each run (see calibrate.py). They read as
seconds on the reference host, and a host that slows down mid-benchmark does
not move them. The table also prints the raw seconds and the slowness.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

BLAS_THREADS = "1"  # pinned, so host time does not depend on the core count
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_program(root: Path) -> None:
    """Put the checkout's `src` on the path; BLAS threads are fixed before numpy loads."""
    src = root / "src"
    if not (src / "hfedsim" / "simulator.py").is_file():
        raise SystemExit(f"perfbench: no hfedsim sources under {src}; run from the repository root")
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_program(Path.cwd())
    from harness import run_workload
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    return run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
