"""Runs, checks and summarises one workload; imported by run.py once the program is on the path."""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy

from calibrate import REF_NOMINAL_S, HostSampler, reference_s
from tracing import PER_LAYER_UNITS, LayerTracer, device_rounds, layer_metrics
from workloads import REPLICAS, build

from hfedsim import simulator

SETUP_MIN_BUILDS = 10
SETUP_MIN_S = 1.0

# The end-to-end metrics in the JSON result. wall_s, the outcomes and failed_frac
# are printed beside them: wall_s moves with how many device rounds a seed
# produces, and the outcomes are deterministic per seed, so their spread over
# seeds says nothing about the host.
END_TO_END_UNITS = {
    "rounds_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
REPORT_UNITS = {
    "wall_s": "s",
    **END_TO_END_UNITS,
    "sim_s_to_target": "sim_s",
    "mb_to_target": "MB",
    "final_acc": "frac",
    "failed_frac": "frac",
}


@dataclass
class Rep:
    """One build-and-run of one scenario."""

    replica: int
    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    slowness: float = 1.0  # reference-kernel time during this run over its nominal time
    rounds: int = 0
    digest: str = ""
    outcome: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def digest(result) -> str:
    """Trace CSV, byte counters and final parameters: the determinism contract."""
    h = hashlib.sha256(result.trace.to_csv().encode())
    h.update(f"{result.bytes_total},{result.bytes_overhead}".encode())
    h.update(result.final_params.tobytes())
    return h.hexdigest()


def target_acc(result, w) -> float:
    return result.trace.rows[0].acc + w.target_gain


def check(result, w, model_bytes: int) -> list[str]:
    """Output checks; any problem fails the run."""
    problems = []
    if result.recompute_bytes_from_log(model_bytes) != (result.bytes_total, result.bytes_overhead):
        problems.append("byte counters disagree with the transfer log")
    rows = result.trace.rows
    if any(b.t < a.t or b.bytes < a.bytes for a, b in zip(rows, rows[1:])):
        problems.append("trace time or bytes decrease")
    if not all(map(math.isfinite, result.final_params.tolist())):
        problems.append("final parameters are not finite")
    if result.cloud_epochs_done != w.cloud_epochs:
        problems.append(f"stopped after {result.cloud_epochs_done} of {w.cloud_epochs} cloud epochs")
    if result.trace.first_crossing(target_acc(result, w)) is None:
        problems.append(f"never gained {w.target_gain} accuracy over the initial model")
    return problems


def outcome(result, w) -> dict[str, float]:
    """The paper's outcome metrics; deterministic for a seed."""
    rows = result.trace.rows
    t = result.trace.first_crossing(target_acc(result, w))
    hit = next((r for r in rows if r.t == t), rows[-1])
    return {
        "sim_s_to_target": float(hit.t),
        "mb_to_target": hit.bytes / 1e6,
        "final_acc": rows[-1].acc,
    }


def run_rep(w, seed: int, replica: int, traced: bool) -> Rep:
    rep = Rep(replica, traced)
    try:
        cfg, _ = build(w, seed, replica)
        with HostSampler() as host:
            tracer = LayerTracer(host.clock)
            with tracer.installed() if traced else contextlib.nullcontext():
                c0, t0 = time.process_time(), host.clock()
                result = simulator.run(cfg)
                rep.wall_s = host.clock() - t0
                rep.cpu_s = time.process_time() - c0 - host.spent_s
        rep.slowness = host.slowness
        rep.rounds = device_rounds(result.transfers)
        rep.digest = digest(result)
        rep.outcome = outcome(result, w)
        rep.problems = check(result, w, cfg.topology.model_bytes)
        if traced:
            rep.layers = layer_metrics(tracer, result, rep.wall_s, rep.cpu_s)
    except Exception as exc:  # a failed run is counted, and the benchmark goes on
        traceback.print_exc()
        rep.problems.append(f"raised {type(exc).__name__}: {exc}")
    return rep


def measure_setup(w, seed: int) -> list[dict[str, float]]:
    """Repeat the scenario build alone, so set-up time has enough samples; scaled timings.

    The reference kernel runs between builds, not on the timer, so no build is
    interrupted.
    """
    t0 = time.perf_counter()
    times, refs = [], []
    while len(times) < SETUP_MIN_BUILDS or time.perf_counter() - t0 < SETUP_MIN_S:
        refs.append(reference_s())
        times.append(build(w, seed, len(times) % REPLICAS)[1])
    slow = statistics.median(refs) / REF_NOMINAL_S
    return [{k: v / slow for k, v in t.items()} for t in times]


def schedule(seconds: float, trace: bool):
    """Yield (replica, traced) until the time is up and every kind of run was made once.

    Untraced runs cycle through the replicas. With tracing on, runs of
    replica 0 alternate untraced and traced.
    """
    t0 = time.perf_counter()
    k = 0
    need = 2 if trace else REPLICAS
    while k < need or time.perf_counter() - t0 < seconds:
        yield (0, k % 2 == 1) if trace else (k % REPLICAS, False)
        k += 1


def by_replica(reps: list[Rep], key) -> list[float]:
    """The median of `key` over each replica's runs, in replica order."""
    groups: dict[int, list[float]] = {}
    for r in reps:
        groups.setdefault(r.replica, []).append(key(r))
    return [statistics.median(v) for _, v in sorted(groups.items())]


def end_to_end(reps: list[Rep], setup_times: list) -> dict[str, float]:
    """Timings: each replica's median run, averaged over the replicas so scenario sizes
    even out. Outcomes: the median over the replicas."""
    walls = by_replica(reps, lambda r: r.wall_s / r.slowness)
    rounds = by_replica(reps, lambda r: r.rounds)
    outcomes = {}
    for r in reps:
        outcomes.setdefault(r.replica, r.outcome)
    return {
        "wall_s": statistics.fmean(walls),
        "rounds_per_s": sum(rounds) / sum(walls),
        "setup_s": statistics.median(s["setup_s"] for s in setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **{k: statistics.median(o[k] for o in outcomes.values()) for k in reps[0].outcome},
        "failed_frac": sum(1 for r in reps if r.problems) / len(reps),
    }


def per_layer(reps: list[Rep], setup_times: list) -> dict[str, float]:
    """The median of each layer metric over the traced runs, plus set-up, overhead, outcome."""
    traced = [r for r in reps if r.traced]
    plain = [r.wall_s / r.slowness for r in reps if not r.traced]
    metrics = {k: statistics.median(r.layers[k] for r in traced) for k in traced[0].layers}
    for part in ("gen_topology_s", "gen_synthetic_s"):
        metrics[f"setup.{part}"] = statistics.median(s[part] for s in setup_times)
    metrics["tracing.overhead_frac"] = (
        statistics.median(r.wall_s / r.slowness for r in traced) / statistics.median(plain) - 1.0
    )
    metrics["host.slowness"] = statistics.median(r.slowness for r in reps)
    metrics.update({f"outcome.{k}": v for k, v in traced[0].outcome.items()})
    return metrics


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "seed": seed,
    }


def run_workload(w, seed: int, seconds: float, trace: bool) -> int:
    """Measure `w` for about `seconds`, print the table and the JSON result; return the exit code."""
    print("env " + json.dumps(environment(seed)), flush=True)

    start = time.perf_counter()
    setup_times = measure_setup(w, seed)
    first_digest: dict[int, str] = {}
    reps = []
    for replica, traced in schedule(seconds - (time.perf_counter() - start), trace):
        rep = run_rep(w, seed, replica, traced)
        if rep.digest and first_digest.setdefault(replica, rep.digest) != rep.digest:
            rep.problems.append("trace digest differs from an earlier run of this scenario")
        for p in rep.problems:
            print(f"FAILED replica {replica}{' traced' if traced else ''}: {p}", file=sys.stderr)
        reps.append(rep)

    failed = sum(1 for r in reps if r.problems)
    print(f"workload {w.name}: {len(reps)} runs of {REPLICAS} replicas, {failed} failed, "
          f"failed_frac {failed / len(reps):.3f}; raw wall_s median "
          f"{statistics.median(r.wall_s for r in reps):.4g} s, host slowness median "
          f"{statistics.median(r.slowness for r in reps):.3f}")
    for k in range(REPLICAS):
        runs = [r for r in reps if r.replica == k and r.outcome]
        if runs:
            print(f"  replica {k}: {len(runs)} runs, scaled wall_s median "
                  f"{statistics.median(r.wall_s / r.slowness for r in runs):.4g} s, " + ", ".join(
                      f"{m} {v:.6g} {PER_LAYER_UNITS['outcome.' + m]}"
                      for m, v in runs[0].outcome.items()))
    metrics: dict[str, dict] = {}
    if failed == 0:
        if trace:
            shown, values = PER_LAYER_UNITS, per_layer(reps, setup_times)
        else:
            shown, values = REPORT_UNITS, end_to_end(reps, setup_times)
        for name, unit in shown.items():
            print(f"  {name:40s} {values[name]:14.6g} {unit}")
        units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    print(json.dumps({
        "correct": failed == 0, "attempted": len(reps), "failed": failed, "metrics": metrics,
    }))
    return 0 if failed == 0 else 1

