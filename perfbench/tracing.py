"""Layer tracing from outside the program, and counters read from a SimResult.

`LayerTracer` swaps every public function that `hfedsim.simulator` imports
from the layer modules for a wrapper that times and counts each call. The
layer functions do not call each other through the simulator's namespace, so
spans never nest, and the event loop's self time is the run time minus the
sum of all spans. Nothing in the program changes; the wrappers are removed
when the `installed()` block ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import time
from collections import defaultdict

from hfedsim import simulator

LAYERS = ("learning", "utility", "selection", "network", "data")


def layer_functions() -> dict[str, str]:
    """Map 'layer.function' to the simulator attribute it is bound to."""
    found = {}
    for attr, obj in vars(simulator).items():
        if not inspect.isfunction(obj) or attr.startswith("_"):
            continue
        package, _, layer = obj.__module__.rpartition(".")
        if package == "hfedsim" and layer in LAYERS:
            found[f"{layer}.{obj.__name__}"] = attr
    return found


class LayerTracer:
    """Per-call durations, in seconds, of every traced layer function."""

    def __init__(self, clock=time.perf_counter):
        self.spans: dict[str, list[float]] = defaultdict(list)
        self.clock = clock

    def _wrap(self, key: str, fn):
        spans = self.spans[key]
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append(clock() - t0)

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = {}
        try:
            for key, attr in layer_functions().items():
                saved[attr] = getattr(simulator, attr)
                setattr(simulator, attr, self._wrap(key, saved[attr]))
            yield self
        finally:
            for attr, fn in saved.items():
                setattr(simulator, attr, fn)

    def busy_s(self) -> float:
        return sum(sum(v) for v in self.spans.values())


def device_rounds(transfers) -> int:
    """Completed device rounds: uploads that reached a gateway."""
    return sum(1 for tr in transfers if tr.kind == "device_upload")


def voided_rounds(transfers) -> int:
    """Dispatches that a fault voided: a device dispatched again before it uploaded.

    A device is busy from dispatch to upload, so a second dispatch with no
    upload in between means the first flight was dropped. Flights still in the
    air when the run ends are not counted.
    """
    waiting: dict[str, bool] = {}
    voided = 0
    for tr in transfers:
        if tr.kind == "dispatch":
            voided += waiting.get(tr.dst, False)
            waiting[tr.dst] = True
        elif tr.kind == "device_upload":
            waiting[tr.src] = False
    return voided


def cohort_k8_share(transfers) -> float:
    """Share of dispatched device rounds that left in a group of >= 8 at one (time, gateway)."""
    groups: dict[tuple[float, str], int] = defaultdict(int)
    for tr in transfers:
        if tr.kind == "dispatch":
            groups[(tr.time, tr.src)] += 1
    total = sum(groups.values())
    return sum(k for k in groups.values() if k >= 8) / total if total else 0.0


def gw_idle_frac(transfers) -> float:
    """Share of gateways that dispatched device rounds but never uploaded to the cloud."""
    working = {tr.src for tr in transfers if tr.kind == "dispatch"}
    uploaded = {tr.src for tr in transfers if tr.kind == "gateway_upload"}
    return len(working - uploaded) / len(working) if working else 0.0


def result_counters(result) -> dict[str, float]:
    tr = result.transfers
    return {
        "simulator.rounds": device_rounds(tr),
        "simulator.voided_rounds": voided_rounds(tr),
        "simulator.cohort_k8_share": cohort_k8_share(tr),
        "simulator.gw_idle_frac": gw_idle_frac(tr),
        "simulator.max_stale_cloud": result.max_stale_cloud,
        "simulator.max_stale_gw": result.max_stale_gw,
    }


def _nearest_rank(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    v = sorted(values)
    return v[max(0, math.ceil(q * len(v)) - 1)]


PER_LAYER_UNITS = {
    "learning.local_train.calls": "count",
    "learning.local_train.busy_s": "s",
    "learning.local_train.p50_ms": "ms",
    "learning.local_train.p99_ms": "ms",
    "learning.local_train.share": "frac",
    "learning.evaluate.busy_s": "s",
    "utility.learning_utility.calls": "count",
    "utility.learning_utility.busy_s": "s",
    "utility.learning_utility.p50_ms": "ms",
    "utility.learning_utility.share": "frac",
    "utility.pca_fit.busy_s": "s",
    "utility.pca_project.busy_s": "s",
    "selection.solve_association.calls": "count",
    "selection.solve_association.busy_s": "s",
    "selection.solve_association.max_ms": "ms",
    "selection.solve_association.share": "frac",
    "selection.solve_selection.calls": "count",
    "selection.solve_selection.busy_s": "s",
    "network.sample_round_latency.busy_s": "s",
    "data.refresh_shard.calls": "count",
    "data.refresh_shard.busy_s": "s",
    "setup.gen_topology_s": "s",
    "setup.gen_synthetic_s": "s",
    "simulator.wall_s": "s",
    "simulator.loop_self_s": "s",
    "simulator.loop_self_share": "frac",
    "simulator.rounds": "count",
    "simulator.voided_rounds": "count",
    "simulator.cohort_k8_share": "frac",
    "simulator.gw_idle_frac": "frac",
    "simulator.max_stale_cloud": "count",
    "simulator.max_stale_gw": "count",
    "process.cpu_s": "s",
    "process.cpu_per_wall": "frac",
    "tracing.overhead_frac": "frac",
    "host.slowness": "ratio",
    "outcome.sim_s_to_target": "sim_s",
    "outcome.mb_to_target": "MB",
    "outcome.final_acc": "frac",
}


_STATS = {
    "calls": len,
    "busy_s": sum,
    "p50_ms": lambda v: 1000 * _nearest_rank(v, 0.50),
    "p99_ms": lambda v: 1000 * _nearest_rank(v, 0.99),
    "max_ms": lambda v: 1000 * max(v, default=0.0),
}


def layer_metrics(tracer: LayerTracer, result, wall_s: float, cpu_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run; set-up and overhead are added by the caller."""
    out: dict[str, float] = {}
    for name in PER_LAYER_UNITS:
        fn, _, stat = name.rpartition(".")
        if fn.partition(".")[0] in LAYERS:
            v = tracer.spans.get(fn, [])
            out[name] = sum(v) / wall_s if stat == "share" else _STATS[stat](v)
    self_s = wall_s - tracer.busy_s()
    out.update(result_counters(result))
    out.update({
        "simulator.wall_s": wall_s,
        "simulator.loop_self_s": self_s,
        "simulator.loop_self_share": self_s / wall_s,
        "process.cpu_s": cpu_s,
        "process.cpu_per_wall": cpu_s / wall_s,
    })
    return out
