"""Self-tests of the benchmark: run with `python3 -m pytest perfbench` from the repository root."""

import dataclasses
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from calibrate import HostSampler  # noqa: E402
from harness import check, digest  # noqa: E402
from tracing import (  # noqa: E402
    LayerTracer,
    cohort_k8_share,
    gw_idle_frac,
    layer_functions,
    voided_rounds,
)
from workloads import WORKLOADS, build  # noqa: E402

from hfedsim import simulator  # noqa: E402
from hfedsim.simulator import Transfer  # noqa: E402

# Small versions of the workloads: the same modes, faults and refresh, in well under a second.
SMALL = {
    name: dataclasses.replace(w, num_devices=20, num_gateways=3, cloud_epochs=4, target_gain=0.0)
    for name, w in WORKLOADS.items()
}


def test_fresh_builds_from_one_seed_give_one_digest():
    for w in SMALL.values():
        first = simulator.run(build(w, 7)[0])
        second = simulator.run(build(w, 7)[0])
        assert digest(first) == digest(second), w.name


def test_replicas_are_different_scenarios():
    w = SMALL["stream-faults"]
    assert digest(simulator.run(build(w, 7, 0)[0])) != digest(simulator.run(build(w, 7, 1)[0]))


def test_traced_run_matches_untraced_and_restores_the_simulator():
    before = dict(vars(simulator))
    for w in SMALL.values():
        plain = simulator.run(build(w, 3)[0])
        tracer = LayerTracer()
        with tracer.installed():
            traced = simulator.run(build(w, 3)[0])
        assert digest(plain) == digest(traced), w.name
        assert len(tracer.spans["learning.local_train"]) > 0
    assert dict(vars(simulator)) == before


def test_tracer_finds_every_layer_the_simulator_calls():
    found = layer_functions()
    for key in (
        "learning.local_train",
        "learning.evaluate",
        "utility.learning_utility",
        "utility.pca_fit",
        "selection.solve_association",
        "selection.solve_selection",
        "network.sample_round_latency",
        "data.refresh_shard",
    ):
        assert key in found


def test_checks_pass_on_a_good_run_and_catch_a_bad_one():
    w = SMALL["cohort-sync"]
    cfg, _ = build(w, 1)
    result = simulator.run(cfg)
    assert check(result, w, cfg.topology.model_bytes) == []
    result.bytes_total += 1
    result.cloud_epochs_done -= 1
    result.final_params[0] = float("nan")
    unreachable = dataclasses.replace(w, target_gain=1.0)
    assert len(check(result, unreachable, cfg.topology.model_bytes)) == 4


def test_host_sampler_samples_during_the_block_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with HostSampler() as host:
        c0, t0 = host.clock(), time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            pass
        clock_s, raw_s = host.clock() - c0, time.perf_counter() - t0
    assert len(host.samples) >= 3  # start, end and at least one timer sample
    assert host.spent_s > 0 and host.slowness > 0
    assert abs(raw_s - clock_s - host.spent_s) < 1e-3  # the clock leaves sampling out
    assert signal.getsignal(signal.SIGALRM) is before


def _tr(t, kind, src, dst):
    return Transfer(t, kind, src, dst, 8, 0)


def test_transfer_log_counters():
    log = [
        *[_tr(0.0, "dispatch", "gw0", f"dev{i}") for i in range(8)],
        _tr(0.0, "dispatch", "gw1", "dev8"),
        _tr(1.0, "device_upload", "dev0", "gw0"),
        _tr(2.0, "dispatch", "gw1", "dev8"),  # dev8's first flight was voided
        _tr(3.0, "gateway_upload", "gw0", "cloud"),
    ]
    assert voided_rounds(log) == 1
    assert cohort_k8_share(log) == 8 / 10
    assert gw_idle_frac(log) == 1 / 2
