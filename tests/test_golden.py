"""Golden traces: every mode's outputs on small fixed scenarios, pinned as sha256 digests.

Each digest covers the trace CSV, `bytes_total`, `bytes_overhead`, the bytes of
`final_params` and every logged transfer. A refactor of the simulator must
leave all of them unchanged.

The digests live in `golden_digests.json` beside this file. Regenerate it with

    PYTHONPATH=src python tests/test_golden.py

and only at a commit whose traces changed on purpose, saying in that commit
why they changed. Never regenerate to make a refactor pass. Float results can
differ across numpy builds and CPUs, so the digests pin one environment.
"""

import hashlib
import json
from pathlib import Path

import pytest

from hfedsim.data import DataSpec, gen_synthetic
from hfedsim.learning import ModelArch
from hfedsim.network import FaultEvent, TopologySpec, gen_topology
from hfedsim.simulator import MODES, run
from simtools import small_config, uniform_topology

GOLDEN = Path(__file__).with_name("golden_digests.json")


def digest(result) -> str:
    h = hashlib.sha256(result.trace.to_csv().encode())
    h.update(f"{result.bytes_total},{result.bytes_overhead}".encode())
    h.update(result.final_params.tobytes())
    for tr in result.transfers:
        h.update(repr((tr.time, tr.kind, tr.src, tr.dst, tr.size, tr.overhead)).encode())
    return h.hexdigest()


def _faults_refresh(mode):
    """Shard refresh plus drops, a slowdown and two faults due at the same time."""
    spec = DataSpec(
        num_devices=8, num_classes=4, classes_per_device=2,
        samples_per_device=21, input_dim=3, cluster_spread=0.4, refresh=True,
    )
    faults = [
        FaultEvent(1.5, 1, "drop"),
        FaultEvent(10.0, 4, "slowdown", 3.0),
        FaultEvent(10.0, 6, "drop"),
        FaultEvent(30.0, 1, "restore"),
        FaultEvent(45.0, 6, "restore"),
        FaultEvent(60.0, 4, "restore"),
    ]
    cfg = small_config(
        mode=mode, n=8, seed=23, topology=uniform_topology(8, 2, sigma=0.5, faults=faults),
    )
    cfg.dataset = gen_synthetic(spec, seed=23)
    cfg.data_spec = spec
    return cfg


def _gen_topology(mode):
    topo = gen_topology(TopologySpec(10, 3, model_bytes=8000), seed=5)
    return small_config(mode=mode, n=10, g=3, seed=5, topology=topo)


def _mlp(mode):
    return small_config(
        mode=mode, seed=7, arch=ModelArch("mlp", input_dim=3, num_classes=4, hidden_dim=5),
    )


def scenarios():
    """Name -> builder of a fresh SimConfig (a run may not leave its config as it found it)."""
    out = {}
    for mode in MODES:
        for seed in (1, 2, 3):
            out[f"{mode}/seed{seed}"] = lambda m=mode, s=seed: small_config(mode=m, seed=s)
        out[f"{mode}/faults-refresh"] = lambda m=mode: _faults_refresh(m)
        out[f"{mode}/gen-topology"] = lambda m=mode: _gen_topology(m)
        out[f"{mode}/mlp"] = lambda m=mode: _mlp(m)
    out["async-random/dispatch-all"] = lambda: small_config(
        mode="async-random", seed=3, dispatch_all=True
    )
    # A cap that binds under the sum constraint but not per device.
    out["async-sched/per-device-bandwidth"] = lambda: small_config(
        mode="async-sched", seed=3, bandwidth_sum=False,
        topology=uniform_topology(6, 2, sigma=0.5, bandwidth=2000.0),
    )
    out["async-sched/uncompressed"] = lambda: small_config(
        mode="async-sched", seed=3, compress=False
    )
    return out


SCENARIOS = scenarios()


def test_every_scenario_has_a_golden():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trace_matches_golden(name):
    assert digest(run(SCENARIOS[name]())) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    digests = {name: digest(run(build())) for name, build in sorted(SCENARIOS.items())}
    GOLDEN.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
