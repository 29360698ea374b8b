"""Golden traces: every mode's outputs on small fixed scenarios, pinned as sha256 digests.

Each digest covers the trace CSV, `bytes_total`, `bytes_overhead`, the bytes of
`final_params` and every logged transfer. A refactor of the simulator must
leave all of them unchanged. Each scenario's stop reason is pinned too, though
it is not part of the digest.

The digests live in `golden_digests.json` beside this file. Regenerate it with

    PYTHONPATH=src python tests/test_golden.py [NAME ...]

which re-captures only the named scenarios (printing old -> new for each) or,
with no names, every scenario. Do so only at a commit whose traces changed on
purpose, re-capturing only the scenarios it means to change, and say in that
commit why they changed. Never regenerate to make a refactor pass. Float
results can differ across numpy builds and CPUs, so the digests pin one
environment.
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from hfedsim.data import DataSpec, gen_synthetic
from hfedsim.learning import ModelArch
from hfedsim.network import (
    FaultEvent, TopologySpec, gen_topology, load_topology, save_topology,
)
from hfedsim.simulator import MODES, _Simulation, run
from simtools import digest, small_config, uniform_topology

GOLDEN = Path(__file__).with_name("golden_digests.json")


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


def _ties(mode, faults=()):
    """No jitter and no cloud delay: every round takes exactly 2 + 6 + 3 = 11 s and
    the evaluation timer fires every 11 s, so many events fall due together."""
    return small_config(
        mode=mode, n=8, seed=1, eval_every=11.0,
        topology=uniform_topology(8, 2, sigma=0.0, cloud_gateway_delay=0.0, faults=faults),
    )


def _ties_drop_restore():
    """Device 3 drops exactly when its first upload is due and is restored at a
    later round boundary."""
    return _ties("async-random", [FaultEvent(11.0, 3, "drop"), FaultEvent(22.0, 3, "restore")])


def _empty_gateway():
    """No device can reach gateway 0, so it holds no members from the start."""
    topo = uniform_topology(6, 3, sigma=0.5)
    links = {(i, j): p for (i, j), p in topo.link_params.items() if j != 0}
    topo = dataclasses.replace(topo, link_params=links)
    return small_config(mode="async-hl", n=6, g=3, seed=2, topology=topo)


def _drop_at_arrival():
    """A drop and a slowdown due at 0.5 s, when the initial model reaches the
    gateways and before any warmup sweep; the dropped device is restored later."""
    faults = [
        FaultEvent(0.5, 2, "drop"),
        FaultEvent(0.5, 4, "slowdown", 2.0),
        FaultEvent(20.0, 2, "restore"),
    ]
    return small_config(
        mode="async-sched", n=6, g=2, seed=5,
        topology=uniform_topology(6, 2, sigma=0.5, faults=faults),
    )


def _one_warmup_gradient():
    """Devices 0 and 1 drop before their sweep uploads land, so one warmup
    gradient comes in: too few to fit the compressor, and the run stays
    uncompressed."""
    faults = [
        FaultEvent(5.0, 0, "drop"), FaultEvent(5.0, 1, "drop"),
        FaultEvent(40.0, 0, "restore"), FaultEvent(40.0, 1, "restore"),
    ]
    return small_config(
        mode="async-sched", n=3, g=1, seed=1,
        topology=uniform_topology(3, 1, sigma=0.0, faults=faults),
    )


def _drop_ends_warmup():
    """Device 2, the last sweep device, drops midway between the last two sweep
    uploads (12.57 s and 14.27 s), so its drop ends the warmup under a cap that binds."""
    faults = [FaultEvent(13.419, 2, "drop"), FaultEvent(43.419, 2, "restore")]
    return small_config(
        mode="async-sched", seed=4,
        topology=uniform_topology(6, 2, sigma=0.5, bandwidth=2000.0, faults=faults),
    )


def _drop_pending_assoc():
    """An association every cloud epoch. Device 2 is in the air when the one at
    35.88 s picks gateway 0 for it, drops at 37.5 s before it uploads, and is
    restored at 67.5 s; the association at 68.96 s then picks gateway 1."""
    faults = [FaultEvent(37.5, 2, "drop"), FaultEvent(67.5, 2, "restore")]
    return small_config(
        mode="async-random", seed=1, assoc_period=1,
        topology=uniform_topology(6, 2, sigma=0.5, faults=faults),
    )


def _gen_topology(mode):
    topo = gen_topology(TopologySpec(10, 3, model_bytes=8000), seed=5)
    return small_config(mode=mode, n=10, g=3, seed=5, topology=topo)


def _heuristic_assoc():
    """N=40, G=5: association takes the heuristic path, not the exact one."""
    topo = gen_topology(TopologySpec(40, 5, model_bytes=8000), seed=5)
    return small_config(mode="async-sched", n=40, g=5, seed=5, topology=topo)


def _late_gradient():
    """Device 3 drops before its warmup upload, so after the PCA fit it has no
    gradient until it uploads again, some time after its restore."""
    faults = [FaultEvent(1.0, 3, "drop"), FaultEvent(25.0, 3, "restore")]
    return small_config(
        mode="async-sched", n=16, g=2, seed=4,
        topology=uniform_topology(16, 2, sigma=0.5, faults=faults),
    )


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
        out[f"{mode}/ties"] = lambda m=mode: _ties(m)
    out["async-sched/heuristic-assoc"] = _heuristic_assoc
    out["async-sched/late-gradient"] = _late_gradient
    out["async-random/ties-drop-restore"] = _ties_drop_restore
    out["async-hl/empty-gateway"] = _empty_gateway
    out["async-sched/drop-at-arrival"] = _drop_at_arrival
    out["async-sched/one-warmup-gradient"] = _one_warmup_gradient
    out["async-sched/drop-ends-warmup"] = _drop_ends_warmup
    out["async-random/drop-pending-assoc"] = _drop_pending_assoc
    return out


SCENARIOS = scenarios()


def test_every_scenario_has_a_golden():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trace_matches_golden(name):
    result = run(SCENARIOS[name]())
    assert digest(result) == json.loads(GOLDEN.read_text())[name]
    assert result.stop_reason == "done"


def _arrays(dataset):
    """The bytes of every array of `dataset`, with dtype and shape."""
    arrays = [a for s in [*dataset.shards, dataset.test] for a in (s.features, s.labels)]
    return [(a.dtype, a.shape, a.tobytes()) for a in [*arrays, dataset.centroids]]


@pytest.mark.parametrize("mode", MODES)
def test_refresh_keeps_labels_and_leaves_the_config_alone(mode):
    # A refresh redraws features around a device's own labels, and a run
    # replaces its devices' shards without touching `cfg.dataset`.
    cfg = _faults_refresh(mode)
    shards, before = list(cfg.dataset.shards), _arrays(cfg.dataset)
    sim = _Simulation(cfg)
    result = sim.run()
    assert digest(result) == json.loads(GOLDEN.read_text())[f"{mode}/faults-refresh"]
    assert any(dev.shard is not shard for dev, shard in zip(sim.devices, shards))
    for dev, shard in zip(sim.devices, shards, strict=True):
        assert np.array_equal(dev.shard.labels, shard.labels)
    assert cfg.dataset.shards == shards and _arrays(cfg.dataset) == before


def test_first_crossing_is_a_scan_of_the_rows():
    name = "async-sched/seed1"
    result = run(SCENARIOS[name]())
    assert digest(result) == json.loads(GOLDEN.read_text())[name]
    rows = result.trace.rows
    accs = sorted({r.acc for r in rows})
    # Every accuracy reached, each midpoint between two, and one above them all.
    targets = accs + [(a + b) / 2 for a, b in zip(accs, accs[1:])] + [accs[-1] + 0.01]
    for target in targets:
        expected = next((r.t for r in rows if r.acc >= target), None)
        assert result.trace.first_crossing(target) == expected


def test_empty_gateway_survives_save_and_load(tmp_path):
    """Gateway 0 has no links, so after a round trip through a file it still has no members."""
    cfg = _empty_gateway()
    save_topology(cfg.topology, tmp_path / "topo.json")
    cfg.topology = load_topology(tmp_path / "topo.json")
    assert not cfg.topology.feasible[:, 0].any()
    result = run(cfg)
    assert digest(result) == json.loads(GOLDEN.read_text())["async-hl/empty-gateway"]


if __name__ == "__main__":
    names = sys.argv[1:]
    unknown = sorted(set(names) - set(SCENARIOS))
    if unknown:
        sys.exit(f"unknown scenarios: {' '.join(unknown)}")
    digests = json.loads(GOLDEN.read_text()) if names else {}
    for name in names or sorted(SCENARIOS):
        old, digests[name] = digests.get(name), digest(run(SCENARIOS[name]()))
        if names:
            print(f"{name}: {old} -> {digests[name]}")
    GOLDEN.write_text(json.dumps(dict(sorted(digests.items())), indent=1) + "\n")
    print(f"wrote {len(names or digests)} of {len(digests)} digests to {GOLDEN}")
