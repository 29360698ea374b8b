"""The benchmark's workloads: fresh, seeded scenarios for `hfedsim.simulator.run`.

Every scenario is rebuilt from its seed for every run, because `run(cfg)`
mutates `cfg.topology` (association, fault feasibility, slowdown factors).
A `SimConfig` is therefore never run twice.

Why three workloads:
  cohort-sync    Sync gateways dispatch whole cohorts, so local SGD dominates
                 and the scheduling layers never run. A cohort-batching
                 change to local training should show its gain here.
  stream-faults  Async gateways dispatch about one device at a time, with
                 shard refresh and a drop/restore/slowdown fault schedule.
                 Same local-SGD layer, used one device at a time, plus the
                 fault, refresh and event-loop paths no other workload reaches.
                 A cohort-batching change should leave it unchanged.
  sched-scale    Utility-driven scheduling at N=500/G=10, where the N x N
                 Gram matrix and the association heuristic dominate. An
                 incremental scheduling change should show its gain here;
                 the other two bypass those layers. At N=1000/G=20 one
                 scenario took 10-23 s and its work varied by about 16%
                 between seeds, too slow and too uneven for a steady run.

The host work of one scenario varies with its seed (how many device rounds
fit into H cloud epochs), so each seed expands into REPLICAS scenarios and
the timings are averaged over them.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from hfedsim.data import DataSpec, gen_synthetic
from hfedsim.learning import ModelArch, TrainConfig
from hfedsim.network import FaultEvent, TopologySpec, gen_topology
from hfedsim.simulator import SimConfig

ARCH = ModelArch("mlp", input_dim=20, num_classes=10, hidden_dim=32)
TRAIN = TrainConfig(gamma=0.05, rho=0.1, epochs=2, batch_size=16)
MODEL_BYTES = 8 * ARCH.param_count  # float64 parameters on the wire
REPLICAS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    num_devices: int
    num_gateways: int
    samples_per_device: int
    cloud_epochs: int  # H
    target_gain: float  # accuracy gain over the initial model that counts as the target
    refresh: bool = False  # redraw each device's shard after every upload
    fault_frac: float = 0.0  # share of devices that get a drop and a slowdown
    fault_horizon: float = 0.0  # simulated seconds over which faults are spread


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cohort-sync", "sync-random", 100, 5, 100, cloud_epochs=3, target_gain=0.5),
        Workload(
            "stream-faults", "async-random", 100, 5, 100, cloud_epochs=50, target_gain=0.3,
            refresh=True, fault_frac=0.15, fault_horizon=250.0,
        ),
        Workload("sched-scale", "async-sched", 500, 10, 40, cloud_epochs=45, target_gain=0.01),
    )
}


def _fault_schedule(w: Workload, rng: np.random.Generator) -> list[FaultEvent]:
    """Drop-then-restore and slowdown-then-restore pairs on random devices."""
    k = int(round(w.fault_frac * w.num_devices))
    faults = []
    for action, devices in (
        ("drop", rng.choice(w.num_devices, k, replace=False)),
        ("slowdown", rng.choice(w.num_devices, k, replace=False)),
    ):
        for i in devices:
            start = float(rng.uniform(0.05, 0.7)) * w.fault_horizon
            end = start + float(rng.uniform(0.05, 0.25)) * w.fault_horizon
            factor = float(rng.uniform(2.0, 5.0)) if action == "slowdown" else 1.0
            faults.append(FaultEvent(start, int(i), action, factor))
            faults.append(FaultEvent(end, int(i), "restore"))
    return sorted(faults, key=lambda f: (f.time, f.device))


def build(w: Workload, seed: int, replica: int = 0) -> tuple[SimConfig, dict[str, float]]:
    """Build a fresh SimConfig for replica `replica` of `w` under `seed`.

    Also returns the set-up timings in seconds.
    """
    data_seed, topo_seed, fault_seed, sim_seed = (
        int(s) for s in np.random.SeedSequence([seed, replica]).generate_state(4)
    )
    t0 = time.perf_counter()
    spec = DataSpec(
        num_devices=w.num_devices,
        num_classes=ARCH.num_classes,
        classes_per_device=2,
        samples_per_device=w.samples_per_device,
        input_dim=ARCH.input_dim,
        refresh=w.refresh,
    )
    dataset = gen_synthetic(spec, data_seed)
    t1 = time.perf_counter()
    topo = gen_topology(TopologySpec(w.num_devices, w.num_gateways, MODEL_BYTES), topo_seed)
    if w.fault_frac > 0:
        topo = dataclasses.replace(
            topo, faults=_fault_schedule(w, np.random.default_rng(fault_seed))
        )
    t2 = time.perf_counter()
    cfg = SimConfig(
        mode=w.mode,
        arch=ARCH,
        dataset=dataset,
        topology=topo,
        train=TRAIN,
        seed=sim_seed,
        data_spec=spec if w.refresh else None,
        gateway_epochs=10,
        cloud_epochs=w.cloud_epochs,
        pca_dim=30,
        eval_every=20.0,
    )
    cfg.validate()
    t3 = time.perf_counter()
    return cfg, {"gen_synthetic_s": t1 - t0, "gen_topology_s": t2 - t1, "setup_s": t3 - t0}
