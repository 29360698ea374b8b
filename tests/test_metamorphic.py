"""Metamorphic relations: changes to a run's input whose effect on its output is known.

A golden digest pins today's bits; a relation here holds for any correct
simulator, so it survives a re-capture of the goldens.

Null faults: a slowdown by 1.0, a restore of a device that was never dropped,
and a drop due after the run has ended each change nothing. Every mode runs
`small_config` at seeds 0-3; each base run ends `done`, and each run with one
of the faults added must give the base run's `digest`.

Time scale by 2: doubling every link's three delay means, the cloud-gateway
delay, every fault time, `eval_every`, `semi_window` and `time_budget`, and
halving every gateway cap, doubles every trace row's `t`, every transfer's
time and the end time, and leaves everything else bit-identical: the other
trace and transfer fields, the byte counters, the final parameters, the stop
reason and the cloud epochs done. Scaling by a power of two is exact in
binary floating point; the association reads rate-to-cap ratios, which do not
change, and at kappa = 1 every knapsack value and rate halves exactly.

A device with no link: appending a device that has a shard and reaches no
gateway leaves the digest unchanged. The random association draws nothing for
it, and the solver's exact-or-heuristic count, the product of the devices'
option counts, gains a factor 1, so it meets no size switch.

Both relations run every mode at seeds 0-3 on two 8-device, 3-gateway
topologies: a uniform one with a tight cap, and a generated one with
heterogeneous delays, a drop and restore, and a x4 slowdown. Async-sched on a
12-device uniform topology adds runs whose associations take the heuristic.
"""

import dataclasses
from unittest import mock

import pytest

from hfedsim import selection
from hfedsim.learning import Shard
from hfedsim.network import DelayParams, FaultEvent, TopologySpec, gen_topology
from hfedsim.simulator import MODES, run
from simtools import digest, small_config, uniform_topology

N, G = 6, 2
SEEDS = range(4)


def null_faults(end_time: float) -> dict[str, FaultEvent]:
    """Each fault is due while the base run, which ended at `end_time`, is going, except the late drop."""
    return {
        "slowdown-by-1": FaultEvent(end_time / 2, 0, "slowdown", 1.0),
        "restore-never-dropped": FaultEvent(end_time / 3, 1, "restore"),
        "drop-after-the-end": FaultEvent(end_time + 1.0, 2, "drop"),
    }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode", list(MODES))
def test_null_faults_change_nothing(mode, seed):
    base = run(small_config(mode=mode, n=N, g=G, seed=seed))
    assert base.stop_reason == "done"
    want = digest(base)
    for name, fault in null_faults(base.end_time).items():
        topo = uniform_topology(N, G, sigma=0.5, faults=[fault])
        got = run(small_config(mode=mode, n=N, g=G, seed=seed, topology=topo))
        assert got.stop_reason == "done", name
        assert digest(got) == want, name


def generated_topology():
    topo = gen_topology(TopologySpec(8, 3, 8000, het_sigma=1.0, bandwidth_frac=0.3), 3)
    faults = [
        FaultEvent(40.0, 1, "drop"),
        FaultEvent(90.0, 1, "restore"),
        FaultEvent(20.0, 2, "slowdown", 4.0),
    ]
    return dataclasses.replace(topo, faults=faults)


TOPOLOGIES = {
    "uniform": lambda: uniform_topology(8, 3, sigma=0.5, bandwidth=4000.0),
    "generated": generated_topology,
}


def config(mode, seed, topo, k=1.0):
    """`small_config` on `topo` with its run times (eval period, window, budget) times k."""
    n, g = topo.num_devices, topo.num_gateways
    return small_config(
        mode=mode, n=n, g=g, seed=seed, topology=topo,
        eval_every=30.0 * k, semi_window=15.0 * k, time_budget=1e6 * k,
    )


def time_scaled(topo, k):
    """`topo` with every delay mean, the cloud delay and every fault time times k, every cap over k."""
    return dataclasses.replace(
        topo,
        link_params={
            link: DelayParams(p.mean_down * k, p.mean_comp * k, p.mean_up * k, p.sigma)
            for link, p in topo.link_params.items()
        },
        bandwidth=topo.bandwidth / k,
        cloud_gateway_delay=topo.cloud_gateway_delay * k,
        faults=[dataclasses.replace(f, time=f.time * k) for f in topo.faults],
    )


def with_linkless_device(cfg):
    """`cfg` with one more device, last, that has a copy of the last shard and no link."""
    topo = cfg.topology
    last = cfg.dataset.shards[-1]
    shard = Shard(last.features.copy(), last.labels.copy())
    return dataclasses.replace(
        cfg,
        topology=dataclasses.replace(topo, num_devices=topo.num_devices + 1),
        dataset=dataclasses.replace(cfg.dataset, shards=[*cfg.dataset.shards, shard]),
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("topology", list(TOPOLOGIES))
def test_time_scale_by_two(topology, mode, seed):
    k = 2.0
    topo = TOPOLOGIES[topology]()
    base = run(config(mode, seed, topo))
    got = run(config(mode, seed, time_scaled(topo, k), k))
    # repr prints each float so that it reads back bit for bit.
    assert [repr(r) for r in got.trace.rows] == [
        repr(dataclasses.replace(r, t=r.t * k)) for r in base.trace.rows
    ]
    assert [repr(tr) for tr in got.transfers] == [
        repr(dataclasses.replace(tr, time=tr.time * k)) for tr in base.transfers
    ]
    assert got.final_params.tobytes() == base.final_params.tobytes()
    assert got.end_time == base.end_time * k
    same = ("bytes_total", "bytes_overhead", "stop_reason", "cloud_epochs_done")
    assert [getattr(got, f) for f in same] == [getattr(base, f) for f in same]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("topology", list(TOPOLOGIES))
def test_a_device_with_no_link_changes_nothing(topology, mode, seed):
    cfg = config(mode, seed, TOPOLOGIES[topology]())
    assert digest(run(with_linkless_device(cfg))) == digest(run(cfg))


@pytest.mark.parametrize("seed", SEEDS)
def test_a_device_with_no_link_changes_nothing_on_the_heuristic_path(seed):
    cfg = config("async-sched", seed, uniform_topology(12, 3, sigma=0.5, bandwidth=6000.0))
    digests = []
    for c in (cfg, with_linkless_device(cfg)):
        heuristic = mock.patch.object(
            selection, "_association_heuristic", wraps=selection._association_heuristic
        )
        with heuristic as spy:
            digests.append(digest(run(c)))
        assert spy.call_count > 0
    assert digests[0] == digests[1]
