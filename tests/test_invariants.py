"""Whole-run invariants, checked after every event of small fixed and drawn runs.

`CheckedSimulation` is a test-only `_Simulation` whose event handlers run the
simulation's own and then check the run's state. The heap holds the plain
function of each handler, so the subclass's function is the one that runs;
`schedule` asserts that every scheduled handler is a checked one.

After every event:
  - the byte counters equal `recompute_bytes_from_log` over the transfer log;
  - each gateway's record of its flights is the flights in the air sent from
    it, in dispatch order, and its residual bandwidth is its cap less a fresh
    sum of their rates, bit for bit;
  - each gateway's load (the rates of its flights) is at most its bandwidth,
    except during the warmup sweep, which ignores the cap;
  - each gateway's member list is the devices assigned to it, in id order;
  - every untrained flight in the air has an entry in its shard size's
    `untrained` heap under its exact landing time and its dispatch order;
  - every link no upload has crossed is estimated at its configured mean;
  - under the utility selector `has_grad` marks exactly the devices with a
    charged upload, and `grads` is `[N, param_count]` until the PCA fit and
    `[N, pca_model.dim]` from it on; under the others no device has reported
    and `grads` is None;
  - every assigned gateway is one the device can reach now;
  - an idle device's gateway is the latest association's target for it, or
    -1 if it has dropped since;
  - a flight leaves the air only by its own upload, which is charged once, or
    by its device's drop; a voided flight uploads nothing.
After the run, every dispatched flight has ended once or is still in the air,
a plain `run` of a fresh config gives the same digest, and a run that stalled
left no device with a link.
"""

import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfedsim import simulator
from hfedsim.data import DataSpec, gen_synthetic
from hfedsim.network import FaultEvent
from hfedsim.simulator import MODES, SimResult, _Simulation, run
from simtools import digest, landing_times, small_config, uniform_topology
from test_golden import SCENARIOS

HANDLERS = [name for name in vars(_Simulation) if name.startswith("on_")] + ["run_association"]


class CheckedSimulation(_Simulation):
    def __init__(self, cfg):
        super().__init__(cfg)
        self.target = None  # the latest association's gateway per device
        self.dropped_since: set[int] = set()
        self.logged = (0, 0, 0)  # transfers counted so far, and their bytes and overhead
        self.ended: dict[int, simulator.Flight] = {}  # by id; holding them keeps ids unique
        self.uploaded: set[tuple[int, int]] = set()  # (device, gateway) links in the log

    def schedule(self, delay, handler, *args):
        assert handler.__name__ in HANDLERS, f"{handler.__name__} runs unchecked"
        super().schedule(delay, handler, *args)

    def _associated(self, targets):
        self.target = list(targets)
        self.dropped_since = set()

    def _random_association(self):
        targets = super()._random_association()
        self._associated(targets)
        return targets

    def _solve_association(self, feasible, u, ratio, phi):
        out = self._real_solve_association(feasible, u, ratio, phi)
        self._associated(out)
        return out

    def run(self):
        self._real_solve_association = simulator.solve_association
        with mock.patch.object(simulator, "solve_association", self._solve_association):
            result = super().run()
        dispatched = sum(t.kind == "dispatch" for t in result.transfers)
        assert dispatched == len(self.ended) + len(self.flights)
        return result

    def check(self, name, args, before, logged_until):
        counted, total, overhead = self.logged
        more = types.SimpleNamespace(transfers=self.transfers[counted:])
        dt, do = SimResult.recompute_bytes_from_log(more, self.topo.model_bytes)
        self.logged = (len(self.transfers), total + dt, overhead + do)
        assert self.logged[1:] == (self.bytes_total, self.bytes_overhead)
        new = self.transfers[logged_until:]

        for gw, cap in zip(self.gateways, self.topo.bandwidth):
            j = gw.id
            sent = [(i, f) for i, f in self.flights.items() if f.gateway == j]
            recorded = list(self.gateway_flights[j].items())
            assert [(i, id(f)) for i, f in recorded] == [(i, id(f)) for i, f in sent]
            load = sum(f.rate for _, f in sent)
            assert self._residual_bandwidth(gw).hex() == (float(cap) - load).hex()
            if self.warmup_done:
                assert load <= cap * (1 + 1e-12), f"gateway {j} over its cap"
            assert self.members[j] == np.flatnonzero(self.gateway_of == j).tolist()

        landing = landing_times(self)
        entries = {n: set(heap) for n, heap in self.untrained.items()}
        for i, f in self.flights.items():
            if f.params is None:
                entry = (landing[id(f)], f.order, i)
                assert entry in entries.get(self.devices[i].shard.n, ()), f"flight {i} not queued"

        self.uploaded.update((int(t.src[3:]), int(t.dst[2:])) for t in new
                             if t.kind == "device_upload")
        for (i, j), link in self.topo.link_params.items():
            if (i, j) not in self.uploaded:
                assert self.latency[i][j] == link.mean_total, f"link {i}-{j} moved"

        reported = np.flatnonzero(self.has_grad).tolist()
        if self.policy.selector == "utility":
            assert reported == sorted({i for i, _ in self.uploaded})
            width = self.arch.param_count if self.pca_model is None else self.pca_model.dim
            assert self.grads.shape == (self.topo.num_devices, width)
        else:
            assert reported == [] and self.grads is None

        for i, j in enumerate(self.gateway_of):
            assert j == -1 or self.feasible[i, j], f"device {i} assigned to unreachable {j}"

        drop = name == "on_fault_timer" and args[0].action == "drop"
        if drop:
            self.dropped_since.add(args[0].device)
        for i, j in enumerate(self.gateway_of):
            if i not in self.flights:
                want = -1 if i in self.dropped_since else self.target[i]
                assert j == want, f"idle device {i} at gateway {j}, association says {want}"

        in_air = {id(f) for f in self.flights.values()}
        ended = [(i, f) for i, f in before.items() if id(f) not in in_air]
        uploads = [int(t.src[3:]) for t in new if t.kind == "device_upload"]
        if name == "on_device_upload_arrives" and before.get(args[0]) is args[1]:
            assert ended == [(args[0], args[1])] and uploads == [args[0]]
        elif drop and args[0].device in before:
            i = args[0].device
            assert ended == [(i, before[i])] and uploads == []
        else:
            assert ended == [] and uploads == [], f"{name} ended {ended}, uploaded {uploads}"
        for _, f in ended:
            self.ended[id(f)] = f
        assert not in_air & self.ended.keys(), "an ended flight is in the air again"


def _checked(name):
    handler = getattr(_Simulation, name)

    def checked(self, *args):
        before, logged_until = dict(self.flights), len(self.transfers)
        handler(self, *args)
        self.check(name, args, before, logged_until)

    checked.__name__ = name
    return checked


for _name in HANDLERS:
    setattr(CheckedSimulation, _name, _checked(_name))


def check_run(build):
    """Run a fresh config from `build` under every check."""
    sim = CheckedSimulation(build())
    result = sim.run()
    assert digest(result) == digest(run(build())), "a repeated run differs"
    if result.stop_reason == "stalled":
        assert not sim.feasible.any(), "the run stalled while a device had a link"


def drawn_config(mode, n, g, sigma, bandwidth, faults, refresh, seed, assoc_period):
    """A small run on a uniform network; `faults` holds (time, device, action) triples."""
    topo = uniform_topology(
        n, g, sigma=sigma, bandwidth=bandwidth,
        faults=[FaultEvent(t, i, action, 2.0 if action == "slowdown" else 1.0)
                for t, i, action in faults],
    )
    spec = DataSpec(
        num_devices=n, num_classes=4, classes_per_device=2, samples_per_device=12,
        input_dim=3, cluster_spread=0.4, refresh=refresh,
    )
    cfg = small_config(
        mode=mode, n=n, g=g, seed=seed, topology=topo, assoc_period=assoc_period,
        cloud_epochs=8, gateway_epochs=2,
    )
    cfg.dataset, cfg.data_spec = gen_synthetic(spec, seed=seed), spec
    return cfg


def _one_capped_gateway():
    """Nine devices share one gateway whose cap admits two at a time. The
    association once left them all unassigned here, and the run stalled."""
    return drawn_config(
        "async-sched", n=9, g=1, sigma=0.0, bandwidth=1500.0, faults=[], refresh=False,
        seed=0, assoc_period=1,
    )


def _everyone_dropped_and_restored(mode):
    """All three devices drop at 1 s and are restored at 5 s (ROADMAP item 13)."""
    faults = [FaultEvent(t, i, action) for t, action in ((1.0, "drop"), (5.0, "restore"))
              for i in range(3)]
    topo = uniform_topology(3, 1, sigma=0.5, faults=faults)
    return small_config(mode=mode, n=3, g=1, seed=1, topology=topo)


CASES = {
    **{name: SCENARIOS[name] for name in (
        "async-random/drop-pending-assoc",
        "async-sched/gen-topology",
        "async-sched/drop-ends-warmup",
        "async-sched/one-warmup-gradient",
        "async-random/ties-drop-restore",
        "async-hl/empty-gateway",
        *(f"{mode}/faults-refresh" for mode in MODES),
    )},
    "async-sched/one-capped-gateway": _one_capped_gateway,
    **{f"{mode}/everyone-dropped-and-restored": lambda m=mode: _everyone_dropped_and_restored(m)
       for mode in ("async-random", "async-sched", "sync-random")},
}
# ROADMAP item 13: a restore gives its device no gateway, and an async mode runs
# no association until a cloud aggregation, so with every device restored and
# nothing in the air the run stalls at h=0.
RESTORE_STALLS = pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="a restored device has no gateway (item 13)"
)


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=RESTORE_STALLS)
    if name in ("async-random/everyone-dropped-and-restored",
                "async-sched/everyone-dropped-and-restored")
    else name
    for name in CASES
])
def test_run_keeps_the_invariants(name):
    check_run(CASES[name])


_grid = st.integers(0, 160).map(lambda k: 0.5 * k)  # coarse, so faults tie with uploads


@st.composite
def drawn_params(draw):
    n = draw(st.integers(3, 12))
    fault = st.tuples(_grid, st.integers(0, n - 1), st.sampled_from(["drop", "restore", "slowdown"]))
    return dict(
        mode=draw(st.sampled_from(list(MODES))),
        n=n,
        g=draw(st.integers(1, 3)),
        sigma=draw(st.sampled_from([0.0, 0.5])),
        bandwidth=draw(st.sampled_from([1500.0, 3000.0, 1e9])),
        faults=draw(st.lists(fault, max_size=6)),
        refresh=draw(st.booleans()),
        seed=draw(st.integers(0, 2**16)),
        assoc_period=draw(st.sampled_from([1, 4])),
    )


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(drawn_params())
def test_drawn_runs_keep_the_invariants(params):
    check_run(lambda: drawn_config(**params))
