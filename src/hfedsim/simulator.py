"""Deterministic discrete-event engine for three-tier federated training.

One simulation owns a cloud model, per-gateway models, and per-device state,
and advances a (time, seq)-ordered event heap. Everything stochastic draws
from a single seeded generator inside the event loop, so a (config, seed)
pair fully determines the trace.

An event is a call to one of the simulation's own methods, due at a time:
`schedule(delay, self.on_fault_timer, fault)` pushes (time, seq, function,
args), and the loop calls `function(self, *args)`. `seq` counts up with every
schedule call, so events due together run in the order they were scheduled.
The heap holds the plain function, not the bound method: a bound method would
hold the simulation, and the events still queued when a run ends would then
keep it in a reference cycle that only the cyclic collector frees.

The `Topology` is input only; the link state a run changes lives on the
simulation. `feasible` starts as a copy of the topology's: a drop zeroes the
device's row and a restore copies it back. `gateway_of` holds each device's
gateway (-1 for none), set at once by the association, for devices in the air
too, and cleared by a drop. A flight keeps the gateway it was sent from.
`slowdown` holds each device's delay factor, set by a slowdown fault and
reset by a restore.

Each device round in the air has one record: a `Flight` in `flights`, keyed by
device and kept in dispatch order, from dispatch until its upload lands or a
drop removes it. A gateway's load is the sum of its flights' rates. The device
events carry the `Flight` itself, so an event whose flight is no longer the
device's entry in `flights` belongs to a voided round and does nothing.

Local training is lazy. A flight trains on its device's shard, from the
gateway model it was sent, which is also its proximal anchor, with a seed drawn
from the device's round count. All three are fixed while the flight is in the
air: the model and seed at dispatch, and the shard because it refreshes only
after its own upload has removed the flight. When an upload lands before its
flight has trained, every flight then in the air trains at once, in lockstep
blocks of devices that share a shard size (`local_train_cohort`), and each
keeps its row until its own upload. An async gateway sends to about one device
at a time, so this fills blocks that dispatch-time training would run one row
at a time, and the trace is the same as if each device had trained alone on
arrival. A divergence raises at the device's upload, so only a live flight
raises; a voided flight is dropped with whatever it holds.

Evaluation. The evaluation timer records a trace row every `eval_every`
seconds, and most rows see the cloud model of the row before: a barrier cloud
aggregates far less often than the timer fires. Each cloud model is evaluated
once. `cloud_params` is replaced, never mutated, so `record_eval` keeps the
last model it evaluated with its accuracy and loss, and reuses them while
`cloud_params` is still that same object.

Warmup. The utility and loss selectors open with a sweep that seeds the
learning utility and the PCA compressor: each gateway's first dispatch, on the
initial model (`tau == 0 and cycle == 0`), sends to every idle member and
ignores the cap. Until the warmup ends, every later dispatch selects nothing,
so the sweep is the flights in the air; no separate set tracks it. When the
last flight lands or drops (`_flight_ended`, the one place a flight ends), the
utility selector fits the compressor (if at least two gradients came in;
otherwise the run stays uncompressed) and every gateway dispatches again. No
sweep flight can land or drop before every gateway has swept: `run` schedules
the initial model arrivals one after another with one delay, so they are
consecutive heap entries, and the only events due at that instant that come
before them are fault timers (scheduled first) and, with no cloud delay, the
first evaluation. A barrier or window gateway would spin through empty rounds
while other sweeps are out, so `Policy` allows a warmup selector only on an
async gateway. `_start_round` closes an empty barrier round itself rather
than through `_flight_ended`, because there a gateway with no members would
end the warmup before the other gateways had swept.

Latency estimate. Selection and association rate a (device, gateway) link by
its round-latency estimate: the link's configured mean until the device's
first upload over it, then that upload's dispatch-to-upload latency, then an
EMA with weight `alpha_ema` on each later one. `tau_estimate` reads it and
each upload updates it; nothing else holds it.

Run end. The run is done once the cloud has aggregated `cloud_epochs` times
(`h >= cloud_epochs`): that aggregation sends no model, no more events run,
and the evaluation timer stops rescheduling itself. The run also ends when
the next event is due after `time_budget`, or when no event is left.

A barrier cloud weighs each gateway's model by the samples its rounds
aggregated since its last download (`cycle_samples`). An async gateway runs no
rounds, so its uploads weigh 0, and under a barrier cloud the cloud model would
never move. `Policy` therefore rejects an async gateway with a barrier cloud.

Modes. A mode is one row of `MODES`: a policy on each of three axes.
  gateway   async    staleness-discounted step per device upload; uploads to
                     the cloud after Z of them
            barrier  FedAvg once every device of the round has uploaded or
                     dropped; Z rounds per cloud upload
            window   FedAvg of the uploads buffered within a waiting window,
                     each discounted by how many windows late it is
  cloud     broadcast  staleness-discounted step per gateway upload, new model
                       sent to every gateway
            reply      the same step, new model sent to the uploader only
            barrier    FedAvg once every gateway has uploaded, sent to all
  selector  utility  warmup sweep, then the bandwidth knapsack on learning
                     utility and latency at gateways (PCA-compressed gradients
                     ride on uploads) and the min-max association at the cloud
            loss     warmup sweep, then highest last local loss first
            random   random fill of the bandwidth cap, random association

  mode                 gateway  cloud      selector
  async-sched          async    broadcast  utility
  async-random         async    broadcast  random
  async-hl             async    broadcast  loss
  sync-random          barrier  barrier    random
  semi-async           window   barrier    random
  sync-gw-async-cloud  barrier  reply      random
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .data import DataSpec, FederatedDataset, refresh_shard
from .errors import ConfigurationError
from .learning import (
    ModelArch,
    Shard,
    TrainConfig,
    evaluate,
    grad_regularized,
    init_params,
    local_train_cohort,
    raise_if_diverged,
)
from .network import FaultEvent, Topology, est_rate, sample_round_latency
from .selection import (
    AssociationInstance,
    Candidate,
    SelectionInstance,
    solve_association,
    solve_selection,
)
from .utility import (
    learning_utility,
    pca_bytes,
    pca_fit,
    pca_project,
)


@dataclass(frozen=True)
class Policy:
    """How a mode aggregates at each tier and picks devices (see the module docstring)."""

    gateway: str  # async | barrier | window
    cloud: str  # broadcast | reply | barrier
    selector: str  # utility | loss | random

    def __post_init__(self):
        for value, valid in (
            (self.gateway, "async barrier window"),
            (self.cloud, "broadcast reply barrier"),
            (self.selector, "utility loss random"),
        ):
            if value not in valid.split():
                raise ConfigurationError(f"unknown policy {value!r}; valid: {valid}")
        if self.gateway != "async" and self.selector != "random":
            # Until the warmup ends a gateway selects nothing, so a round
            # gateway would spin through empty rounds while other sweeps are out.
            raise ConfigurationError(f"the {self.selector} selector needs an async gateway")
        if self.gateway == "async" and self.cloud == "barrier":
            # Every upload would weigh 0, so the cloud model would never move.
            raise ConfigurationError("a barrier cloud needs a barrier or window gateway")


MODES: dict[str, Policy] = {
    "async-sched": Policy("async", "broadcast", "utility"),
    "async-random": Policy("async", "broadcast", "random"),
    "async-hl": Policy("async", "broadcast", "loss"),
    "sync-random": Policy("barrier", "barrier", "random"),
    "semi-async": Policy("window", "barrier", "random"),
    "sync-gw-async-cloud": Policy("barrier", "reply", "random"),
}
# Flights trained in one stacked pass. On the cohort-sync benchmark (perfbench,
# 15 s runs, seeds 91-94, one run each on a 2-core container), blocks of 8, 16,
# 32 and uncapped ran a median 2886, 3009, 3057 and 3179 rounds/s at a peak RSS
# of 44.2, 44.9, 46.2 and 51.9 MB. Uncapped blocks are 6% faster than 16 but
# take 16% more RSS (17% more than 8; 12.6% more than 8 in an earlier run with
# the per-step SGD), past the benchmark's 10% bound. 32 buys 1.6% for 3% more.
COHORT_BLOCK = 16


def staleness(q: float, delta: int) -> float:
    """Polynomial staleness discount (delta + 1) ** -q."""
    if delta < 0 or q < 0:
        raise ConfigurationError("staleness needs delta >= 0 and q >= 0")
    return float((delta + 1) ** (-q))


def async_aggregate(
    current: np.ndarray,
    incoming: np.ndarray,
    base_weight: float,
    stale_delta: int,
    q: float,
) -> np.ndarray:
    """Staleness-discounted convex step from `current` toward `incoming`."""
    if current.shape != incoming.shape:
        raise ConfigurationError("aggregation length mismatch")
    if not 0 < base_weight <= 1:
        raise ConfigurationError("base weight must be in (0, 1]")
    w = base_weight * staleness(q, stale_delta)
    assert 0 < w <= 1
    return (1 - w) * current + w * incoming


@dataclass
class TraceRow:
    t: float
    h: int
    acc: float
    loss: float
    bytes: int
    overhead_bytes: int
    max_stale_cloud: int
    max_stale_gw: int


class MetricTrace:
    """Append-only metric rows; simulated time and byte counters never decrease."""

    def __init__(self):
        self.rows: list[TraceRow] = []

    def append(self, row: TraceRow) -> None:
        if self.rows:
            last = self.rows[-1]
            assert row.t >= last.t and row.bytes >= last.bytes
            assert row.overhead_bytes >= last.overhead_bytes
        self.rows.append(row)

    def to_csv(self) -> str:
        """One header line of `TraceRow`'s field names, then one line per row."""
        names = [f.name for f in dataclasses.fields(TraceRow)]
        lines = [names] + [[str(getattr(r, name)) for name in names] for r in self.rows]
        return "".join(",".join(line) + "\n" for line in lines)

    def first_crossing(self, target_acc: float) -> float | None:
        for r in self.rows:
            if r.acc >= target_acc:
                return r.t
        return None


@dataclass(frozen=True)
class Transfer:
    """One logged wire event; `size` includes `overhead` bytes."""

    time: float
    kind: str  # dispatch | device_upload | broadcast | gateway_upload | pca_distribution
    src: str
    dst: str
    size: int
    overhead: int


@dataclass
class SimConfig:
    mode: str
    arch: ModelArch
    dataset: FederatedDataset
    topology: Topology
    train: TrainConfig
    seed: int = 0
    data_spec: DataSpec | None = None  # enables per-round shard refresh
    alpha: float = 0.6  # cloud base aggregation weight
    beta: float = 0.6  # gateway base aggregation weight
    staleness_exp: float = 0.5  # q
    gateway_epochs: int = 20  # Z: gateway aggregations per cloud upload
    cloud_epochs: int = 200  # H: run ends after this many cloud aggregations
    kappa: float = 1.0  # latency exponent in the selection objective
    phi: float = 0.1  # throughput weight in the association objective
    assoc_period: int = 5  # cloud epochs between association runs
    pca_dim: int = 30
    alpha_ema: float = 0.5
    semi_window: float = 100.0  # waiting period T, seconds
    eval_every: float = 60.0
    time_budget: float = 1e7

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigurationError(f"unknown mode {self.mode!r}; valid: {tuple(MODES)}")
        n = self.dataset.num_devices
        if n != self.topology.num_devices:
            raise ConfigurationError(
                f"dataset has {n} devices but topology has {self.topology.num_devices}"
            )
        if not 0 < self.alpha <= 1 or not 0 < self.beta <= 1:
            raise ConfigurationError("alpha and beta must be in (0, 1]")
        if self.staleness_exp < 0:
            raise ConfigurationError("staleness_exp must be >= 0")
        if self.gateway_epochs < 1 or self.cloud_epochs < 1:
            raise ConfigurationError("gateway_epochs and cloud_epochs must be >= 1")
        if self.kappa < 0 or self.phi < 0:
            raise ConfigurationError("kappa and phi must be >= 0")
        if self.assoc_period < 1:
            raise ConfigurationError("assoc_period must be >= 1")
        utility = MODES[self.mode].selector == "utility"
        if utility and not 1 <= self.pca_dim <= self.arch.param_count:
            raise ConfigurationError("pca_dim must be in [1, model dimension]")
        if self.semi_window <= 0:
            raise ConfigurationError("semi_window must be > 0")
        if self.eval_every <= 0 or self.time_budget <= 0:
            raise ConfigurationError("eval_every and time_budget must be > 0")
        if not 0 < self.alpha_ema <= 1:
            raise ConfigurationError("alpha_ema must be in (0, 1]")
        for shard in self.dataset.shards:
            if shard.features.shape[1] != self.arch.input_dim:
                raise ConfigurationError("dataset input_dim does not match architecture")
            if int(shard.labels.max()) >= self.arch.num_classes:
                raise ConfigurationError("dataset labels exceed architecture classes")
        if self.data_spec is not None and self.data_spec.refresh:
            if self.dataset.centroids is None:
                raise ConfigurationError("refresh needs a dataset with generator centroids")
            if self.data_spec.input_dim != self.dataset.centroids.shape[1]:
                raise ConfigurationError("data_spec input_dim does not match the centroids")


@dataclass
class SimResult:
    trace: MetricTrace
    transfers: list[Transfer]
    bytes_total: int
    bytes_overhead: int
    max_stale_cloud: int
    max_stale_gw: int
    cloud_epochs_done: int
    end_time: float
    final_params: np.ndarray
    # done: H cloud epochs ran. time_budget: the next event was due after the
    # budget. stalled: no event was left with fewer than H cloud epochs done.
    stop_reason: str

    def recompute_bytes_from_log(self, model_bytes: int) -> tuple[int, int]:
        """Independent re-derivation of the byte counters from the transfer log."""
        model_kinds = {"dispatch", "device_upload", "broadcast", "gateway_upload"}
        n_models = sum(1 for tr in self.transfers if tr.kind in model_kinds)
        overhead = sum(tr.overhead for tr in self.transfers)
        return model_bytes * n_models + overhead, overhead


@dataclass
class DeviceState:
    shard: Shard
    rounds_started: int = 0
    rounds_done: int = 0
    last_loss: float = float("inf")  # unseen devices sort first for high-loss selection


@dataclass
class GatewayState:
    id: int
    params: np.ndarray
    tau: int = 0  # cloud epoch stamped on the model this gateway holds
    version: int = 0  # monotone aggregation count; every dispatch is stamped with it
    cycle: int = 0  # aggregations since the last cloud download
    # Round state (barrier and window gateways): (params, samples, lateness)
    # per upload, and the samples aggregated since the last cloud download.
    buffer: list[tuple[np.ndarray, float, int]] = field(default_factory=list)
    cycle_samples: float = 0.0


@dataclass
class Flight:
    """One device round, from its dispatch until its upload lands or a drop voids it."""

    gateway: int
    stamp: int  # the gateway's version at dispatch
    rate: float  # admitted rate, counted against the gateway's bandwidth
    anchor: np.ndarray | None  # the gateway model sent; kept for the reported gradient
    seed: int
    observed_tau: float  # dispatch-to-upload latency
    params: np.ndarray | None = None  # trained parameters, once trained


class _Simulation:
    def __init__(self, cfg: SimConfig):
        cfg.validate()
        self.cfg = cfg
        self.policy = MODES[cfg.mode]
        self.topo = cfg.topology
        n = self.topo.num_devices
        # Link state that faults and association change during the run.
        self.feasible = self.topo.feasible.copy()
        self.gateway_of = np.full(n, -1)  # per device; -1 means no gateway
        self.slowdown = [1.0] * n
        self.arch = cfg.arch
        self.rng = np.random.default_rng(cfg.seed)
        self.now = 0.0
        self._seq = itertools.count()
        self._heap: list[tuple[float, int, Callable, tuple]] = []

        self.cloud_params = init_params(cfg.arch, cfg.seed)
        self.h = 0
        self.gateways = [
            GatewayState(j, self.cloud_params) for j in range(self.topo.num_gateways)
        ]
        self.devices = [DeviceState(shard) for shard in cfg.dataset.shards]
        # Observed round latency per (device, gateway); see "Latency estimate".
        self.tau_ema: dict[tuple[int, int], float] = {}

        # Reported gradients. Full length until the PCA fit (for the whole run
        # if none is fitted); from the fit on, each device's row of `coords`
        # holds its compressed gradient if `has_grad` says it reported one.
        self.full_grads: dict[int, np.ndarray] = {}
        self.coords: np.ndarray | None = None
        self.has_grad = np.zeros(n, dtype=bool)
        self.utilities: dict[int, float] = {}
        self._utilities_dirty = False
        self.pca_model = None
        # Every flight in the air, by device, in dispatch order.
        self.flights: dict[int, Flight] = {}

        self.warmup_done = self.policy.selector == "random"

        # Cloud barrier state: gateway -> (params, weight).
        self.cloud_buffer: dict[int, tuple[np.ndarray, float]] = {}

        self.transfers: list[Transfer] = []
        self.bytes_total = 0
        self.bytes_overhead = 0
        self.max_stale_cloud = 0
        self.max_stale_gw = 0
        self.trace = MetricTrace()
        self._evaluated: tuple = (None, 0.0, 0.0)  # (cloud model, accuracy, loss)

    # ---- plumbing ---------------------------------------------------------

    def schedule(self, delay: float, handler: Callable, *args) -> None:
        """Call `handler(*args)`, a bound method of this simulation, `delay` seconds from now."""
        assert delay >= 0, "events cannot be scheduled in the past"
        heapq.heappush(self._heap, (self.now + delay, next(self._seq), handler.__func__, args))

    def charge(self, kind: str, src: str, dst: str, size: int, overhead: int = 0) -> None:
        assert overhead <= size
        self.transfers.append(Transfer(self.now, kind, src, dst, size, overhead))
        self.bytes_total += size
        self.bytes_overhead += overhead

    def _train_seed(self, device: int, round_idx: int) -> int:
        ss = np.random.SeedSequence((self.cfg.seed, device, round_idx))
        return int(ss.generate_state(1)[0])

    # ---- utilities and rates ----------------------------------------------

    def _refresh_utilities(self) -> None:
        if not self._utilities_dirty:
            return
        if self.coords is not None:
            # The fit had >= 2 gradients, and a device never loses its row.
            ids = np.flatnonzero(self.has_grad)
            g = self.coords if len(ids) == len(self.coords) else self.coords[ids]
            u, _, _ = learning_utility(g)
            self.utilities = dict(zip(ids.tolist(), u.tolist()))
        elif len(self.full_grads) >= 2:
            ids = sorted(self.full_grads)
            u, _, _ = learning_utility(np.stack([self.full_grads[i] for i in ids]))
            self.utilities = dict(zip(ids, u.tolist()))
        self._utilities_dirty = False

    def utility_of(self, device: int) -> float:
        self._refresh_utilities()
        if device in self.utilities:
            return self.utilities[device]
        # Cold start: unseen devices look as attractive as the current best.
        return max(self.utilities.values()) if self.utilities else 1.0

    def tau_estimate(self, device: int, gateway: int) -> float:
        """The observed round latency of the link, or its configured mean before any upload."""
        tau = self.tau_ema.get((device, gateway))
        return self.topo.link_params[(device, gateway)].mean_total if tau is None else tau

    def rate_estimate(self, device: int, gateway: int) -> float:
        return est_rate(self.topo.model_bytes, self.tau_estimate(device, gateway))

    # ---- selection and dispatch ---------------------------------------------

    def _idle_candidates(self, gw: GatewayState) -> list[int]:
        members = np.flatnonzero(self.gateway_of == gw.id).tolist()
        return [i for i in members if i not in self.flights]

    def _residual_bandwidth(self, gw: GatewayState) -> float:
        load = sum(f.rate for f in self.flights.values() if f.gateway == gw.id)
        return float(self.topo.bandwidth[gw.id]) - load

    def select_devices(self, gw: GatewayState) -> list[int]:
        ids = self._idle_candidates(gw)
        if not self.warmup_done:
            # The sweep is the dispatch on the initial model; after it a
            # gateway waits for the fit.
            return ids if gw.tau == 0 and gw.cycle == 0 else []
        if not ids:
            return []
        cap = self._residual_bandwidth(gw)
        if cap <= 0:
            return []
        if self.policy.selector == "utility":
            cands = [
                Candidate(i, self.utility_of(i), self.tau_estimate(i, gw.id),
                          self.rate_estimate(i, gw.id))
                for i in ids
            ]
            return sorted(solve_selection(SelectionInstance(cands, cap, self.cfg.kappa)))
        if self.policy.selector == "loss":
            order = sorted(ids, key=lambda i: (-self.devices[i].last_loss, i))
        else:  # random fill
            order = [ids[k] for k in self.rng.permutation(len(ids))]
        chosen, load = [], 0.0
        for i in order:
            r = self.rate_estimate(i, gw.id)
            if load + r <= cap:
                chosen.append(i)
                load += r
        return chosen

    def _train_flights(self) -> None:
        """Train every flight in the air not trained yet, in blocks that share a shard size."""
        by_n: dict[int, list[int]] = {}
        for i, f in self.flights.items():
            if f.params is None:
                by_n.setdefault(self.devices[i].shard.n, []).append(i)
        for group in by_n.values():
            for k in range(0, len(group), COHORT_BLOCK):
                ids = group[k : k + COHORT_BLOCK]
                block = [self.flights[i] for i in ids]
                starts = np.stack([f.anchor for f in block])
                shards, seeds = [self.devices[i].shard for i in ids], [f.seed for f in block]
                rows = local_train_cohort(starts, self.arch, shards, self.cfg.train, seeds)
                for f, row in zip(block, rows):
                    # One copy per flight: a row view would keep its whole block
                    # alive until the block's last flight lands, and raise peak memory.
                    f.params = row.copy()
                    if self.policy.selector != "utility":
                        f.anchor = None  # only the reported gradient needs it now

    def dispatch(self, gw: GatewayState, device_ids: list[int]) -> None:
        """Send the gateway model, stamped with its version, to each device.

        Nothing trains here. Each flight records the gateway model (its start
        and anchor) and its seed (from `rounds_started`). It trains on its
        device's shard, which refreshes only after this flight's upload, so
        the flight can train any time before its upload lands.
        """
        for i in device_ids:
            dev = self.devices[i]
            assert i not in self.flights, "dispatch to a device in the air"
            assert self.gateway_of[i] == gw.id, "dispatch outside the association"
            rate = self.rate_estimate(i, gw.id)
            down, comp, up, total = sample_round_latency(
                self.topo.link_params[(i, gw.id)].slowed(self.slowdown[i]), self.rng
            )
            seed = self._train_seed(i, dev.rounds_started)
            flight = Flight(gw.id, gw.version, rate, gw.params, seed, total)
            self.flights[i] = flight
            dev.rounds_started += 1
            self.charge("dispatch", f"gw{gw.id}", f"dev{i}", self.topo.model_bytes)
            self.schedule(down, self.on_device_model_arrives, i, flight, comp + up)

    # ---- warmup -------------------------------------------------------------

    def finish_warmup(self) -> None:
        self.warmup_done = True
        # One gradient cannot fit a compressor; the run then stays uncompressed.
        if len(self.full_grads) >= 2:
            ids = sorted(self.full_grads)
            p = min(self.cfg.pca_dim, len(ids), self.arch.param_count)
            self.pca_model = pca_fit([self.full_grads[i] for i in ids], p)
            size = pca_bytes(self.pca_model)
            self.charge("pca_distribution", "cloud", "all", size, overhead=size)
            self.coords = np.zeros((self.topo.num_devices, p))
            for i in ids:
                self.coords[i] = pca_project(self.pca_model, self.full_grads[i])
            self.has_grad[ids] = True
            self.full_grads = {}
            self._utilities_dirty = True
        for gw in self.gateways:
            self._start_round(gw)

    def _record_gradient(self, device: int, params: np.ndarray, anchor: np.ndarray) -> int:
        """Store the gradient the device reports with its upload; returns its overhead bytes.

        The gradient is the anchored objective's, on the full shard, at the
        trained parameters. The shard has not refreshed yet, so it is the one
        the device trained on.
        """
        grad = grad_regularized(
            params, anchor, self.arch, self.devices[device].shard, self.cfg.train.rho
        )
        self._utilities_dirty = True
        if self.coords is None:
            self.full_grads[device] = grad
            return 8 * len(grad)
        self.coords[device] = pca_project(self.pca_model, grad)
        self.has_grad[device] = True
        return 8 * self.coords.shape[1]

    # ---- association ----------------------------------------------------------

    def _random_association(self) -> list[int]:
        """A uniformly drawn feasible gateway per device, or -1 where none is feasible."""
        targets = []
        for row in self.feasible:
            feas = np.flatnonzero(row)
            targets.append(int(self.rng.choice(feas)) if len(feas) else -1)
        return targets

    def run_association(self) -> None:
        if self.policy.selector == "utility":
            n, g = self.topo.num_devices, self.topo.num_gateways
            u = np.array([self.utility_of(i) for i in range(n)])
            rates = np.zeros((n, g))
            for (i, j) in self.topo.link_params:
                rates[i, j] = self.rate_estimate(i, j)
            inst = AssociationInstance(
                feasible=self.feasible.copy(),
                u=u,
                rates=rates,
                bandwidth=self.topo.bandwidth.copy(),
                phi=self.cfg.phi,
            )
            targets = [-1 if j is None else j for j in solve_association(inst).gateway_of]
        else:
            targets = self._random_association()
        self.gateway_of[:] = targets

    # ---- metric rows -----------------------------------------------------------

    def record_eval(self) -> None:
        # Invariant: `cloud_params` is replaced, never mutated. An aggregation
        # builds a new array or keeps the old one as it is, so one object has
        # one evaluation. The cache holds the object, so no later array can
        # be taken for it.
        if self._evaluated[0] is not self.cloud_params:
            self._evaluated = (
                self.cloud_params, *evaluate(self.cloud_params, self.arch, self.cfg.dataset.test)
            )
        _, acc, loss = self._evaluated
        self.trace.append(
            TraceRow(
                t=self.now,
                h=self.h,
                acc=acc,
                loss=loss,
                bytes=self.bytes_total,
                overhead_bytes=self.bytes_overhead,
                max_stale_cloud=self.max_stale_cloud,
                max_stale_gw=self.max_stale_gw,
            )
        )

    # ---- aggregation -------------------------------------------------------------

    def _fedavg(
        self, current: np.ndarray, pairs: list[tuple[np.ndarray, float]], where: str
    ) -> np.ndarray:
        """Weighted mean of (params, weight) pairs in order; `current` if no weight is positive."""
        total = sum(w for _, w in pairs)
        if total > 0:
            mix = np.zeros_like(current)
            for p, w in pairs:
                mix += (w / total) * p
            current = mix
        raise_if_diverged(current, f"after aggregation at {where}")
        return current

    def _async_step(
        self, current: np.ndarray, incoming: np.ndarray, weight: float, delta: int, where: str
    ) -> np.ndarray:
        """One tier's async step; `delta` counts its aggregations since `incoming` was sent."""
        assert delta >= 1
        current = async_aggregate(current, incoming, weight, delta, self.cfg.staleness_exp)
        raise_if_diverged(current, f"after aggregation at {where}")
        return current

    def _broadcast(self, gateways: list[GatewayState]) -> None:
        for gw in gateways:
            self.charge("broadcast", "cloud", f"gw{gw.id}", self.topo.model_bytes)
            self.schedule(
                self.topo.cloud_gateway_delay, self.on_gateway_model_arrives,
                gw, self.cloud_params, self.h,
            )

    # ---- gateway rounds -------------------------------------------------------------

    def _start_round(self, gw: GatewayState) -> None:
        """Select and dispatch against the gateway's current model.

        A window round closes on its timer; a barrier round once its last
        flight has ended, at once if nothing was selected.
        """
        ids = self.select_devices(gw)
        self.dispatch(gw, ids)
        if self.policy.gateway == "window":
            self.schedule(self.cfg.semi_window, self.on_window_timer, gw, gw.version)
        elif self.policy.gateway == "barrier" and not ids:
            self._close_round(gw)

    def _flight_ended(self, gw: GatewayState) -> None:
        """The one place a flight ends, once its upload or drop has removed it.

        The warmup ends when no flight is left in the air, and a barrier
        round closes when none of its gateway's is.
        """
        if not self.warmup_done and not self.flights:
            self.finish_warmup()
        if self.policy.gateway == "barrier" and not any(
            f.gateway == gw.id for f in self.flights.values()
        ):
            self._close_round(gw)

    def _close_round(self, gw: GatewayState) -> None:
        """FedAvg of the buffered uploads, each weighted by samples and discounted by lateness.

        A barrier round closes only once nothing is in flight, so its uploads
        are never late, and n * staleness(q, 0) == n exactly.
        """
        q = self.cfg.staleness_exp
        gw.params = self._fedavg(
            gw.params, [(p, n * staleness(q, late)) for p, n, late in gw.buffer],
            f"gateway {gw.id}",
        )
        gw.cycle_samples += sum(n for _, n, _ in gw.buffer)
        gw.buffer = []
        gw.version += 1
        gw.cycle += 1
        if gw.cycle < self.cfg.gateway_epochs:
            self._start_round(gw)
        else:
            self._gateway_upload(gw)

    def _gateway_upload(self, gw: GatewayState) -> None:
        self.charge("gateway_upload", f"gw{gw.id}", "cloud", self.topo.model_bytes)
        self.schedule(
            self.topo.cloud_gateway_delay, self.on_gateway_upload_arrives,
            gw, gw.params, gw.tau, gw.cycle_samples,
        )

    # ---- event handlers ----------------------------------------------------------------

    def on_gateway_model_arrives(self, gw: GatewayState, params: np.ndarray, h_stamp: int) -> None:
        gw.params = params
        gw.tau = h_stamp
        gw.cycle = 0
        gw.cycle_samples = 0.0
        self._start_round(gw)

    def on_device_model_arrives(self, i: int, flight: Flight, after: float) -> None:
        """The device starts its round: its upload is scheduled after compute and uplink.

        Training waits for an upload (see the module docstring). This event
        stays separate from the upload because its place in the heap orders
        ties: the upload takes its sequence number here, not at dispatch.
        """
        if self.flights.get(i) is flight:  # else a fault voided it
            self.schedule(after, self.on_device_upload_arrives, i, flight)

    def on_device_upload_arrives(self, i: int, flight: Flight) -> None:
        if self.flights.get(i) is not flight:
            return
        if flight.params is None:
            self._train_flights()
        params = flight.params
        raise_if_diverged(params, f"while training device {i}")
        del self.flights[i]
        dev = self.devices[i]
        gw = self.gateways[flight.gateway]
        dev.rounds_done += 1
        key, a, tau = (i, gw.id), self.cfg.alpha_ema, flight.observed_tau
        ema = self.tau_ema.get(key)
        self.tau_ema[key] = tau if ema is None else a * tau + (1 - a) * ema

        overhead = 0
        if self.policy.selector == "utility":
            overhead = self._record_gradient(i, params, flight.anchor)
        elif self.policy.selector == "loss":
            _, dev.last_loss = evaluate(params, self.arch, dev.shard)
        self.charge(
            "device_upload", f"dev{i}", f"gw{gw.id}",
            self.topo.model_bytes + overhead, overhead,
        )

        if self.cfg.data_spec is not None and self.cfg.data_spec.refresh:
            rs = self._train_seed(i, 10_000_019 + dev.rounds_done)
            dev.shard = refresh_shard(
                self.cfg.dataset.class_map[i],
                self.cfg.data_spec,
                rs,
                self.cfg.dataset.centroids,
            )

        if self.policy.gateway == "async":
            gw.version += 1
            gw.cycle += 1
            delta = gw.version - flight.stamp
            self.max_stale_gw = max(self.max_stale_gw, delta)
            gw.params = self._async_step(
                gw.params, params, self.cfg.beta, delta, f"gateway {gw.id}"
            )
            self._flight_ended(gw)
            if gw.cycle == self.cfg.gateway_epochs:
                self._gateway_upload(gw)
            self._start_round(gw)
        else:
            lateness = gw.version - flight.stamp
            assert lateness >= 0
            self.max_stale_gw = max(self.max_stale_gw, lateness)
            gw.buffer.append((params, float(dev.shard.n), lateness))
            self._flight_ended(gw)

    def on_gateway_upload_arrives(
        self, gw: GatewayState, params: np.ndarray, tau_stamp: int, weight: float
    ) -> None:
        if self.policy.cloud == "barrier":
            self.cloud_buffer[gw.id] = (params, weight)
            if len(self.cloud_buffer) < len(self.gateways):
                return
            pairs = [self.cloud_buffer[j] for j in sorted(self.cloud_buffer)]
            self.cloud_params = self._fedavg(self.cloud_params, pairs, "cloud")
            self.cloud_buffer.clear()
        else:
            delta = self.h + 1 - tau_stamp
            self.max_stale_cloud = max(self.max_stale_cloud, delta)
            self.cloud_params = self._async_step(
                self.cloud_params, params, self.cfg.alpha, delta, "cloud"
            )
        self.h += 1
        if self.h % self.cfg.assoc_period == 0:
            self.schedule(0.0, self.run_association)
        if self.h < self.cfg.cloud_epochs:
            self._broadcast([gw] if self.policy.cloud == "reply" else self.gateways)

    def on_fault_timer(self, fault: FaultEvent) -> None:
        i = fault.device
        if fault.action == "slowdown":
            self.slowdown[i] = float(fault.factor)
            return
        if fault.action == "restore":
            self.feasible[i] = self.topo.feasible[i]
            self.slowdown[i] = 1.0
            return
        # A drop cuts every link of the device and voids its flight.
        self.feasible[i] = 0
        self.gateway_of[i] = -1
        flight = self.flights.pop(i, None)
        if flight is not None:
            self._flight_ended(self.gateways[flight.gateway])

    def on_window_timer(self, gw: GatewayState, stamp: int) -> None:
        if stamp == gw.version:
            self._close_round(gw)

    def on_eval_timer(self) -> None:
        self.record_eval()
        # An empty heap here means no training activity can ever resume, so
        # rescheduling would only spin the clock until the time budget.
        if self.h < self.cfg.cloud_epochs and self._heap:
            self.schedule(self.cfg.eval_every, self.on_eval_timer)

    # ---- main loop -------------------------------------------------------------------

    def run(self) -> SimResult:
        self.gateway_of[:] = self._random_association()
        # Fault timers go first, so at any time a due fault fires before every
        # other event, and faults due together fire in schedule order.
        for fault in sorted(self.topo.faults, key=lambda f: f.time):
            self.schedule(fault.time, self.on_fault_timer, fault)
        self.schedule(0.0, self.on_eval_timer)
        self._broadcast(self.gateways)

        stop_reason = "stalled"
        while self._heap and self.h < self.cfg.cloud_epochs:
            t, _, handler, args = heapq.heappop(self._heap)
            if t > self.cfg.time_budget:
                stop_reason = "time_budget"
                break
            assert t >= self.now, "event causality violated"
            self.now = t
            handler(self, *args)

        self.record_eval()
        return SimResult(
            trace=self.trace,
            transfers=self.transfers,
            bytes_total=self.bytes_total,
            bytes_overhead=self.bytes_overhead,
            max_stale_cloud=self.max_stale_cloud,
            max_stale_gw=self.max_stale_gw,
            cloud_epochs_done=self.h,
            end_time=self.now,
            final_params=self.cloud_params,
            stop_reason="done" if self.h >= self.cfg.cloud_epochs else stop_reason,
        )


def run(cfg: SimConfig) -> SimResult:
    """Execute one trial; deterministic in (cfg, cfg.seed)."""
    return _Simulation(cfg).run()
