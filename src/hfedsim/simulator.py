"""Deterministic discrete-event engine for three-tier federated training.

One simulation owns a cloud model, per-gateway models, and per-device state,
and advances a (time, seq)-ordered event heap. Everything stochastic draws
from the event loop's seeded generator or from a device round's stream, seeded
from the same seed (see "Streams"), so a (config, seed) pair fully determines
the trace.

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
too, and cleared by a drop. The utility association sets it from the solver's
list as returned, which uses the same -1. `_set_gateways` is its one writer,
and rebuilds `members`, each gateway's devices in ascending id, from it. A
flight keeps the gateway it was sent from. `slowdown` holds each device's
delay factor, set by a slowdown fault and reset by a restore.

Each device round in the air has one record: a `Flight`, from dispatch until
its upload lands or a drop removes it. `dispatch` puts it in `flights`, keyed
by device, and in `gateway_flights` under the gateway it was sent from, both
in dispatch order; `_remove_flight` takes it out of both, for the upload and
the drop alike. A gateway's load is a fresh sum of its flights' rates in
dispatch order, never a running total, which would round differently. The
device events carry the `Flight` itself, so an event whose flight is no longer
the device's entry in `flights` belongs to a voided round and does nothing.

Local training is lazy. A flight trains on its device's shard, from the
gateway model it was sent, which is also its proximal anchor, with the random
stream of the device's round. All three are fixed while the flight is in the
air: the model and stream at dispatch, and the shard because it refreshes only
after its own upload has removed the flight. When an upload lands before its
flight has trained, that flight trains in one lockstep block (`local_train`)
with the `COHORT_BLOCK - 1` untrained flights of its shard size that land
first, and each keeps its row until its own upload. So a flight still in the
air when the run ends, or voided by a drop, mostly never trains. A flight's
landing time is known at dispatch: its upload is due at
`(now + down) + (comp + up)`. `untrained` keeps one heap per shard size of
(landing time, dispatch order, device), pushed at dispatch, and a trigger pops
it, skipping each entry whose flight has trained, landed or been voided
(`Flight.order` tells a device's flights apart). An entry holds no model, so a
stale one pins nothing, and no trigger scans the flights in the air. Under the
utility selector the block also computes the gradient each device reports
(`grad_regularized`, on the same rows, anchors and shards), and each flight
keeps its row of that too; a flight drops its anchor once trained. An async
gateway sends to about one device at a time, so this fills blocks that
dispatch-time training would run one row at a time, and the trace is the same
as if each device had trained alone on arrival and computed its gradient at
its upload: each row of both calls is bit-identical to its own one-row call.
A divergence raises at the device's upload, so only a live flight raises; the
gradient pass over a diverged row warns of nothing, and a voided flight is
dropped with whatever it holds.

Streams. Round r of device i, its `rounds_started` at dispatch, trains with
the PCG64 generator that numpy's seeding chain (see `streams`) gives
`(cfg.seed, i, r)`, and the refresh after its upload draws from the one it
gives `(cfg.seed, i, REFRESH_ROUND + rounds_done)`. Two `streams.RoundStreams`
tables give those states without hashing per round. A flight keeps its state,
and each use sets a state on one of the generators the simulation owns:
`COHORT_BLOCK` for training blocks and one for refreshes. `local_train` and
`refresh_shard` draw from the generators they are passed and return, so
reusing them is safe.

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
async gateway. A barrier round closes once none of its gateway's flights is in
the air (`_round_landed`), also when a cloud model arrives mid-round.
`_start_round` reads that test itself rather than through `_flight_ended`,
because there a gateway with no members would end the warmup before the other
gateways had swept.

Latency estimate. Selection and association rate a (device, gateway) link by
its round-latency estimate, one table `latency[device][gateway]`: the link's
configured mean from the start, replaced by the dispatch-to-upload latency of
the device's first upload over it (`observed` holds the links that had one),
then moved by an EMA with weight `alpha_ema` on each later one. Each upload
updates it, and nothing else holds it. A link's rate is `model_bytes / tau`;
the association turns the whole table into rate-to-cap ratios at once,
`model_bytes / tau / bandwidth`, and a pair with no link, held at inf, gets 0.

Utilities. Under the utility selector the reported gradients live in one
`[N, width]` matrix, `grads`, for the whole run; `has_grad` marks the devices
that have reported one, and `pca_model` is set once the compressor is fitted.
Until the fit a row is the full gradient (`width` is the parameter count, for
the whole run if none is fitted). The fit centres the reported rows in place,
in the matrix it is about to replace, so it copies no `[m, d]` stack; the
`[N, p]` projections of those rows replace the matrix, and each later gradient
is stored projected.
`utilities` holds a learning utility per device, recomputed from the reported
rows on the first read after one came in. A device with none reported holds
the cold-start value: the largest reported utility, or 1.0 before any.

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
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .data import DataSpec, FederatedDataset, refresh_shard
from .errors import ConfigurationError, check_count
from .learning import (
    ModelArch,
    Shard,
    TrainConfig,
    evaluate,
    grad_regularized,
    init_params,
    local_train,
    raise_if_diverged,
)
from .network import FaultEvent, Topology, est_rate, sample_round_latency
from .selection import (
    fill_capacity,
    ordered_sum,
    solve_association,
    solve_selection,
)
from .streams import RoundStreams
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
# Flights trained in one stacked pass. Measured while every flight in the air
# trained at once (cohort-sync, 15 s runs, seeds 91-94, one run each on a 2-core
# container): blocks of 8, 16, 32 and uncapped ran a median 2886, 3009, 3057 and
# 3179 rounds/s at a peak RSS of 44.2, 44.9, 46.2 and 51.9 MB; uncapped is past
# the benchmark's 10% RSS bound. With blocks in landing order, 32 against 16 (20 s
# runs, seeds 2121-2124, 4 alternating pairs, same host type): cohort-sync
# 3356 -> 3330 rounds/s (32 faster in 2 of 4 pairs) and 44.8 -> 46.6 MB (+4.0%,
# 4 of 4); sched-scale 2528 -> 2653 rounds/s (+4.9%, 4 of 4) and 65.06 -> 65.28 MB.
COHORT_BLOCK = 16
# A refresh's stream is round REFRESH_ROUND + rounds_done of its device, apart
# from the training rounds.
REFRESH_ROUND = 10_000_019


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


@dataclass(slots=True)
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


@dataclass(frozen=True, slots=True)
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
    # Per-upload shard refresh: a run reads only `refresh` and `cluster_spread`.
    data_spec: DataSpec | None = None
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
        # Chained comparisons, so that NaN fails them; only time_budget may be inf.
        inf = math.inf
        if self.mode not in MODES:
            raise ConfigurationError(f"unknown mode {self.mode!r}; valid: {tuple(MODES)}")
        n = self.dataset.num_devices
        if n != self.topology.num_devices:
            raise ConfigurationError(
                f"dataset has {n} devices but topology has {self.topology.num_devices}"
            )
        if not 0 < self.alpha <= 1 or not 0 < self.beta <= 1:
            raise ConfigurationError("alpha and beta must be in (0, 1]")
        if not 0 <= self.staleness_exp < inf:
            raise ConfigurationError("staleness_exp must be >= 0 and finite")
        check_count(self.seed, "seed", 0)
        for name in ("gateway_epochs", "cloud_epochs", "assoc_period", "pca_dim"):
            check_count(getattr(self, name), name)
        if not (0 <= self.kappa < inf and 0 <= self.phi < inf):
            raise ConfigurationError("kappa and phi must be >= 0 and finite")
        if MODES[self.mode].selector == "utility" and self.pca_dim > self.arch.param_count:
            raise ConfigurationError("pca_dim must be in [1, model dimension]")
        if not 0 < self.semi_window < inf:
            raise ConfigurationError("semi_window must be > 0 and finite")
        if not (0 < self.eval_every < inf and 0 < self.time_budget):
            raise ConfigurationError(
                "eval_every and time_budget must be > 0; only time_budget may be inf"
            )
        if not 0 < self.alpha_ema <= 1:
            raise ConfigurationError("alpha_ema must be in (0, 1]")
        shards = [*self.dataset.shards, self.dataset.test]
        if any(shard.features.shape[1] != self.arch.input_dim for shard in shards):
            raise ConfigurationError("dataset input_dim does not match architecture")
        labels = np.concatenate([shard.labels for shard in shards])
        if labels.min() < 0 or labels.max() >= self.arch.num_classes:
            raise ConfigurationError("dataset labels must be in [0, num_classes)")
        if self.data_spec is not None and self.data_spec.refresh:
            if self.dataset.centroids is None:
                raise ConfigurationError("refresh needs a dataset with generator centroids")
            shape = (self.arch.num_classes, self.arch.input_dim)
            if self.dataset.centroids.shape != shape:
                raise ConfigurationError(f"refresh needs centroids of shape {list(shape)}")


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


@dataclass(slots=True)
class Flight:
    """One device round, from its dispatch until its upload lands or a drop voids it."""

    gateway: int
    stamp: int  # the gateway's version at dispatch
    rate: float  # admitted rate, counted against the gateway's bandwidth
    anchor: np.ndarray | None  # the gateway model sent; dropped once trained
    stream: dict  # the PCG64 state its training draws from
    observed_tau: float  # dispatch-to-upload latency
    order: int  # dispatches before this one in the run; keys its `untrained` entry
    params: np.ndarray | None = None  # trained parameters, once trained
    grad: np.ndarray | None = None  # the reported gradient, once trained (utility selector)


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
        # Each gateway's devices in ascending id, rebuilt by `_set_gateways`.
        self.members: list[list[int]] = [[] for _ in range(self.topo.num_gateways)]
        self.slowdown = [1.0] * n
        self.arch = cfg.arch
        self.rng = np.random.default_rng(cfg.seed)
        # Device rounds' streams, and the generators each use sets one on.
        self.train_streams = RoundStreams(cfg.seed, n, 0)
        self.refresh_streams = RoundStreams(cfg.seed, n, REFRESH_ROUND)
        self.train_rngs = [np.random.Generator(np.random.PCG64()) for _ in range(COHORT_BLOCK)]
        self.refresh_rng = np.random.Generator(np.random.PCG64())
        self.now = 0.0
        self._seq = itertools.count()
        self._heap: list[tuple[float, int, Callable, tuple]] = []

        self.cloud_params = init_params(cfg.arch, cfg.seed)
        self.h = 0
        self.gateways = [
            GatewayState(j, self.cloud_params) for j in range(self.topo.num_gateways)
        ]
        self.devices = [DeviceState(shard) for shard in cfg.dataset.shards]
        # Round-latency estimate per device and gateway; see "Latency estimate".
        # A pair with no link holds inf, so its rate `model_bytes / inf` is 0.
        self.latency = [[math.inf] * self.topo.num_gateways for _ in range(n)]
        for (i, j), link in self.topo.link_params.items():
            self.latency[i][j] = link.mean_total
        self.observed: set[tuple[int, int]] = set()  # links an upload has crossed

        # Reported gradients, one row per device (see "Utilities"); only the
        # utility selector reads them, so no other allocates the matrix.
        utility = self.policy.selector == "utility"
        self.grads = np.zeros((n, cfg.arch.param_count)) if utility else None
        self.has_grad = np.zeros(n, dtype=bool)
        # Per device, with the cold-start value for one that has reported none.
        self.utilities = [1.0] * n
        self._utilities_dirty = False
        self.pca_model = None
        # Every flight in the air, by device, in dispatch order; and each
        # gateway's, by the gateway it was sent from.
        self.flights: dict[int, Flight] = {}
        self.gateway_flights: list[dict[int, Flight]] = [
            {} for _ in range(self.topo.num_gateways)
        ]
        # Per shard size, a heap of (landing time, dispatch order, device): one
        # entry per dispatch, stale once its flight trains, lands or is voided.
        self.untrained: dict[int, list[tuple[float, int, int]]] = {}
        self._dispatches = itertools.count()

        self.warmup_done = self.policy.selector == "random"

        # Cloud barrier state: gateway -> (params, weight).
        self.cloud_buffer: dict[int, tuple[np.ndarray, float]] = {}

        self.transfers: list[Transfer] = []
        # Transfer endpoints, made once: the log keeps one per wire event.
        self.dev_names = [f"dev{i}" for i in range(n)]
        self.gw_names = [f"gw{j}" for j in range(self.topo.num_gateways)]
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

    # ---- utilities and rates ----------------------------------------------

    def _refresh_utilities(self) -> None:
        """Recompute `utilities` if a gradient came in since the last refresh."""
        if not self._utilities_dirty:
            return
        self._utilities_dirty = False
        ids = np.flatnonzero(self.has_grad)
        if len(ids) < 2:
            return
        u = learning_utility(self._reported_rows(ids))[0]
        if len(ids) < self.topo.num_devices:
            # Cold start: unseen devices look as attractive as the current best.
            dense = np.full(self.topo.num_devices, max(u.tolist()))
            dense[ids] = u
            u = dense
        self.utilities = u.tolist()

    def _reported_rows(self, ids: np.ndarray) -> np.ndarray:
        """The rows of `grads` at `ids`, the reporting devices; `grads` itself, uncopied, if all."""
        return self.grads if len(ids) == len(self.grads) else self.grads[ids]

    def rate_estimate(self, device: int, gateway: int) -> float:
        return est_rate(self.topo.model_bytes, self.latency[device][gateway])

    # ---- selection and dispatch ---------------------------------------------

    def _set_gateways(self, targets) -> None:
        """Set every device's gateway, and rebuild the member lists: the one writer of both."""
        self.gateway_of[:] = targets
        self.members = [
            np.flatnonzero(self.gateway_of == j).tolist() for j in range(self.topo.num_gateways)
        ]

    def _idle_candidates(self, gw: GatewayState) -> list[int]:
        return [i for i in self.members[gw.id] if i not in self.flights]

    def _residual_bandwidth(self, gw: GatewayState) -> float:
        # A fresh sum in dispatch order, not a running total: `+=` and `-=`
        # as flights come and go would round differently.
        load = ordered_sum(f.rate for f in self.gateway_flights[gw.id].values())
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
            # The knapsack drops a candidate whose rate exceeds the cap, so
            # rate them first: a selection that can dispatch no one returns
            # before it refreshes utilities it would not read.
            fits = []
            for i in ids:
                tau = self.latency[i][gw.id]
                rate = est_rate(self.topo.model_bytes, tau)
                if rate <= cap:
                    fits.append((i, tau, rate))
            if not fits:
                return []
            self._refresh_utilities()
            u = self.utilities
            rows = [(i, u[i], tau, rate) for i, tau, rate in fits]
            return solve_selection(rows, cap, self.cfg.kappa)
        if self.policy.selector == "loss":
            order = sorted(ids, key=lambda i: (-self.devices[i].last_loss, i))
        else:  # random fill
            order = [ids[k] for k in self.rng.permutation(len(ids))]
        return fill_capacity([(i, self.rate_estimate(i, gw.id)) for i in order], cap)

    def _train_flights(self, trigger: int) -> None:
        """Train the trigger's flight with the untrained flights of its shard size that land first.

        The block holds at most `COHORT_BLOCK` flights: the trigger, then the
        others in landing order, ties in dispatch order. Stale entries are
        popped until the heap's first entry is live, so none that lands
        before `now` outlives the call, and none pins a model in any case.
        """
        heap = self.untrained[self.devices[trigger].shard.n]
        ids = [trigger]
        while heap:
            _, order, i = heap[0]
            f = self.flights.get(i)
            live = f is not None and f.order == order and f.params is None
            if live and len(ids) == COHORT_BLOCK:
                break
            heapq.heappop(heap)
            if live and i != trigger:
                ids.append(i)
        block = [self.flights[i] for i in ids]
        starts = np.stack([f.anchor for f in block])
        shards, rngs = [self.devices[i].shard for i in ids], self.train_rngs[: len(block)]
        for rng, f in zip(rngs, block):
            rng.bit_generator.state = f.stream
        rows = local_train(starts, self.arch, shards, self.cfg.train, rngs)
        for f, row in zip(block, rows):
            # One copy per flight: a row view would keep its whole block
            # alive until the block's last flight lands, and raise peak memory.
            f.params = row.copy()
            f.anchor = None
        if self.policy.selector == "utility":
            grads = grad_regularized(rows, starts, self.arch, shards, self.cfg.train.rho)
            for f, grad in zip(block, grads):
                f.grad = grad.copy()

    def dispatch(self, gw: GatewayState, device_ids: list[int]) -> None:
        """Send the gateway model, stamped with its version, to each device.

        Nothing trains here. Each flight records the gateway model (its start
        and anchor) and its stream (round `rounds_started`), and enters its shard
        size's `untrained` heap under its landing time. It trains on its
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
            stream = self.train_streams.state(i, dev.rounds_started)
            order = next(self._dispatches)
            flight = Flight(gw.id, gw.version, rate, gw.params, stream, total, order)
            self.flights[i] = self.gateway_flights[gw.id][i] = flight
            # The upload's own event time: `now + down`, then `+ (comp + up)`.
            landing = (self.now + down) + (comp + up)
            heapq.heappush(self.untrained.setdefault(dev.shard.n, []), (landing, order, i))
            dev.rounds_started += 1
            self.charge("dispatch", self.gw_names[gw.id], self.dev_names[i], self.topo.model_bytes)
            self.schedule(down, self.on_device_model_arrives, i, flight, comp + up)

    # ---- warmup -------------------------------------------------------------

    def finish_warmup(self) -> None:
        """End the warmup: fit the compressor on the reported rows, then dispatch everywhere.

        With at least two reported gradients the utility selector fits
        `pca_model` on the reported rows of `grads`, in device order, and
        replaces `grads` with an `[N, p]` matrix of their projections. The fit
        centres those rows in place (`grads` itself when every device has
        reported), so each projection is `components @ row` of a centred row:
        the floats `pca_project` gives for the row as reported. With fewer,
        nothing is fitted and `grads` keeps its full rows for the run.
        """
        self.warmup_done = True
        ids = np.flatnonzero(self.has_grad)
        if len(ids) >= 2:
            p = min(self.cfg.pca_dim, len(ids), self.arch.param_count)
            rows = self._reported_rows(ids)
            self.pca_model = pca_fit(rows, p)
            size = pca_bytes(self.pca_model)
            self.charge("pca_distribution", "cloud", "all", size, overhead=size)
            coords = np.zeros((self.topo.num_devices, p))
            coords[ids] = [self.pca_model.components @ row for row in rows]
            self.grads = coords
            self._utilities_dirty = True
        for gw in self.gateways:
            self._start_round(gw)

    def _record_gradient(self, device: int, grad: np.ndarray) -> int:
        """Store the gradient the device reports with its upload; returns its overhead bytes.

        `_train_flights` computed it with the flight's training block: the
        anchored objective's gradient on the full shard the device trained on,
        at the trained parameters. Here it becomes the device's row of `grads`,
        projected if `pca_model` is fitted, and `has_grad` marks it.
        """
        self._utilities_dirty = True
        self.grads[device] = grad if self.pca_model is None else pca_project(self.pca_model, grad)
        self.has_grad[device] = True
        return 8 * self.grads.shape[1]

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
            self._refresh_utilities()
            tau = np.array(self.latency)
            if not (tau > 0).all():  # as `est_rate` checks
                raise ConfigurationError("round latency must be > 0")
            ratio = (self.topo.model_bytes / tau / self.topo.bandwidth).tolist()
            targets = solve_association(self.feasible, self.utilities, ratio, self.cfg.phi)
        else:
            targets = self._random_association()
        self._set_gateways(targets)

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
        total = ordered_sum(w for _, w in pairs)
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
            self.charge("broadcast", "cloud", self.gw_names[gw.id], self.topo.model_bytes)
            self.schedule(
                self.topo.cloud_gateway_delay, self.on_gateway_model_arrives,
                gw, self.cloud_params, self.h,
            )

    # ---- gateway rounds -------------------------------------------------------------

    def _start_round(self, gw: GatewayState) -> None:
        """Select and dispatch against the gateway's current model.

        A window round closes on its timer; a barrier round once none of its
        gateway's flights is in the air, at once if none is after the dispatch.
        """
        self.dispatch(gw, self.select_devices(gw))
        if self.policy.gateway == "window":
            self.schedule(self.cfg.semi_window, self.on_window_timer, gw, gw.version)
        elif self._round_landed(gw):
            self._close_round(gw)

    def _round_landed(self, gw: GatewayState) -> bool:
        """Whether a barrier round closes now: none of its gateway's flights is in the air."""
        return self.policy.gateway == "barrier" and not self.gateway_flights[gw.id]

    def _remove_flight(self, device: int) -> Flight | None:
        """Take the device's flight, if any, out of the air: the one way a flight leaves."""
        flight = self.flights.pop(device, None)
        if flight is not None:
            del self.gateway_flights[flight.gateway][device]
        return flight

    def _flight_ended(self, gw: GatewayState) -> None:
        """The one place a flight ends, once its upload or drop has removed it.

        The warmup ends when no flight is left in the air, and a barrier
        round closes when none of its gateway's is.
        """
        if not self.warmup_done and not self.flights:
            self.finish_warmup()
        if self._round_landed(gw):
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
        self.charge("gateway_upload", self.gw_names[gw.id], "cloud", self.topo.model_bytes)
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
            self._train_flights(i)
        params = flight.params
        raise_if_diverged(params, f"while training device {i}")
        self._remove_flight(i)
        dev = self.devices[i]
        gw = self.gateways[flight.gateway]
        dev.rounds_done += 1
        key, a, tau = (i, gw.id), self.cfg.alpha_ema, flight.observed_tau
        if key in self.observed:
            tau = a * tau + (1 - a) * self.latency[i][gw.id]
        self.observed.add(key)
        self.latency[i][gw.id] = tau

        overhead = 0
        if self.policy.selector == "utility":
            overhead = self._record_gradient(i, flight.grad)
        elif self.policy.selector == "loss":
            _, dev.last_loss = evaluate(params, self.arch, dev.shard)
        self.charge(
            "device_upload", self.dev_names[i], self.gw_names[gw.id],
            self.topo.model_bytes + overhead, overhead,
        )

        if self.cfg.data_spec is not None and self.cfg.data_spec.refresh:
            self.refresh_rng.bit_generator.state = self.refresh_streams.state(i, dev.rounds_done)
            dev.shard = refresh_shard(
                dev.shard, self.cfg.data_spec.cluster_spread, self.refresh_rng,
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
        targets = self.gateway_of.copy()
        targets[i] = -1
        self._set_gateways(targets)
        flight = self._remove_flight(i)
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
        self._set_gateways(self._random_association())
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
