"""Deterministic discrete-event engine for three-tier federated training.

One simulation owns a cloud model, per-gateway models, and per-device state,
and advances a (time, seq)-ordered event heap. Everything stochastic draws
from a single seeded generator inside the event loop, so a (config, seed)
pair fully determines the trace.

Local training runs when a gateway dispatches, not when the model reaches the
device. A device's round depends only on the anchor (the gateway model it is
sent), its shard and its seed. All three are fixed at dispatch: the seed comes
from the device's round count and its shard refreshes only on upload. So the
devices of one dispatch train together in lockstep (`local_train_cohort`),
and the trace is the same as if each had trained alone on arrival.

Modes:
  async-sched          asynchronous tiers + utility/latency scheduling (selection
                       ILP at gateways, association program at the cloud)
  async-random         asynchronous tiers, random selection and association
  async-hl             asynchronous tiers, highest-local-loss-first selection
  sync-random          both tiers barrier-synchronize, FedAvg weighting
  semi-async           gateways aggregate the uploads buffered within a waiting
                       window; cloud synchronous; late uploads join the next window
  sync-gw-async-cloud  gateways barrier-synchronize, cloud aggregates asynchronously
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .data import DataSpec, FederatedDataset, refresh_shard
from .errors import ConfigurationError, NumericDivergenceError
from .learning import (
    ModelArch,
    Shard,
    TrainConfig,
    evaluate,
    grad_regularized,
    init_params,
    local_train_cohort,
    loss_and_grad,
    raise_if_diverged,
)
from .network import LatencyTracker, Topology, est_rate, sample_round_latency
from .selection import (
    AssociationInstance,
    Candidate,
    SelectionInstance,
    solve_association,
    solve_selection,
)
from .utility import (
    GradientRecord,
    learning_utility,
    pca_bytes,
    pca_fit,
    pca_project,
)

MODES = (
    "async-sched",
    "async-random",
    "async-hl",
    "sync-random",
    "semi-async",
    "sync-gw-async-cloud",
)
ASYNC_GATEWAY_MODES = ("async-sched", "async-random", "async-hl")
SYNC_GATEWAY_MODES = ("sync-random", "sync-gw-async-cloud")
WARMUP_MODES = ("async-sched", "async-hl")
# Devices trained in one stacked pass. Larger blocks gain little speed and
# raise peak memory.
COHORT_BLOCK = 8


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


class EventKind(Enum):
    DEVICE_MODEL_ARRIVES = "device_model_arrives"
    DEVICE_UPLOAD_ARRIVES = "device_upload_arrives"
    GATEWAY_MODEL_ARRIVES = "gateway_model_arrives"
    GATEWAY_UPLOAD_ARRIVES = "gateway_upload_arrives"
    ASSOCIATION_TIMER = "association_timer"
    FAULT_TIMER = "fault_timer"
    EVAL_TIMER = "eval_timer"
    WINDOW_TIMER = "window_timer"


@dataclass(frozen=True)
class Event:
    time: float
    seq: int
    kind: EventKind
    payload: dict


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


TRACE_HEADER = "t,h,acc,loss,bytes,overhead_bytes,max_stale_cloud,max_stale_gw"


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
        lines = [TRACE_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.t!r},{r.h},{r.acc!r},{r.loss!r},{r.bytes},"
                f"{r.overhead_bytes},{r.max_stale_cloud},{r.max_stale_gw}"
            )
        return "\n".join(lines) + "\n"

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
    compress: bool = True  # exchange PCA-compressed gradients (async-sched)
    alpha_ema: float = 0.5
    semi_window: float = 100.0  # waiting period T, seconds
    eval_every: float = 60.0
    time_budget: float = 1e7
    bandwidth_sum: bool = True  # knapsack cap; False = literal per-device cap
    dispatch_all: bool = False  # gateways send to every idle device, ignoring the cap

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigurationError(f"unknown mode {self.mode!r}; valid: {MODES}")
        n = self.dataset.num_devices
        if n != self.topology.num_devices:
            raise ConfigurationError(
                f"dataset has {n} devices but topology has {self.topology.num_devices}"
            )
        if self.mode == "async-sched" and n < 2:
            raise ConfigurationError("async-sched selection needs >= 2 devices")
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
        if self.mode == "async-sched" and self.compress:
            if not 1 <= self.pca_dim <= self.arch.param_count:
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


@dataclass
class SimResult:
    trace: MetricTrace
    transfers: list[Transfer]
    bytes_total: int
    bytes_overhead: int
    model_transfers: int
    max_stale_cloud: int
    max_stale_gw: int
    cloud_epochs_done: int
    end_time: float
    final_params: np.ndarray

    def recompute_bytes_from_log(self, model_bytes: int) -> tuple[int, int]:
        """Independent re-derivation of the byte counters from the transfer log."""
        model_kinds = {"dispatch", "device_upload", "broadcast", "gateway_upload"}
        n_models = sum(1 for tr in self.transfers if tr.kind in model_kinds)
        overhead = sum(tr.overhead for tr in self.transfers)
        return model_bytes * n_models + overhead, overhead


@dataclass
class DeviceState:
    id: int
    shard: Shard
    busy: bool = False
    active_flight: int | None = None
    rounds_started: int = 0
    rounds_done: int = 0
    last_loss: float = float("inf")  # unseen devices sort first for high-loss selection


@dataclass
class GatewayState:
    id: int
    params: np.ndarray
    tau: int = 0  # cloud epoch stamped on the model this gateway holds
    z_cycle: int = 0  # aggregations since the last cloud download
    z_total: int = 0  # monotone aggregation counter (staleness bookkeeping)
    in_flight: dict[int, float] = field(default_factory=dict)  # device -> admitted rate
    # Barrier/window state (sync and semi-async gateway modes).
    pending: set[int] = field(default_factory=set)
    buffer: list[tuple[np.ndarray, float, int]] = field(default_factory=list)
    round_idx: int = 0
    cycle_samples: float = 0.0
    window_total: int = 0  # monotone window counter (semi-async staleness)


class _Simulation:
    def __init__(self, cfg: SimConfig):
        cfg.validate()
        self.cfg = cfg
        self.mode = cfg.mode
        self.topo = cfg.topology
        self.arch = cfg.arch
        self.rng = np.random.default_rng(cfg.seed)
        self.now = 0.0
        self._seq = itertools.count()
        self._heap: list[tuple[float, int, Event]] = []

        self.cloud_params = init_params(cfg.arch, cfg.seed)
        self.h = 0
        self.gateways = [
            GatewayState(j, self.cloud_params) for j in range(self.topo.num_gateways)
        ]
        self.devices = [
            DeviceState(i, shard) for i, shard in enumerate(cfg.dataset.shards)
        ]
        self.latency = LatencyTracker(cfg.alpha_ema)
        self.fault_queue = sorted(self.topo.faults, key=lambda f: f.time)

        self.grad_records: dict[int, GradientRecord] = {}
        self.utilities: dict[int, float] = {}
        self._utilities_dirty = False
        self.pca_model = None
        self.pending_assoc: dict[int, int | None] = {}

        self.warmup_pending: set[int] = set()
        self.warmup_started: set[int] = set()  # gateway ids that dispatched warmup
        self.warmup_grads: dict[int, np.ndarray] = {}
        self.warmup_done = self.mode not in WARMUP_MODES

        # Sync-cloud barrier state: gateway -> (params, weight).
        self.cloud_buffer: dict[int, tuple[np.ndarray, float]] = {}

        self.transfers: list[Transfer] = []
        self.bytes_total = 0
        self.bytes_overhead = 0
        self.model_transfers = 0
        self.max_stale_cloud = 0
        self.max_stale_gw = 0
        self.trace = MetricTrace()
        self.done = False

    # ---- plumbing ---------------------------------------------------------

    def schedule(self, delay: float, kind: EventKind, **payload) -> None:
        assert delay >= 0, "events cannot be scheduled in the past"
        ev = Event(self.now + delay, next(self._seq), kind, payload)
        heapq.heappush(self._heap, (ev.time, ev.seq, ev))

    def charge(self, kind: str, src: str, dst: str, size: int, overhead: int = 0) -> None:
        assert overhead <= size
        self.transfers.append(Transfer(self.now, kind, src, dst, size, overhead))
        self.bytes_total += size
        self.bytes_overhead += overhead
        if kind != "pca_distribution":
            self.model_transfers += 1

    def _train_seed(self, device: int, round_idx: int) -> int:
        ss = np.random.SeedSequence((self.cfg.seed, device, round_idx))
        return int(ss.generate_state(1)[0])

    def _assert_finite(self, params: np.ndarray, where: str) -> None:
        if not np.isfinite(params).all():
            raise NumericDivergenceError(f"non-finite model after aggregation at {where}")

    # ---- utilities and rates ----------------------------------------------

    def _refresh_utilities(self) -> None:
        if not self._utilities_dirty:
            return
        records = [self.grad_records[i] for i in sorted(self.grad_records)]
        if len(records) >= 2:
            self.utilities = {
                r.device_id: r.u for r in learning_utility(records, now=self.now)
            }
        self._utilities_dirty = False

    def utility_of(self, device: int) -> float:
        self._refresh_utilities()
        if device in self.utilities:
            return self.utilities[device]
        # Cold start: unseen devices look as attractive as the current best.
        return max(self.utilities.values()) if self.utilities else 1.0

    def tau_estimate(self, device: int, gateway: int) -> float:
        prior = self.topo.link_params[(device, gateway)].mean_total
        return self.latency.get(device, gateway, default=prior)

    def rate_estimate(self, device: int, gateway: int) -> float:
        return est_rate(self.topo.model_bytes, self.tau_estimate(device, gateway))

    # ---- selection and dispatch ---------------------------------------------

    def _idle_candidates(self, gw: GatewayState) -> list[int]:
        return [i for i in self.topo.devices_of(gw.id) if not self.devices[i].busy]

    def _residual_bandwidth(self, gw: GatewayState) -> float:
        return float(self.topo.bandwidth[gw.id]) - sum(gw.in_flight.values())

    def select_devices(self, gw: GatewayState) -> list[int]:
        ids = self._idle_candidates(gw)
        if not ids:
            return []
        if self.cfg.dispatch_all:
            return ids
        cap = self._residual_bandwidth(gw)
        if cap <= 0:
            return []
        if self.mode == "async-sched":
            cands = [
                Candidate(i, self.utility_of(i), self.tau_estimate(i, gw.id),
                          self.rate_estimate(i, gw.id))
                for i in ids
            ]
            inst = SelectionInstance(
                cands, cap, self.cfg.kappa, sum_constraint=self.cfg.bandwidth_sum
            )
            return sorted(solve_selection(inst))
        if self.mode == "async-hl":
            order = sorted(ids, key=lambda i: (-self.devices[i].last_loss, i))
        else:  # random fill, all remaining modes
            order = [ids[k] for k in self.rng.permutation(len(ids))]
        chosen, load = [], 0.0
        for i in order:
            r = self.rate_estimate(i, gw.id)
            if load + r <= cap:
                chosen.append(i)
                load += r
        return chosen

    def _train_cohort(self, anchor: np.ndarray, device_ids: list[int]) -> dict[int, np.ndarray]:
        """Final local parameters of each device, trained in blocks that share a shard size."""
        by_n: dict[int, list[int]] = {}
        for i in device_ids:
            by_n.setdefault(self.devices[i].shard.n, []).append(i)
        finals = {}
        for ids in by_n.values():
            for k in range(0, len(ids), COHORT_BLOCK):
                block = ids[k : k + COHORT_BLOCK]
                devs = [self.devices[i] for i in block]
                rows = local_train_cohort(
                    anchor, anchor, self.arch, [d.shard for d in devs], self.cfg.train,
                    [self._train_seed(d.id, d.rounds_started) for d in devs],
                )
                # One copy per device: a row view would keep its whole block
                # alive until the block's last flight lands, and raise peak memory.
                finals.update((i, row.copy()) for i, row in zip(block, rows))
        return finals

    def dispatch(self, gw: GatewayState, device_ids: list[int], stamp: dict) -> None:
        """Send the gateway model to each device and train them all now.

        Training at dispatch gives the same result as training when the model
        arrives: the anchor, the seed (from `rounds_started`) and the shard are
        all fixed here, because a device's shard refreshes only on its upload.
        The final parameters ride in the event payload.
        """
        finals = self._train_cohort(gw.params, device_ids)
        for i in device_ids:
            dev = self.devices[i]
            assert not dev.busy, "dispatch to a busy device"
            assert self.topo.association[i, gw.id], "dispatch outside the association"
            rate = self.rate_estimate(i, gw.id)
            down, comp, up, total = sample_round_latency(
                self.topo.delay_params(i, gw.id), self.rng
            )
            flight = next(self._seq)
            dev.busy = True
            dev.active_flight = flight
            dev.rounds_started += 1
            gw.in_flight[i] = rate
            self.charge("dispatch", f"gw{gw.id}", f"dev{i}", self.topo.model_bytes)
            self.schedule(
                down,
                EventKind.DEVICE_MODEL_ARRIVES,
                device=i,
                gateway=gw.id,
                flight=flight,
                anchor=gw.params,
                params=finals[i],
                comp=comp,
                up=up,
                observed_tau=total,
                **stamp,
            )

    def gateway_dispatch(self, gw: GatewayState) -> None:
        """Async-mode selection + dispatch against the gateway's current model."""
        if not self.warmup_done:
            return
        selected = self.select_devices(gw)
        self.dispatch(gw, selected, {"zeta_total": gw.z_total})

    # ---- warmup -------------------------------------------------------------

    def begin_warmup(self, gw: GatewayState) -> None:
        self.warmup_started.add(gw.id)
        ids = self._idle_candidates(gw)
        self.warmup_pending.update(ids)
        # Bandwidth cap intentionally ignored: one full sweep seeds the
        # utility store and the compressor.
        self.dispatch(gw, ids, {"zeta_total": gw.z_total})
        self._maybe_finish_warmup()

    def _maybe_finish_warmup(self) -> None:
        if self.warmup_done:
            return
        if len(self.warmup_started) == self.topo.num_gateways and not self.warmup_pending:
            self.finish_warmup()

    def finish_warmup(self) -> None:
        self.warmup_done = True
        if self.mode == "async-sched" and self.cfg.compress and self.warmup_grads:
            grads = [self.warmup_grads[i] for i in sorted(self.warmup_grads)]
            p = min(self.cfg.pca_dim, len(grads), self.arch.param_count)
            self.pca_model = pca_fit(grads, p)
            size = pca_bytes(self.pca_model)
            self.charge("pca_distribution", "cloud", "all", size, overhead=size)
            for i, g in sorted(self.warmup_grads.items()):
                self.grad_records[i] = GradientRecord(
                    i, pca_project(self.pca_model, g), True, self.now
                )
            self._utilities_dirty = True
        for gw in self.gateways:
            self.gateway_dispatch(gw)

    def _record_gradient(self, device: int, params: np.ndarray, anchor: np.ndarray) -> int:
        """Store the gradient the device reports with its upload; returns its overhead bytes.

        The gradient is the anchored objective's, on the full shard, at the
        trained parameters. The shard has not refreshed yet, so it is the one
        the device trained on.
        """
        if self.mode != "async-sched":
            return 0
        grad = grad_regularized(
            params, anchor, self.arch, self.devices[device].shard, self.cfg.train.rho
        )
        if self.pca_model is not None:
            vec, compressed = pca_project(self.pca_model, grad), True
        else:
            vec, compressed = grad, False
            self.warmup_grads[device] = grad
        self.grad_records[device] = GradientRecord(device, vec, compressed, self.now)
        self._utilities_dirty = True
        return 8 * len(vec)

    # ---- association ----------------------------------------------------------

    def run_association(self) -> None:
        n, g = self.topo.num_devices, self.topo.num_gateways
        if self.mode == "async-sched":
            u = np.array([self.utility_of(i) for i in range(n)])
            rates = np.zeros((n, g))
            for (i, j) in self.topo.link_params:
                rates[i, j] = self.rate_estimate(i, j)
            inst = AssociationInstance(
                feasible=self.topo.feasible.copy(),
                u=u,
                rates=rates,
                bandwidth=self.topo.bandwidth.copy(),
                phi=self.cfg.phi,
            )
            targets = solve_association(inst).gateway_of
        else:
            targets = []
            for i in range(n):
                feas = [j for j in range(g) if self.topo.feasible[i, j]]
                targets.append(
                    int(self.rng.choice(feas)) if feas else None
                )
        for i, target in enumerate(targets):
            if self.devices[i].busy:
                # Mid-round devices upload to their current gateway first.
                self.pending_assoc[i] = target
            elif target != self.topo.gateway_of(i):
                self.topo.associate(i, target)

    def _apply_pending_assoc(self, device: int) -> None:
        if device in self.pending_assoc:
            target = self.pending_assoc.pop(device)
            if target is None or self.topo.feasible[device, target]:
                self.topo.associate(device, target)

    # ---- metric rows -----------------------------------------------------------

    def record_eval(self) -> None:
        acc, loss = evaluate(self.cloud_params, self.arch, self.cfg.dataset.test)
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

    # ---- cloud aggregation -------------------------------------------------------

    def _cloud_async_aggregate(self, params: np.ndarray, tau_stamp: int) -> None:
        self.h += 1
        delta = self.h - tau_stamp
        assert delta >= 1
        self.max_stale_cloud = max(self.max_stale_cloud, delta)
        self.cloud_params = async_aggregate(
            self.cloud_params, params, self.cfg.alpha, delta, self.cfg.staleness_exp
        )
        self._assert_finite(self.cloud_params, "cloud")

    def _cloud_epoch_housekeeping(self) -> None:
        if self.h % self.cfg.assoc_period == 0:
            self.schedule(0.0, EventKind.ASSOCIATION_TIMER)
        if self.h >= self.cfg.cloud_epochs:
            self.done = True

    def _broadcast(self, gateways: list[GatewayState]) -> None:
        for gw in gateways:
            self.charge("broadcast", "cloud", f"gw{gw.id}", self.topo.model_bytes)
            self.schedule(
                self.topo.cloud_gateway_delay,
                EventKind.GATEWAY_MODEL_ARRIVES,
                gateway=gw.id,
                params=self.cloud_params,
                h_stamp=self.h,
            )

    def _cloud_sync_collect(self, gw_id: int, params: np.ndarray, weight: float) -> None:
        self.cloud_buffer[gw_id] = (params, weight)
        if len(self.cloud_buffer) < len(self.gateways):
            return
        total = sum(w for _, w in self.cloud_buffer.values())
        if total > 0:
            mix = np.zeros_like(self.cloud_params)
            for j in sorted(self.cloud_buffer):
                p, w = self.cloud_buffer[j]
                mix += (w / total) * p
            self.cloud_params = mix
        self._assert_finite(self.cloud_params, "cloud")
        self.cloud_buffer.clear()
        self.h += 1
        self._cloud_epoch_housekeeping()
        if not self.done:
            self._broadcast(self.gateways)

    # ---- gateway rounds (sync / semi-async) ----------------------------------------

    def _start_sync_round(self, gw: GatewayState) -> None:
        selected = self.select_devices(gw)
        if not selected:
            self._finish_sync_round(gw)
            return
        gw.pending = set(selected)
        gw.buffer = []
        self.dispatch(gw, selected, {"round_idx": gw.round_idx})

    def _finish_sync_round(self, gw: GatewayState) -> None:
        if gw.buffer:
            total = sum(w for _, w, _ in gw.buffer)
            mix = np.zeros_like(gw.params)
            for p, w, _ in gw.buffer:
                mix += (w / total) * p
            gw.params = mix
            self._assert_finite(gw.params, f"gateway {gw.id}")
            gw.cycle_samples += total
        gw.buffer = []
        gw.pending = set()
        gw.round_idx += 1
        if gw.round_idx < self.cfg.gateway_epochs:
            self._start_sync_round(gw)
        else:
            self._gateway_upload(gw, weight=gw.cycle_samples)

    def _start_semi_window(self, gw: GatewayState) -> None:
        selected = self.select_devices(gw)
        self.dispatch(gw, selected, {"window_total": gw.window_total})
        self.schedule(
            self.cfg.semi_window, EventKind.WINDOW_TIMER, gateway=gw.id,
            window_total=gw.window_total,
        )

    def _close_semi_window(self, gw: GatewayState) -> None:
        if gw.buffer:
            weights = []
            for p, n_i, lateness in gw.buffer:
                weights.append(n_i * staleness(self.cfg.staleness_exp, lateness))
            total = sum(weights)
            mix = np.zeros_like(gw.params)
            for (p, _, _), w in zip(gw.buffer, weights):
                mix += (w / total) * p
            gw.params = mix
            self._assert_finite(gw.params, f"gateway {gw.id}")
            gw.cycle_samples += sum(n for _, n, _ in gw.buffer)
        gw.buffer = []
        gw.window_total += 1
        gw.round_idx += 1
        if gw.round_idx < self.cfg.gateway_epochs:
            self._start_semi_window(gw)
        else:
            self._gateway_upload(gw, weight=gw.cycle_samples)

    def _gateway_upload(self, gw: GatewayState, weight: float = 0.0) -> None:
        self.charge("gateway_upload", f"gw{gw.id}", "cloud", self.topo.model_bytes)
        self.schedule(
            self.topo.cloud_gateway_delay,
            EventKind.GATEWAY_UPLOAD_ARRIVES,
            gateway=gw.id,
            params=gw.params,
            tau_stamp=gw.tau,
            weight=weight,
        )

    # ---- event handlers ----------------------------------------------------------------

    def on_gateway_model_arrives(self, ev: Event) -> None:
        gw = self.gateways[ev.payload["gateway"]]
        gw.params = ev.payload["params"]
        gw.tau = ev.payload["h_stamp"]
        gw.z_cycle = 0
        gw.round_idx = 0
        gw.cycle_samples = 0.0
        if self.mode in ASYNC_GATEWAY_MODES:
            if self.warmup_done:
                self.gateway_dispatch(gw)
            elif gw.id not in self.warmup_started:
                self.begin_warmup(gw)
            # A broadcast arriving mid-warmup just refreshes the gateway
            # model; dispatching resumes once every warmup gradient is in.
        elif self.mode in SYNC_GATEWAY_MODES:
            self._start_sync_round(gw)
        else:  # semi-async
            self._start_semi_window(gw)

    def on_device_model_arrives(self, ev: Event) -> None:
        """The device starts its round; its training already ran at dispatch.

        A divergence raises here, when the model reaches the device, so a
        flight that a fault voided never raises.
        """
        i = ev.payload["device"]
        if ev.payload["flight"] != self.devices[i].active_flight:
            return  # flight voided by a fault
        raise_if_diverged(ev.payload["params"], device_id=i)
        payload = dict(ev.payload)
        del payload["comp"], payload["up"]
        if self.mode != "async-sched":
            # Only the reported gradient needs the anchor; dropping it lets an
            # outdated gateway model be freed while the upload is in the air.
            del payload["anchor"]
        self.schedule(
            ev.payload["comp"] + ev.payload["up"],
            EventKind.DEVICE_UPLOAD_ARRIVES,
            **payload,
        )

    def on_device_upload_arrives(self, ev: Event) -> None:
        i = ev.payload["device"]
        dev = self.devices[i]
        if ev.payload["flight"] != dev.active_flight:
            return
        gw = self.gateways[ev.payload["gateway"]]
        dev.busy = False
        dev.active_flight = None
        dev.rounds_done += 1
        gw.in_flight.pop(i, None)
        self.latency.update(i, gw.id, ev.payload["observed_tau"])

        overhead = 0
        if self.mode == "async-sched":
            overhead = self._record_gradient(i, ev.payload["params"], ev.payload["anchor"])
        elif self.mode == "async-hl":
            dev.last_loss, _ = loss_and_grad(ev.payload["params"], self.arch, dev.shard)
        self.charge(
            "device_upload", f"dev{i}", f"gw{gw.id}",
            self.topo.model_bytes + overhead, overhead,
        )

        if self.cfg.data_spec is not None and self.cfg.data_spec.refresh:
            rs = self._train_seed(i, 10_000_019 + dev.rounds_done)
            dev.shard = refresh_shard(
                dev.shard,
                self.cfg.dataset.class_map[i],
                self.cfg.data_spec,
                rs,
                self.cfg.dataset.centroids,
            )

        if self.mode in ASYNC_GATEWAY_MODES:
            gw.z_total += 1
            gw.z_cycle += 1
            delta = gw.z_total - ev.payload["zeta_total"]
            assert delta >= 1
            self.max_stale_gw = max(self.max_stale_gw, delta)
            gw.params = async_aggregate(
                gw.params, ev.payload["params"], self.cfg.beta, delta,
                self.cfg.staleness_exp,
            )
            self._assert_finite(gw.params, f"gateway {gw.id}")
            self._apply_pending_assoc(i)
            if i in self.warmup_pending:
                self.warmup_pending.discard(i)
                self._maybe_finish_warmup()
            if gw.z_cycle == self.cfg.gateway_epochs:
                self._gateway_upload(gw)
            self.gateway_dispatch(gw)
        elif self.mode in SYNC_GATEWAY_MODES:
            if ev.payload["round_idx"] == gw.round_idx and i in gw.pending:
                gw.buffer.append((ev.payload["params"], float(dev.shard.n), 0))
                gw.pending.discard(i)
                self._apply_pending_assoc(i)
                if not gw.pending:
                    self._finish_sync_round(gw)
            else:
                self._apply_pending_assoc(i)
        else:  # semi-async
            lateness = gw.window_total - ev.payload["window_total"]
            assert lateness >= 0
            if lateness > 0:
                self.max_stale_gw = max(self.max_stale_gw, lateness)
            gw.buffer.append((ev.payload["params"], float(dev.shard.n), lateness))
            self._apply_pending_assoc(i)

    def on_gateway_upload_arrives(self, ev: Event) -> None:
        gw = self.gateways[ev.payload["gateway"]]
        if self.mode in ASYNC_GATEWAY_MODES or self.mode == "sync-gw-async-cloud":
            self._cloud_async_aggregate(ev.payload["params"], ev.payload["tau_stamp"])
            self._cloud_epoch_housekeeping()
            if self.done:
                return
            if self.mode == "sync-gw-async-cloud":
                self._broadcast([gw])
            else:
                self._broadcast(self.gateways)
        else:  # synchronous cloud barrier (sync-random, semi-async)
            self._cloud_sync_collect(gw.id, ev.payload["params"], ev.payload["weight"])

    def on_association_timer(self, _: Event) -> None:
        self.run_association()

    def on_fault_timer(self, _: Event) -> None:
        due = [f for f in self.fault_queue if f.time <= self.now]
        del self.fault_queue[: len(due)]
        for fault in due:
            self.topo.apply_fault(fault)
            if fault.action != "drop":
                continue
            i = fault.device
            dev = self.devices[i]
            dev.busy = False
            dev.active_flight = None
            self.warmup_pending.discard(i)
            self._maybe_finish_warmup()
            for gw in self.gateways:
                gw.in_flight.pop(i, None)
                if i in gw.pending:
                    gw.pending.discard(i)
                    if not gw.pending:
                        self._finish_sync_round(gw)

    def on_window_timer(self, ev: Event) -> None:
        gw = self.gateways[ev.payload["gateway"]]
        if ev.payload["window_total"] == gw.window_total and gw.round_idx < self.cfg.gateway_epochs:
            self._close_semi_window(gw)

    def on_eval_timer(self, _: Event) -> None:
        self.record_eval()
        # An empty heap here means no training activity can ever resume, so
        # rescheduling would only spin the clock until the time budget.
        if not self.done and self._heap:
            self.schedule(self.cfg.eval_every, EventKind.EVAL_TIMER)

    HANDLERS = {
        EventKind.DEVICE_MODEL_ARRIVES: on_device_model_arrives,
        EventKind.DEVICE_UPLOAD_ARRIVES: on_device_upload_arrives,
        EventKind.GATEWAY_MODEL_ARRIVES: on_gateway_model_arrives,
        EventKind.GATEWAY_UPLOAD_ARRIVES: on_gateway_upload_arrives,
        EventKind.ASSOCIATION_TIMER: on_association_timer,
        EventKind.FAULT_TIMER: on_fault_timer,
        EventKind.EVAL_TIMER: on_eval_timer,
        EventKind.WINDOW_TIMER: on_window_timer,
    }

    # ---- main loop -------------------------------------------------------------------

    def _initial_association(self) -> None:
        for i in range(self.topo.num_devices):
            feas = [j for j in range(self.topo.num_gateways) if self.topo.feasible[i, j]]
            if feas:
                self.topo.associate(i, int(self.rng.choice(feas)))

    def run(self) -> SimResult:
        self._initial_association()
        for fault in self.fault_queue:
            self.schedule(fault.time, EventKind.FAULT_TIMER)
        self.schedule(0.0, EventKind.EVAL_TIMER)
        self._broadcast(self.gateways)

        while self._heap and not self.done:
            t, _, ev = heapq.heappop(self._heap)
            if t > self.cfg.time_budget:
                break
            assert t >= self.now, "event causality violated"
            self.now = t
            self.HANDLERS[ev.kind](self, ev)

        self.record_eval()
        return SimResult(
            trace=self.trace,
            transfers=self.transfers,
            bytes_total=self.bytes_total,
            bytes_overhead=self.bytes_overhead,
            model_transfers=self.model_transfers,
            max_stale_cloud=self.max_stale_cloud,
            max_stale_gw=self.max_stale_gw,
            cloud_epochs_done=self.h,
            end_time=self.now,
            final_params=self.cloud_params,
        )


def run(cfg: SimConfig) -> SimResult:
    """Execute one trial; deterministic in (cfg, cfg.seed)."""
    return _Simulation(cfg).run()
