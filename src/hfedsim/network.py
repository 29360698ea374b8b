"""Topology state, stochastic link delays, latency tracking, and fault injection.

Round latency between a gateway and a device is downlink + local compute +
uplink. Each segment is its mean times an independent log-normal multiplier
with unit mean, so configured means are true means and sigma=0 gives exact
constants. Bandwidth is enforced by the schedulers, not by queueing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DatasetFormatError

FAULT_ACTIONS = ("drop", "restore", "slowdown")


@dataclass(frozen=True)
class DelayParams:
    mean_down: float
    mean_comp: float
    mean_up: float
    sigma: float = 0.0

    def __post_init__(self):
        if min(self.mean_down, self.mean_comp, self.mean_up) <= 0:
            raise ConfigurationError("delay means must be > 0")
        if self.sigma < 0:
            raise ConfigurationError("sigma must be >= 0")

    @property
    def mean_total(self) -> float:
        return self.mean_down + self.mean_comp + self.mean_up


def sample_round_latency(
    params: DelayParams, rng: np.random.Generator
) -> tuple[float, float, float, float]:
    """Sample (down, comp, up, total) seconds; multipliers are unit-mean log-normals."""
    s = params.sigma
    mu = -0.5 * s * s
    down = params.mean_down * float(rng.lognormal(mu, s))
    comp = params.mean_comp * float(rng.lognormal(mu, s))
    up = params.mean_up * float(rng.lognormal(mu, s))
    return down, comp, up, down + comp + up


def est_rate(model_bytes: float, tau: float) -> float:
    """Average data rate of moving one model over a link with round latency tau."""
    if tau <= 0:
        raise ConfigurationError("round latency must be > 0")
    return model_bytes / tau


class LatencyTracker:
    """Exponential moving average of observed round latencies per (device, gateway)."""

    def __init__(self, alpha_ema: float):
        if not 0 < alpha_ema <= 1:
            raise ConfigurationError("alpha_ema must be in (0, 1]")
        self.alpha_ema = alpha_ema
        self._ema: dict[tuple[int, int], float] = {}

    def update(self, device: int, gateway: int, observed: float) -> None:
        if observed <= 0:
            raise ConfigurationError("observed latency must be > 0")
        key = (device, gateway)
        if key in self._ema:
            self._ema[key] = self.alpha_ema * observed + (1 - self.alpha_ema) * self._ema[key]
        else:
            self._ema[key] = observed

    def get(self, device: int, gateway: int, default: float | None = None) -> float | None:
        return self._ema.get((device, gateway), default)


@dataclass(frozen=True)
class FaultEvent:
    time: float
    device: int
    action: str
    factor: float = 1.0

    def __post_init__(self):
        if self.action not in FAULT_ACTIONS:
            raise ConfigurationError(f"unknown fault action {self.action!r}")
        if self.action == "slowdown" and self.factor <= 0:
            raise ConfigurationError("slowdown factor must be > 0")
        if self.time < 0:
            raise ConfigurationError("fault time must be >= 0")


@dataclass
class Topology:
    num_devices: int
    num_gateways: int
    feasible: np.ndarray  # J [N, G]
    link_params: dict[tuple[int, int], DelayParams]  # per feasible (device, gateway)
    comp_mean: np.ndarray  # [N] mean local-training seconds
    bandwidth: np.ndarray  # [G] bytes/s
    model_bytes: int
    cloud_gateway_delay: float = 0.5
    faults: list[FaultEvent] = field(default_factory=list)
    association: np.ndarray = None  # I [N, G], starts empty

    def __post_init__(self):
        n, g = self.num_devices, self.num_gateways
        if self.feasible.shape != (n, g):
            raise ConfigurationError("feasibility matrix shape mismatch")
        if self.comp_mean.shape != (n,) or np.any(self.comp_mean <= 0):
            raise ConfigurationError("comp_mean must be positive per device")
        if self.bandwidth.shape != (g,) or np.any(self.bandwidth <= 0):
            raise ConfigurationError("bandwidth must be positive per gateway")
        if self.model_bytes <= 0:
            raise ConfigurationError("model_size must be > 0 bytes")
        if self.cloud_gateway_delay < 0:
            raise ConfigurationError("cloud_gateway_delay must be >= 0")
        for (i, j) in self.link_params:
            if not (0 <= i < n and 0 <= j < g):
                raise ConfigurationError(f"link ({i}, {j}) out of range")
        for i in range(n):
            for j in range(g):
                if self.feasible[i, j] and (i, j) not in self.link_params:
                    raise ConfigurationError(f"feasible link ({i}, {j}) has no delay params")
        for f in self.faults:
            if not 0 <= f.device < n:
                raise ConfigurationError(f"fault references unknown device {f.device}")
        if self.association is None:
            self.association = np.zeros((n, g), dtype=np.int8)
        self._initial_feasible = self.feasible.copy()
        self._slow_factor = np.ones(n)

    # -- association bookkeeping ------------------------------------------

    def gateway_of(self, device: int) -> int | None:
        row = self.association[device]
        return int(np.argmax(row)) if row.any() else None

    def associate(self, device: int, gateway: int | None) -> None:
        """Point a device's row of I at one feasible gateway (or clear it)."""
        if gateway is not None and not self.feasible[device, gateway]:
            raise ConfigurationError(
                f"cannot associate device {device} to infeasible gateway {gateway}"
            )
        self.association[device] = 0
        if gateway is not None:
            self.association[device, gateway] = 1

    def devices_of(self, gateway: int) -> list[int]:
        return [int(i) for i in np.flatnonzero(self.association[:, gateway])]

    # -- delays -------------------------------------------------------------

    def delay_params(self, device: int, gateway: int) -> DelayParams:
        base = self.link_params[(device, gateway)]
        k = float(self._slow_factor[device])
        if k == 1.0:
            return base
        return DelayParams(base.mean_down * k, base.mean_comp * k, base.mean_up * k, base.sigma)

    # -- faults ---------------------------------------------------------------

    def apply_fault(self, fault: FaultEvent) -> None:
        if not 0 <= fault.device < self.num_devices:
            raise ConfigurationError(f"fault references unknown device {fault.device}")
        if fault.action == "drop":
            self.feasible[fault.device] = 0
            self.association[fault.device] = 0
        elif fault.action == "restore":
            self.feasible[fault.device] = self._initial_feasible[fault.device]
            self._slow_factor[fault.device] = 1.0
        else:  # slowdown
            self._slow_factor[fault.device] = fault.factor


# -- serialization ------------------------------------------------------------


def topology_to_json(topo: Topology) -> dict:
    links = []
    for (i, j), p in sorted(topo.link_params.items()):
        links.append(
            {"i": i, "j": j, "mean_down": p.mean_down, "mean_up": p.mean_up, "sigma": p.sigma}
        )
    devices = [
        {"i": i, "mean_comp": float(topo.comp_mean[i])} for i in range(topo.num_devices)
    ]
    return {
        "N": topo.num_devices,
        "G": topo.num_gateways,
        "B": [float(b) for b in topo.bandwidth],
        "model_size": int(topo.model_bytes),
        "cloud_gateway_delay": topo.cloud_gateway_delay,
        "links": links,
        "devices": devices,
        "faults": [
            {"t": f.time, "device": f.device, "action": f.action, "factor": f.factor}
            for f in topo.faults
        ],
    }


def save_topology(topo: Topology, path: str | Path) -> None:
    Path(path).write_text(json.dumps(topology_to_json(topo), indent=2))


def topology_from_json(doc: dict) -> Topology:
    try:
        n, g = int(doc["N"]), int(doc["G"])
        bandwidth = np.asarray([float(b) for b in doc["B"]], dtype=np.float64)
        model_bytes = int(doc["model_size"])
        comp = {int(d["i"]): float(d["mean_comp"]) for d in doc["devices"]}
        feasible = np.zeros((n, g), dtype=np.int8)
        link_params = {}
        for link in doc["links"]:
            i, j = int(link["i"]), int(link["j"])
            if i not in comp:
                raise ConfigurationError(f"link device {i} missing from devices list")
            feasible[i, j] = 1
            link_params[(i, j)] = DelayParams(
                mean_down=float(link["mean_down"]),
                mean_comp=comp[i],
                mean_up=float(link["mean_up"]),
                sigma=float(link.get("sigma", 0.0)),
            )
        faults = [
            FaultEvent(
                time=float(f["t"]),
                device=int(f["device"]),
                action=str(f["action"]),
                factor=float(f.get("factor", 1.0)),
            )
            for f in doc.get("faults", [])
        ]
        comp_mean = np.ones(n)
        for i, c in comp.items():
            if not 0 <= i < n:
                raise ConfigurationError(f"device id {i} out of range")
            comp_mean[i] = c
        return Topology(
            num_devices=n,
            num_gateways=g,
            feasible=feasible,
            link_params=link_params,
            comp_mean=comp_mean,
            bandwidth=bandwidth,
            model_bytes=model_bytes,
            cloud_gateway_delay=float(doc.get("cloud_gateway_delay", 0.5)),
            faults=sorted(faults, key=lambda f: f.time),
        )
    except KeyError as exc:
        raise DatasetFormatError(f"topology file missing field {exc}") from exc
    except (TypeError, ValueError, IndexError) as exc:
        raise DatasetFormatError(f"invalid topology file: {exc}") from exc


def load_topology(path: str | Path) -> Topology:
    p = Path(path)
    if not p.exists():
        raise DatasetFormatError(f"topology file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"{p.name}: invalid JSON ({exc})") from exc
    return topology_from_json(doc)


# -- generator ----------------------------------------------------------------


@dataclass(frozen=True)
class TopologySpec:
    """Random two-level tree: devices attach to their 1-3 nearest gateways."""

    num_devices: int
    num_gateways: int
    model_bytes: int
    base_down: float = 2.0
    base_up: float = 4.0
    base_comp: float = 10.0
    jitter_sigma: float = 1.0  # per-round log-normal shape on every segment
    het_sigma: float = 0.5  # spread of per-device mean multipliers
    bandwidth_frac: float = 0.5  # gateway cap as a fraction of its candidates' total rate
    cloud_gateway_delay: float = 0.5

    def __post_init__(self):
        if self.num_devices < 1 or self.num_gateways < 1:
            raise ConfigurationError("need >= 1 device and >= 1 gateway")
        if self.model_bytes < 1:
            raise ConfigurationError("model_bytes must be >= 1")
        if min(self.base_down, self.base_up, self.base_comp) <= 0:
            raise ConfigurationError("base delays must be > 0")
        if not 0 < self.bandwidth_frac <= 1:
            raise ConfigurationError("bandwidth_frac must be in (0, 1]")


def gen_topology(spec: TopologySpec, seed: int) -> Topology:
    """Mesh-like random topology with heterogeneous, long-tail-prone link delays."""
    rng = np.random.default_rng(seed)
    n, g = spec.num_devices, spec.num_gateways
    gw_pos = rng.random((g, 2))
    dev_pos = rng.random((n, 2))
    # Per-device multiplier spreads mean latencies across devices.
    link_het = rng.lognormal(0.0, spec.het_sigma, n)
    comp_het = rng.lognormal(0.0, spec.het_sigma, n)

    feasible = np.zeros((n, g), dtype=np.int8)
    link_params = {}
    comp_mean = spec.base_comp * comp_het
    for i in range(n):
        dist = np.linalg.norm(gw_pos - dev_pos[i], axis=1)
        k = min(g, int(rng.integers(1, 4)))
        for j in np.argsort(dist)[:k]:
            j = int(j)
            feasible[i, j] = 1
            scale = link_het[i] * (0.5 + dist[j])
            link_params[(i, j)] = DelayParams(
                mean_down=spec.base_down * scale,
                mean_comp=comp_mean[i],
                mean_up=spec.base_up * scale,
                sigma=spec.jitter_sigma,
            )

    bandwidth = np.zeros(g)
    for j in range(g):
        rates = [
            est_rate(spec.model_bytes, link_params[(i, j)].mean_total)
            for i in range(n)
            if feasible[i, j]
        ]
        # Guard: a gateway with no candidate devices keeps a token positive cap.
        bandwidth[j] = spec.bandwidth_frac * sum(rates) if rates else 1.0

    return Topology(
        num_devices=n,
        num_gateways=g,
        feasible=feasible,
        link_params=link_params,
        comp_mean=comp_mean,
        bandwidth=bandwidth,
        model_bytes=spec.model_bytes,
        cloud_gateway_delay=spec.cloud_gateway_delay,
    )
