"""Network description, stochastic link delays, and fault events.

A `Topology` is input only: it describes the links, delays, bandwidth caps
and the fault schedule, and a run never changes it. The association, the
link state that faults change and the round-latency estimates learned from
uploads belong to the simulation.

Each link fact is stored once, on the links. A device can reach a gateway if
and only if `link_params` has that (device, gateway) pair, and `feasible` is
derived from those keys. A device's mean compute time is the `mean_comp` of
its links, which must therefore agree. A device with no link has none.

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

    def slowed(self, k: float) -> DelayParams:
        """These delays with every mean scaled by a straggler's slowdown factor k."""
        if k == 1.0:
            return self
        return DelayParams(self.mean_down * k, self.mean_comp * k, self.mean_up * k, self.sigma)


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


@dataclass(frozen=True, eq=False)
class Topology:
    """The network a run is given: links, delays, caps and the fault schedule."""

    num_devices: int
    num_gateways: int
    link_params: dict[tuple[int, int], DelayParams]  # per reachable (device, gateway)
    bandwidth: np.ndarray  # [G] bytes/s
    model_bytes: int
    cloud_gateway_delay: float = 0.5
    faults: list[FaultEvent] = field(default_factory=list)
    feasible: np.ndarray = field(init=False)  # J [N, G], read-only: 1 where a link exists

    def __post_init__(self):
        n, g = self.num_devices, self.num_gateways
        if self.bandwidth.shape != (g,) or np.any(self.bandwidth <= 0):
            raise ConfigurationError("bandwidth must be positive per gateway")
        if self.model_bytes <= 0:
            raise ConfigurationError("model_size must be > 0 bytes")
        if self.cloud_gateway_delay < 0:
            raise ConfigurationError("cloud_gateway_delay must be >= 0")
        feasible = np.zeros((n, g), dtype=np.int8)
        comp: dict[int, float] = {}
        for (i, j), p in self.link_params.items():
            if not (0 <= i < n and 0 <= j < g):
                raise ConfigurationError(f"link ({i}, {j}) out of range")
            if comp.setdefault(i, p.mean_comp) != p.mean_comp:
                raise ConfigurationError(f"the links of device {i} differ in mean_comp")
            feasible[i, j] = 1
        feasible.flags.writeable = False
        object.__setattr__(self, "feasible", feasible)
        for f in self.faults:
            if not 0 <= f.device < n:
                raise ConfigurationError(f"fault references unknown device {f.device}")


# -- serialization ------------------------------------------------------------


def topology_to_json(topo: Topology) -> dict:
    links, comp = [], {}
    for (i, j), p in sorted(topo.link_params.items()):
        links.append(
            {"i": i, "j": j, "mean_down": p.mean_down, "mean_up": p.mean_up, "sigma": p.sigma}
        )
        comp[i] = float(p.mean_comp)
    devices = [{"i": i, "mean_comp": c} for i, c in comp.items()]
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
        for i in comp:
            if not 0 <= i < n:
                raise ConfigurationError(f"device id {i} out of range")
        link_params = {}
        for link in doc["links"]:
            i, j = int(link["i"]), int(link["j"])
            if i not in comp:
                raise ConfigurationError(f"link device {i} missing from devices list")
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
        return Topology(
            num_devices=n,
            num_gateways=g,
            link_params=link_params,
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

    link_params = {}
    comp = (spec.base_comp * comp_het).tolist()
    rates: list[list[float]] = [[] for _ in range(g)]  # per gateway, in device order
    for i in range(n):
        dist = np.linalg.norm(gw_pos - dev_pos[i], axis=1)
        k = min(g, int(rng.integers(1, 4)))
        for j in np.argsort(dist)[:k]:
            j = int(j)
            scale = float(link_het[i] * (0.5 + dist[j]))
            p = link_params[(i, j)] = DelayParams(
                mean_down=spec.base_down * scale,
                mean_comp=comp[i],
                mean_up=spec.base_up * scale,
                sigma=spec.jitter_sigma,
            )
            rates[j].append(est_rate(spec.model_bytes, p.mean_total))
    # Guard: a gateway with no candidate devices keeps a token positive cap.
    bandwidth = np.array([spec.bandwidth_frac * sum(r) if r else 1.0 for r in rates])

    return Topology(
        num_devices=n,
        num_gateways=g,
        link_params=link_params,
        bandwidth=bandwidth,
        model_bytes=spec.model_bytes,
        cloud_gateway_delay=spec.cloud_gateway_delay,
    )
