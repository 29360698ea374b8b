"""Network description, stochastic link delays, and fault events.

A `Topology` is input only: it describes the links, delays, bandwidth caps
and the fault schedule, and a run never changes it. The association, the
link state that faults change and the round-latency estimates learned from
uploads belong to the simulation.

Each link fact is stored once, on the links. A device can reach a gateway if
and only if `link_params` has that (device, gateway) pair, and `feasible` is
derived from those keys. A device's mean compute time is the `mean_comp` of
its links, which must therefore agree. A device with no link has none.

The topology file has one public save and one public load, `save_topology`
and `load_topology`, which write and read a path. It stores each link fact
as the record does: one `links` entry per (device, gateway) pair, holding its
`i`, `j` and the four `DelayParams` fields, so a device's `mean_comp` repeats
on each of its links and only `Topology` checks that they agree. A loading
error names the file and the entry or field it was raised at (`links[2]`,
`faults[0].t`, `B[0]`).

Round latency between a gateway and a device is downlink + local compute +
uplink. Each segment is its mean times an independent log-normal multiplier
with unit mean, so configured means are true means and sigma=0 gives exact
constants. Bandwidth is enforced by the schedulers, not by queueing.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    ConfigurationError, DatasetFormatError, check_count, float_field, integer_field, is_integer,
    read_json,
)
from .selection import ordered_sum

FAULT_ACTIONS = ("drop", "restore", "slowdown")
CLOUD_GATEWAY_DELAY = 0.5  # seconds each way between a gateway and the cloud


@dataclass(frozen=True)
class DelayParams:
    mean_down: float
    mean_comp: float
    mean_up: float
    sigma: float = 0.0

    def __post_init__(self):
        # Chained comparisons, so that NaN fails them as inf does.
        inf = math.inf
        if not (0 < self.mean_down < inf and 0 < self.mean_comp < inf and 0 < self.mean_up < inf):
            raise ConfigurationError("delay means must be finite and > 0")
        if not 0 <= self.sigma < inf:
            raise ConfigurationError("sigma must be finite and >= 0")

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
        check_count(self.device, "device", 0)
        if self.action not in FAULT_ACTIONS:
            raise ConfigurationError(f"unknown fault action {self.action!r}")
        if not math.isfinite(self.factor) or (self.action == "slowdown" and self.factor <= 0):
            raise ConfigurationError("fault factor must be finite, and > 0 for a slowdown")
        if not 0 <= self.time < math.inf:
            raise ConfigurationError("fault time must be finite and >= 0")


@dataclass(frozen=True, eq=False)
class Topology:
    """The network a run is given: links, delays, caps and the fault schedule."""

    num_devices: int
    num_gateways: int
    link_params: dict[tuple[int, int], DelayParams]  # per reachable (device, gateway)
    bandwidth: np.ndarray  # [G] bytes/s
    model_bytes: int
    cloud_gateway_delay: float = CLOUD_GATEWAY_DELAY
    faults: list[FaultEvent] = field(default_factory=list)
    feasible: np.ndarray = field(init=False)  # J [N, G], read-only: 1 where a link exists

    def __post_init__(self):
        for name in ("num_devices", "num_gateways", "model_bytes"):
            check_count(getattr(self, name), name)
        n, g = self.num_devices, self.num_gateways
        cap = self.bandwidth
        if not isinstance(cap, np.ndarray):
            raise ConfigurationError(f"bandwidth must be a numpy array ({cap!r})")
        if cap.shape != (g,) or not np.all((cap > 0) & (cap < np.inf)):
            raise ConfigurationError("bandwidth must be finite and positive per gateway")
        if not 0 <= self.cloud_gateway_delay < math.inf:
            raise ConfigurationError("cloud_gateway_delay must be finite and >= 0")
        feasible = np.zeros((n, g), dtype=np.int8)
        comp: dict[int, float] = {}
        for (i, j), p in self.link_params.items():
            # A bool endpoint would index `feasible` as a mask, a whole row.
            # Plain ints, the common case, skip the slower `is_integer`.
            if not (type(i) is type(j) is int or is_integer(i) and is_integer(j)):
                raise ConfigurationError(f"link ({i}, {j}) endpoints must be integers")
            if not (0 <= i < n and 0 <= j < g):
                raise ConfigurationError(f"link ({i}, {j}) out of range")
            if comp.setdefault(i, p.mean_comp) != p.mean_comp:
                raise ConfigurationError(f"the links of device {i} differ in mean_comp")
            feasible[i, j] = 1
        feasible.flags.writeable = False
        object.__setattr__(self, "feasible", feasible)
        for f in self.faults:
            if f.device >= n:
                raise ConfigurationError(f"fault references unknown device {f.device}")


# -- serialization ------------------------------------------------------------


def save_topology(topo: Topology, path: str | Path) -> None:
    """Write `topo` to `path` as one JSON document (see the module docstring)."""
    doc = {
        "N": topo.num_devices,
        "G": topo.num_gateways,
        "B": [float(b) for b in topo.bandwidth],
        "model_size": int(topo.model_bytes),
        "cloud_gateway_delay": topo.cloud_gateway_delay,
        "links": [{"i": i, "j": j, **asdict(p)} for (i, j), p in sorted(topo.link_params.items())],
        "faults": [
            {"t": f.time, "device": f.device, "action": f.action, "factor": f.factor}
            for f in topo.faults
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2))


def load_topology(path: str | Path) -> Topology:
    """The topology in the JSON file at `path`, as `save_topology` writes it.

    Every error is a `DatasetFormatError` that names the file, and the entry
    or field it was raised at (see the module docstring).
    """
    p = Path(path)
    doc = read_json(p)
    where = ""  # the section or entry being read, which a message raised there names
    try:
        n, g = integer_field(doc["N"], "N"), integer_field(doc["G"], "G")
        model_bytes = integer_field(doc["model_size"], "model_size")
        cloud = doc.get("cloud_gateway_delay", CLOUD_GATEWAY_DELAY)
        where = "B: "
        bandwidth = np.asarray([float_field(b, f"B[{k}]") for k, b in enumerate(doc["B"])])
        link_params = {}
        where = "links: "
        for k, link in enumerate(doc["links"]):
            where = f"links[{k}]: "
            i, j = (integer_field(link[key], f"links[{k}].{key}") for key in ("i", "j"))
            means = [
                float_field(link[key], f"links[{k}].{key}")
                for key in ("mean_down", "mean_comp", "mean_up")
            ]
            sigma = float_field(link.get("sigma", 0.0), f"links[{k}].sigma")
            if (i, j) in link_params:
                # Each entry before this one added one link, in entry order.
                first = list(link_params).index((i, j))
                raise ConfigurationError(f"link ({i}, {j}) repeats links[{first}]")
            link_params[(i, j)] = DelayParams(*means, sigma)
        faults = []
        where = "faults: "
        for k, f in enumerate(doc.get("faults", [])):
            where = f"faults[{k}]: "
            faults.append(FaultEvent(
                time=float_field(f["t"], f"faults[{k}].t"),
                device=integer_field(f["device"], f"faults[{k}].device"),
                action=str(f["action"]),
                factor=float_field(f.get("factor", 1.0), f"faults[{k}].factor"),
            ))
        where = ""
        return Topology(
            num_devices=n,
            num_gateways=g,
            link_params=link_params,
            bandwidth=bandwidth,
            model_bytes=model_bytes,
            cloud_gateway_delay=float_field(cloud, "cloud_gateway_delay"),
            faults=sorted(faults, key=lambda f: f.time),
        )
    except DatasetFormatError as exc:
        raise DatasetFormatError(f"{p.name}: {exc}") from exc
    except KeyError as exc:
        raise DatasetFormatError(f"{p.name}: {where}missing field {exc}") from exc
    except (ConfigurationError, TypeError) as exc:
        raise DatasetFormatError(f"{p.name}: {where}{exc}") from exc


# -- generator ----------------------------------------------------------------

# Mean delays of a generated link, in seconds, before its device's multiplier
# (and, for the down- and uplink, its distance) scales them.
GEN_DOWN = 2.0
GEN_UP = 4.0
GEN_COMP = 10.0
GEN_JITTER_SIGMA = 1.0  # per-round log-normal shape on every segment


@dataclass(frozen=True)
class TopologySpec:
    """Random two-level tree: devices attach to their 1-3 nearest gateways."""

    num_devices: int
    num_gateways: int
    model_bytes: int
    het_sigma: float = 0.5  # spread of per-device mean multipliers
    bandwidth_frac: float = 0.5  # gateway cap as a fraction of its candidates' total rate

    def __post_init__(self):
        for name in ("num_devices", "num_gateways", "model_bytes"):
            check_count(getattr(self, name), name)
        if not 0 < self.bandwidth_frac <= 1:
            raise ConfigurationError("bandwidth_frac must be in (0, 1]")
        if not 0 <= self.het_sigma < math.inf:
            raise ConfigurationError("het_sigma must be finite and >= 0")


def gen_topology(spec: TopologySpec, seed: int) -> Topology:
    """Mesh-like random topology with heterogeneous, long-tail-prone link delays."""
    check_count(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    n, g = spec.num_devices, spec.num_gateways
    gw_pos = rng.random((g, 2))
    dev_pos = rng.random((n, 2))
    # Per-device multiplier spreads mean latencies across devices.
    link_het = rng.lognormal(0.0, spec.het_sigma, n)
    comp_het = rng.lognormal(0.0, spec.het_sigma, n)

    # Whole-array passes over every (device, gateway) pair: distances, each
    # device's gateways nearest first, and the delay scale. Each entry is the
    # float a per-device pass gives. One draw of every link count gives the
    # numbers of one draw per device in device order (numpy 2.4; the
    # per-device oracle test holds it).
    dist = np.linalg.norm(gw_pos[None] - dev_pos[:, None], axis=2)  # [N, G]
    nearest = np.argsort(dist, axis=1).tolist()
    scale = (link_het[:, None] * (0.5 + dist)).tolist()
    comp = (GEN_COMP * comp_het).tolist()
    links = np.minimum(rng.integers(1, 4, size=n), g).tolist()

    link_params = {}
    rates: list[list[float]] = [[] for _ in range(g)]  # per gateway, in device order
    for i in range(n):
        for j in nearest[i][: links[i]]:
            s = scale[i][j]
            p = link_params[(i, j)] = DelayParams(
                mean_down=GEN_DOWN * s,
                mean_comp=comp[i],
                mean_up=GEN_UP * s,
                sigma=GEN_JITTER_SIGMA,
            )
            rates[j].append(est_rate(spec.model_bytes, p.mean_total))
    # Guard: a gateway with no candidate devices keeps a token positive cap.
    bandwidth = np.array([spec.bandwidth_frac * ordered_sum(r) if r else 1.0 for r in rates])

    return Topology(
        num_devices=n,
        num_gateways=g,
        link_params=link_params,
        bandwidth=bandwidth,
        model_bytes=spec.model_bytes,
    )
