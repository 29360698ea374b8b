"""Shared builders for simulator tests: small deterministic scenarios, the run digest,
the landing times of the flights in the air, and numpy's own seeding of a device round."""

import hashlib

import numpy as np

from hfedsim.data import DataSpec, gen_synthetic
from hfedsim.learning import ModelArch, TrainConfig
from hfedsim.network import DelayParams, FaultEvent, Topology
from hfedsim.simulator import SimConfig


def uniform_topology(
    n,
    g,
    model_bytes=8000,
    mean_down=2.0,
    mean_comp=6.0,
    mean_up=3.0,
    sigma=0.0,
    bandwidth=1e9,
    faults=(),
    cloud_gateway_delay=0.5,
):
    """Every device reaches every gateway with identical delay parameters."""
    params = DelayParams(mean_down, mean_comp, mean_up, sigma)
    link_params = {(i, j): params for i in range(n) for j in range(g)}
    return Topology(
        num_devices=n,
        num_gateways=g,
        link_params=link_params,
        bandwidth=np.full(g, float(bandwidth)),
        model_bytes=model_bytes,
        cloud_gateway_delay=cloud_gateway_delay,
        faults=list(faults),
    )


def small_config(
    mode="async-random",
    n=6,
    g=2,
    num_classes=4,
    seed=0,
    topology=None,
    **overrides,
):
    spec = DataSpec(
        num_devices=n,
        num_classes=num_classes,
        classes_per_device=min(2, num_classes),
        samples_per_device=24,
        input_dim=3,
        cluster_spread=0.4,
    )
    dataset = gen_synthetic(spec, seed=seed)
    arch = ModelArch("logistic", input_dim=3, num_classes=num_classes)
    topo = topology if topology is not None else uniform_topology(n, g, sigma=0.5)
    kwargs = dict(
        mode=mode,
        arch=arch,
        dataset=dataset,
        topology=topo,
        train=TrainConfig(gamma=0.1, rho=0.1, epochs=2, batch_size=8),
        seed=seed,
        data_spec=spec,
        gateway_epochs=3,
        cloud_epochs=12,
        assoc_period=4,
        pca_dim=5,
        eval_every=30.0,
        semi_window=15.0,
        time_budget=1e6,
    )
    kwargs.update(overrides)
    return SimConfig(**kwargs)


def digest(result) -> str:
    """sha256 of the trace CSV, the byte counters, the final parameters and every transfer."""
    h = hashlib.sha256(result.trace.to_csv().encode())
    h.update(f"{result.bytes_total},{result.bytes_overhead}".encode())
    h.update(result.final_params.tobytes())
    for tr in result.transfers:
        h.update(repr((tr.time, tr.kind, tr.src, tr.dst, tr.size, tr.overhead)).encode())
    return h.hexdigest()


def landing_times(sim) -> dict[int, float]:
    """By flight id, the time each flight in the air lands: its queued upload's
    time, or its queued model arrival's time plus the delay that event carries."""
    landing = {}
    for t, _, handler, args in sim._heap:
        if handler.__name__ == "on_device_model_arrives":
            landing[id(args[1])] = t + args[2]
        elif handler.__name__ == "on_device_upload_arrives":
            landing[id(args[1])] = t
    return landing


def round_stream(seed, device, r):
    """The `bit_generator.state` numpy's own chain gives round `r` of `device`.

    The oracle for `streams.RoundStreams`: a SeedSequence of (seed, device, r)
    hashed to one word, and `default_rng` of that word.
    """
    word = int(np.random.SeedSequence((seed, device, r)).generate_state(1)[0])
    return np.random.default_rng(word).bit_generator.state
