import numpy as np
import pytest

from hfedsim.errors import ConfigurationError, DatasetFormatError
from hfedsim.learning import Shard
from hfedsim.network import (
    DelayParams,
    FaultEvent,
    Topology,
    TopologySpec,
    est_rate,
    gen_topology,
    load_topology,
    sample_round_latency,
    save_topology,
    topology_from_json,
    topology_to_json,
)
from hfedsim.selection import AssociationInstance
from hfedsim.simulator import Flight, _Simulation
from hfedsim.utility import PcaModel
from simtools import small_config, uniform_topology


class TestSampleRoundLatency:
    def test_sigma_zero_is_exact_sum(self):
        params = DelayParams(mean_down=3.0, mean_comp=10.0, mean_up=5.0, sigma=0.0)
        d, c, u, total = sample_round_latency(params, np.random.default_rng(0))
        assert (d, c, u) == (3.0, 10.0, 5.0)
        assert total == 18.0

    def test_unit_mean_multipliers(self):
        params = DelayParams(mean_down=2.0, mean_comp=7.0, mean_up=4.0, sigma=1.0)
        rng = np.random.default_rng(1)
        draws = np.array([sample_round_latency(params, rng) for _ in range(100_000)])
        for col, mean in zip(range(3), (2.0, 7.0, 4.0)):
            assert abs(draws[:, col].mean() - mean) / mean < 0.03

    def test_long_tail(self):
        params = DelayParams(mean_down=1.0, mean_comp=1.0, mean_up=1.0, sigma=1.0)
        rng = np.random.default_rng(2)
        totals = np.array([sample_round_latency(params, rng)[3] for _ in range(100_000)])
        assert np.percentile(totals, 99) >= 3 * np.median(totals)

    def test_deterministic_given_rng_state(self):
        params = DelayParams(1.0, 2.0, 3.0, sigma=0.7)
        a = sample_round_latency(params, np.random.default_rng(9))
        b = sample_round_latency(params, np.random.default_rng(9))
        assert a == b


def _observe(sim, i, g, tau):
    """Land one upload of device i at gateway g whose round took tau."""
    flight = Flight(g, sim.gateways[g].version, 0.0, None, 0, tau,
                    params=sim.gateways[g].params.copy())
    sim.flights[i] = flight
    sim.on_device_upload_arrives(i, flight)


class TestLatencyTracker:
    """The simulator's latency estimate: link mean, first observation, then EMA."""

    def test_alpha_one_tracks_last(self):
        sim = _Simulation(small_config(mode="semi-async", alpha_ema=1.0))
        _observe(sim, 0, 0, 10.0)
        _observe(sim, 0, 0, 25.0)
        assert sim.tau_estimate(0, 0) == 25.0

    def test_constant_fixed_point(self):
        sim = _Simulation(small_config(mode="semi-async", alpha_ema=0.3))
        for _ in range(5):
            _observe(sim, 1, 1, 4.0)
        assert sim.tau_estimate(1, 1) == pytest.approx(4.0, rel=1e-12)

    def test_two_step_average(self):
        sim = _Simulation(small_config(mode="semi-async", alpha_ema=0.5))
        _observe(sim, 0, 1, 10.0)
        _observe(sim, 0, 1, 20.0)
        assert sim.tau_estimate(0, 1) == 15.0

    def test_default_when_unobserved(self):
        sim = _Simulation(small_config(mode="semi-async", alpha_ema=0.5,
                                       topology=uniform_topology(6, 2, mean_comp=2.0)))
        assert sim.tau_estimate(3, 0) == 7.0  # 2 down + 2 compute + 3 up
        _observe(sim, 3, 1, 12.0)
        assert sim.tau_estimate(3, 0) == 7.0  # another link's upload leaves it
        assert sim.tau_estimate(3, 1) == 12.0


class TestEstRate:
    def test_paper_scale_examples(self):
        assert est_rate(1.6e6, 80.0) == 20_000.0
        assert est_rate(285e3, 285.0) == 1000.0

    def test_doubling_tau_halves_rate(self):
        assert est_rate(1000.0, 10.0) == 2 * est_rate(1000.0, 20.0)

    def test_nonpositive_tau_rejected(self):
        with pytest.raises(ConfigurationError):
            est_rate(100.0, 0.0)


def small_topology(sigma=0.0, faults=()):
    link_params = {
        (i, j): DelayParams(1.0 + i, 5.0, 2.0, sigma)
        for i in range(3) for j in range(2) if (i + j) % 2 == 0 or i == j
    }
    return Topology(
        num_devices=3,
        num_gateways=2,
        link_params=link_params,
        bandwidth=np.array([5e3, 8e3]),
        model_bytes=1000,
        faults=list(faults),
    )


def finished_simulation(mode, faults=()):
    """Run on `small_topology`, re-associating every cloud epoch.

    Returns the finished simulation and, per association that ran, whether
    every associated device sat on a gateway it could reach right after it.
    """
    checks = []

    class Checked(_Simulation):
        def run_association(self):
            super().run_association()
            checks.append(associated_links_are_feasible(self))

    sim = Checked(
        small_config(mode=mode, n=3, g=2, topology=small_topology(faults=faults), assoc_period=1)
    )
    sim.run()
    return sim, checks


def associated_links_are_feasible(sim):
    return all(j < 0 or sim.feasible[i, j] for i, j in enumerate(sim.gateway_of))


class TestTopology:
    def test_association_respects_feasibility(self):
        for mode in ("async-sched", "async-random"):
            sim, checks = finished_simulation(mode)
            # The association due at the last cloud epoch never runs: the run is over.
            assert sim.h == 12 and len(checks) == 11
            assert all(checks)
            assert (sim.gateway_of >= 0).all()

    def test_drop_then_restore_is_involution(self):
        topo = small_topology()
        original = topo.feasible.copy()
        sim = _Simulation(small_config(n=3, g=2, topology=topo))
        sim.gateway_of[:] = sim._random_association()
        sim.on_fault_timer(FaultEvent(1.0, 0, "drop"))
        assert not sim.feasible[0].any()
        assert sim.gateway_of[0] == -1
        sim.on_fault_timer(FaultEvent(2.0, 0, "restore"))
        np.testing.assert_array_equal(sim.feasible, original)
        np.testing.assert_array_equal(topo.feasible, original)

    def test_association_stays_below_feasibility(self):
        # Device 0 drops for good; device 1 drops and comes back.
        faults = [
            FaultEvent(5.0, 0, "drop"), FaultEvent(5.0, 1, "drop"), FaultEvent(50.0, 1, "restore"),
        ]
        for mode in ("async-random", "sync-random"):
            sim, checks = finished_simulation(mode, faults)
            assert sim.h == 12
            assert all(checks) and associated_links_are_feasible(sim)
            assert sim.gateway_of[0] == -1 and sim.gateway_of[1] >= 0

    def test_slowdown_scales_sampled_latency(self):
        base = small_topology(sigma=1.0).link_params[(0, 0)]
        rng = np.random.default_rng(3)
        fast = np.array([sample_round_latency(base, rng)[3] for _ in range(10_000)])
        slowed = base.slowed(10.0)
        slow = np.array([sample_round_latency(slowed, rng)[3] for _ in range(10_000)])
        assert 8.0 <= slow.mean() / fast.mean() <= 12.0
        assert slowed.mean_down == 10.0 and slowed.sigma == base.sigma
        assert base.slowed(1.0) is base

    def test_unknown_device_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown device 99"):
            small_topology(faults=[FaultEvent(0.0, 99, "drop")])

    def test_links_of_one_device_must_agree_on_compute(self):
        links = {(0, 0): DelayParams(1.0, 5.0, 2.0), (0, 1): DelayParams(1.0, 6.0, 2.0)}
        with pytest.raises(ConfigurationError, match="device 0 differ in mean_comp"):
            Topology(1, 2, links, bandwidth=np.ones(2), model_bytes=1000)

    def test_feasibility_is_the_link_set_and_read_only(self):
        topo = small_topology()
        assert set(zip(*np.nonzero(topo.feasible))) == set(topo.link_params)
        with pytest.raises(ValueError, match="read-only"):
            topo.feasible[0, 1] = 1

    def test_bad_fault_action(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(0.0, 0, "explode")


class TestTopologyIO:
    def test_round_trip(self, tmp_path):
        topo = gen_topology(
            TopologySpec(num_devices=8, num_gateways=3, model_bytes=4000), seed=5
        )
        path = tmp_path / "topo.json"
        save_topology(topo, path)
        back = load_topology(path)
        np.testing.assert_array_equal(topo.feasible, back.feasible)
        np.testing.assert_allclose(topo.bandwidth, back.bandwidth)
        assert topo.model_bytes == back.model_bytes
        # DelayParams equality covers each link's mean_comp.
        assert back.link_params == topo.link_params

    def test_round_trip_with_faults(self, tmp_path):
        topo = small_topology(faults=[FaultEvent(3.0, 1, "slowdown", 4.0)])
        path = tmp_path / "t.json"
        save_topology(topo, path)
        back = load_topology(path)
        assert back.faults == [FaultEvent(3.0, 1, "slowdown", 4.0)]

    def test_out_of_range_device_id_rejected(self):
        doc = topology_to_json(small_topology())
        doc["devices"].append({"i": 3, "mean_comp": 5.0})
        with pytest.raises(DatasetFormatError, match="device id 3 out of range"):
            topology_from_json(doc)

    def test_device_entry_without_links_loads(self):
        # Older files list every device, with or without a link.
        doc = topology_to_json(small_topology())
        doc["links"] = [link for link in doc["links"] if link["i"] != 2]
        back = topology_from_json(doc)
        assert not back.feasible[2].any()
        assert 2 not in {d["i"] for d in topology_to_json(back)["devices"]}

    def test_missing_field(self):
        with pytest.raises(DatasetFormatError, match="missing field"):
            topology_from_json({"N": 2, "G": 1})

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="not found"):
            load_topology(tmp_path / "none.json")


class TestGenTopology:
    def test_every_device_has_one_to_three_gateways(self):
        topo = gen_topology(
            TopologySpec(num_devices=20, num_gateways=4, model_bytes=1000), seed=1
        )
        counts = topo.feasible.sum(axis=1)
        assert counts.min() >= 1 and counts.max() <= 3
        assert topo.feasible.sum() == len(topo.link_params)

    def test_deterministic(self):
        spec = TopologySpec(num_devices=10, num_gateways=3, model_bytes=1000)
        a = topology_to_json(gen_topology(spec, seed=2))
        b = topology_to_json(gen_topology(spec, seed=2))
        assert a == b

    def test_bandwidth_scales_with_fraction(self):
        full = gen_topology(
            TopologySpec(num_devices=12, num_gateways=2, model_bytes=1000, bandwidth_frac=1.0),
            seed=3,
        )
        half = gen_topology(
            TopologySpec(num_devices=12, num_gateways=2, model_bytes=1000, bandwidth_frac=0.5),
            seed=3,
        )
        np.testing.assert_allclose(half.bandwidth, full.bandwidth / 2)


@pytest.mark.parametrize(
    "build",
    [
        lambda: uniform_topology(3, 2),
        lambda: Shard(np.zeros((2, 3)), np.zeros(2, dtype=int)),
        lambda: PcaModel(np.zeros(3), np.eye(3)),
        lambda: AssociationInstance(np.ones((2, 1)), np.ones(2), np.ones((2, 1)), np.ones(1)),
    ],
    ids=["Topology", "Shard", "PcaModel", "AssociationInstance"],
)
def test_records_with_array_fields_compare_by_identity(build):
    # A generated __eq__ would compare the arrays inside a tuple and raise
    # "truth value of an array is ambiguous"; two equal-valued records differ.
    a, b = build(), build()
    assert a == a
    assert a != b
