import numpy as np
import pytest

from hfedsim.errors import ConfigurationError, DatasetFormatError
from hfedsim.network import (
    DelayParams,
    FaultEvent,
    LatencyTracker,
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


class TestLatencyTracker:
    def test_alpha_one_tracks_last(self):
        t = LatencyTracker(alpha_ema=1.0)
        t.update(0, 0, 10.0)
        t.update(0, 0, 25.0)
        assert t.get(0, 0) == 25.0

    def test_constant_fixed_point(self):
        t = LatencyTracker(alpha_ema=0.3)
        for _ in range(5):
            t.update(1, 2, 4.0)
        assert t.get(1, 2) == pytest.approx(4.0, rel=1e-12)

    def test_two_step_average(self):
        t = LatencyTracker(alpha_ema=0.5)
        t.update(0, 1, 10.0)
        t.update(0, 1, 20.0)
        assert t.get(0, 1) == 15.0

    def test_default_when_unobserved(self):
        t = LatencyTracker(alpha_ema=0.5)
        assert t.get(3, 0) is None
        assert t.get(3, 0, default=7.0) == 7.0


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
    link_params = {}
    feasible = np.zeros((3, 2), dtype=np.int8)
    for i in range(3):
        for j in range(2):
            if (i + j) % 2 == 0 or i == j:
                feasible[i, j] = 1
                link_params[(i, j)] = DelayParams(1.0 + i, 5.0, 2.0, sigma)
    return Topology(
        num_devices=3,
        num_gateways=2,
        feasible=feasible,
        link_params=link_params,
        comp_mean=np.full(3, 5.0),
        bandwidth=np.array([50.0, 80.0]),
        model_bytes=1000,
        faults=list(faults),
    )


class TestTopology:
    def test_association_respects_feasibility(self):
        topo = small_topology()
        topo.associate(0, 0)
        assert topo.gateway_of(0) == 0
        with pytest.raises(ConfigurationError):
            topo.associate(1, 0)  # (1, 0) is infeasible in the fixture

    def test_drop_then_restore_is_involution(self):
        topo = small_topology()
        original = topo.feasible.copy()
        topo.associate(0, 0)
        topo.apply_fault(FaultEvent(1.0, 0, "drop"))
        assert not topo.feasible[0].any()
        assert not topo.association[0].any()
        topo.apply_fault(FaultEvent(2.0, 0, "restore"))
        np.testing.assert_array_equal(topo.feasible, original)

    def test_association_stays_below_feasibility(self):
        topo = small_topology()
        topo.associate(0, 0)
        topo.apply_fault(FaultEvent(1.0, 0, "drop"))
        assert np.all(topo.association <= topo.feasible)

    def test_slowdown_scales_sampled_latency(self):
        topo = small_topology(sigma=1.0)
        rng = np.random.default_rng(3)
        base = np.array(
            [sample_round_latency(topo.delay_params(0, 0), rng)[3] for _ in range(10_000)]
        )
        topo.apply_fault(FaultEvent(0.0, 0, "slowdown", factor=10.0))
        slow = np.array(
            [sample_round_latency(topo.delay_params(0, 0), rng)[3] for _ in range(10_000)]
        )
        assert 8.0 <= slow.mean() / base.mean() <= 12.0
        topo.apply_fault(FaultEvent(0.0, 0, "restore"))
        assert topo.delay_params(0, 0).mean_down == 1.0

    def test_unknown_device_rejected(self):
        topo = small_topology()
        with pytest.raises(ConfigurationError):
            topo.apply_fault(FaultEvent(0.0, 99, "drop"))

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
        np.testing.assert_allclose(topo.comp_mean, back.comp_mean)
        assert topo.model_bytes == back.model_bytes
        assert set(topo.link_params) == set(back.link_params)
        for key, p in topo.link_params.items():
            assert back.link_params[key] == p

    def test_round_trip_with_faults(self, tmp_path):
        topo = small_topology(faults=[FaultEvent(3.0, 1, "slowdown", 4.0)])
        path = tmp_path / "t.json"
        save_topology(topo, path)
        back = load_topology(path)
        assert back.faults == [FaultEvent(3.0, 1, "slowdown", 4.0)]

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
