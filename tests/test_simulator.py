import numpy as np
import pytest

from hfedsim.data import DataSpec, gen_synthetic
from hfedsim import simulator
from hfedsim.errors import ConfigurationError, NumericDivergenceError
from hfedsim.learning import (
    ModelArch,
    Shard,
    TrainConfig,
    init_params,
    local_train_cohort,
    loss_and_grad,
)
from hfedsim.network import FaultEvent
from hfedsim.simulator import (
    MODES,
    SimConfig,
    async_aggregate,
    run,
    staleness,
)
from simtools import small_config, uniform_topology


class TestStaleness:
    def test_zero_delta_is_one(self):
        for q in (0.0, 0.3, 1.0, 4.0):
            assert staleness(q, 0) == 1.0

    def test_polynomial_values(self):
        assert staleness(1.0, 1) == 0.5
        assert staleness(0.5, 3) == pytest.approx(0.5)

    def test_q_zero_is_constant(self):
        for delta in (0, 1, 5, 1000):
            assert staleness(0.0, delta) == 1.0

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            staleness(0.5, -1)
        with pytest.raises(ConfigurationError):
            staleness(-0.1, 2)


class TestAsyncAggregate:
    def test_full_weight_passthrough(self):
        cur, new = np.array([1.0, 2.0]), np.array([-3.0, 7.0])
        np.testing.assert_array_equal(async_aggregate(cur, new, 1.0, 0, 0.7), new)

    def test_half_weight(self):
        out = async_aggregate(np.zeros(4), np.ones(4), 0.5, 3, 0.0)
        np.testing.assert_array_equal(out, np.full(4, 0.5))

    def test_contraction(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            cur, new = rng.normal(size=6), rng.normal(size=6)
            w = float(rng.uniform(0.05, 1.0))
            delta = int(rng.integers(0, 5))
            q = float(rng.uniform(0, 2))
            out = async_aggregate(cur, new, w, delta, q)
            eff = w * staleness(q, delta)
            assert np.linalg.norm(out - cur) <= eff * np.linalg.norm(new - cur) + 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            async_aggregate(np.zeros(3), np.zeros(4), 0.5, 0, 0.5)

    def test_bad_weight(self):
        with pytest.raises(ConfigurationError):
            async_aggregate(np.zeros(2), np.zeros(2), 0.0, 0, 0.5)


class TestDegenerateHierarchy:
    def test_matches_sequential_sgd_bitwise(self):
        n_samples = 20
        spec = DataSpec(
            num_devices=1, num_classes=2, classes_per_device=2,
            samples_per_device=n_samples, input_dim=3, cluster_spread=0.4,
        )
        dataset = gen_synthetic(spec, seed=3)
        arch = ModelArch("logistic", input_dim=3, num_classes=2)
        cfg = SimConfig(
            mode="async-random",
            arch=arch,
            dataset=dataset,
            topology=uniform_topology(1, 1, sigma=0.0),
            train=TrainConfig(gamma=0.05, rho=0.3, epochs=1, batch_size=n_samples),
            seed=3,
            alpha=1.0,
            beta=1.0,
            staleness_exp=0.0,
            gateway_epochs=1,
            cloud_epochs=20,
            eval_every=1000.0,
        )
        result = run(cfg)
        assert result.cloud_epochs_done == 20

        params = init_params(arch, 3)
        for _ in range(20):
            _, grad = loss_and_grad(params, arch, dataset.shards[0])
            params = params - 0.05 * grad
        np.testing.assert_array_equal(result.final_params, params)


class TestDeterminism:
    @pytest.mark.parametrize("mode", MODES)
    def test_identical_traces(self, mode):
        a = run(small_config(mode=mode, seed=11))
        b = run(small_config(mode=mode, seed=11))
        assert a.trace.to_csv() == b.trace.to_csv()
        assert a.bytes_total == b.bytes_total
        assert np.array_equal(a.final_params, b.final_params)

    @pytest.mark.parametrize("mode", MODES)
    def test_rerunning_one_config_gives_identical_outputs(self, mode):
        # Neither the drops nor the slowdown are restored: a run that left
        # them in the config's topology would change the second run.
        faults = [
            FaultEvent(1.5, 1, "drop"),
            FaultEvent(10.0, 4, "slowdown", 3.0),
            FaultEvent(200.0, 5, "drop"),
        ]
        cfg = small_config(
            mode=mode, n=8, seed=29, topology=uniform_topology(8, 2, sigma=0.5, faults=faults)
        )
        assert _outputs(cfg) == _outputs(cfg)
        assert cfg.topology.feasible.all() and not cfg.topology.association.any()

    def test_seed_changes_trace(self):
        a = run(small_config(seed=1))
        b = run(small_config(seed=2))
        assert a.trace.to_csv() != b.trace.to_csv()


class TestBytesAccounting:
    @pytest.mark.parametrize("mode", MODES)
    def test_counter_matches_log_recomputation(self, mode):
        result = run(small_config(mode=mode, seed=5))
        recomputed, overhead = result.recompute_bytes_from_log(8000)
        assert result.bytes_total == recomputed
        assert result.bytes_overhead == overhead

    def test_compression_charges_overhead_and_pca(self):
        result = run(small_config(mode="async-sched", seed=7))
        kinds = {t.kind for t in result.transfers}
        assert "pca_distribution" in kinds
        assert result.bytes_overhead > 0
        uploads = [t for t in result.transfers if t.kind == "device_upload"]
        assert all(t.size == 8000 + t.overhead for t in uploads)

    def test_baselines_carry_no_gradient_overhead(self):
        result = run(small_config(mode="async-random", seed=7))
        assert result.bytes_overhead == 0
        assert result.bytes_total == 8000 * result.model_transfers


class TestStalenessInstrumentation:
    def test_async_positive_sync_zero(self):
        async_run = run(small_config(mode="async-random", seed=9))
        sync_run = run(small_config(mode="sync-random", seed=9))
        assert async_run.max_stale_cloud > 0
        assert sync_run.max_stale_cloud == 0
        assert sync_run.max_stale_gw == 0

    def test_semi_async_flags_late_uploads(self):
        # Window far below the ~11 s round latency: every upload is late.
        late = run(small_config(mode="semi-async", seed=9, semi_window=1.0))
        assert late.max_stale_gw > 0
        assert late.max_stale_cloud == 0
        # Window far above any latency: nothing is ever late.
        on_time = run(
            small_config(
                mode="semi-async",
                seed=9,
                semi_window=1e5,
                topology=uniform_topology(6, 2, sigma=0.0),
            )
        )
        assert on_time.max_stale_gw == 0

    def test_hybrid_mode_has_async_cloud_only(self):
        result = run(small_config(mode="sync-gw-async-cloud", seed=9))
        assert result.max_stale_cloud > 0
        assert result.max_stale_gw == 0


class TestFaults:
    def test_dropped_device_receives_nothing_afterwards(self):
        drop_at = 40.0
        topo = uniform_topology(
            4, 1, sigma=0.0, faults=[FaultEvent(drop_at, 2, "drop")]
        )
        result = run(small_config(mode="async-random", n=4, g=1, topology=topo, seed=13))
        late_to_dropped = [
            t for t in result.transfers
            if t.dst == "dev2" and t.time > drop_at and t.kind == "dispatch"
        ]
        assert late_to_dropped == []
        assert result.cloud_epochs_done > 0

    def test_restore_brings_device_back(self):
        topo = uniform_topology(
            4, 1, sigma=0.0,
            faults=[FaultEvent(30.0, 2, "drop"), FaultEvent(60.0, 2, "restore")],
        )
        result = run(
            small_config(
                mode="async-random", n=4, g=1, topology=topo, seed=13,
                cloud_epochs=40, assoc_period=2,
            )
        )
        revived = [
            t for t in result.transfers
            if t.dst == "dev2" and t.time > 60.0 and t.kind == "dispatch"
        ]
        assert revived

    def test_sync_barrier_survives_dropout(self):
        # A device dropping mid-barrier must not deadlock the gateway round.
        topo = uniform_topology(
            3, 1, sigma=0.0, faults=[FaultEvent(12.0, 0, "drop")]
        )
        result = run(
            small_config(mode="sync-random", n=3, g=1, topology=topo, seed=1,
                         gateway_epochs=2, cloud_epochs=6)
        )
        assert result.cloud_epochs_done == 6


class TestModesRun:
    @pytest.mark.parametrize("mode", MODES)
    def test_completes_and_trace_monotone(self, mode):
        result = run(small_config(mode=mode, seed=21))
        assert result.cloud_epochs_done == 12
        times = [r.t for r in result.trace.rows]
        assert times == sorted(times)
        accs = [r.acc for r in result.trace.rows]
        assert all(0.0 <= a <= 1.0 for a in accs)

    def test_dispatch_all_option(self):
        result = run(small_config(mode="async-random", seed=3, dispatch_all=True))
        assert result.cloud_epochs_done == 12

    def test_per_device_bandwidth_option(self):
        result = run(small_config(mode="async-sched", seed=3, bandwidth_sum=False))
        assert result.cloud_epochs_done == 12

    def test_refresh_smoke(self):
        spec = DataSpec(
            num_devices=4, num_classes=3, classes_per_device=2,
            samples_per_device=18, input_dim=3, cluster_spread=0.4, refresh=True,
        )
        dataset = gen_synthetic(spec, seed=2)
        cfg = small_config(mode="async-random", n=4, g=1, num_classes=3, seed=2)
        cfg.dataset = dataset
        cfg.data_spec = spec
        result = run(cfg)
        assert result.cloud_epochs_done == 12

    def test_time_budget_stops_run(self):
        result = run(small_config(mode="async-random", seed=4, time_budget=50.0))
        assert result.end_time <= 50.0
        assert result.cloud_epochs_done < 12


class TestValidation:
    def test_selection_needs_two_devices(self):
        cfg = small_config(mode="async-sched", n=1, g=1)
        with pytest.raises(ConfigurationError, match=">= 2 devices"):
            run(cfg)

    def test_unknown_mode(self):
        cfg = small_config()
        cfg.mode = "definitely-not-a-mode"
        with pytest.raises(ConfigurationError, match="unknown mode"):
            run(cfg)

    def test_topology_dataset_mismatch(self):
        cfg = small_config(n=6, g=2)
        cfg.topology = uniform_topology(5, 2)
        with pytest.raises(ConfigurationError, match="devices"):
            run(cfg)

    def test_alpha_range(self):
        cfg = small_config()
        cfg.alpha = 1.5
        with pytest.raises(ConfigurationError):
            run(cfg)


class TestSchedulerIntegration:
    def test_warmup_collects_every_device_gradient(self):
        result = run(small_config(mode="async-sched", seed=31))
        pca = [t for t in result.transfers if t.kind == "pca_distribution"]
        assert len(pca) == 1
        uploads_before_pca = [
            t for t in result.transfers
            if t.kind == "device_upload" and t.time <= pca[0].time
        ]
        assert len({t.src for t in uploads_before_pca}) == 6

    def test_one_warmup_gradient_leaves_the_run_uncompressed(self):
        # Devices 0 and 1 drop before their warmup uploads land, so one
        # gradient comes in: too few to fit the compressor.
        faults = [
            FaultEvent(5.0, 0, "drop"), FaultEvent(5.0, 1, "drop"),
            FaultEvent(40.0, 0, "restore"), FaultEvent(40.0, 1, "restore"),
        ]
        topo = uniform_topology(3, 1, sigma=0.0, faults=faults)
        result = run(small_config(mode="async-sched", n=3, g=1, seed=1, topology=topo))
        assert result.cloud_epochs_done == 12
        assert not [t for t in result.transfers if t.kind == "pca_distribution"]

    def test_in_flight_devices_never_double_dispatched(self):
        result = run(small_config(mode="async-sched", seed=32, cloud_epochs=20))
        in_flight = set()
        for t in result.transfers:
            if t.kind == "dispatch":
                assert t.dst not in in_flight
                in_flight.add(t.dst)
            elif t.kind == "device_upload":
                in_flight.discard(t.src)
        assert result.cloud_epochs_done == 20


def _outputs(cfg):
    """The determinism contract: trace CSV, byte counters and final parameters."""
    r = run(cfg)
    return r.trace.to_csv(), r.bytes_total, r.bytes_overhead, r.final_params.tobytes()


def _mlp_unequal_shards():
    """MLP async-sched run whose shards hold 24, 20 or 17 samples."""
    cfg = small_config(
        mode="async-sched", seed=17,
        arch=ModelArch("mlp", input_dim=3, num_classes=4, hidden_dim=5),
    )
    sizes = [24, 20, 24, 17, 20, 24]
    cfg.dataset.shards = [
        Shard(s.features[:m], s.labels[:m]) for s, m in zip(cfg.dataset.shards, sizes)
    ]
    return cfg


def _refresh_with_faults():
    """Sync cohorts with per-upload shard refresh and a drop/restore/slowdown schedule."""
    spec = DataSpec(
        num_devices=8, num_classes=4, classes_per_device=2,
        samples_per_device=21, input_dim=3, cluster_spread=0.4, refresh=True,
    )
    faults = [
        FaultEvent(1.5, 1, "drop"),  # voids device 1's first flight
        FaultEvent(30.0, 1, "restore"),
        FaultEvent(10.0, 4, "slowdown", 3.0),
        FaultEvent(60.0, 4, "restore"),
    ]
    cfg = small_config(
        mode="sync-random", n=8, seed=23, topology=uniform_topology(8, 2, sigma=0.5, faults=faults),
    )
    cfg.dataset = gen_synthetic(spec, seed=23)
    cfg.data_spec = spec
    return cfg


class TestCohortTraining:
    """Training each dispatch's devices in lockstep blocks changes no output."""

    @pytest.mark.parametrize(
        "make_cfg",
        [*(lambda m=m: small_config(mode=m, seed=19) for m in MODES),
         _mlp_unequal_shards, _refresh_with_faults],
        ids=[*MODES, "mlp-unequal-shards", "refresh-faults"],
    )
    def test_blocks_of_one_give_identical_outputs(self, monkeypatch, make_cfg):
        sizes = []

        def spy(start, anchor, arch, shards, cfg, seeds):
            sizes.append(len(shards))
            return local_train_cohort(start, anchor, arch, shards, cfg, seeds)

        monkeypatch.setattr(simulator, "local_train_cohort", spy)
        batched = _outputs(make_cfg())
        assert max(sizes) > 1
        sizes.clear()
        monkeypatch.setattr(simulator, "COHORT_BLOCK", 1)
        assert _outputs(make_cfg()) == batched
        assert max(sizes) == 1

    def test_diverging_device_is_named(self):
        cfg = small_config(mode="sync-random", seed=4)
        bad = cfg.dataset.shards[2]
        cfg.dataset.shards[2] = Shard(bad.features * 1e200, bad.labels)
        with pytest.raises(NumericDivergenceError, match="device 2"):
            run(cfg)

    def test_voided_flight_never_raises(self):
        # Device 0 diverges on its first round, but it drops before the model
        # reaches it (dispatch at 0.5 s, arrival at 2.5 s) and never returns.
        topo = uniform_topology(3, 1, sigma=0.0, faults=[FaultEvent(1.0, 0, "drop")])
        cfg = small_config(mode="sync-random", n=3, g=1, topology=topo, seed=1,
                           gateway_epochs=2, cloud_epochs=6)
        bad = cfg.dataset.shards[0]
        cfg.dataset.shards[0] = Shard(bad.features * 1e200, bad.labels)
        result = run(cfg)
        assert result.cloud_epochs_done == 6
        assert [t.time for t in result.transfers if t.dst == "dev0"] == [0.5]


class TestNonFiniteAggregate:
    def test_raises_numeric_divergence(self):
        sim = simulator._Simulation(small_config(mode="async-random"))
        incoming = np.full_like(sim.cloud_params, np.inf)
        with pytest.raises(NumericDivergenceError, match="after aggregation at cloud"):
            sim._cloud_async_aggregate(incoming, tau_stamp=0)
