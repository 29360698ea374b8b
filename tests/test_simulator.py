import copy
import dataclasses
import gc
import weakref

import numpy as np
import pytest

from hfedsim.data import DataSpec, gen_synthetic, load_shards, save_dataset
from hfedsim import simulator
from hfedsim.errors import ConfigurationError, NumericDivergenceError
from hfedsim.learning import (
    ModelArch,
    Shard,
    TrainConfig,
    evaluate,
    init_params,
    local_train_cohort,
    loss_and_grad,
)
from hfedsim.network import FaultEvent, TopologySpec, gen_topology
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
        before = copy.deepcopy(cfg.topology)
        assert _outputs(cfg) == _outputs(cfg)
        after = cfg.topology
        np.testing.assert_array_equal(after.feasible, before.feasible)
        np.testing.assert_array_equal(after.bandwidth, before.bandwidth)
        assert after.link_params == before.link_params
        assert after.faults == before.faults

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
        # Every transfer of a baseline is one model.
        assert result.bytes_total == 8000 * len(result.transfers)


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

    def test_slowdown_scales_round_latency_until_restore(self):
        # sigma = 0, so every round takes exactly mean_total = 2 + 6 + 3 s times
        # the device's slowdown factor at dispatch.
        restore_at = 60.25
        faults = [FaultEvent(0.0, 0, "slowdown", 3.0), FaultEvent(restore_at, 0, "restore")]
        topo = uniform_topology(2, 1, sigma=0.0, faults=faults)
        result = run(small_config(mode="async-random", n=2, g=1, topology=topo, seed=3))
        assert result.cloud_epochs_done == 12

        def rounds(device):
            """(dispatch time, latency multiple) for each round the device completed."""
            sent, out = None, []
            for t in result.transfers:
                if t.kind == "dispatch" and t.dst == f"dev{device}":
                    sent = t.time
                elif t.kind == "device_upload" and t.src == f"dev{device}":
                    out.append((sent, (t.time - sent) / 11.0))
            return out

        assert {k for sent, k in rounds(0) if sent < restore_at} == {3.0}
        assert {k for sent, k in rounds(0) if sent > restore_at} == {1.0}
        assert {k for _, k in rounds(1)} == {1.0}

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

    @pytest.mark.parametrize("mode", MODES)
    def test_generated_network_gives_plain_numbers(self, mode):
        """`np.float64` subclasses `float`, so `isinstance` would not see its repr
        (`np.float64(36.8)`) leak into the CSV and the transfer log."""
        topo = gen_topology(TopologySpec(10, 3, model_bytes=8000), seed=5)
        result = run(small_config(mode=mode, n=10, g=3, seed=5, topology=topo))
        for line in result.trace.to_csv().splitlines()[1:]:
            for value in line.split(","):
                float(value)  # an int parses too; `np.float64(36.8)` raises
        assert {type(t.time) for t in result.transfers} == {float}

    @pytest.mark.parametrize("mode", [m for m, p in MODES.items() if p.gateway == "async"])
    def test_network_without_links_stalls(self, mode):
        topo = dataclasses.replace(uniform_topology(4, 2), link_params={})
        result = run(small_config(mode=mode, n=4, topology=topo))
        assert result.stop_reason == "stalled"
        assert result.cloud_epochs_done == 0

    def test_time_budget_stops_run(self):
        result = run(small_config(mode="async-random", seed=4, time_budget=50.0))
        assert result.end_time <= 50.0
        assert result.cloud_epochs_done < 12
        assert result.stop_reason == "time_budget"


class TestValidation:
    def test_one_device_utility_run_ends_done(self):
        # Its one warmup gradient fits no compressor, so the run stays uncompressed.
        result = run(small_config(mode="async-sched", n=1, g=1))
        assert result.stop_reason == "done"
        assert result.cloud_epochs_done == 12

    def test_refresh_needs_generator_centroids(self, tmp_path):
        cfg = small_config(mode="async-random", seed=1)
        cfg.dataset = load_shards(save_dataset(cfg.dataset, tmp_path))
        cfg.data_spec = dataclasses.replace(cfg.data_spec, refresh=True)
        with pytest.raises(ConfigurationError, match="centroids"):
            cfg.validate()

    def test_refresh_spec_matches_the_centroids(self):
        cfg = small_config(mode="async-random", seed=1)
        cfg.data_spec = dataclasses.replace(cfg.data_spec, refresh=True, input_dim=5)
        with pytest.raises(ConfigurationError, match="input_dim"):
            cfg.validate()

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


class TestPolicies:
    @pytest.mark.parametrize("gateway", ["async", "barrier", "window"])
    @pytest.mark.parametrize("cloud", ["broadcast", "reply", "barrier"])
    @pytest.mark.parametrize("selector", ["utility", "loss", "random"])
    def test_every_combination_runs_or_is_rejected(self, monkeypatch, gateway, cloud, selector):
        # A warmup selector needs an async gateway: until the warmup ends a
        # gateway selects nothing, so a round gateway would only spin.
        if gateway != "async" and selector != "random":
            with pytest.raises(ConfigurationError, match="needs an async gateway"):
                simulator.Policy(gateway, cloud, selector)
            return
        # An async gateway's uploads weigh 0 in a barrier cloud's FedAvg.
        if gateway == "async" and cloud == "barrier":
            with pytest.raises(ConfigurationError, match="needs a barrier or window gateway"):
                simulator.Policy(gateway, cloud, selector)
            return
        monkeypatch.setitem(MODES, "async-random", simulator.Policy(gateway, cloud, selector))
        cfg = small_config(mode="async-random", seed=1)
        result = run(cfg)
        assert result.stop_reason == "done"
        assert result.cloud_epochs_done == 12
        assert not np.array_equal(result.final_params, init_params(cfg.arch, cfg.seed))

    @pytest.mark.parametrize(
        "axes", [("sync", "reply", "random"), ("async", "gossip", "random"),
                 ("async", "reply", "greedy")],
    )
    def test_unknown_policy_value(self, axes):
        with pytest.raises(ConfigurationError, match="unknown"):
            simulator.Policy(*axes)


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
        in_air = set()
        for t in result.transfers:
            if t.kind == "dispatch":
                assert t.dst not in in_air
                in_air.add(t.dst)
            elif t.kind == "device_upload":
                in_air.discard(t.src)
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


def _refresh_with_faults(mode="sync-random", extra_faults=()):
    """Per-upload shard refresh and a drop/restore/slowdown schedule; sync cohorts by default."""
    spec = DataSpec(
        num_devices=8, num_classes=4, classes_per_device=2,
        samples_per_device=21, input_dim=3, cluster_spread=0.4, refresh=True,
    )
    faults = [
        FaultEvent(1.5, 1, "drop"),  # voids device 1's first flight
        FaultEvent(30.0, 1, "restore"),
        FaultEvent(10.0, 4, "slowdown", 3.0),
        FaultEvent(60.0, 4, "restore"),
        *extra_faults,
    ]
    cfg = small_config(
        mode=mode, n=8, seed=23, topology=uniform_topology(8, 2, sigma=0.5, faults=faults),
    )
    cfg.dataset = gen_synthetic(spec, seed=23)
    cfg.data_spec = spec
    return cfg


class TestCohortTraining:
    """Training every flight in the air in lockstep blocks changes no output."""

    @pytest.mark.parametrize(
        "make_cfg, least_block",
        [*((lambda m=m: small_config(mode=m, seed=19), 2) for m in MODES),
         (_mlp_unequal_shards, 2), (_refresh_with_faults, 2),
         (lambda: _refresh_with_faults("async-random"), 2),
         # 24 equal shards and no jitter: every flight is in the air at the
         # first upload, so one block holds more than 8 rows.
         (lambda: small_config(mode="sync-random", n=24, seed=19,
                               topology=uniform_topology(24, 2)), 9)],
        ids=[*MODES, "mlp-unequal-shards", "refresh-faults", "async-refresh-faults",
             "sync-random-24-devices"],
    )
    def test_blocks_of_one_give_identical_outputs(self, monkeypatch, make_cfg, least_block):
        sizes = []

        def spy(start, arch, shards, cfg, seeds):
            sizes.append(len(shards))
            return local_train_cohort(start, arch, shards, cfg, seeds)

        monkeypatch.setattr(simulator, "local_train_cohort", spy)
        batched = _outputs(make_cfg())
        assert max(sizes) >= least_block
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

    def test_flight_dropped_before_its_upload_never_raises(self, monkeypatch):
        # Device 0 diverges and is slowed 3x: its model arrives at 6.5 s and its
        # upload would land at 33.5 s. The other devices' uploads at 11.5 s
        # train its flight too, and it drops at 20 s, so its non-finite row is
        # thrown away unused. Only a flight that uploads raises.
        faults = [FaultEvent(0.0, 0, "slowdown", 3.0), FaultEvent(20.0, 0, "drop")]
        topo = uniform_topology(3, 1, sigma=0.0, faults=faults)
        cfg = small_config(mode="sync-random", n=3, g=1, topology=topo, seed=1,
                           gateway_epochs=2, cloud_epochs=6)
        bad = cfg.dataset.shards[0]
        cfg.dataset.shards[0] = Shard(bad.features * 1e200, bad.labels)
        diverged = []

        def spy(start, arch, shards, train, seeds):
            rows = local_train_cohort(start, arch, shards, train, seeds)
            diverged.extend(not np.isfinite(row).all() for row in rows)
            return rows

        monkeypatch.setattr(simulator, "local_train_cohort", spy)
        result = run(cfg)
        assert result.cloud_epochs_done == 6
        assert sum(diverged) == 1
        assert [t.time for t in result.transfers if t.dst == "dev0"] == [0.5]

    def test_every_uploaded_round_trains_once(self, monkeypatch):
        # Device 1 drops at 1.5 s, before anything has trained; device 6 drops
        # at 12 s, after an earlier upload trained its flight.
        cfg = _refresh_with_faults(
            "async-random", [FaultEvent(12.0, 6, "drop"), FaultEvent(40.0, 6, "restore")]
        )
        sim = simulator._Simulation(cfg)
        seeds_trained = []

        def spy(start, arch, shards, train, seeds):
            seeds_trained.extend(seeds)
            return local_train_cohort(start, arch, shards, train, seeds)

        drops = []
        on_fault = simulator._Simulation.on_fault_timer

        def spy_fault(self, fault):
            i = fault.device
            if fault.action == "drop":
                flight = self.flights.get(i)
                state = None if flight is None else flight.params is not None
                # A drop is placed in the transfer log by the count of transfers before it.
                drops.append((i, state, len(self.transfers)))
            on_fault(self, fault)

        monkeypatch.setattr(simulator, "local_train_cohort", spy)
        monkeypatch.setattr(simulator._Simulation, "on_fault_timer", spy_fault)
        result = sim.run()
        assert result.stop_reason == "done"
        # Device 1's flight had not trained when it dropped; device 6's had.
        assert [(i, state) for i, state, _ in drops] == [(1, False), (6, True)]

        # Round r of a device is its r-th dispatch, counted from 0.
        round_of = {
            sim._train_seed(i, r): (i, r)
            for i, d in enumerate(sim.devices) for r in range(d.rounds_started)
        }
        trained = [round_of[s] for s in seeds_trained]
        dispatched, uploaded, last_round = [], set(), {}
        last_dispatch, last_upload = {}, {}
        for k, t in enumerate(result.transfers):
            if t.kind == "dispatch":
                i = int(t.dst.removeprefix("dev"))
                last_round[i] = last_round.get(i, -1) + 1
                dispatched.append((t.time, (i, last_round[i])))
                last_dispatch[i] = k
            elif t.kind == "device_upload":
                i = int(t.src.removeprefix("dev"))
                uploaded.add((i, last_round[i]))
                last_upload[i] = k
        assert len(trained) == len(set(trained))
        assert uploaded <= set(trained) <= {r for _, r in dispatched}
        voided_6 = max(r for t, r in dispatched if r[0] == 6 and t < 12.0)
        assert (1, 0) not in trained  # voided before anything trained
        assert voided_6 in trained and voided_6 not in uploaded

        # From the log alone: a device is in the air if its last dispatch came
        # after its last upload and after its last drop.
        last_drop = {i: k for i, _, k in drops}
        in_air = {
            i for i, k in last_dispatch.items()
            if k > last_upload.get(i, -1) and k >= last_drop.get(i, 0)
        }
        assert in_air
        assert set(sim.flights) == in_air
        assert not {i for i, k in last_drop.items() if k > last_dispatch[i]} & set(sim.flights)
        # Flights are kept in dispatch order, and each holds its device's last round.
        assert list(sim.flights) == sorted(sim.flights, key=last_dispatch.get)
        for i, flight in sim.flights.items():
            assert flight.seed == sim._train_seed(i, sim.devices[i].rounds_started - 1)
            assert f"gw{flight.gateway}" == result.transfers[last_dispatch[i]].src


class TestEvaluationCache:
    def test_each_cloud_model_is_evaluated_once(self, monkeypatch):
        # The evaluation timer fires every 5 s, far more often than the barrier
        # cloud aggregates, so most trace rows see a model already evaluated.
        evaluated, row_models = [], []
        record_eval = simulator._Simulation.record_eval

        def spy_evaluate(params, arch, test):
            evaluated.append(params)
            return evaluate(params, arch, test)

        def spy_record_eval(sim):
            row_models.append(sim.cloud_params)
            record_eval(sim)

        monkeypatch.setattr(simulator, "evaluate", spy_evaluate)
        monkeypatch.setattr(simulator._Simulation, "record_eval", spy_record_eval)
        result = run(small_config(mode="sync-random", seed=3, eval_every=5.0))
        assert len(row_models) == len(result.trace.rows) > 2 * len(evaluated)
        # Both lists hold their arrays alive, so no two of them share an id.
        distinct = list({id(p): p for p in row_models}.values())
        assert len(evaluated) == len(distinct) > 1
        assert all(a is b for a, b in zip(evaluated, distinct))
        assert all(a is not b for a, b in zip(evaluated, evaluated[1:]))


class TestNonFiniteAggregate:
    def test_raises_numeric_divergence(self):
        sim = simulator._Simulation(small_config(mode="async-random"))
        incoming = np.full_like(sim.cloud_params, np.inf)
        with pytest.raises(NumericDivergenceError, match="after aggregation at cloud"):
            sim.on_gateway_upload_arrives(sim.gateways[0], incoming, 0, 0.0)


class TestTauEstimate:
    def test_link_mean_then_first_observation_then_ema(self, monkeypatch):
        """Each link's estimate is its mean until its first upload, then that
        upload's latency, then an EMA with weight alpha_ema."""
        a = 0.3
        upload = simulator._Simulation.on_device_upload_arrives
        expected: dict[tuple[int, int], float] = {}
        uploads = []

        def spy(sim, i, flight):
            key = (i, flight.gateway)
            if sim.flights.get(i) is not flight:  # a voided round
                return upload(sim, i, flight)
            mean = sim.topo.link_params[key].mean_total
            assert sim.tau_estimate(*key) == expected.get(key, mean)
            upload(sim, i, flight)
            tau = flight.observed_tau
            expected[key] = tau if key not in expected else a * tau + (1 - a) * expected[key]
            assert sim.tau_estimate(*key) == expected[key] != mean
            uploads.append(key)

        monkeypatch.setattr(simulator._Simulation, "on_device_upload_arrives", spy)
        run(small_config(mode="async-random", seed=3, alpha_ema=a))
        assert len(uploads) > len(expected) > 1  # some links took an EMA step


class TestLifetime:
    @pytest.mark.parametrize("mode", MODES)
    def test_finished_run_is_freed_without_the_cyclic_gc(self, mode):
        # Events still queued when the run ends must not hold the simulation,
        # or every finished run would wait for the cyclic collector.
        enabled = gc.isenabled()
        gc.disable()
        try:
            sim = simulator._Simulation(small_config(mode=mode, seed=1))
            sim.run()
            assert sim._heap
            ref = weakref.ref(sim)
            del sim
            assert ref() is None
        finally:
            if enabled:
                gc.enable()
