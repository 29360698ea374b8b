import copy
import dataclasses
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from hfedsim.data import DataSpec, gen_synthetic, load_shards, refresh_shard, save_dataset
from hfedsim import simulator
from hfedsim.errors import ConfigurationError, NumericDivergenceError
from hfedsim.learning import (
    ModelArch,
    Shard,
    TrainConfig,
    evaluate,
    grad_regularized,
    init_params,
    local_train,
)
from hfedsim.network import FaultEvent, TopologySpec, est_rate, gen_topology
from hfedsim.selection import solve_association, solve_selection
from hfedsim.simulator import (
    MODES,
    MetricTrace,
    SimConfig,
    TraceRow,
    async_aggregate,
    run,
    staleness,
)
from hfedsim.utility import learning_utility, pca_fit, pca_project
from simtools import landing_times, round_stream, small_config, uniform_topology
from test_golden import SCENARIOS


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
            grad = grad_regularized(params[None], params[None], arch, dataset.shards[:1], 0.0)
            params = params - 0.05 * grad[0]
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


class TestFirstCrossing:
    """Time to target accuracy: the `t` of the first row whose `acc` reaches it."""

    @staticmethod
    def trace(accs):
        trace = MetricTrace()
        for h, acc in enumerate(accs):
            trace.append(TraceRow(10.0 * (h + 1), h, acc, 1.0, 0, 0, 0, 0))
        return trace

    def test_first_row_at_or_above_the_target(self):
        trace = self.trace([0.2, 0.5, 0.4, 0.5, 0.9])
        assert trace.first_crossing(0.5) == 20.0  # inclusive, and the first of two
        assert trace.first_crossing(0.45) == 20.0
        assert trace.first_crossing(0.6) == 50.0
        assert trace.first_crossing(0.0) == 10.0

    def test_none_when_no_row_reaches_the_target(self):
        assert self.trace([0.2, 0.5, 0.4]).first_crossing(0.51) is None
        assert MetricTrace().first_crossing(0.0) is None


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

    def test_drop_after_reassociation_frees_the_sending_gateway(self):
        # Rates of 8000 / (2 + 4 + 2) = 1000 against caps of 1e9 add and
        # subtract exactly, so the residuals can be compared exactly.
        topo = uniform_topology(6, 2, mean_comp=4.0, mean_up=2.0)
        sim = simulator._Simulation(small_config(mode="async-random", topology=topo))
        sim._set_gateways([0, 0, 0, 1, 1, 1])
        sending, other = sim.gateways
        sim.dispatch(sending, [0, 1])
        sim.dispatch(other, [3])
        sim._set_gateways([1, 0, 0, 1, 1, 1])  # device 0 moves while in the air
        assert all(0 not in sim._idle_candidates(gw) for gw in sim.gateways)
        flight = sim.flights[0]
        before = [sim._residual_bandwidth(gw) for gw in sim.gateways]
        sim.on_fault_timer(FaultEvent(1.0, 0, "drop"))
        after = [sim._residual_bandwidth(gw) for gw in sim.gateways]
        assert after[0] - before[0] == flight.rate == 1000.0
        assert after[1] == before[1]

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


BAD_SETTINGS = [
    (dict(staleness_exp=-0.5), "staleness_exp must be >= 0"),
    (dict(gateway_epochs=0), r"^gateway_epochs must be an integer >= 1 \(0\)$"),
    (dict(cloud_epochs=0), r"^cloud_epochs must be an integer >= 1 \(0\)$"),
    (dict(kappa=-1.0), "kappa and phi must be >= 0"),
    (dict(phi=-0.1), "kappa and phi must be >= 0"),
    (dict(assoc_period=0), r"^assoc_period must be an integer >= 1 \(0\)$"),
    (dict(mode="async-sched", pca_dim=0), r"^pca_dim must be an integer >= 1 \(0\)$"),
    # A count with a fraction or a bool is refused, not run: an async gateway
    # uploads when its cycle equals gateway_epochs, which 2.5 never does, and
    # a fractional pca_dim fails mid-run at the PCA fit.
    (dict(gateway_epochs=2.5), r"^gateway_epochs must be an integer >= 1 \(2\.5\)$"),
    (dict(gateway_epochs=True), r"^gateway_epochs must be an integer >= 1 \(True\)$"),
    (dict(cloud_epochs=12.5), r"^cloud_epochs must be an integer >= 1 \(12\.5\)$"),
    (dict(cloud_epochs=12.0), r"^cloud_epochs must be an integer >= 1 \(12\.0\)$"),
    (dict(assoc_period=1.5), r"^assoc_period must be an integer >= 1 \(1\.5\)$"),
    (dict(mode="async-sched", pca_dim=4.5), r"^pca_dim must be an integer >= 1 \(4\.5\)$"),
    (dict(seed=-1), r"^seed must be an integer >= 0 \(-1\)$"),
    (dict(seed=1.5), r"^seed must be an integer >= 0 \(1\.5\)$"),
    # The logistic model of small_config has 3 * 4 + 4 = 16 parameters.
    (dict(mode="async-sched", pca_dim=17), r"pca_dim must be in \[1, model dimension\]"),
    (dict(semi_window=0.0), "semi_window must be > 0"),
    (dict(eval_every=0.0), "eval_every and time_budget must be > 0"),
    (dict(time_budget=-1.0), "eval_every and time_budget must be > 0"),
    (dict(alpha_ema=0.0), r"alpha_ema must be in \(0, 1\]"),
    (dict(alpha_ema=1.5), r"alpha_ema must be in \(0, 1\]"),
]

# NaN passes every `< 0` check and inf every `> 0` one. Only time_budget may be inf.
NON_FINITE_SETTINGS = [
    *[(field, value) for field in (
        "staleness_exp", "gateway_epochs", "cloud_epochs", "kappa", "phi", "assoc_period",
        "semi_window", "eval_every", "gamma", "rho", "epochs", "batch_size",
    ) for value in (math.nan, math.inf)],
    *[(field, math.nan) for field in ("alpha", "beta", "alpha_ema", "time_budget")],
]
TRAIN_FIELDS = {f.name for f in dataclasses.fields(TrainConfig)}


class TestValidation:
    def test_one_device_utility_run_ends_done(self):
        # Its one warmup gradient fits no compressor, so the run stays uncompressed.
        result = run(small_config(mode="async-sched", n=1, g=1))
        assert result.stop_reason == "done"
        assert result.cloud_epochs_done == 12

    def test_refresh_needs_generator_centroids(self, tmp_path):
        cfg = small_config(mode="async-random", seed=1)
        save_dataset(cfg.dataset, tmp_path / "data.json")
        cfg.dataset = load_shards(tmp_path / "data.json")
        cfg.data_spec = dataclasses.replace(cfg.data_spec, refresh=True)
        with pytest.raises(ConfigurationError, match="centroids"):
            cfg.validate()

    @pytest.mark.parametrize(
        "cut", [np.s_[:-1], np.s_[:, :-1]], ids=["missing-row", "wrong-width"]
    )
    def test_refresh_needs_centroids_of_the_arch_shape(self, cut):
        # Without a centroid for class 3 the run once passed validate and then
        # died at the first refresh of a device holding class 3, on an IndexError.
        cfg = small_config(mode="async-random", seed=1)
        cfg.data_spec = dataclasses.replace(cfg.data_spec, refresh=True)
        cfg.dataset.centroids = cfg.dataset.centroids[cut]
        message = r"^refresh needs centroids of shape \[4, 3\]$"
        with pytest.raises(ConfigurationError, match=message):
            cfg.validate()
        with pytest.raises(ConfigurationError, match="centroids"):
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

    @pytest.mark.parametrize("overrides, message", BAD_SETTINGS, ids=[
        "-".join(f"{k}={v}" for k, v in overrides.items()) for overrides, _ in BAD_SETTINGS
    ])
    def test_rejects_each_bad_setting(self, overrides, message):
        # Replaced after the build, which draws the data from a valid seed.
        cfg = dataclasses.replace(small_config(), **overrides)
        with pytest.raises(ConfigurationError, match=message):
            cfg.validate()

    @pytest.mark.parametrize(
        "field, value", NON_FINITE_SETTINGS, ids=[f"{f}={v}" for f, v in NON_FINITE_SETTINGS]
    )
    def test_rejects_nan_and_inf(self, field, value):
        cfg = small_config(mode="async-sched", seed=1)
        with pytest.raises(ConfigurationError, match=field):
            if field in TRAIN_FIELDS:
                dataclasses.replace(cfg.train, **{field: value})
            else:
                dataclasses.replace(cfg, **{field: value}).validate()

    def test_time_budget_may_be_inf(self):
        result = run(small_config(mode="async-sched", seed=1, time_budget=math.inf))
        assert result.stop_reason == "done"

    @pytest.mark.parametrize("where", ["train", "test"])
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda s: Shard(s.features[:, :2], s.labels), "input_dim does not match"),
            (lambda s: Shard(s.features, np.where(s.labels == s.labels[0], -1, s.labels)),
             r"labels must be in \[0, num_classes\)"),
            (lambda s: Shard(s.features, np.where(s.labels == s.labels[0], 4, s.labels)),
             r"labels must be in \[0, num_classes\)"),
            (lambda s: Shard(s.features, s.labels.astype(float)),
             r"^labels must be integers \(dtype float64\)$"),
            (lambda s: Shard(s.features, s.labels > 0), r"^labels must be integers \(dtype bool\)$"),
        ],
        ids=["input-dim", "negative-label", "label-past-classes", "float-labels", "bool-labels"],
    )
    def test_rejects_each_bad_shard_before_the_run(self, where, edit, message):
        # Unchecked, a negative training label trains on the last class's
        # one-hot, a negative test label gives a wrong accuracy, a test
        # label >= num_classes raises IndexError mid-run, and so does a
        # float label. The shard itself rejects labels that are not integers.
        cfg = small_config(mode="sync-random", seed=1)
        with pytest.raises(ConfigurationError, match=message):
            if where == "train":
                cfg.dataset.shards[2] = edit(cfg.dataset.shards[2])
            else:
                cfg.dataset.test = edit(cfg.dataset.test)
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
        if gateway == "barrier":
            # A barrier round closes only once none of its gateway's flights is
            # in the air, so a gateway never uploads while one of its devices
            # has a dispatch without an upload (no fault voids one here).
            in_air = {f"gw{j}": set() for j in range(cfg.topology.num_gateways)}
            for t in result.transfers:
                if t.kind == "dispatch":
                    in_air[t.src].add(t.dst)
                elif t.kind == "device_upload":
                    in_air[t.dst].remove(t.src)
                elif t.kind == "gateway_upload":
                    assert not in_air[t.src], f"{t.src} uploaded at t={t.time} mid-round"

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

    @pytest.mark.parametrize("dropped", [(), (0,)], ids=["all-report", "one-drops"])
    def test_warmup_rows_are_the_projections_of_the_fitted_rows(self, monkeypatch, dropped):
        # The fit centres its input in place: `grads` itself when every device
        # reported, a copy of the reported rows otherwise. Either way the rows
        # stored after it must be `pca_project` of the rows as reported.
        fits, after = [], []

        def spy_fit(g, p):
            uncentred = g.copy()
            model = pca_fit(g, p)
            fits.append((uncentred, model))
            return model

        real_finish = simulator._Simulation.finish_warmup

        def spy_finish(sim):
            real_finish(sim)
            after.append((sim.has_grad.copy(), sim.grads.copy()))

        monkeypatch.setattr(simulator, "pca_fit", spy_fit)
        monkeypatch.setattr(simulator._Simulation, "finish_warmup", spy_finish)
        faults = [FaultEvent(5.0, i, "drop") for i in dropped]
        topo = uniform_topology(6, 2, sigma=0.5, faults=faults)
        run(small_config(mode="async-sched", seed=31, topology=topo))
        ((uncentred, model),) = fits
        ((has_grad, grads),) = after
        assert has_grad.sum() == 6 - len(dropped) == len(uncentred)
        want = np.stack([pca_project(model, row) for row in uncentred])
        assert np.array_equal(grads[has_grad], want)
        assert not grads[~has_grad].any()

    @pytest.mark.parametrize("reported", [(1, 2, 4), (0, 1, 2, 3, 4, 5)])
    def test_unreported_devices_take_the_best_reported_utility(self, reported):
        sim = simulator._Simulation(small_config(mode="async-sched", seed=5))
        assert sim._utilities() == [1.0] * 6  # before any gradient
        rng = np.random.default_rng(5)
        grads = [rng.normal(0, 1, sim.arch.param_count) for _ in reported]
        for i, grad in zip(reported, grads):
            sim._record_gradient(i, grad)
        utilities = sim._utilities()
        u = learning_utility(np.stack(grads))[0].tolist()
        assert [utilities[i] for i in reported] == u
        assert all(utilities[i] == max(u) for i in range(6) if i not in reported)

    def test_selection_that_cannot_dispatch_refreshes_no_utilities(self, monkeypatch):
        calls = []

        def spy(g):
            calls.append(len(g))
            return learning_utility(g)

        monkeypatch.setattr(simulator, "learning_utility", spy)
        # Every link rates `rate` before any upload, and each cap is 1.5 of it.
        rate = est_rate(8000, 2.0 + 6.0 + 3.0)  # uniform_topology's size over its mean latency
        topo = uniform_topology(6, 2, sigma=0.5, bandwidth=1.5 * rate)
        sim = simulator._Simulation(small_config(mode="async-sched", seed=33, topology=topo))
        rng = np.random.default_rng(33)
        sim.warmup_done = True
        for i in range(6):
            sim._record_gradient(i, rng.normal(0, 1, sim.arch.param_count))
        sim._set_gateways([0, 0, 0, 1, 1, 1])
        gw = sim.gateways[0]
        # Device 0's flight leaves half of a candidate's rate of gateway 0's cap.
        sim.dispatch(gw, [0])
        assert sim.flights[0].rate == rate
        assert sim.select_devices(gw) == []
        assert calls == []
        sim._remove_flight(0)
        assert sim.select_devices(gw) != []
        assert calls == [6]
        sim.select_devices(gw)  # no cache: each selection that can dispatch computes once
        assert calls == [6, 6]

    @pytest.mark.parametrize("name", [n for n in SCENARIOS if n.startswith("async-sched/")])
    def test_every_decision_reads_the_utilities_of_its_moment(self, name, monkeypatch):
        # Each knapsack and association call gets the utilities of the gradients
        # reported by then: `learning_utility` of the reported rows of `grads`,
        # the largest of those for a device with none, and 1.0 for every device
        # while fewer than two have reported.
        sim = simulator._Simulation(SCENARIOS[name]())
        n = sim.topo.num_devices
        calls = []

        def oracle():
            ids = np.flatnonzero(sim.has_grad).tolist()
            if len(ids) < 2:
                return [1.0] * n
            u = learning_utility(sim.grads[ids])[0].tolist()
            dense = [max(u)] * n
            for i, value in zip(ids, u):
                dense[i] = value
            return dense

        def spy_selection(rows, bandwidth, kappa):
            want = oracle()
            assert [u for _, u, _, _ in rows] == [want[i] for i, _, _, _ in rows]
            calls.append("selection")
            return solve_selection(rows, bandwidth, kappa)

        def spy_association(feasible, u, ratio, phi):
            assert u == oracle()
            calls.append("association")
            return solve_association(feasible, u, ratio, phi)

        monkeypatch.setattr(simulator, "solve_selection", spy_selection)
        monkeypatch.setattr(simulator, "solve_association", spy_association)
        assert sim.run().stop_reason == "done"
        assert {"selection", "association"} <= set(calls)

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


def _states(rngs):
    """Each generator's 128-bit PCG64 state."""
    return [rng.bit_generator.state["state"]["state"] for rng in rngs]


def _round_key(sim, device, r):
    """The 128-bit state a generator holds on entry to training round `r` of `device`."""
    return round_stream(sim.cfg.seed, device, r)["state"]["state"]


def _spy_non_finite_rows(monkeypatch) -> tuple[list[bool], list[bool]]:
    """For every row the run trains, and every row it computes a reported gradient
    at, whether that row is non-finite."""
    train_rows, grad_rows = [], []

    def train_spy(start, arch, shards, train, rngs):
        rows = local_train(start, arch, shards, train, rngs)
        train_rows.extend(not np.isfinite(row).all() for row in rows)
        return rows

    def grad_spy(params, anchors, arch, shards, rho):
        grad_rows.extend(not np.isfinite(row).all() for row in params)
        return grad_regularized(params, anchors, arch, shards, rho)

    monkeypatch.setattr(simulator, "local_train", train_spy)
    monkeypatch.setattr(simulator, "grad_regularized", grad_spy)
    return train_rows, grad_rows


def _twelve_unequal_shards():
    """Async-random run of 12 devices whose shards hold 24 or 20 samples."""
    cfg = small_config(mode="async-random", n=12, seed=5)
    cfg.dataset.shards = [
        Shard(s.features[:m], s.labels[:m]) for s, m in zip(cfg.dataset.shards, [24, 20] * 6)
    ]
    return cfg


def _sync_24_devices():
    # 24 equal shards and no jitter: every flight is in the air at the first
    # upload, and many land together.
    return small_config(mode="sync-random", n=24, seed=19, topology=uniform_topology(24, 2))


_BLOCK_CASES = [
    *((lambda m=m: small_config(mode=m, seed=19), 2) for m in MODES),
    (_mlp_unequal_shards, 2), (_refresh_with_faults, 2),
    (lambda: _refresh_with_faults("async-random"), 2),
    (_sync_24_devices, 9),  # one block holds more than 8 rows
]
_BLOCK_IDS = [*MODES, "mlp-unequal-shards", "refresh-faults", "async-refresh-faults",
              "sync-random-24-devices"]


class TestCohortTraining:
    """Which flights share a lockstep block changes no output. An upload that
    finds its flight untrained trains it with the untrained flights of its shard
    size that land first, `COHORT_BLOCK` flights at most, so a flight whose
    upload never lands mostly never trains."""

    @pytest.mark.parametrize(
        "make_cfg, least_block, block",
        [(*case, 1) for case in _BLOCK_CASES] + [(*case, 3) for case in _BLOCK_CASES],
        ids=_BLOCK_IDS + [f"block3-{name}" for name in _BLOCK_IDS],
    )
    def test_blocks_of_one_give_identical_outputs(
        self, monkeypatch, make_cfg, least_block, block
    ):
        sizes = []

        def spy(start, arch, shards, cfg, rngs):
            sizes.append(len(shards))
            return local_train(start, arch, shards, cfg, rngs)

        monkeypatch.setattr(simulator, "local_train", spy)
        batched = _outputs(make_cfg())
        assert max(sizes) >= least_block
        sizes.clear()
        monkeypatch.setattr(simulator, "COHORT_BLOCK", block)
        assert _outputs(make_cfg()) == batched
        assert max(sizes) == block

    @pytest.mark.parametrize(
        "make_cfg", [_twelve_unequal_shards, _sync_24_devices],
        ids=["async-unequal-shards", "sync-random-24-devices"],
    )
    def test_a_block_is_its_trigger_and_the_flights_that_land_first(
        self, monkeypatch, make_cfg
    ):
        monkeypatch.setattr(simulator, "COHORT_BLOCK", 3)
        sim = simulator._Simulation(make_cfg())
        calls = []  # (transfers logged before the call, each generator's state on entry)

        def spy(start, arch, shards, train, rngs):
            calls.append((len(sim.transfers), _states(rngs)))
            return local_train(start, arch, shards, train, rngs)

        monkeypatch.setattr(simulator, "local_train", spy)
        result = sim.run()
        assert not sim.topo.faults  # so every flight uploads or is still in the air

        # Round r of a device is its r-th dispatch. A flight lands when its
        # upload is logged; one still in the air lands when its queued event says.
        dispatched, landed, rounds = {}, {}, {}
        for k, t in enumerate(result.transfers):
            if t.kind == "dispatch":
                i = int(t.dst.removeprefix("dev"))
                rounds[i] = rounds.get(i, -1) + 1
                dispatched[i, rounds[i]] = k
            elif t.kind == "device_upload":
                i = int(t.src.removeprefix("dev"))
                landed[i, rounds[i]] = (k, t.time)
        in_air = landing_times(sim)
        for i, f in sim.flights.items():
            landed[i, rounds[i]] = (len(result.transfers), in_air[id(f)])
        assert landed.keys() == dispatched.keys()

        round_of = {_round_key(sim, i, r): (i, r) for i, r in dispatched}
        size = [shard.n for shard in sim.cfg.dataset.shards]  # no refresh
        trained, fuller = set(), 0
        for at, states in calls:
            trigger, *rest = [round_of[s] for s in states]
            assert landed[trigger][0] == at, "the block's first flight uploads next"
            waiting = sorted(
                (landed[f][1], k, f) for f, k in dispatched.items()
                if k < at <= landed[f][0] and f != trigger and f not in trained
                and size[f[0]] == size[trigger[0]]
            )
            fuller += len(waiting) > 2
            assert rest == [f for *_, f in waiting[:2]]
            trained.update([trigger, *rest])
        assert fuller > 0, "no upload found more untrained flights than a block holds"

    @pytest.mark.parametrize("mode", MODES)
    def test_few_rounds_train_and_never_upload(self, monkeypatch, mode):
        # Only a block's other flights can train and then not upload: those
        # still in the air when the run ends, or voided.
        monkeypatch.setattr(simulator, "COHORT_BLOCK", 3)
        rows = []

        def spy(start, arch, shards, train, rngs):
            rows.extend(rngs)
            return local_train(start, arch, shards, train, rngs)

        monkeypatch.setattr(simulator, "local_train", spy)
        for seed in (1, 2, 3):
            rows.clear()
            result = run(small_config(mode=mode, seed=seed))
            uploads = sum(t.kind == "device_upload" for t in result.transfers)
            assert uploads <= len(rows) <= uploads + 2

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

    def test_diverging_device_is_named_under_utility_selection(self, monkeypatch):
        # The training block computes the reported gradients too, so the
        # diverged row reaches that pass before its upload raises; the upload
        # still names the device. (A NaN row warns of nothing in any case; the
        # learning tests check that an inf row does not either.)
        cfg = small_config(mode="async-sched", seed=4)
        bad = cfg.dataset.shards[2]
        cfg.dataset.shards[2] = Shard(bad.features * 1e200, bad.labels)
        _, grad_rows = _spy_non_finite_rows(monkeypatch)
        with pytest.raises(NumericDivergenceError, match="device 2"):
            run(cfg)
        assert sum(grad_rows) == 1

    @staticmethod
    def _slow_diverging_device_drops(mode, monkeypatch):
        # Device 0 diverges and is slowed 3x: its model arrives at 6.5 s and its
        # upload would land at 33.5 s. The other devices' uploads at 11.5 s
        # train its flight too, because the run has fewer flights than
        # `COHORT_BLOCK`, all with one shard size, so the first upload's block
        # holds every one in the air. It drops at 20 s, so its non-finite row
        # is thrown away unused. Only a flight that uploads raises.
        faults = [FaultEvent(0.0, 0, "slowdown", 3.0), FaultEvent(20.0, 0, "drop")]
        topo = uniform_topology(3, 1, sigma=0.0, faults=faults)
        cfg = small_config(mode=mode, n=3, g=1, topology=topo, seed=1,
                           gateway_epochs=2, cloud_epochs=6)
        bad = cfg.dataset.shards[0]
        cfg.dataset.shards[0] = Shard(bad.features * 1e200, bad.labels)
        train_rows, grad_rows = _spy_non_finite_rows(monkeypatch)
        result = run(cfg)
        assert result.cloud_epochs_done == 6
        assert sum(train_rows) == 1
        assert [t.time for t in result.transfers if t.dst == "dev0"] == [0.5]
        return grad_rows

    def test_flight_dropped_before_its_upload_never_raises(self, monkeypatch):
        assert self._slow_diverging_device_drops("sync-random", monkeypatch) == []

    def test_flight_dropped_before_its_upload_never_raises_under_utility_selection(
        self, monkeypatch
    ):
        # Its block's gradient pass saw the non-finite row and raised nothing.
        grad_rows = self._slow_diverging_device_drops("async-sched", monkeypatch)
        assert sum(grad_rows) == 1

    def test_every_uploaded_round_trains_once(self, monkeypatch):
        # Device 1 drops at 1.5 s, before anything has trained; device 6 drops
        # at 12 s, after an earlier upload trained its flight.
        cfg = _refresh_with_faults(
            "async-random", [FaultEvent(12.0, 6, "drop"), FaultEvent(40.0, 6, "restore")]
        )
        sim = simulator._Simulation(cfg)
        states_trained = []

        def spy(start, arch, shards, train, rngs):
            states_trained.extend(_states(rngs))
            return local_train(start, arch, shards, train, rngs)

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

        monkeypatch.setattr(simulator, "local_train", spy)
        monkeypatch.setattr(simulator._Simulation, "on_fault_timer", spy_fault)
        result = sim.run()
        assert result.stop_reason == "done"
        # Device 1's flight had not trained when it dropped; device 6's had.
        assert [(i, state) for i, state, _ in drops] == [(1, False), (6, True)]

        # Round r of a device is its r-th dispatch, counted from 0.
        round_of = {
            _round_key(sim, i, r): (i, r)
            for i, d in enumerate(sim.devices) for r in range(d.rounds_started)
        }
        trained = [round_of[s] for s in states_trained]
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
            assert flight.stream == round_stream(sim.cfg.seed, i, sim.devices[i].rounds_started - 1)
            assert f"gw{flight.gateway}" == result.transfers[last_dispatch[i]].src


class TestLazyRefresh:
    """An upload only marks its device's shard due for refresh; the block that
    trains the device's next round draws it. Each row trains on the shard an
    eager refresh at every upload would have left."""

    @pytest.mark.parametrize(
        "make_cfg, reread",
        [*((SCENARIOS[f"{mode}/faults-refresh"], False) for mode in MODES), (
            lambda: _refresh_with_faults(
                "async-random", [FaultEvent(35.0, 6, "drop"), FaultEvent(65.0, 6, "restore")]
            ),
            True,
        )],
        # In the last, device 6's flight trains on a refreshed shard and is
        # voided at 35 s; its next flight trains on that same refresh.
        ids=[*MODES, "trained-flight-voided"],
    )
    def test_each_row_trains_on_the_shard_an_eager_refresh_gives(
        self, monkeypatch, make_cfg, reread
    ):
        cfg = make_cfg()
        originals, seed = list(cfg.dataset.shards), cfg.seed
        sim = simulator._Simulation(cfg)
        rows, refreshes = [], []  # (transfers logged before, state, shard); refresh states

        def train_spy(start, arch, shards, train, rngs):
            rows.extend(zip([len(sim.transfers)] * len(shards), _states(rngs), shards))
            return local_train(start, arch, shards, train, rngs)

        def refresh_spy(shard, spread, rng, centroids):
            refreshes.append(rng.bit_generator.state["state"]["state"])
            return refresh_shard(shard, spread, rng, centroids)

        monkeypatch.setattr(simulator, "local_train", train_spy)
        monkeypatch.setattr(simulator, "refresh_shard", refresh_spy)
        result = sim.run()
        assert result.stop_reason == "done"

        round_of = {
            _round_key(sim, i, r): (i, r)
            for i, d in enumerate(sim.devices) for r in range(d.rounds_started)
        }
        refresh_of = {
            round_stream(seed, i, simulator.REFRESH_ROUND + r)["state"]["state"]: (i, r)
            for i, d in enumerate(sim.devices) for r in range(1, d.rounds_done + 1)
        }
        uploads = [t.src for t in result.transfers if t.kind == "device_upload"]
        read = []  # (device, refresh round) of each row that reads a refreshed shard
        for at, state, shard in rows:
            i, _ = round_of[state]
            # An eager refresh at each upload draws round `uploads so far` of its stream.
            done = sum(t.kind == "device_upload" and t.src == f"dev{i}"
                       for t in result.transfers[:at])
            if done == 0:
                assert shard is originals[i]
                continue
            rng = np.random.Generator(np.random.PCG64())
            rng.bit_generator.state = round_stream(seed, i, simulator.REFRESH_ROUND + done)
            spread = cfg.data_spec.cluster_spread
            eager = refresh_shard(originals[i], spread, rng, cfg.dataset.centroids)
            assert shard.features.tobytes() == eager.features.tobytes()
            assert shard.labels is originals[i].labels
            read.append((i, done))
        # One draw per refresh that a row reads (a voided flight's row reads
        # it too, and the flight that retrains that round reuses it), none else.
        drawn = [refresh_of[state] for state in refreshes]
        assert sorted(drawn) == sorted(set(read))
        assert read and len(drawn) < len(uploads)
        assert (len(set(read)) < len(read)) == reread


class TestRandomAssociation:
    def test_draws_what_a_choice_per_row_draws(self):
        # Drawn link tables, rows with no link among them; the oracle is one
        # `rng.choice` over each row's linked gateways.
        tables = np.random.default_rng(11)
        for seed in range(40):
            n, g = int(tables.integers(1, 25)), int(tables.integers(1, 8))
            sim = simulator._Simulation(small_config(n=n, g=g, seed=seed))
            sim.feasible = (tables.random((n, g)) < 0.4).astype(np.int8)
            sim.feasible[tables.integers(n)] = 0
            oracle = copy.deepcopy(sim.rng)
            expected = [
                int(oracle.choice(np.flatnonzero(row))) if row.any() else -1
                for row in sim.feasible
            ]
            targets = sim._random_association()
            assert targets == expected and all(type(j) is int for j in targets)
            assert sim.rng.bit_generator.state == oracle.bit_generator.state


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
            assert sim.latency[i][flight.gateway] == expected.get(key, mean)
            upload(sim, i, flight)
            tau = flight.observed_tau
            expected[key] = tau if key not in expected else a * tau + (1 - a) * expected[key]
            assert sim.latency[i][flight.gateway] == expected[key] != mean
            uploads.append(key)

        monkeypatch.setattr(simulator._Simulation, "on_device_upload_arrives", spy)
        run(small_config(mode="async-random", seed=3, alpha_ema=a))
        assert len(uploads) > len(expected) > 1  # some links took an EMA step


class TestLifetime:
    @pytest.mark.parametrize("mode", ["async-sched", "sync-random"])
    def test_only_the_air_and_the_event_queue_hold_a_flight(self, monkeypatch, mode):
        # The `untrained` heaps hold numbers, not flights, so a flight that has
        # landed, or was voided and has no event left, is freed with its model
        # even while its heap entry waits for the next trigger to pop it.
        made, stale = [], []

        class Tracked(simulator.Flight):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(weakref.ref(self))

        train = simulator._Simulation._train_flights

        def checked_train(sim, trigger):
            live = {(f.order, i) for i, f in sim.flights.items() if f.params is None}
            stale.append(sum((order, i) not in live
                             for heap in sim.untrained.values() for _, order, i in heap))
            held = {id(f) for f in sim.flights.values()}
            held |= {id(a) for *_, args in sim._heap for a in args}
            alive = [f for f in (ref() for ref in made) if f is not None]
            assert all(id(f) in held for f in alive)
            train(sim, trigger)

        monkeypatch.setattr(simulator, "Flight", Tracked)
        monkeypatch.setattr(simulator, "COHORT_BLOCK", 3)
        monkeypatch.setattr(simulator._Simulation, "_train_flights", checked_train)
        run(_refresh_with_faults(mode))
        assert max(stale) > 0

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

    def test_transfer_log_keeps_at_most_160_bytes_per_entry(self):
        # The log is the one record that grows with a run's length: it keeps
        # one `Transfer` per wire event, sharing the run's endpoint names.
        topo = gen_topology(TopologySpec(20, 3, model_bytes=8000), seed=3)
        tracemalloc.start()
        try:
            result = run(small_config(mode="sync-random", n=20, g=3, seed=3, topology=topo))
            entries = len(result.transfers)
            held = tracemalloc.get_traced_memory()[0]
            del result.transfers
            freed = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert entries > 1000
        assert freed / entries <= 160
