import dataclasses
import json
import re

import numpy as np
import pytest

from hfedsim.errors import ConfigurationError, DatasetFormatError
from hfedsim.learning import Shard
from hfedsim.network import (
    GEN_COMP,
    GEN_DOWN,
    GEN_JITTER_SIGMA,
    GEN_UP,
    DelayParams,
    FaultEvent,
    Topology,
    TopologySpec,
    est_rate,
    gen_topology,
    load_topology,
    sample_round_latency,
    save_topology,
)
from hfedsim.selection import ordered_sum
from hfedsim.simulator import _Simulation
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

    @pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0, 2.0])
    def test_one_draw_gives_the_floats_of_three_scalar_draws(self, sigma):
        params = DelayParams(mean_down=2.0, mean_comp=7.0, mean_up=4.0, sigma=sigma)
        mu = -0.5 * sigma * sigma
        for seed in range(200):
            rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sample_round_latency(params, rng)
            down, comp, up = (m * float(oracle.lognormal(mu, sigma)) for m in (2.0, 7.0, 4.0))
            assert got == (down, comp, up, down + comp + up)
            assert all(type(x) is float for x in got)
            assert rng.bit_generator.state == oracle.bit_generator.state


def _observe(sim, i, g, tau):
    """Land one upload of device i at gateway g whose round took tau."""
    targets = sim.gateway_of.copy()
    targets[i] = g
    sim._set_gateways(targets)
    sim.dispatch(sim.gateways[g], [i])
    flight = sim.flights[i]
    flight.observed_tau = tau
    sim.on_device_upload_arrives(i, flight)


class TestLatencyTracker:
    """The simulator's latency estimate: link mean, first observation, then EMA."""

    def test_alpha_one_tracks_last(self):
        sim = _Simulation(small_config(mode="semi-async", alpha_ema=1.0))
        _observe(sim, 0, 0, 10.0)
        _observe(sim, 0, 0, 25.0)
        assert sim.latency[0][0] == 25.0

    def test_constant_fixed_point(self):
        sim = _Simulation(small_config(mode="semi-async", alpha_ema=0.3))
        for _ in range(5):
            _observe(sim, 1, 1, 4.0)
        assert sim.latency[1][1] == pytest.approx(4.0, rel=1e-12)

    def test_two_step_average(self):
        sim = _Simulation(small_config(mode="semi-async", alpha_ema=0.5))
        _observe(sim, 0, 1, 10.0)
        _observe(sim, 0, 1, 20.0)
        assert sim.latency[0][1] == 15.0

    def test_default_when_unobserved(self):
        sim = _Simulation(small_config(mode="semi-async", alpha_ema=0.5,
                                       topology=uniform_topology(6, 2, mean_comp=2.0)))
        assert sim.latency[3][0] == 7.0  # 2 down + 2 compute + 3 up
        _observe(sim, 3, 1, 12.0)
        assert sim.latency[3][0] == 7.0  # another link's upload leaves it
        assert sim.latency[3][1] == 12.0


class TestEstRate:
    def test_paper_scale_examples(self):
        assert est_rate(1.6e6, 80.0) == 20_000.0
        assert est_rate(285e3, 285.0) == 1000.0

    def test_doubling_tau_halves_rate(self):
        assert est_rate(1000.0, 10.0) == 2 * est_rate(1000.0, 20.0)

    def test_nonpositive_tau_rejected(self):
        with pytest.raises(ConfigurationError):
            est_rate(100.0, 0.0)


def saved_doc(topo, path):
    """Save `topo` at `path` and return the JSON document the file holds."""
    save_topology(topo, path)
    return json.loads(path.read_text())


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

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: TopologySpec(4.5, 2, 100), r"^num_devices must be an integer >= 1 \(4\.5\)$"),
            (lambda: TopologySpec(4, True, 100),
             r"^num_gateways must be an integer >= 1 \(True\)$"),
            (lambda: gen_topology(TopologySpec(4, 2, 100.5), 0),
             r"^model_bytes must be an integer >= 1 \(100\.5\)$"),
            (lambda: uniform_topology(3, 2, model_bytes=100.5),
             r"^model_bytes must be an integer >= 1 \(100\.5\)$"),
            (lambda: Topology(3.0, 2, {}, np.ones(2), 100),
             r"^num_devices must be an integer >= 1 \(3\.0\)$"),
            (lambda: FaultEvent(0.0, 1.5, "drop"), r"^device must be an integer >= 0 \(1\.5\)$"),
            (lambda: FaultEvent(0.0, -1, "drop"), r"^device must be an integer >= 0 \(-1\)$"),
            (lambda: gen_topology(TopologySpec(4, 2, 100), -1),
             r"^seed must be an integer >= 0 \(-1\)$"),
        ],
        ids=["spec-devices-fraction", "spec-gateways-bool", "spec-model_bytes-fraction",
             "model_bytes-fraction", "num_devices-float", "fault-device-fraction",
             "fault-device-negative", "gen-seed-negative"],
    )
    def test_records_refuse_a_count_that_is_not_an_integer(self, build, message):
        with pytest.raises(ConfigurationError, match=message):
            build()

    def test_drop_then_restore_is_involution(self):
        topo = small_topology()
        original = topo.feasible.copy()
        sim = _Simulation(small_config(n=3, g=2, topology=topo))
        sim._set_gateways(sim._random_association())
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

    @pytest.mark.parametrize(
        "bandwidth, link, message",
        [
            ([5.0, 6.0], (0, 0), r"^bandwidth must be a numpy array \(\[5\.0, 6\.0\]\)$"),
            (np.array([5.0, 6.0]), (1.0, 0), r"^link \(1\.0, 0\) endpoints must be integers$"),
            (np.array([5.0, 6.0]), (True, 0), r"^link \(True, 0\) endpoints must be integers$"),
            (np.array([5.0, 0.0]), (0, 0), r"^bandwidth must be finite and positive per gateway$"),
        ],
        ids=["bandwidth-list", "link-float", "link-bool", "bandwidth-zero"],
    )
    def test_rejects_malformed_caller_input(self, bandwidth, link, message):
        # Unchecked, a list fails on `.shape`, a float endpoint fails inside
        # numpy, and a bool one marks device 0's whole row feasible.
        links = {(1, 1): DelayParams(1.0, 5.0, 2.0), link: DelayParams(1.0, 5.0, 2.0)}
        with pytest.raises(ConfigurationError, match=message):
            Topology(2, 2, links, bandwidth=bandwidth, model_bytes=1000)


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

    def test_out_of_range_device_id_rejected(self, tmp_path):
        path = tmp_path / "t.json"
        doc = saved_doc(small_topology(), path)
        doc["links"].append({**doc["links"][0], "i": 3})
        path.write_text(json.dumps(doc))
        with pytest.raises(DatasetFormatError, match=r"^t\.json: link \(3, 0\) out of range$"):
            load_topology(path)

    def test_saved_links_carry_their_compute_mean(self, tmp_path):
        topo = small_topology()
        doc = saved_doc(topo, tmp_path / "t.json")
        assert "devices" not in doc
        assert {(e["i"], e["j"]): e["mean_comp"] for e in doc["links"]} == {
            key: p.mean_comp for key, p in topo.link_params.items()
        }

    def test_links_of_one_device_that_disagree_on_compute_name_it(self, tmp_path):
        path = tmp_path / "mesh.json"
        doc = saved_doc(uniform_topology(3, 2), path)
        second = [k for k, e in enumerate(doc["links"]) if e["i"] == 1][1]
        doc["links"][second]["mean_comp"] += 1.0
        path.write_text(json.dumps(doc))
        with pytest.raises(DatasetFormatError, match=r"^mesh\.json: the links of device 1 differ"):
            load_topology(path)

    def test_repeated_link_names_both_entries(self, tmp_path):
        path = tmp_path / "mesh.json"
        doc = saved_doc(uniform_topology(3, 2), path)
        doc["links"].append({**doc["links"][0], "mean_down": 99.0})
        path.write_text(json.dumps(doc))
        with pytest.raises(
            DatasetFormatError, match=r"^mesh\.json: links\[6\]: link \(0, 0\) repeats links\[0\]$"
        ):
            load_topology(path)

    @pytest.mark.parametrize("seed", range(5))
    def test_save_then_load_is_exact(self, tmp_path, seed):
        spec = TopologySpec(num_devices=12, num_gateways=3, model_bytes=4000)
        faults = [
            FaultEvent(0.5, 2, "drop"), FaultEvent(7.25, 5, "slowdown", 2.5),
            FaultEvent(7.25, 2, "restore"), FaultEvent(40.0, 5, "restore"),
        ]
        topo = dataclasses.replace(gen_topology(spec, seed), faults=faults)
        save_topology(topo, tmp_path / "topo.json")
        back = load_topology(tmp_path / "topo.json")
        assert back.link_params == topo.link_params and back.faults == topo.faults
        np.testing.assert_array_equal(back.bandwidth, topo.bandwidth)
        save_topology(back, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == (tmp_path / "topo.json").read_bytes()

    def test_missing_field(self, tmp_path):
        path = tmp_path / "mesh.json"
        path.write_text(json.dumps({"N": 2, "G": 1}))
        with pytest.raises(DatasetFormatError, match=r"^mesh\.json: missing field 'model_size'$"):
            load_topology(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetFormatError, match=r"none\.json: file not found$"):
            load_topology(tmp_path / "none.json")

    @pytest.mark.parametrize(
        "text, message", [("{", "invalid JSON"), ("[1, 2]", "not a JSON object")],
        ids=["invalid", "not-an-object"],
    )
    def test_file_must_hold_a_json_object(self, tmp_path, text, message):
        path = tmp_path / "mesh.json"
        path.write_text(text)
        with pytest.raises(DatasetFormatError, match=rf"^mesh\.json: {message}"):
            load_topology(path)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"model_size": "big"}, r"model_size must be an integer \('big'\)"),
            ({"links": [{"i": 0}]}, r"links\[0\]: missing field 'j'"),
        ],
        ids=["model_size", "links"],
    )
    def test_load_error_names_the_file(self, tmp_path, change, message):
        path = tmp_path / "mesh.json"
        doc = {**saved_doc(small_topology(), path), **change}
        path.write_text(json.dumps(doc))
        with pytest.raises(DatasetFormatError, match=rf"^mesh\.json: {message}"):
            load_topology(path)

    @staticmethod
    def _load_edited(tmp_path, path, value):
        """Load a generated topology file in which the field at `path` is `value` (None: absent)."""
        spec = TopologySpec(num_devices=6, num_gateways=2, model_bytes=4000)
        topo = dataclasses.replace(gen_topology(spec, 0), faults=[FaultEvent(3.0, 1, "drop")])
        file = tmp_path / "mesh.json"
        doc = saved_doc(topo, file)
        *parents, key = path
        entry = doc
        for k in parents:
            entry = entry[k]
        if value is None:
            del entry[key]
        else:
            entry[key] = value
        file.write_text(json.dumps(doc))
        return load_topology(file)

    @pytest.mark.parametrize(
        "path, value",
        [
            (("links", 2, "mean_down"), "x"),
            (("links", 2, "mean_up"), "1.5"),
            (("B", 0), True),
            (("links", 2, "sigma"), True),
            (("faults", 0, "t"), "2"),
            (("cloud_gateway_delay",), False),
        ],
        ids=["mean_down-x", "mean_up-string", "B-bool", "sigma-bool", "fault-t-string",
             "cloud_gateway_delay-bool"],
    )
    def test_float_field_takes_only_a_number(self, tmp_path, path, value):
        field = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")
        message = rf"^mesh\.json: {re.escape(field)} must be a finite number \({value!r}\)$"
        with pytest.raises(DatasetFormatError, match=message):
            self._load_edited(tmp_path, path, value)

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("links", 2, "mean_down"), -1, r"links\[2\]: delay means must be finite and > 0"),
            (("links", 2, "mean_up"), None, r"links\[2\]: missing field 'mean_up'"),
            (("faults", 0, "t"), -1, r"faults\[0\]: fault time must be finite and >= 0"),
            (("faults", 0, "action"), "stop", r"faults\[0\]: unknown fault action 'stop'"),
            (("N",), 0, r"num_devices must be an integer >= 1 \(0\)"),
            (("B",), 5, r"B: 'int' object is not iterable"),
            (("links",), 5, r"links: 'int' object is not iterable"),
            (("faults",), 5, r"faults: 'int' object is not iterable"),
        ],
        ids=["mean_down-negative", "mean_up-missing", "fault-t-negative", "fault-action",
             "N-zero", "B-not-a-list", "links-not-a-list", "faults-not-a-list"],
    )
    def test_error_names_its_entry(self, tmp_path, path, value, message):
        with pytest.raises(DatasetFormatError, match=rf"^mesh\.json: {message}$"):
            self._load_edited(tmp_path, path, value)

    @pytest.mark.parametrize(
        "path",
        [("N",), ("G",), ("model_size",), ("links", 1, "i"), ("links", 1, "j"),
         ("faults", 0, "device")],
        ids=["N", "G", "model_size", "links-i", "links-j", "faults-device"],
    )
    def test_fractional_integer_is_rejected_not_truncated(self, tmp_path, path):
        file = tmp_path / "mesh.json"
        doc = saved_doc(small_topology(faults=[FaultEvent(3.0, 1, "slowdown", 4.0)]), file)
        *parents, key = path
        entry = doc
        for k in parents:
            entry = entry[k]
        entry[key] += 0.7  # truncated, it would load the topology as saved
        field = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")
        file.write_text(json.dumps(doc))
        message = rf"^mesh\.json: .*{re.escape(field)} must be an integer \({entry[key]!r}\)"
        with pytest.raises(DatasetFormatError, match=message):
            load_topology(file)


class TestNonFiniteInputs:
    """NaN passes every `<= 0` check and inf every `> 0` one, so each field asks for finite."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["mean_down", "mean_comp", "mean_up"])
    def test_delay_means(self, field, bad):
        means = {"mean_down": 1.0, "mean_comp": 1.0, "mean_up": 1.0, field: bad}
        with pytest.raises(ConfigurationError, match="delay means must be finite"):
            DelayParams(**means)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_delay_sigma(self, bad):
        with pytest.raises(ConfigurationError, match="sigma must be finite"):
            DelayParams(1.0, 1.0, 1.0, bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_topology_bandwidth(self, bad):
        with pytest.raises(ConfigurationError, match="bandwidth must be finite"):
            uniform_topology(3, 2, bandwidth=bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_topology_cloud_gateway_delay(self, bad):
        with pytest.raises(ConfigurationError, match="cloud_gateway_delay must be finite"):
            uniform_topology(3, 2, cloud_gateway_delay=bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_fault_time(self, bad):
        with pytest.raises(ConfigurationError, match="fault time must be finite"):
            FaultEvent(bad, 0, "drop")

    @pytest.mark.parametrize("action", ["slowdown", "drop"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_fault_factor(self, bad, action):
        with pytest.raises(ConfigurationError, match="fault factor must be finite"):
            FaultEvent(1.0, 0, action, bad)

    @pytest.mark.parametrize(
        "where, value",
        [
            (("B", 0), "nan"),
            (("cloud_gateway_delay",), "inf"),
            (("links", 0, "mean_up"), "nan"),
            (("links", 0, "mean_comp"), "inf"),
            (("links", 0, "sigma"), "nan"),
            (("faults", 0, "t"), "inf"),
            (("faults", 0, "factor"), "nan"),
        ],
        ids=lambda v: "/".join(map(str, v)) if isinstance(v, tuple) else v,
    )
    def test_loaded_file(self, tmp_path, where, value):
        path = tmp_path / "t.json"
        doc = saved_doc(small_topology(faults=[FaultEvent(3.0, 1, "slowdown", 4.0)]), path)
        entry = doc
        for key in where[:-1]:
            entry = entry[key]
        entry[where[-1]] = float(value)  # written as the JSON extension NaN or Infinity
        path.write_text(json.dumps(doc))
        field = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in where).lstrip(".")
        message = rf"^t\.json: {re.escape(field)} must be a finite number \({value}\)$"
        with pytest.raises(DatasetFormatError, match=message):
            load_topology(path)


def reference_gen_topology(spec, seed):
    """`gen_topology` as one pass per device, the oracle for its whole-array passes."""
    rng = np.random.default_rng(seed)
    n, g = spec.num_devices, spec.num_gateways
    gw_pos = rng.random((g, 2))
    dev_pos = rng.random((n, 2))
    link_het = rng.lognormal(0.0, spec.het_sigma, n)
    comp_het = rng.lognormal(0.0, spec.het_sigma, n)

    link_params = {}
    comp = (GEN_COMP * comp_het).tolist()
    rates = [[] for _ in range(g)]
    for i in range(n):
        dist = np.linalg.norm(gw_pos - dev_pos[i], axis=1)
        k = min(g, int(rng.integers(1, 4)))
        for j in np.argsort(dist)[:k]:
            j = int(j)
            scale = float(link_het[i] * (0.5 + dist[j]))
            p = link_params[(i, j)] = DelayParams(
                mean_down=GEN_DOWN * scale,
                mean_comp=comp[i],
                mean_up=GEN_UP * scale,
                sigma=GEN_JITTER_SIGMA,
            )
            rates[j].append(est_rate(spec.model_bytes, p.mean_total))
    bandwidth = np.array([spec.bandwidth_frac * ordered_sum(r) if r else 1.0 for r in rates])
    return link_params, bandwidth


class TestGenTopology:
    @pytest.mark.parametrize("g", [1, 3, 10, 20])
    @pytest.mark.parametrize("n", [1, 7, 100, 500])
    def test_matches_the_per_device_reference(self, n, g):
        for seed in range(5):
            for het_sigma in (0.0, 1.0):
                for frac in (0.2, 1.0):
                    spec = TopologySpec(n, g, 8016, het_sigma=het_sigma, bandwidth_frac=frac)
                    topo = gen_topology(spec, seed)
                    links, bandwidth = reference_gen_topology(spec, seed)
                    # Same keys in the same order, and every float equal.
                    assert list(topo.link_params.items()) == list(links.items())
                    assert topo.bandwidth.tobytes() == bandwidth.tobytes()

    def test_every_device_has_one_to_three_gateways(self):
        topo = gen_topology(
            TopologySpec(num_devices=20, num_gateways=4, model_bytes=1000), seed=1
        )
        counts = topo.feasible.sum(axis=1)
        assert counts.min() >= 1 and counts.max() <= 3
        assert topo.feasible.sum() == len(topo.link_params)

    def test_deterministic(self, tmp_path):
        spec = TopologySpec(num_devices=10, num_gateways=3, model_bytes=1000)
        save_topology(gen_topology(spec, seed=2), tmp_path / "a.json")
        save_topology(gen_topology(spec, seed=2), tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

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

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_het_sigma_must_be_finite_and_non_negative(self, bad):
        with pytest.raises(ConfigurationError, match="het_sigma must be finite"):
            TopologySpec(num_devices=10, num_gateways=2, model_bytes=1000, het_sigma=bad)


@pytest.mark.parametrize(
    "build",
    [
        lambda: uniform_topology(3, 2),
        lambda: Shard(np.zeros((2, 3)), np.zeros(2, dtype=int)),
        lambda: PcaModel(np.zeros(3), np.eye(3)),
    ],
    ids=["Topology", "Shard", "PcaModel"],
)
def test_records_with_array_fields_compare_by_identity(build):
    # A generated __eq__ would compare the arrays inside a tuple and raise
    # "truth value of an array is ambiguous"; two equal-valued records differ.
    a, b = build(), build()
    assert a == a
    assert a != b
