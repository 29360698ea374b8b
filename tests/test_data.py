import json

import numpy as np
import pytest

from hfedsim.data import (
    DataSpec,
    gen_synthetic,
    load_shards,
    refresh_shard,
    save_dataset,
)
from hfedsim.errors import ConfigurationError, DatasetFormatError
from hfedsim.simulator import _Simulation, run
from simtools import digest, small_config

DELETE = object()  # `TestLoadErrors._load_edited` removes the field instead of setting it


def spec(**kw):
    base = dict(
        num_devices=6,
        num_classes=10,
        classes_per_device=2,
        samples_per_device=30,
        input_dim=4,
        cluster_spread=0.3,
    )
    base.update(kw)
    return DataSpec(**base)


def per_class_draw(rng, classes, counts, s, centroids):
    """Reference shard draw: one normal draw per class, concatenated in class order."""
    feats = [
        centroids[c] + s.cluster_spread * rng.standard_normal((n, s.input_dim))
        for c, n in zip(classes, counts)
    ]
    labels = [np.full(n, c, dtype=np.int64) for c, n in zip(classes, counts)]
    return np.concatenate(feats), np.concatenate(labels)


def per_class_synthetic(s, seed):
    """Reference `gen_synthetic`: the same stream, drawn one class at a time."""
    rng = np.random.default_rng(seed)
    centroids = rng.standard_normal((s.num_classes, s.input_dim))
    centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
    base, extra = divmod(s.samples_per_device, s.classes_per_device)
    counts = [base + (k < extra) for k in range(s.classes_per_device)]
    shards = []
    for _ in range(s.num_devices):
        drawn = rng.choice(s.num_classes, s.classes_per_device, replace=False)
        classes = sorted(int(c) for c in drawn)
        shards.append(per_class_draw(rng, classes, counts, s, centroids))
    test = per_class_draw(rng, range(s.num_classes), [100] * s.num_classes, s, centroids)
    return shards, test, centroids


UNEVEN_SPLITS = [(30, 2), (101, 3), (7, 10)]  # (samples_per_device, classes_per_device)

# A dataset file as an earlier version of `save_dataset` wrote it, with the
# `class_map` key it no longer writes, and the shards it holds.
OLD_FILE = (
    '{"num_classes": 2, "input_dim": 2, "class_map": [[0], [0, 1]], "devices": ['
    '{"features": [[0.1, -0.4], [0.25, 0.001]], "labels": [0, 0]}, '
    '{"features": [[-1.5, 0.3], [2.0, -0.7]], "labels": [1, 0]}], '
    '"test": {"features": [[0.2, 0.2], [-0.9, 1.1]], "labels": [0, 1]}}'
)
OLD_FILE_SHARDS = [
    ([[0.1, -0.4], [0.25, 1e-3]], [0, 0]),
    ([[-1.5, 0.3], [2.0, -0.7]], [1, 0]),
    ([[0.2, 0.2], [-0.9, 1.1]], [0, 1]),  # the test set
]


def label_runs(shard):
    """The classes of `shard`'s labels and the length of each one's run, checking the
    labels come in one run per class, in class order."""
    assert np.all(np.diff(shard.labels) >= 0)
    classes, counts = np.unique(shard.labels, return_counts=True)
    return classes.tolist(), counts.tolist()


class TestGenSynthetic:
    def test_label_skew(self):
        # Each device holds `classes_per_device` classes, its samples split evenly over them.
        for samples, classes in [(30, 2), (101, 3)]:
            s = spec(samples_per_device=samples, classes_per_device=classes)
            for shard in gen_synthetic(s, seed=1).shards:
                labels, counts = label_runs(shard)
                assert len(labels) == classes
                assert sum(counts) == samples and max(counts) - min(counts) <= 1

    def test_iid_degenerate_case(self):
        ds = gen_synthetic(spec(classes_per_device=10, samples_per_device=50), seed=2)
        for shard in ds.shards:
            assert set(shard.labels.tolist()) == set(range(10))

    def test_test_set_covers_all_classes(self):
        ds = gen_synthetic(spec(), seed=3)
        assert set(ds.test.labels.tolist()) == set(range(10))
        assert ds.test.n == 100 * 10

    def test_deterministic(self):
        a = gen_synthetic(spec(), seed=7)
        b = gen_synthetic(spec(), seed=7)
        for sa, sb in zip(a.shards, b.shards):
            assert np.array_equal(sa.features, sb.features)
            assert np.array_equal(sa.labels, sb.labels)
        assert np.array_equal(a.test.features, b.test.features)

    def test_devices_with_the_same_classes_hold_the_same_labels(self):
        # With few classes some devices share their classes; their labels match.
        ds = gen_synthetic(spec(num_devices=20, num_classes=3, samples_per_device=31), seed=5)
        seen = {}
        for shard in ds.shards:
            key = tuple(label_runs(shard)[0])
            if key in seen:
                assert shard.labels.tolist() == seen[key]
            seen[key] = shard.labels.tolist()
        assert len(seen) < len(ds.shards)

    @pytest.mark.parametrize("samples,classes", UNEVEN_SPLITS)
    def test_bitwise_equal_to_per_class_draws(self, samples, classes):
        s = spec(samples_per_device=samples, classes_per_device=classes)
        ds = gen_synthetic(s, seed=12)
        shards, test, centroids = per_class_synthetic(s, 12)
        assert np.array_equal(ds.centroids, centroids)
        for shard, (feats, labels) in zip(ds.shards, shards, strict=True):
            assert np.array_equal(shard.features, feats)
            assert np.array_equal(shard.labels, labels)
        assert np.array_equal(ds.test.features, test[0])
        assert np.array_equal(ds.test.labels, test[1])

    def test_centroids_on_unit_sphere(self):
        ds = gen_synthetic(spec(), seed=4)
        np.testing.assert_allclose(np.linalg.norm(ds.centroids, axis=1), 1.0, rtol=1e-12)

    @pytest.mark.parametrize(
        "field, value",
        [("num_devices", 6.0), ("num_classes", 10.0), ("classes_per_device", True),
         ("samples_per_device", 10.5), ("input_dim", 2.5)],
    )
    def test_spec_refuses_a_count_that_is_not_an_integer(self, field, value):
        # At 10.5 samples per device the shards would quietly hold 11.
        message = rf"^{field} must be an integer >= 1 \({value!r}\)$"
        with pytest.raises(ConfigurationError, match=message):
            spec(**{field: value})

    def test_bad_spec(self):
        with pytest.raises(ConfigurationError):
            spec(classes_per_device=11)
        with pytest.raises(ConfigurationError):
            spec(num_devices=0)
        # NaN fails no `<= 0` check, and a non-finite spread draws non-finite features.
        for bad in (float("nan"), float("inf"), 0.0):
            with pytest.raises(ConfigurationError, match="^cluster_spread must be finite and > 0$"):
                spec(cluster_spread=bad)
        with pytest.raises(ConfigurationError, match=r"^seed must be an integer >= 0 \(-1\)$"):
            gen_synthetic(DataSpec(2, 3, 2, 10, 2), -1)


class TestRefreshShard:
    def test_disabled_returns_same_object(self):
        # Only the simulator decides whether a shard refreshes: with refresh
        # off, every device keeps the very shard it was given.
        cfg = small_config(seed=1)
        assert cfg.data_spec is not None and not cfg.data_spec.refresh
        sim = _Simulation(cfg)
        assert sim.run().stop_reason == "done"
        assert all(d.rounds_done > 0 for d in sim.devices)
        for dev, shard in zip(sim.devices, cfg.dataset.shards, strict=True):
            assert dev.shard is shard

    def test_preserves_size_and_labels(self):
        s = spec(refresh=True)
        ds = gen_synthetic(s, seed=1)
        rng = np.random.default_rng(99)
        out = refresh_shard(ds.shards[0], s.cluster_spread, rng, ds.centroids)
        assert out is not ds.shards[0]
        assert out.labels is ds.shards[0].labels
        assert not np.array_equal(out.features, ds.shards[0].features)

    def test_mean_tracks_centroid_mixture(self):
        s = spec(refresh=True, samples_per_device=4000, cluster_spread=0.5)
        ds = gen_synthetic(s, seed=8)
        rng = np.random.default_rng(123)
        out = refresh_shard(ds.shards[0], s.cluster_spread, rng, ds.centroids)
        mixture_mean = ds.centroids[label_runs(ds.shards[0])[0]].mean(axis=0)
        tol = 3 * 0.5 / np.sqrt(out.n)
        assert np.all(np.abs(out.features.mean(axis=0) - mixture_mean) < tol * 3)

    @pytest.mark.parametrize("samples,classes", UNEVEN_SPLITS)
    def test_bitwise_equal_to_per_class_draws(self, samples, classes):
        s = spec(refresh=True, samples_per_device=samples, classes_per_device=classes)
        ds = gen_synthetic(s, seed=13)
        base, extra = divmod(samples, classes)
        counts = [base + (k < extra) for k in range(classes)]
        for i, shard in enumerate(ds.shards):
            out = refresh_shard(
                shard, s.cluster_spread, np.random.default_rng(1000 + i), ds.centroids
            )
            rng = np.random.default_rng(1000 + i)
            feats, labels = per_class_draw(rng, label_runs(shard)[0], counts, s, ds.centroids)
            assert np.array_equal(out.features, feats)
            assert np.array_equal(out.labels, labels)

    def test_requires_centroids(self):
        s = spec(refresh=True)
        ds = gen_synthetic(s, seed=1)
        with pytest.raises(ConfigurationError):
            refresh_shard(ds.shards[0], s.cluster_spread, np.random.default_rng(0), None)


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        cfg = small_config(mode="async-sched", seed=6)
        ds = cfg.dataset
        save_dataset(ds, tmp_path / "data.json")
        back = load_shards(tmp_path / "data.json")
        assert back.centroids is None
        for a, b in zip([*ds.shards, ds.test], [*back.shards, back.test], strict=True):
            for x, y in ((a.features, b.features), (a.labels, b.labels)):
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
        reloaded = small_config(mode="async-sched", seed=6, dataset=back)
        assert digest(run(reloaded)) == digest(run(cfg))

    def test_manifest_lists_no_device_count(self, tmp_path):
        save_dataset(gen_synthetic(spec(), seed=6), tmp_path / "data.json")
        doc = json.loads((tmp_path / "data.json").read_text())
        assert set(doc) == {"num_classes", "input_dim", "devices", "test"}

    def test_file_with_a_class_map_loads_the_same_shards(self, tmp_path):
        (tmp_path / "old.json").write_text(OLD_FILE)
        back = load_shards(tmp_path / "old.json")
        assert back.centroids is None
        shards = [*back.shards, back.test]
        for shard, (features, labels) in zip(shards, OLD_FILE_SHARDS, strict=True):
            x, y = shard.features, np.array(features, dtype=np.float64)
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
            assert shard.labels.dtype == np.int64 and shard.labels.tolist() == labels


class TestLoadErrors:
    @staticmethod
    def _load_edited(tmp_path, path, value):
        """Load a saved two-device, three-class, four-feature dataset in which the
        field at `path` is `value` (DELETE: absent); returns the saved dataset."""
        ds = gen_synthetic(spec(num_devices=2, num_classes=3), seed=1)
        file = tmp_path / "data.json"
        save_dataset(ds, file)
        doc = json.loads(file.read_text())
        *parents, key = path
        entry = doc
        for k in parents:
            entry = entry[k]
        if value is DELETE:
            del entry[key]
        else:
            entry[key] = value
        file.write_text(json.dumps(doc))
        load_shards(file)
        return ds

    def test_label_out_of_range(self, tmp_path):
        # num_classes is 3, so label 3 is invalid
        message = r"^data\.json: devices\[1\]\.labels\[3\] must be in \[0, 3\) \(3\)$"
        with pytest.raises(DatasetFormatError, match=message):
            self._load_edited(tmp_path, ("devices", 1, "labels", 3), 3)

    def test_malformed_row_reports_line(self, tmp_path):
        message = (
            r"^data\.json: devices\[0\]\.features\[2\]\[0\] must be a finite number"
            r" \('not-a-number'\)$"
        )
        with pytest.raises(DatasetFormatError, match=message):
            self._load_edited(tmp_path, ("devices", 0, "features", 2, 0), "not-a-number")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_reports_line(self, tmp_path, value):
        # Written as the JSON extension NaN, Infinity or -Infinity.
        message = (
            rf"^data\.json: devices\[1\]\.features\[2\]\[1\] must be a finite number \({value}\)$"
        )
        with pytest.raises(DatasetFormatError, match=message):
            self._load_edited(tmp_path, ("devices", 1, "features", 2, 1), float(value))

    def test_empty_device_list(self, tmp_path):
        message = r"^data\.json: devices must be a non-empty list \(\[\]\)$"
        with pytest.raises(DatasetFormatError, match=message):
            self._load_edited(tmp_path, ("devices",), [])

    def test_test_set_must_cover_all_classes(self, tmp_path):
        ds = gen_synthetic(spec(num_devices=2, num_classes=3), seed=1)
        keep = ds.test.labels != 2
        test = {
            "features": ds.test.features[keep].tolist(), "labels": ds.test.labels[keep].tolist()
        }
        message = r"^data\.json: test set must cover all classes$"
        with pytest.raises(DatasetFormatError, match=message):
            self._load_edited(tmp_path, ("test",), test)

    @pytest.mark.parametrize("key, value", [("input_dim", "abc"), ("num_classes", None)])
    def test_non_integer_count_names_the_manifest(self, tmp_path, key, value):
        message = rf"^data\.json: {key} must be an integer \({value!r}\)$"
        with pytest.raises(DatasetFormatError, match=message):
            self._load_edited(tmp_path, (key,), value)

    @pytest.mark.parametrize("key, fraction", [("input_dim", 0.7), ("num_classes", 0.5)])
    def test_fractional_count_is_rejected_not_truncated(self, tmp_path, key, fraction):
        # Truncated, it would load the saved dataset as it is.
        value = {"input_dim": 4, "num_classes": 3}[key] + fraction
        message = rf"^data\.json: {key} must be an integer \({value!r}\)$"
        with pytest.raises(DatasetFormatError, match=message):
            self._load_edited(tmp_path, (key,), value)

    def test_devices_must_be_a_list(self, tmp_path):
        message = r"^data\.json: devices must be a non-empty list \(5\)$"
        with pytest.raises(DatasetFormatError, match=message):
            self._load_edited(tmp_path, ("devices",), 5)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DatasetFormatError, match=r"[/\\]nope\.json: file not found$"):
            load_shards(tmp_path / "nope.json")

    @pytest.mark.parametrize(
        "text, message", [("{", "invalid JSON"), ('"devices"', "not a JSON object")],
        ids=["invalid", "not-an-object"],
    )
    def test_manifest_must_hold_a_json_object(self, tmp_path, text, message):
        path = tmp_path / "data.json"
        path.write_text(text)
        with pytest.raises(DatasetFormatError, match=rf"^data\.json: {message}"):
            load_shards(path)

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("input_dim",), DELETE, r"missing field 'input_dim'"),
            (("num_classes",), DELETE, r"missing field 'num_classes'"),
            (("devices",), DELETE, r"missing field 'devices'"),
            (("test",), DELETE, r"missing field 'test'"),
            (("devices", 1, "labels"), DELETE, r"devices\[1\]: missing field 'labels'"),
            (("test", "features"), DELETE, r"test: missing field 'features'"),
            (("devices", 1, "labels", 2), True,
             r"devices\[1\]\.labels\[2\] must be an integer \(True\)"),
            (("devices", 1, "labels", 2), "1",
             r"devices\[1\]\.labels\[2\] must be an integer \('1'\)"),
            (("devices", 1, "labels", 2), 1.5,
             r"devices\[1\]\.labels\[2\] must be an integer \(1\.5\)"),
            (("devices", 0, "labels", 0), -1,
             r"devices\[0\]\.labels\[0\] must be in \[0, 3\) \(-1\)"),
            (("devices", 0, "features", 3), [0.5] * 5,
             r"devices\[0\]\.features\[3\] must hold 4 numbers \(\[0\.5(, 0\.5){4}\]\)"),
            (("test", "features", 7, 0), float("nan"),
             r"test\.features\[7\]\[0\] must be a finite number \(nan\)"),
            (("test", "features", 7, 0), True,
             r"test\.features\[7\]\[0\] must be a finite number \(True\)"),
            (("devices", 1), {"features": [], "labels": []},
             r"devices\[1\]: shard needs >= 1 sample with matching labels"),
            (("devices", 1, "labels", 0), DELETE,
             r"devices\[1\]: shard needs >= 1 sample with matching labels"),
            (("devices", 0), 5, r"devices\[0\]: 'int' object is not subscriptable"),
        ],
        ids=["input_dim-missing", "num_classes-missing", "devices-missing", "test-missing",
             "labels-missing", "test-features-missing", "label-bool", "label-string",
             "label-fraction", "label-negative", "row-length", "test-feature-nan",
             "test-feature-bool", "empty-shard", "labels-shorter-than-rows",
             "device-not-an-object"],
    )
    def test_error_names_its_field(self, tmp_path, path, value, message):
        with pytest.raises(DatasetFormatError, match=rf"^data\.json: {message}$"):
            self._load_edited(tmp_path, path, value)
