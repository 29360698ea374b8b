import numpy as np
import pytest

from hfedsim.data import (
    DataSpec,
    FederatedDataset,
    gen_synthetic,
    load_shards,
    refresh_shard,
    save_dataset,
)
from hfedsim.errors import ConfigurationError, DatasetFormatError
from hfedsim.simulator import _Simulation
from simtools import small_config


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


class TestGenSynthetic:
    def test_label_skew(self):
        ds = gen_synthetic(spec(), seed=1)
        for shard, classes in zip(ds.shards, ds.class_map):
            assert len(classes) == 2
            assert set(shard.labels.tolist()) == set(classes)

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
        assert a.class_map == b.class_map
        for sa, sb in zip(a.shards, b.shards):
            assert np.array_equal(sa.features, sb.features)
            assert np.array_equal(sa.labels, sb.labels)
        assert np.array_equal(a.test.features, b.test.features)

    def test_same_class_map_devices_have_same_label_sets(self):
        # With few classes some devices share a class_map; their label sets match.
        ds = gen_synthetic(spec(num_devices=20, num_classes=3), seed=5)
        seen = {}
        for shard, classes in zip(ds.shards, ds.class_map):
            key = tuple(classes)
            labels = set(shard.labels.tolist())
            if key in seen:
                assert labels == seen[key]
            seen[key] = labels

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

    def test_bad_spec(self):
        with pytest.raises(ConfigurationError):
            spec(classes_per_device=11)
        with pytest.raises(ConfigurationError):
            spec(num_devices=0)


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
        out = refresh_shard(ds.class_map[0], s, 99, ds.centroids)
        assert out is not ds.shards[0]
        assert out.n == ds.shards[0].n
        assert set(out.labels.tolist()) == set(ds.shards[0].labels.tolist())
        assert not np.array_equal(out.features, ds.shards[0].features)

    def test_mean_tracks_centroid_mixture(self):
        s = spec(refresh=True, samples_per_device=4000, cluster_spread=0.5)
        ds = gen_synthetic(s, seed=8)
        out = refresh_shard(ds.class_map[0], s, 123, ds.centroids)
        mixture_mean = ds.centroids[ds.class_map[0]].mean(axis=0)
        tol = 3 * 0.5 / np.sqrt(out.n)
        assert np.all(np.abs(out.features.mean(axis=0) - mixture_mean) < tol * 3)

    @pytest.mark.parametrize("samples,classes", UNEVEN_SPLITS)
    def test_bitwise_equal_to_per_class_draws(self, samples, classes):
        s = spec(refresh=True, samples_per_device=samples, classes_per_device=classes)
        ds = gen_synthetic(s, seed=13)
        base, extra = divmod(samples, classes)
        counts = [base + (k < extra) for k in range(classes)]
        for i, entry in enumerate(ds.class_map):
            out = refresh_shard(entry, s, 1000 + i, ds.centroids)
            rng = np.random.default_rng(1000 + i)
            feats, labels = per_class_draw(rng, entry, counts, s, ds.centroids)
            assert np.array_equal(out.features, feats)
            assert np.array_equal(out.labels, labels)

    def test_requires_centroids(self):
        s = spec(refresh=True)
        ds = gen_synthetic(s, seed=1)
        with pytest.raises(ConfigurationError):
            refresh_shard(ds.class_map[0], s, 0, None)


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        ds = gen_synthetic(spec(), seed=6)
        manifest = save_dataset(ds, tmp_path)
        back = load_shards(manifest)
        assert back.num_devices == ds.num_devices
        assert back.class_map == ds.class_map
        for sa, sb in zip(ds.shards, back.shards):
            assert np.array_equal(sa.features, sb.features)
            assert np.array_equal(sa.labels, sb.labels)
        assert np.array_equal(ds.test.features, back.test.features)
        assert back.centroids is None

    def test_manifest_lists_no_device_count(self, tmp_path):
        import json

        manifest = save_dataset(gen_synthetic(spec(), seed=6), tmp_path)
        assert "num_devices" not in json.loads(manifest.read_text())

    def test_load_from_directory(self, tmp_path):
        ds = gen_synthetic(spec(), seed=6)
        save_dataset(ds, tmp_path)
        assert load_shards(tmp_path).num_devices == ds.num_devices


class TestLoadErrors:
    def _saved(self, tmp_path):
        ds = gen_synthetic(spec(num_devices=2, num_classes=3), seed=1)
        return save_dataset(ds, tmp_path), ds

    def test_label_out_of_range(self, tmp_path):
        manifest, _ = self._saved(tmp_path)
        target = tmp_path / "device_1.csv"
        lines = target.read_text().splitlines()
        parts = lines[3].split(",")
        parts[-1] = "3"  # num_classes is 3, so label 3 is invalid
        lines[3] = ",".join(parts)
        target.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match=r"device_1\.csv line 4.*label 3"):
            load_shards(manifest)

    def test_malformed_row_reports_line(self, tmp_path):
        manifest, _ = self._saved(tmp_path)
        target = tmp_path / "device_0.csv"
        lines = target.read_text().splitlines()
        lines[2] = "not-a-number," + ",".join(lines[2].split(",")[1:])
        target.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match=r"device_0\.csv line 3"):
            load_shards(manifest)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_reports_line(self, tmp_path, value):
        manifest, _ = self._saved(tmp_path)
        target = tmp_path / "device_1.csv"
        lines = target.read_text().splitlines()
        parts = lines[2].split(",")
        parts[1] = value
        lines[2] = ",".join(parts)
        target.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match=r"device_1\.csv line 3: non-finite feature"):
            load_shards(manifest)

    @pytest.mark.parametrize("entries", [1, 3])
    def test_class_map_needs_one_entry_per_device(self, tmp_path, entries):
        # zip() would stop at the shorter list and check no more.
        manifest, _ = self._saved(tmp_path)
        import json

        data = json.loads(manifest.read_text())
        data["class_map"] = (data["class_map"] * 2)[:entries]
        manifest.write_text(json.dumps(data))
        message = f"class_map has {entries} entries for 2 devices"
        with pytest.raises(DatasetFormatError, match=message):
            load_shards(manifest)

    def test_empty_device_list(self, tmp_path):
        manifest, _ = self._saved(tmp_path)
        import json

        data = json.loads(manifest.read_text())
        data["devices"] = []
        manifest.write_text(json.dumps(data))
        message = r"^manifest\.json: at least one device required$"
        with pytest.raises(DatasetFormatError, match=message):
            load_shards(manifest)

    def test_test_set_must_cover_all_classes(self, tmp_path):
        manifest, _ = self._saved(tmp_path)
        target = tmp_path / "test.csv"
        lines = target.read_text().splitlines()
        target.write_text("\n".join(line for line in lines if not line.endswith(",2")) + "\n")
        message = r"^manifest\.json: test set must cover all classes$"
        with pytest.raises(DatasetFormatError, match=message):
            load_shards(manifest)

    def test_missing_shard_file(self, tmp_path):
        manifest, _ = self._saved(tmp_path)
        (tmp_path / "device_1.csv").unlink()
        with pytest.raises(DatasetFormatError, match=r"device_1\.csv: shard file not found"):
            load_shards(manifest)

    @pytest.mark.parametrize("key, value", [("input_dim", "abc"), ("num_classes", None)])
    def test_non_integer_count_names_the_manifest(self, tmp_path, key, value):
        manifest, _ = self._saved(tmp_path)
        import json

        data = json.loads(manifest.read_text())
        data[key] = value
        manifest.write_text(json.dumps(data))
        message = rf"manifest\.json: {key} must be an integer \({value!r}\)"
        with pytest.raises(DatasetFormatError, match=message):
            load_shards(manifest)

    @pytest.mark.parametrize("key, fraction", [("input_dim", 0.7), ("num_classes", 0.5)])
    def test_fractional_count_is_rejected_not_truncated(self, tmp_path, key, fraction):
        manifest, _ = self._saved(tmp_path)
        import json

        data = json.loads(manifest.read_text())
        data[key] += fraction  # truncated, it would load the saved dataset as it is
        manifest.write_text(json.dumps(data))
        message = rf"manifest\.json: {key} must be an integer \({data[key]!r}\)"
        with pytest.raises(DatasetFormatError, match=message):
            load_shards(manifest)

    def test_fractional_class_map_entry_is_rejected_not_truncated(self, tmp_path):
        manifest, _ = self._saved(tmp_path)
        import json

        data = json.loads(manifest.read_text())
        data["class_map"][1][0] += 0.5
        manifest.write_text(json.dumps(data))
        value = data["class_map"][1][0]
        message = rf"manifest\.json: class_map\[1\]\[0\] must be an integer \({value!r}\)"
        with pytest.raises(DatasetFormatError, match=message):
            load_shards(manifest)

    def test_devices_must_be_a_list(self, tmp_path):
        manifest, _ = self._saved(tmp_path)
        import json

        data = json.loads(manifest.read_text())
        data["devices"] = 5
        manifest.write_text(json.dumps(data))
        message = r"manifest\.json: devices must be a list of file names \(5\)"
        with pytest.raises(DatasetFormatError, match=message):
            load_shards(manifest)

    def test_device_entry_must_be_a_file_name(self, tmp_path):
        manifest, _ = self._saved(tmp_path)
        import json

        data = json.loads(manifest.read_text())
        data["devices"][0] = None
        manifest.write_text(json.dumps(data))
        message = r"manifest\.json: devices\[0\] must be a file name \(None\)"
        with pytest.raises(DatasetFormatError, match=message):
            load_shards(manifest)

    def test_test_entry_must_be_a_file_name(self, tmp_path):
        manifest, _ = self._saved(tmp_path)
        import json

        data = json.loads(manifest.read_text())
        data["test"] = 5
        manifest.write_text(json.dumps(data))
        message = r"manifest\.json: test must be a file name \(5\)"
        with pytest.raises(DatasetFormatError, match=message):
            load_shards(manifest)

    def test_non_integer_class_map_entry(self, tmp_path):
        manifest, _ = self._saved(tmp_path)
        import json

        data = json.loads(manifest.read_text())
        data["class_map"][1] = [data["class_map"][1][0], "two"]
        manifest.write_text(json.dumps(data))
        message = r"manifest\.json: class_map\[1\]\[1\] must be an integer \('two'\)"
        with pytest.raises(DatasetFormatError, match=message):
            load_shards(manifest)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DatasetFormatError, match=r"[/\\]nope: file not found$"):
            load_shards(tmp_path / "nope")

    @pytest.mark.parametrize(
        "text, message", [("{", "invalid JSON"), ('"devices"', "not a JSON object")],
        ids=["invalid", "not-an-object"],
    )
    def test_manifest_must_hold_a_json_object(self, tmp_path, text, message):
        manifest, _ = self._saved(tmp_path)
        manifest.write_text(text)
        with pytest.raises(DatasetFormatError, match=rf"^manifest\.json: {message}"):
            load_shards(manifest)

    def test_undeclared_label_rejected(self, tmp_path):
        manifest, ds = self._saved(tmp_path)
        import json

        data = json.loads(manifest.read_text())
        declared, undeclared = data["class_map"][0]
        data["class_map"][0] = [declared]
        manifest.write_text(json.dumps(data))
        message = (
            rf"^manifest\.json: device 0 \(device_0\.csv\): labels \[{undeclared}\]"
            r" not in class_map$"
        )
        with pytest.raises(DatasetFormatError, match=message):
            load_shards(manifest)
