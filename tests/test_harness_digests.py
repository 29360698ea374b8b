from harness_digests import compare


def test_compare_names_each_difference():
    previous = {"a/seed1/replica0": "x", "b/seed1/replica0": "y", "c/seed1/replica0": "z"}
    now = {"a/seed1/replica0": "x", "b/seed1/replica0": "Y", "d/seed1/replica0": "w"}
    assert compare(previous, previous) == []
    assert compare(now, previous) == [
        "differs: b/seed1/replica0",
        "missing: c/seed1/replica0 (not in this run)",
        "missing: d/seed1/replica0 (not in the previous run)",
    ]
