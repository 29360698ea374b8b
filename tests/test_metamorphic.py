"""Metamorphic relations: changes to a run's input that must leave its output alone.

A golden digest pins today's bits; a relation here holds for any correct
simulator, so it survives a re-capture of the goldens.

Null faults: a slowdown by 1.0, a restore of a device that was never dropped,
and a drop due after the run has ended each change nothing. Every mode runs
`small_config` at seeds 0-3; each base run ends `done`, and each run with one
of the faults added must give the base run's `digest`.
"""

import pytest

from hfedsim.network import FaultEvent
from hfedsim.simulator import MODES, run
from simtools import digest, small_config, uniform_topology

N, G = 6, 2
SEEDS = range(4)


def null_faults(end_time: float) -> dict[str, FaultEvent]:
    """Each fault is due while the base run, which ended at `end_time`, is going, except the late drop."""
    return {
        "slowdown-by-1": FaultEvent(end_time / 2, 0, "slowdown", 1.0),
        "restore-never-dropped": FaultEvent(end_time / 3, 1, "restore"),
        "drop-after-the-end": FaultEvent(end_time + 1.0, 2, "drop"),
    }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode", list(MODES))
def test_null_faults_change_nothing(mode, seed):
    base = run(small_config(mode=mode, n=N, g=G, seed=seed))
    assert base.stop_reason == "done"
    want = digest(base)
    for name, fault in null_faults(base.end_time).items():
        topo = uniform_topology(N, G, sigma=0.5, faults=[fault])
        got = run(small_config(mode=mode, n=N, g=G, seed=seed, topology=topo))
        assert got.stop_reason == "done", name
        assert digest(got) == want, name
