"""`streams` gives each device round the PCG64 state numpy's own seeding gives it.

The oracle is `simtools.round_stream`: `default_rng` of the one word that
`SeedSequence((seed, device, r))` hashes to. The seeds cover one, two and
three or more entropy words (2**64 and up take `mix_entropy`'s third loop).
"""

import numpy as np
import pytest

from hfedsim.simulator import REFRESH_ROUND
from hfedsim.streams import WINDOW, RoundStreams, pcg64_state, round_words
from simtools import round_stream

EDGE_SEEDS = [0, 1, 7, 2**31, 2**32 - 1, 2**32, 2**40 + 5, 2**76 + 12345]


def test_drawn_rounds_match_numpy():
    rng = np.random.default_rng(2024)
    per_seed = 500
    for seed in EDGE_SEEDS:
        devices = rng.integers(0, 2000, per_seed)
        rounds = rng.integers(0, 10_000_100, per_seed)
        rounds[:4] = [0, 1, REFRESH_ROUND, REFRESH_ROUND + 1]
        words = round_words(seed, devices, rounds)
        for i, r, w in zip(devices.tolist(), rounds.tolist(), words.tolist()):
            assert pcg64_state(*w) == round_stream(seed, i, r), (seed, i, r)


@pytest.mark.parametrize("seed", [np.uint32(3_000_000_000), np.int64(5), 2**76 + 12345])
@pytest.mark.parametrize("offset", [0, REFRESH_ROUND])
def test_table_matches_numpy_across_refills(seed, offset):
    # Devices ask in interleaved orders and at different paces, so windows run
    # out at different times and each refill restarts every device's window
    # at its own next round; device 4 asks for nothing until round 3.
    n = 5
    table = RoundStreams(seed, n, offset)
    asked = [0] * n
    order = np.random.default_rng(9).choice(n - 1, 8 * WINDOW, p=[0.5, 0.3, 0.15, 0.05])
    for i in [*order.tolist(), 4, 4, 4]:
        r = asked[i] + (3 if i == 4 and asked[i] == 0 else 0)
        assert table.state(i, r) == round_stream(seed, i, offset + r), (i, r)
        asked[i] = r + 1
    assert max(asked) > 2 * WINDOW


def test_a_round_outside_the_window_refills_it():
    # A device that skips ahead, or asks again for an earlier round, is refilled there.
    table = RoundStreams(11, 3, 0)
    for i, r in [(0, 0), (1, 0), (0, 100), (1, 1), (0, 5), (2, 7), (2, 40), (0, 6)]:
        assert table.state(i, r) == round_stream(11, i, r), (i, r)

