"""Each device round's random stream, seeded as numpy seeds it, for every device at once.

Round r of device i draws from the PCG64 generator numpy seeds in two hashes:
its seed sequence hashes (seed, i, r) to one 32-bit word (`generate_state(1)`),
and numpy's default generator, built from that word, hashes it again to
PCG64's 128-bit seed and increment. `RoundStreams` gives that generator's
`bit_generator.state`, bit for bit, without either hash per round; its caller
sets the state on a generator it reuses. It holds each device's next `WINDOW`
rounds as their PCG64 seed words, one [N, WINDOW, 4] uint64 array, and a
round outside its device's window refills every device's window from that
device's next round.

A fill runs numpy's seed-sequence algorithm (`mix_entropy` over a pool of 4
words, then `generate_state`) in uint32 arithmetic over the whole array, with
the data-independent hash constants as Python ints. An int's entropy is its
little-endian 32-bit words, [0] for 0, so (seed, i, r) is the seed's words
followed by one word each for i and r; an index of 2**32 or more would add a
word, so `round_words` rejects it. Words past the pool's 4 (a seed of 2**64 or
more) go through `mix_entropy`'s third loop. The seed words become the state
as `pcg_setseq_128_srandom_r` makes it, in Python ints.

Filling all N devices' windows at once is what makes this pay. A fill is
about 400 numpy calls whatever its size, so over one training block's 16
rounds it costs about 16 µs a round, against 29 µs for numpy's two hashes,
but over N = 100 devices' windows 0.37 µs a state (0.09 at N = 1000); a
lookup and the state setter add about 4.5 µs a round (best of 5 timings on a
2-core Xeon container, one BLAS thread).
"""

from __future__ import annotations

import itertools

import numpy as np

MASK32, MASK128 = 0xFFFFFFFF, (1 << 128) - 1
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
POOL_SIZE = 4
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# Rounds each device's window holds.
WINDOW = 16


def _words(value: int) -> list[int]:
    """The entropy words of a non-negative int: little-endian 32-bit words, [0] for 0."""
    return [value >> shift & MASK32 for shift in range(0, max(value.bit_length(), 1), 32)]


def _hasher(h: int, mult: int):
    """The seed sequence's `hashmix`, from hash constant `h`: each call XORs the constant
    in, steps it by `mult` and multiplies by it. A value is an int or a uint32 array."""

    def hashmix(value):
        nonlocal h
        value = value ^ h
        h = h * mult & MASK32
        value = value * h & MASK32
        return value ^ value >> 16

    return hashmix


def _pool(entropy: list) -> list:
    """The seed sequence's `mix_entropy`; each word is an int or a uint32 array.

    The words broadcast: once any is an array, every pool word comes out as
    an array of their broadcast shape.
    """
    hashmix = _hasher(INIT_A, MULT_A)

    def mix(x, y):
        value = ((MIX_MULT_L * x & MASK32) - (MIX_MULT_R * y & MASK32)) & MASK32
        return value ^ value >> 16

    pool = [hashmix(entropy[k] if k < len(entropy) else 0) for k in range(POOL_SIZE)]
    for src, dst in itertools.permutations(range(POOL_SIZE), 2):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word, dst in itertools.product(entropy[POOL_SIZE:], range(POOL_SIZE)):
        pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _generate_state(pool: list, n_words: int) -> list:
    """The seed sequence's `generate_state` of `n_words` uint32 words."""
    hashmix = _hasher(INIT_B, MULT_B)
    return [hashmix(pool[k % POOL_SIZE]) for k in range(n_words)]


def round_words(seed: int, devices: np.ndarray, rounds: np.ndarray) -> np.ndarray:
    """PCG64's seed words (seed high, seed low, increment high, low) for each (device, round).

    `devices` and `rounds` are integer arrays that broadcast; the result has
    their shape plus a last axis of 4 uint64 words.
    """
    assert devices.min() >= 0 and rounds.min() >= 0
    assert devices.max() <= MASK32 and rounds.max() <= MASK32, "an index takes one word"
    entropy = [*_words(int(seed)), devices.astype(np.uint32), rounds.astype(np.uint32)]
    (word,) = _generate_state(_pool(entropy), 1)
    # PCG64 takes 4 uint64 words from the seed sequence of `word`: 8 uint32 words,
    # in native byte order.
    return np.stack(_generate_state(_pool([word]), 8), axis=-1).view(np.uint64)


def pcg64_state(s_hi: int, s_lo: int, i_hi: int, i_lo: int) -> dict:
    """The `bit_generator.state` of a PCG64 seeded with these words."""
    inc = ((i_hi << 64 | i_lo) << 1 | 1) & MASK128
    state = ((inc + (s_hi << 64 | s_lo)) * PCG_MULT + inc) & MASK128
    pcg = {"state": state, "inc": inc}
    return {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}


class RoundStreams:
    """The PCG64 state of every round of `num_devices` devices, rounds counted from `offset`.

    `state(i, r)` is the state numpy's chain gives (seed, i, offset + r). A
    device may ask for any round, but one outside its window refills every
    device's window, so a caller asks for each device's rounds in order.
    """

    def __init__(self, seed: int, num_devices: int, offset: int):
        self.seed, self.offset = seed, offset
        self._next = [0] * num_devices  # each device's next round
        self._base = [-WINDOW] * num_devices  # each window's first round; none is filled yet
        self._window: np.ndarray | None = None

    def state(self, device: int, r: int) -> dict:
        k = r - self._base[device]
        if not 0 <= k < WINDOW:
            self._next[device] = r
            self._base = list(self._next)
            rounds = np.array(self._next)[:, None] + np.arange(self.offset, self.offset + WINDOW)
            self._window = round_words(self.seed, np.arange(len(self._next))[:, None], rounds)
            k = 0
        self._next[device] = r + 1
        return pcg64_state(*self._window[device, k].tolist())
