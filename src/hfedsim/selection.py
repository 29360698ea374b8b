"""Gateway-level device selection and cloud-level device-gateway association.

Selection is a 0-1 knapsack: maximize utility-per-latency of dispatched
devices subject to the gateway's bandwidth cap on the summed average data
rates. Association is a min-max program: maximize the worst gateway's utility
sum minus phi times the worst bandwidth-utilization ratio, with each device
attached to exactly one feasible gateway when it has any. The solvers return
each device's gateway as `gateway_of` holds it: -1 for a device with no link,
which counts towards no gateway's sums.

Selection is solved exactly by branch and bound up to
`EXACT_SELECTION_LIMIT` rows that survive its filter, and greedily beyond.
Association takes the run's own tables as they are, and writes none of them:
the [N, G] 0/1 link array, each device's utility, and each link's rate over
its gateway's cap as nested lists. It lists each device's options once, its
feasible gateways or [-1], and both paths read them. It is solved exactly by
scoring every assignment when there are at most `EXACT_ASSOCIATION_LIMIT` of
them (the product of the options' lengths, so a device with no link counts
1), and by a greedy+local-search heuristic beyond. So the path follows the
reachable choices: devices with no link do not change it. The plain
exhaustive oracles that check the exact solvers live with the tests.

The heuristic's local search moves one device at a time and accepts a move
only if the objective, summed afresh over the two gateways it touches, beats
the best so far. It keeps `lo`, the gateway with the lowest utility sum, and
`hi`, the one with the highest rate sum. A move that touches neither copies
`sums_u[lo]` and `sums_r[hi]` unchanged, so its minimum utility sum is at most
`best`'s and its maximum rate sum at least `best`'s. Float min, max, product
with phi >= 0 and subtraction are monotone, so the move cannot beat `best`,
and it is skipped without re-summing.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Iterable

import numpy as np

from .errors import ConfigurationError

EXACT_SELECTION_LIMIT = 25  # branch-and-bound beyond this degrades to greedy
EXACT_ASSOCIATION_LIMIT = 2**15  # assignments; more take the heuristic


def solve_selection(rows, bandwidth: float, kappa: float = 1.0) -> list[int]:
    """The devices to dispatch, ascending, maximizing total utility-per-latency value.

    Each row is `(device, utility, latency, rate)`: the learning utility, the
    round-latency estimate in seconds and the average data rate on the link
    in bytes/s. A row's value is `utility * (1 / latency) ** kappa`; a row
    with value <= 0 or a rate above `bandwidth` is dropped. The branch and
    bound seeds its incumbent with the greedy fill and prunes a subtree whose
    bound only equals it, so among picks of equal value it keeps the greedy's
    density-first pick, not the smallest ids.
    """
    if bandwidth <= 0 or kappa < 0:
        raise ConfigurationError("bandwidth must be > 0 and kappa >= 0")
    items = []
    for dev, u, tau, rate in sorted(rows):
        if tau <= 0 or rate <= 0:
            raise ConfigurationError(f"device {dev}: tau and rate must be > 0")
        value = u * (1.0 / tau) ** kappa
        if value <= 0 or rate > bandwidth:
            continue
        items.append((dev, value, rate))
    if len(items) <= EXACT_SELECTION_LIMIT:
        return _knapsack_branch_and_bound(items, bandwidth)
    return _knapsack_greedy(items, bandwidth)


def ordered_sum(values: Iterable[float]) -> float:
    """The floats added left to right from 0.0, on every Python version.

    Traces depend on how a sum rounds. `sum()` of floats is compensated from
    Python 3.12 and `np.sum` is pairwise, so either can differ from this
    in the last bit.
    """
    total = 0.0
    for v in values:
        total += v
    return total


def fill_capacity(pairs: list[tuple[int, float]], capacity: float) -> list[int]:
    """Greedy cap fill: the devices of the (device, rate) pairs, in order, that fit.

    A pair is taken while `load + rate <= capacity`; one that does not fit is
    skipped, and the fill goes on to the next.
    """
    chosen, load = [], 0.0
    for dev, rate in pairs:
        if load + rate <= capacity:
            chosen.append(dev)
            load += rate
    return chosen


def _knapsack_greedy(items, capacity) -> list[int]:
    order = sorted(items, key=lambda it: (-it[1] / it[2], it[0]))
    return sorted(fill_capacity([(dev, rate) for dev, _, rate in order], capacity))


def _knapsack_branch_and_bound(items, capacity) -> list[int]:
    order = sorted(items, key=lambda it: (-it[1] / it[2], it[0]))
    n = len(order)
    # Seed the incumbent with the greedy solution so the fractional bound
    # prunes aggressively from the start.
    best_ids = _knapsack_greedy(items, capacity)
    best_value = ordered_sum(v for dev, v, _ in items if dev in best_ids)

    def bound(level, load, value):
        # Fractional relaxation from this level on, in density order.
        cap = capacity - load
        out = value
        for k in range(level, n):
            _, v, r = order[k]
            if r <= cap:
                cap -= r
                out += v
            else:
                return out + v * cap / r
        return out

    def walk(level, load, value, ids):
        nonlocal best_value, best_ids
        # Of the picks the walk reaches, a tie goes to the smaller sorted ids.
        if value > best_value or (value == best_value and sorted(ids) < best_ids):
            best_value, best_ids = value, sorted(ids)
        if level == n or bound(level, load, value) <= best_value:
            return
        dev, v, r = order[level]
        if load + r <= capacity:
            ids.append(dev)
            walk(level + 1, load + r, value + v, ids)
            ids.pop()
        walk(level + 1, load, value, ids)

    walk(0, 0.0, 0.0, [])
    return best_ids


def _objective(assign, u: list[float], ratio: list[list[float]], phi: float, g: int) -> float:
    """Min over gateways of the assigned utility sum, minus phi times the max rate-ratio sum.

    Each gateway's sums run in device order from 0.0; a device at -1 counts nowhere.
    """
    sums_u = [0.0] * g
    sums_r = [0.0] * g
    for i, j in enumerate(assign):
        if j >= 0:
            sums_u[j] += u[i]
            sums_r[j] += ratio[i][j]
    return min(sums_u) - phi * max(sums_r)


def solve_association(
    feasible: np.ndarray, u: list[float], ratio: list[list[float]], phi: float
) -> list[int]:
    """Each device's gateway, maximizing min-utility minus phi * max-rate-ratio.

    `feasible` is the [N, G] 0/1 link table, `u` each device's utility and
    `ratio[i][j]` device i's rate on gateway j over j's cap; only linked pairs
    are read, and none of the three is written. A device with no feasible
    gateway gets -1, as `gateway_of` holds it. With at most
    `EXACT_ASSOCIATION_LIMIT` assignments every one is scored: `product`
    yields them in lexicographic order and `max` keeps the first best, so a
    tie goes to the lexicographically smallest list.
    """
    n, g = feasible.shape
    if len(u) != n or len(ratio) != n or any(len(row) != g for row in ratio):
        raise ConfigurationError("association instance shapes are inconsistent")
    if phi < 0:
        raise ConfigurationError("phi must be >= 0")
    # Read once from `tolist()`: indexing the array entry by entry makes a
    # numpy scalar each time.
    options = [[j for j, f in enumerate(row) if f] or [-1] for row in feasible.tolist()]
    if math.prod(len(o) for o in options) > EXACT_ASSOCIATION_LIMIT:
        return _association_heuristic(options, u, ratio, phi, g)
    return list(max(itertools.product(*options), key=lambda a: _objective(a, u, ratio, phi, g)))


def _gateway_sums(
    members: list[int], j: int, u: list[float], ratio: list[list[float]]
) -> tuple[float, float]:
    """Utility and rate-ratio sums of gateway j over `members`, in device order."""
    # `+=` from 0.0 in device order repeats, float for float, what summing
    # the whole assignment in device order gives this gateway, as
    # `ordered_sum` would. One loop adds both: two `ordered_sum` passes take
    # about 2.4 times as long on the association's hot path.
    su = sr = 0.0
    for i in members:
        su += u[i]
        sr += ratio[i][j]
    return su, sr


def _association_heuristic(
    options: list[list[int]], u: list[float], ratio: list[list[float]], phi: float, g: int
) -> list[int]:
    """`solve_association` beyond the limit; `options[i]` is device i's gateways, or [-1]."""
    n = len(options)

    # Construction: every device joins the feasible gateway with the lowest
    # bandwidth-normalized load (utility sum as tie-break), giving a
    # bandwidth-proportional starting allocation. The local search below then
    # repairs worst-gateway utility violations from there.
    assign = [-1] * n
    sums_u = [0.0] * g
    sums_r = [0.0] * g
    for i in sorted(range(n), key=lambda i: (-u[i], i)):
        if options[i] != [-1]:
            j = min(options[i], key=lambda j: (sums_r[j] + ratio[i][j], sums_u[j], j))
            assign[i] = j
            sums_u[j] += u[i]
            sums_r[j] += ratio[i][j]

    # Single-device reassignment until no move improves the objective. The
    # objective always comes from fresh per-gateway sums, so a given
    # assignment always evaluates to the same float and strict-improvement
    # search cannot cycle on drift. A move changes only the sums of the two
    # gateways it touches; the others are reused.
    members: list[list[int]] = [[] for _ in range(g)]
    for i, j in enumerate(assign):
        if j >= 0:
            members[j].append(i)
    for j in range(g):
        sums_u[j], sums_r[j] = _gateway_sums(members[j], j, u, ratio)
    # A move that touches neither `lo` nor `hi` cannot beat `best` (see the
    # module docstring).
    lo = min(range(g), key=sums_u.__getitem__)
    hi = max(range(g), key=sums_r.__getitem__)
    best = min(sums_u) - phi * max(sums_r)
    for _ in range(200):  # safety cap; strict improvement terminates long before
        improved = False
        for i in range(n):
            here = assign[i]
            for j in options[i]:
                if j == here:  # so a device at -1, whose one option is -1, never moves
                    continue
                if lo != here and lo != j and hi != here and hi != j:
                    continue
                cand_u, cand_r = sums_u.copy(), sums_r.copy()
                left = [k for k in members[here] if k != i]
                cand_u[here], cand_r[here] = _gateway_sums(left, here, u, ratio)
                joined = members[j].copy()
                bisect.insort(joined, i)
                cand_u[j], cand_r[j] = _gateway_sums(joined, j, u, ratio)
                cand = min(cand_u) - phi * max(cand_r)
                if cand > best:
                    members[here], members[j] = left, joined
                    best, sums_u, sums_r = cand, cand_u, cand_r
                    assign[i] = here = j
                    improved = True
                    lo = min(range(g), key=sums_u.__getitem__)
                    hi = max(range(g), key=sums_r.__getitem__)
        if not improved:
            break
    return assign
