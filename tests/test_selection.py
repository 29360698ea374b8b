import copy
import itertools
import math

import numpy as np
import pytest

from hfedsim.errors import ConfigurationError
from hfedsim.network import TopologySpec, est_rate, gen_topology
from hfedsim.selection import (
    EXACT_ASSOCIATION_LIMIT,
    EXACT_SELECTION_LIMIT,
    fill_capacity,
    ordered_sum,
    solve_association,
    solve_selection,
)
from hfedsim.selection import (
    _association_heuristic,
    _knapsack_branch_and_bound,
    _knapsack_greedy,
)

BRUTE_SELECTION_LIMIT = 20
BRUTE_ASSOCIATION_LIMIT = 2**22


class InstanceTooLargeError(ValueError):
    """A brute-force oracle refused an instance beyond its enumeration limit."""


def assert_within_feasibility(out: list[int], feasible: np.ndarray) -> None:
    """One entry per device: a gateway it can reach, or -1 if it can reach none."""
    assert len(out) == len(feasible)
    assert all(
        feasible[i].any() == (j >= 0) and (j < 0 or feasible[i, j])
        for i, j in enumerate(out)
    )


def selection_value(u: float, tau: float, kappa: float) -> float:
    """A row's utility per latency, as the paper's gateway objective weighs it."""
    return u * (1.0 / tau) ** kappa


def selection_objective(rows, kappa: float, chosen: list[int]) -> float:
    return sum(selection_value(u, tau, kappa) for dev, u, tau, _ in rows if dev in chosen)


def selection_load(rows, chosen: list[int]) -> float:
    return sum(rate for dev, _, _, rate in rows if dev in chosen)


def selection_items(rows, bandwidth: float, kappa: float) -> list[tuple[int, float, float]]:
    """(device, value, rate) of the rows the knapsack considers, in device order."""
    items = [(dev, selection_value(u, tau, kappa), rate) for dev, u, tau, rate in sorted(rows)]
    return [it for it in items if it[1] > 0 and it[2] <= bandwidth]


def random_selection_instance(rng, n=None, kappa=None):
    """(rows, bandwidth, kappa): the arguments of `solve_selection`."""
    n = n if n is not None else int(rng.integers(0, 13))
    rows = [
        (
            i,
            float(rng.normal(0.5, 1.0)),
            float(rng.uniform(0.5, 60.0)),
            float(rng.uniform(1.0, 20.0)),
        )
        for i in range(n)
    ]
    bandwidth = float(rng.uniform(5.0, 70.0))
    kappa = float(rng.choice([0.0, 0.5, 1.0, 2.0])) if kappa is None else kappa
    return rows, bandwidth, kappa


def association_args(feasible, u, rates, bandwidth, phi):
    """(feasible, u, ratio, phi), the arguments of `solve_association`: `ratio` is
    each link's rate over its gateway's cap, as the simulator divides them."""
    return feasible, np.asarray(u).tolist(), (rates / bandwidth[None, :]).tolist(), phi


def association_options(feasible) -> list[list[int]]:
    """Each device's feasible gateways in order, or [-1] if it has none."""
    n, g = feasible.shape
    return [[j for j in range(g) if feasible[i, j]] or [-1] for i in range(n)]


def association_score(assign, u, ratio, phi: float, g: int) -> float:
    """Min over gateways of the utility sum, minus phi times the max rate-ratio sum.

    Each gateway's sums run in device order from 0.0; a device at -1 counts nowhere.
    """
    sums_u = [0.0] * g
    sums_r = [0.0] * g
    for i, j in enumerate(assign):
        if j >= 0:
            sums_u[j] += u[i]
            sums_r[j] += ratio[i][j]
    return min(sums_u) - phi * max(sums_r)


def heuristic_association(feasible, u, ratio, phi) -> list[int]:
    """`_association_heuristic` on an instance, whatever its assignment count."""
    return _association_heuristic(association_options(feasible), u, ratio, phi, feasible.shape[1])


def random_association_instance(rng, n=None, g=None):
    n = n if n is not None else int(rng.integers(1, 9))
    g = g if g is not None else int(rng.integers(1, 4))
    feasible = (rng.random((n, g)) < 0.75).astype(np.int8)
    return association_args(
        feasible,
        u=rng.normal(0.5, 1.0, n),
        rates=rng.uniform(1.0, 20.0, (n, g)),
        bandwidth=rng.uniform(10.0, 60.0, g),
        phi=float(rng.choice([0.0, 0.1, 0.5])),
    )


def brute_force_selection(rows, bandwidth: float, kappa: float = 1.0) -> list[int]:
    """Exhaustive optimum over all row subsets; refuses large instances.

    Among subsets of equal value it returns the lexicographically smallest
    sorted ids. A row of value <= 0 never raises a subset's value, so it is
    left out; a subset over the cap is infeasible.
    """
    if len(rows) > BRUTE_SELECTION_LIMIT:
        raise InstanceTooLargeError(
            f"{len(rows)} rows exceeds brute-force limit {BRUTE_SELECTION_LIMIT}"
        )
    items = [(dev, selection_value(u, tau, kappa), rate) for dev, u, tau, rate in sorted(rows)]
    items = [it for it in items if it[1] > 0]
    best_value, best_ids = 0.0, []
    for mask in range(1 << len(items)):
        picked = [it for k, it in enumerate(items) if mask >> k & 1]
        value = load = 0.0
        for _, v, r in picked:
            value += v
            load += r
        ids = [dev for dev, _, _ in picked]
        if load > bandwidth:
            continue
        if value > best_value or (value == best_value and ids < best_ids):
            best_value, best_ids = value, ids
    return best_ids


def brute_force_association(feasible, u, ratio, phi) -> list[int]:
    """Exhaustive optimum over every feasible assignment; refuses large instances.

    Among assignments of equal value it returns the lexicographically smallest.
    """
    g = feasible.shape[1]
    option_lists = association_options(feasible)
    total = 1
    for opts in option_lists:
        total *= len(opts)
        if total > BRUTE_ASSOCIATION_LIMIT:
            raise InstanceTooLargeError(
                f"assignment space exceeds brute-force limit {BRUTE_ASSOCIATION_LIMIT}"
            )
    best_obj = -float("inf")
    best_combo = None
    for combo in itertools.product(*option_lists):
        obj = association_score(combo, u, ratio, phi, g)
        if obj > best_obj or (obj == best_obj and combo < best_combo):
            best_obj, best_combo = obj, combo
    assert best_combo is not None
    return list(best_combo)


def reference_association_heuristic(feasible, u, ratio, phi) -> list[int]:
    """The heuristic as it was before per-gateway sums: every trial move re-sums all devices."""
    n, g = feasible.shape

    # Construction: every device joins the feasible gateway with the lowest
    # bandwidth-normalized load (utility sum as tie-break), giving a
    # bandwidth-proportional starting allocation. The local search below then
    # repairs worst-gateway utility violations from there.
    assign = [-1] * n
    sums_u = [0.0] * g
    sums_r = [0.0] * g
    for i in sorted(range(n), key=lambda i: (-u[i], i)):
        feas = [j for j in range(g) if feasible[i, j]]
        if feas:
            j = min(feas, key=lambda j: (sums_r[j] + ratio[i][j], sums_u[j], j))
            assign[i] = j
            sums_u[j] += u[i]
            sums_r[j] += ratio[i][j]

    # Single-device reassignment until no move improves the objective, summed
    # afresh every time: a given assignment always evaluates to the same
    # float, so strict-improvement search cannot cycle on drift.
    options = association_options(feasible)
    best = association_score(assign, u, ratio, phi, g)
    for _ in range(200):  # safety cap; strict improvement terminates long before
        improved = False
        for i in range(n):
            here = assign[i]
            for j in options[i]:
                if j == here:
                    continue
                assign[i] = j
                cand = association_score(assign, u, ratio, phi, g)
                if cand > best:
                    best = cand
                    here = j
                    improved = True
                else:
                    assign[i] = here
        if not improved:
            break
    return assign


def oracle_association_instance(rng):
    """Mixed-sign utilities, some repeated, and some devices with no feasible gateway.

    Every other instance draws utilities and rates from a few decimals such as
    0.1 and 0.3, whose float sums depend on the order of addition. Many moves
    then tie or nearly tie, so a solver that sums in another order than the
    reference picks other moves.
    """
    n = int(rng.integers(2, 61))
    g = int(rng.integers(1, 9))
    feasible = (rng.random((n, g)) < rng.uniform(0.2, 1.0)).astype(np.int8)
    feasible[rng.random(n) < 0.1] = 0
    if rng.random() < 0.5:
        u = rng.choice([-0.3, -0.1, 0.1, 0.2, 0.3, 0.7], n)
        rates = rng.choice([1.1, 2.2, 3.3], (n, g))
        bandwidth = rng.choice([10.0, 30.0], g)
    else:
        u = rng.normal(0.0, 1.0, n)
        repeats = rng.random(n) < 0.3
        u[repeats] = rng.choice(u, int(repeats.sum()))
        rates = rng.uniform(1.0, 20.0, (n, g))
        bandwidth = rng.uniform(10.0, 200.0, g)
    return association_args(
        feasible, u, rates, bandwidth, phi=float(rng.choice([0.0, 0.1, 1.0, 10.0]))
    )


def adversarial_association_instance(rng, case):
    """Instances at the edges of the heuristic's move skip (see the `selection` docstring).

    exact-ties: all-equal utilities, integer rates and equal caps, so many
    moves tie `best` exactly, and the lowest utility or highest rate sum is
    often shared by several gateways. phi-extremes: phi 0 (rates ignored) or
    1e3 (rates dominate). wide-range: utilities from 1e-12 to 1e12 in
    magnitude, where a re-summed gateway can round far from its cached sum
    plus or minus the moved term. two-gateways: every move touches both
    gateways, so none is skipped.
    """
    n = int(rng.integers(2, 41))
    g = 2 if case == "two-gateways" else int(rng.integers(2, 9))
    feasible = (rng.random((n, g)) < rng.uniform(0.3, 1.0)).astype(np.int8)
    u = rng.normal(0.0, 1.0, n)
    rates = rng.uniform(1.0, 20.0, (n, g))
    bandwidth = rng.uniform(10.0, 200.0, g)
    phi = float(rng.choice([0.0, 0.1, 1.0]))
    if case == "exact-ties":
        u = np.full(n, float(rng.choice([0.0, 0.1, 1.0, 3.0])))
        rates = rng.integers(1, 4, (n, g)).astype(float)
        bandwidth = np.full(g, float(rng.integers(5, 30)))
    elif case == "phi-extremes":
        phi = float(rng.choice([0.0, 1e3]))
    elif case == "wide-range":
        u = 10.0 ** rng.uniform(-12, 12, n)
        if rng.random() < 0.5:
            u *= rng.choice([-1.0, 1.0], n)
    return association_args(feasible, u, rates, bandwidth, phi)


class TestInstanceValidation:
    @pytest.mark.parametrize(
        "bandwidth, kappa, tau, rate, message",
        [
            (0.0, 1.0, 1.0, 1.0, "bandwidth must be > 0 and kappa >= 0"),
            (10.0, -0.5, 1.0, 1.0, "bandwidth must be > 0 and kappa >= 0"),
            (10.0, 1.0, 0.0, 1.0, "device 7: tau and rate must be > 0"),
            (10.0, 1.0, 1.0, -2.0, "device 7: tau and rate must be > 0"),
        ],
        ids=["bandwidth", "kappa", "tau", "rate"],
    )
    def test_selection_instance_rejects(self, bandwidth, kappa, tau, rate, message):
        rows = [(3, 1.0, 1.0, 1.0), (7, 1.0, tau, rate)]
        with pytest.raises(ConfigurationError, match=message):
            solve_selection(rows, bandwidth, kappa)

    @pytest.mark.parametrize(
        "change, message",
        [
            (dict(u=[1.0, 1.0]), "shapes are inconsistent"),
            (dict(ratio=[[1.0]] * 3), "shapes are inconsistent"),
            (dict(ratio=[[1.0] * 3] * 3), "shapes are inconsistent"),
            (dict(ratio=[[1.0, 1.0]] * 2), "shapes are inconsistent"),
            (dict(phi=-0.1), "phi must be >= 0"),
        ],
        ids=["u", "rates", "bandwidth-shape", "ratio-rows", "phi"],
    )
    def test_association_instance_rejects(self, change, message):
        # `ratio` is the rates over the caps: a rate table or a cap list of
        # the wrong width gives rows of the wrong length.
        args = dict(
            feasible=np.ones((3, 2), dtype=np.int8), u=[1.0] * 3, ratio=[[0.2, 0.2]] * 3, phi=0.1
        )
        solve_association(**args)
        with pytest.raises(ConfigurationError, match=message):
            solve_association(**{**args, **change})


class TestSolveSelection:
    def test_nonpositive_utilities_select_nothing(self):
        rows = [(i, -abs(u), 1.0, 1.0) for i, u in enumerate([1.0, 0.0, 2.0])]
        assert solve_selection(rows, 100.0, 1.0) == []

    def test_single_fitting_candidate_selected(self):
        assert solve_selection([(3, 2.0, 5.0, 4.0)], 4.0) == [3]

    def test_empty_instance(self):
        assert solve_selection([], 1.0) == []
        assert brute_force_selection([], 1.0) == []

    def test_returns_the_devices_ascending(self):
        rows = [(9, 1.0, 1.0, 1.0), (2, 3.0, 1.0, 1.0), (5, 2.0, 1.0, 1.0)]
        assert solve_selection(rows, 10.0) == [2, 5, 9]
        # The greedy fill takes devices 29, 28, ... (densest first).
        rows = [(i, float(i), 1.0, 1.0) for i in reversed(range(1, EXACT_SELECTION_LIMIT + 5))]
        assert solve_selection(rows, 3.0) == [27, 28, 29]

    def test_matches_brute_force_on_200_random_instances(self):
        rng = np.random.default_rng(100)
        for _ in range(200):
            rows, bandwidth, kappa = random_selection_instance(rng)
            got = solve_selection(rows, bandwidth, kappa)
            assert got == brute_force_selection(rows, bandwidth, kappa)
            assert selection_load(rows, got) <= bandwidth

    def test_ties_keep_the_greedy_pick_not_the_smallest_ids(self):
        # Both rows are worth 1.0 and only one fits. The greedy fill takes
        # device 1, the denser, and seeds the incumbent; the walk prunes the
        # subtree holding device 0 since its bound only equals that value.
        rows = [(0, 1.0, 1.0, 2.0), (1, 1.0, 1.0, 1.0)]
        assert solve_selection(rows, 2.0) == [1]
        assert brute_force_selection(rows, 2.0) == [0]

    def test_single_item_instances_match_exactly(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            inst = random_selection_instance(rng, n=1)
            assert solve_selection(*inst) == brute_force_selection(*inst)

    def test_bandwidth_monotonicity(self):
        rng = np.random.default_rng(102)
        for _ in range(50):
            rows, bandwidth, kappa = random_selection_instance(rng, n=10)
            bigger = solve_selection(rows, bandwidth * 2, kappa)
            assert selection_objective(rows, kappa, bigger) >= (
                selection_objective(rows, kappa, solve_selection(rows, bandwidth, kappa)) - 1e-12
            )

    def test_kappa_zero_ignores_latency(self):
        rng = np.random.default_rng(103)
        rows, bandwidth, _ = random_selection_instance(rng, n=9, kappa=0.0)
        shuffled_taus = rng.permutation([tau for _, _, tau, _ in rows]).tolist()
        permuted = [(dev, u, t, rate) for (dev, u, _, rate), t in zip(rows, shuffled_taus)]
        assert solve_selection(rows, bandwidth, 0.0) == solve_selection(permuted, bandwidth, 0.0)

    @staticmethod
    def limit_instance(n):
        """n rows that survive the filter, on which the greedy fill misses the optimum.

        Device 0 is the densest (value 1, rate 1), so the greedy fill takes it
        first and then fits nothing else; device 1 alone (value 9.5, rate 10)
        fills the cap and is the optimum. The other rows are worth 1e-3 each
        at rate 9.5, so none fits beside device 0 or device 1.
        """
        rows = [(0, 1.0, 1.0, 1.0), (1, 9.5, 1.0, 10.0)]
        rows += [(i, 1e-3, 1.0, 9.5) for i in range(2, n)]
        return rows, 10.0

    def test_exact_up_to_the_limit(self):
        rows, cap = self.limit_instance(EXACT_SELECTION_LIMIT)
        assert solve_selection(rows, cap) == [1] == brute_force_selection(rows[:20], cap)

    def test_greedy_beyond_the_limit(self):
        rows, cap = self.limit_instance(EXACT_SELECTION_LIMIT + 1)
        assert solve_selection(rows, cap) == [0]

    def test_dropped_rows_do_not_count_toward_the_limit(self):
        rows, cap = self.limit_instance(EXACT_SELECTION_LIMIT)
        n = len(rows)
        rows += [(n, 0.0, 1.0, 1.0), (n + 1, -2.0, 1.0, 1.0), (n + 2, 5.0, 1.0, cap * 1.5)]
        assert solve_selection(rows, cap) == [1]

    def test_large_instance_takes_the_greedy_path(self):
        rng = np.random.default_rng(105)
        rows, bandwidth, kappa = random_selection_instance(rng, n=60)
        items = selection_items(rows, bandwidth, kappa)
        assert len(items) > EXACT_SELECTION_LIMIT
        got = solve_selection(rows, bandwidth, kappa)
        assert got == _knapsack_greedy(items, bandwidth)
        assert got != _knapsack_branch_and_bound(items, bandwidth)
        assert 0 < len(got) < len(items)
        assert selection_load(rows, got) <= bandwidth

    def test_greedy_quality_report(self, capsys):
        rng = np.random.default_rng(104)
        ratios = []
        for _ in range(60):
            rows, bandwidth, kappa = random_selection_instance(rng, n=14)
            greedy = _knapsack_greedy(selection_items(rows, bandwidth, kappa), bandwidth)
            exact = selection_objective(rows, kappa, brute_force_selection(rows, bandwidth, kappa))
            if exact > 1e-9:
                ratios.append(selection_objective(rows, kappa, greedy) / exact)
        ratios = np.array(ratios)
        print(
            f"\nselection greedy/exact ratio: min={ratios.min():.3f} "
            f"median={np.median(ratios):.3f} mean={ratios.mean():.3f}"
        )
        assert ratios.min() > 0.5  # sanity floor; quality distribution printed above


class TestFillCapacity:
    def test_skips_a_pair_that_does_not_fit_and_takes_a_later_smaller_one(self):
        assert fill_capacity([(4, 6.0), (1, 5.0), (7, 3.0), (2, 1.0)], 10.0) == [4, 7, 2]

    def test_admits_a_pair_that_brings_the_load_exactly_to_the_cap(self):
        assert fill_capacity([(0, 0.25), (1, 0.5), (2, 0.25)], 1.0) == [0, 1, 2]
        assert fill_capacity([(3, 2.0)], 2.0) == [3]

    @pytest.mark.parametrize("pairs", [[], [(0, 3.0), (1, 2.5)]], ids=["empty", "all-over"])
    def test_nothing_fits(self, pairs):
        assert fill_capacity(pairs, 2.0) == []


def test_ordered_sum_adds_left_to_right():
    # `sum()` of floats is compensated from Python 3.12 and gives 1.0 here.
    assert ordered_sum([0.1] * 10) == 0.9999999999999999


class TestSolveAssociation:
    def test_single_gateway_gets_everyone(self):
        rng = np.random.default_rng(200)
        u = rng.uniform(0.1, 2.0, 5).tolist()
        ratio = (rng.uniform(1.0, 5.0, (5, 1)) / 100.0).tolist()
        out = solve_association(np.ones((5, 1), dtype=np.int8), u, ratio, 0.0)
        assert out == [0] * 5
        assert association_score(out, u, ratio, 0.0, 1) == pytest.approx(sum(u), rel=1e-12)

    def test_two_gateway_tie_breaks_to_gateway_zero(self):
        inst = np.ones((1, 2), dtype=np.int8), [1.5], [[0.3, 0.3]], 0.0
        out = solve_association(*inst)
        assert out == [0]
        # The empty gateway pins the min at zero.
        assert association_score(out, *inst[1:], 2) == 0.0
        assert brute_force_association(*inst) == [0]

    def test_infeasible_device_left_unassigned(self):
        feasible = np.array([[1, 1], [0, 0], [1, 0]], dtype=np.int8)
        out = solve_association(feasible, [1.0, 5.0, 1.0], [[0.2, 0.2]] * 3, 0.1)
        assert out[1] == -1
        assert_within_feasibility(out, feasible)

    def test_matches_brute_force_on_100_random_instances(self):
        rng = np.random.default_rng(201)
        for _ in range(100):
            inst = random_association_instance(rng)
            got = solve_association(*inst)
            assert got == brute_force_association(*inst)
            assert_within_feasibility(got, inst[0])

    @staticmethod
    def fully_linked_instance(rng, n, g):
        _, u, ratio, phi = random_association_instance(rng, n=n, g=g)
        return np.ones((n, g), dtype=np.int8), u, ratio, phi

    def test_exact_path_scores_each_assignment_afresh(self):
        # In real numbers `want` ties with [0, 1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 0]:
        # the largest rate sum is 10/29 in both. Summed in device order, the
        # floats give `want` the smaller maximum by one bit. A branch and bound
        # that pruned on running sums (`+=` then `-=` along its path) cut
        # `want` off and returned the other list.
        inst = association_args(
            np.array([[1, 1]] * 4 + [[0, 1]] + [[1, 1]] * 5 + [[0, 1], [1, 0]], dtype=np.int8),
            u=np.zeros(12),
            rates=np.array([
                [1.0, 2.0], [3.0, 1.0], [2.0, 1.0], [3.0, 2.0], [3.0, 1.0], [1.0, 3.0],
                [1.0, 3.0], [2.0, 3.0], [2.0, 3.0], [1.0, 1.0], [2.0, 3.0], [3.0, 2.0],
            ]),
            bandwidth=np.array([29.0, 29.0]),
            phi=0.1,
        )
        want = [1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 1, 0]
        assert brute_force_association(*inst) == want
        assert solve_association(*inst) == want

    # On both instances the heuristic misses the optimum, so each test tells
    # the two paths apart.
    def test_exact_up_to_the_limit(self):
        inst = self.fully_linked_instance(np.random.default_rng(208), 15, 2)
        assert 2**15 == EXACT_ASSOCIATION_LIMIT
        want = brute_force_association(*inst)
        assert solve_association(*inst) == want != heuristic_association(*inst)

    def test_heuristic_beyond_the_limit(self):
        inst = self.fully_linked_instance(np.random.default_rng(209), 16, 2)
        want = heuristic_association(*inst)
        assert solve_association(*inst) == want != brute_force_association(*inst)

    @pytest.mark.parametrize("n, exact", [(15, True), (18, False)], ids=["exact", "heuristic"])
    def test_solver_writes_none_of_its_inputs(self, n, exact):
        # The simulator hands over its own link table and utilities, uncopied.
        feasible, u, ratio, phi = self.fully_linked_instance(np.random.default_rng(210), n, 2)
        feasible[3] = 0
        feasible[5, 1] = 0
        feasible.flags.writeable = False
        count = math.prod(len(o) for o in association_options(feasible))
        assert (count <= EXACT_ASSOCIATION_LIMIT) == exact
        u_before, ratio_before = copy.deepcopy(u), copy.deepcopy(ratio)
        out = solve_association(feasible, u, ratio, phi)
        assert out[3] == -1
        assert u == u_before and ratio == ratio_before

    def test_heuristic_quality_report(self, capsys):
        rng = np.random.default_rng(202)
        ratios, gaps = [], []
        for _ in range(40):
            inst = random_association_instance(rng, n=7, g=3)
            g = inst[0].shape[1]
            exact = association_score(brute_force_association(*inst), *inst[1:], g)
            heur = association_score(heuristic_association(*inst), *inst[1:], g)
            if abs(exact) > 1e-9:
                if exact > 0:
                    ratios.append(heur / exact)
                else:
                    gaps.append(exact - heur)
            assert heur <= exact + 1e-12
        ratios = np.array(ratios)
        print(
            f"\nassociation heuristic/exact ratio (positive optima): "
            f"min={ratios.min():.3f} median={np.median(ratios):.3f} n={len(ratios)}"
        )

    def test_heuristic_matches_reference_on_random_instances(self):
        rng = np.random.default_rng(205)
        for _ in range(320):
            inst = oracle_association_instance(rng)
            assert heuristic_association(*inst) == reference_association_heuristic(*inst)

    @pytest.mark.parametrize(
        "case", ["exact-ties", "phi-extremes", "wide-range", "two-gateways"]
    )
    def test_heuristic_matches_reference_on_adversarial_instances(self, case):
        # The heuristic skips moves that touch neither its lowest utility sum
        # nor its highest rate sum; the reference re-sums every move. They must
        # agree move for move.
        rng = np.random.default_rng(206)
        for _ in range(150):
            inst = adversarial_association_instance(rng, case)
            assert heuristic_association(*inst) == reference_association_heuristic(*inst)

    def test_heuristic_matches_reference_on_generated_topology(self):
        topo = gen_topology(TopologySpec(1000, 20, model_bytes=8000), seed=11)
        rates = np.zeros((1000, 20))
        for (i, j), params in topo.link_params.items():
            rates[i, j] = est_rate(topo.model_bytes, params.mean_total)
        inst = association_args(
            topo.feasible,
            u=np.random.default_rng(12).normal(0.02, 0.01, 1000),
            rates=rates,
            bandwidth=topo.bandwidth,
            phi=0.1,
        )
        assert heuristic_association(*inst) == reference_association_heuristic(*inst)

    def test_brute_force_refuses_large(self):
        rng = np.random.default_rng(203)
        inst = random_association_instance(rng, n=30, g=3)
        with pytest.raises(InstanceTooLargeError):
            brute_force_association(*inst)
        big = random_selection_instance(rng, n=21)
        with pytest.raises(InstanceTooLargeError):
            brute_force_selection(*big)

    def test_assignment_invariants_random(self):
        rng = np.random.default_rng(204)
        for _ in range(30):
            inst = random_association_instance(rng)
            out = solve_association(*inst)
            assert_within_feasibility(out, inst[0])


class TestUnreachableDevices:
    """A device with no feasible gateway is at -1, and -1 must count nowhere.

    -1 is also a valid index: the last gateway. A solver that sums or indexes
    by an unreachable device's -1 counts it on that gateway.
    """

    @staticmethod
    def instance_with_unreachable_rows(rng, n, g):
        feasible, u, ratio, phi = random_association_instance(rng, n=n, g=g)
        feasible[rng.permutation(n)[: int(rng.integers(1, n // 2 + 1))]] = 0
        return feasible, u, ratio, phi

    @pytest.mark.parametrize(
        "n, g",
        [(13, 2), (12, 4), (8, 3), (5, 2), (40, 6)],
        ids=["exact-13x2", "mixed-12x4", "exact-8x3", "exact-5x2", "heuristic-40x6"],
    )
    def test_solver_ignores_unreachable_devices(self, n, g):
        # The path follows the assignment count, which unreachable rows leave
        # as it is, so an instance and its reduced copy take the same path.
        # 30 of the 40 draws at 12x4 are exact, the other 10 heuristic.
        rng = np.random.default_rng(207 + n)
        for _ in range(40):
            feasible, u, ratio, phi = self.instance_with_unreachable_rows(rng, n, g)
            out = solve_association(feasible, u, ratio, phi)
            reach = feasible.any(axis=1)
            assert [j for j, r in zip(out, reach) if not r] == [-1] * int((~reach).sum())
            assert_within_feasibility(out, feasible)
            # The same instance without the unreachable rows gives the same
            # gateways to the other devices, and the same objective, float for float.
            kept = np.flatnonzero(reach).tolist()
            reduced = feasible[reach], [u[i] for i in kept], [ratio[i] for i in kept], phi
            want = solve_association(*reduced)
            assert [j for j, r in zip(out, reach) if r] == want
            assert association_score(out, u, ratio, phi, g) == association_score(
                want, *reduced[1:], g
            )

    def test_unreachable_device_on_the_last_gateway_would_change_the_choice(self):
        # Device 1 reaches nothing; counted on gateway 1, its rate ratio of
        # 100 would outweigh everything, and both solvers would put devices 0
        # and 2 together on gateway 0.
        inst = (
            np.array([[1, 1], [0, 0], [1, 1]], dtype=np.int8),
            [1.0, 5.0, 1.0],
            [[0.1, 0.1], [100.0, 100.0], [0.1, 0.1]],
            1.0,
        )
        assert solve_association(*inst) == [0, -1, 1]
        assert heuristic_association(*inst) == [0, -1, 1]
        assert brute_force_association(*inst) == [0, -1, 1]
        assert association_score([0, -1, 1], *inst[1:], 2) == 1.0 - 0.1
