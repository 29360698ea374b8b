import itertools

import numpy as np
import pytest

from hfedsim.network import TopologySpec, est_rate, gen_topology
from hfedsim.selection import (
    EXACT_SELECTION_LIMIT,
    Assignment,
    AssociationInstance,
    Candidate,
    SelectionInstance,
    solve_association,
    solve_selection,
)
from hfedsim.selection import (
    _association_heuristic,
    _assignment_from_vector,
    _better,
    _knapsack_branch_and_bound,
    _knapsack_greedy,
    _options,
    _pref_key,
    _selection_items,
)

BRUTE_SELECTION_LIMIT = 20
BRUTE_ASSOCIATION_LIMIT = 2**22


class InstanceTooLargeError(ValueError):
    """A brute-force oracle refused an instance beyond its enumeration limit."""


def assert_within_feasibility(out: Assignment, feasible: np.ndarray) -> None:
    """One entry per device: a gateway it can reach, or None if it can reach none."""
    assert len(out.gateway_of) == len(feasible)
    assert all(
        feasible[i].any() == (j is not None) and (j is None or feasible[i, j])
        for i, j in enumerate(out.gateway_of)
    )


def selection_objective(inst: SelectionInstance, chosen: set[int]) -> float:
    return sum(
        c.u * (1.0 / c.tau) ** inst.kappa for c in inst.candidates if c.device_id in chosen
    )


def selection_load(inst: SelectionInstance, chosen: set[int]) -> float:
    return sum(c.rate for c in inst.candidates if c.device_id in chosen)


def random_selection_instance(rng, n=None, kappa=None):
    n = n if n is not None else int(rng.integers(0, 13))
    cands = [
        Candidate(
            device_id=i,
            u=float(rng.normal(0.5, 1.0)),
            tau=float(rng.uniform(0.5, 60.0)),
            rate=float(rng.uniform(1.0, 20.0)),
        )
        for i in range(n)
    ]
    return SelectionInstance(
        candidates=cands,
        bandwidth=float(rng.uniform(5.0, 70.0)),
        kappa=float(rng.choice([0.0, 0.5, 1.0, 2.0])) if kappa is None else kappa,
    )


def random_association_instance(rng, n=None, g=None):
    n = n if n is not None else int(rng.integers(1, 9))
    g = g if g is not None else int(rng.integers(1, 4))
    feasible = (rng.random((n, g)) < 0.75).astype(np.int8)
    return AssociationInstance(
        feasible=feasible,
        u=rng.normal(0.5, 1.0, n),
        rates=rng.uniform(1.0, 20.0, (n, g)),
        bandwidth=rng.uniform(10.0, 60.0, g),
        phi=float(rng.choice([0.0, 0.1, 0.5])),
    )


def brute_force_selection(inst: SelectionInstance) -> set[int]:
    """Exhaustive optimum over all candidate subsets; refuses large instances."""
    if len(inst.candidates) > BRUTE_SELECTION_LIMIT:
        raise InstanceTooLargeError(
            f"{len(inst.candidates)} candidates exceeds brute-force limit "
            f"{BRUTE_SELECTION_LIMIT}"
        )
    items = _selection_items(inst)
    best_value, best_ids = 0.0, ()
    for mask in range(1 << len(items)):
        value = load = 0.0
        ids = []
        for k, (dev, v, r) in enumerate(items):
            if mask >> k & 1:
                value += v
                load += r
                ids.append(dev)
        if load > inst.bandwidth:
            continue
        if _better(value, ids, best_value, best_ids):
            best_value, best_ids = value, tuple(ids)
    return set(best_ids)


def brute_force_association(inst: AssociationInstance) -> Assignment:
    """Exhaustive optimum over every feasible assignment; refuses large instances."""
    n, g = inst.shape
    option_lists = [_options(inst, i) for i in range(n)]
    total = 1
    for opts in option_lists:
        total *= len(opts)
        if total > BRUTE_ASSOCIATION_LIMIT:
            raise InstanceTooLargeError(
                f"assignment space exceeds brute-force limit {BRUTE_ASSOCIATION_LIMIT}"
            )
    u = inst.u.tolist()
    ratio = (inst.rates / inst.bandwidth[None, :]).tolist()
    phi = inst.phi
    best_obj = -float("inf")
    best_combo = best_key = None
    for combo in itertools.product(*option_lists):
        sums_u = [0.0] * g
        sums_r = [0.0] * g
        for i, j in enumerate(combo):
            if j is not None:
                sums_u[j] += u[i]
                sums_r[j] += ratio[i][j]
        obj = min(sums_u) - phi * max(sums_r)
        key = _pref_key(combo, g)
        if obj > best_obj or (obj == best_obj and key < best_key):
            best_obj, best_combo, best_key = obj, combo, key
    assert best_combo is not None
    return _assignment_from_vector(inst, list(best_combo))


def reference_association_heuristic(inst: AssociationInstance) -> list[int | None]:
    """The heuristic as it was before per-gateway sums: every trial move re-sums all devices."""
    n, g = inst.shape
    u = inst.u.tolist()
    ratio = (inst.rates / inst.bandwidth[None, :]).tolist()

    def objective_of(assign) -> float:
        # Fresh summation every time: a given assignment always evaluates to
        # the same float, so strict-improvement search cannot cycle on drift.
        sums_u = [0.0] * g
        sums_r = [0.0] * g
        for i, j in enumerate(assign):
            if j is not None:
                sums_u[j] += u[i]
                sums_r[j] += ratio[i][j]
        return min(sums_u) - inst.phi * max(sums_r)

    # Construction: every device joins the feasible gateway with the lowest
    # bandwidth-normalized load (utility sum as tie-break), giving a
    # bandwidth-proportional starting allocation. The local search below then
    # repairs worst-gateway utility violations from there.
    assign: list[int | None] = [None] * n
    sums_u = [0.0] * g
    sums_r = [0.0] * g
    for i in sorted(range(n), key=lambda i: (-u[i], i)):
        feas = [j for j in range(g) if inst.feasible[i, j]]
        if feas:
            j = min(feas, key=lambda j: (sums_r[j] + ratio[i][j], sums_u[j], j))
            assign[i] = j
            sums_u[j] += u[i]
            sums_r[j] += ratio[i][j]

    # Single-device reassignment until no move improves the objective.
    best = objective_of(assign)
    for _ in range(200):  # safety cap; strict improvement terminates long before
        improved = False
        for i in range(n):
            here = assign[i]
            for j in _options(inst, i):
                if j == here:
                    continue
                assign[i] = j
                cand = objective_of(assign)
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
    return AssociationInstance(
        feasible=feasible,
        u=u,
        rates=rates,
        bandwidth=bandwidth,
        phi=float(rng.choice([0.0, 0.1, 1.0, 10.0])),
    )


class TestSolveSelection:
    def test_nonpositive_utilities_select_nothing(self):
        cands = [Candidate(i, u=-abs(u), tau=1.0, rate=1.0) for i, u in enumerate([1.0, 0.0, 2.0])]
        inst = SelectionInstance(cands, bandwidth=100.0, kappa=1.0)
        assert solve_selection(inst) == set()

    def test_single_fitting_candidate_selected(self):
        inst = SelectionInstance([Candidate(3, u=2.0, tau=5.0, rate=4.0)], bandwidth=4.0)
        assert solve_selection(inst) == {3}

    def test_empty_instance(self):
        inst = SelectionInstance([], bandwidth=1.0)
        assert solve_selection(inst) == set()
        assert brute_force_selection(inst) == set()

    def test_matches_brute_force_on_200_random_instances(self):
        rng = np.random.default_rng(100)
        for _ in range(200):
            inst = random_selection_instance(rng)
            got = solve_selection(inst)
            want = brute_force_selection(inst)
            assert selection_objective(inst, got) == pytest.approx(
                selection_objective(inst, want), abs=1e-9
            )
            assert selection_load(inst, got) <= inst.bandwidth + 1e-12

    def test_single_item_instances_match_exactly(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            inst = random_selection_instance(rng, n=1)
            assert solve_selection(inst) == brute_force_selection(inst)

    def test_bandwidth_monotonicity(self):
        rng = np.random.default_rng(102)
        for _ in range(50):
            inst = random_selection_instance(rng, n=10)
            bigger = SelectionInstance(inst.candidates, inst.bandwidth * 2, inst.kappa)
            assert selection_objective(bigger, solve_selection(bigger)) >= (
                selection_objective(inst, solve_selection(inst)) - 1e-12
            )

    def test_kappa_zero_ignores_latency(self):
        rng = np.random.default_rng(103)
        inst = random_selection_instance(rng, n=9, kappa=0.0)
        shuffled_taus = list(rng.permutation([c.tau for c in inst.candidates]))
        permuted = SelectionInstance(
            [
                Candidate(c.device_id, c.u, t, c.rate)
                for c, t in zip(inst.candidates, shuffled_taus)
            ],
            inst.bandwidth,
            0.0,
        )
        assert selection_objective(inst, solve_selection(inst)) == pytest.approx(
            selection_objective(permuted, solve_selection(permuted)), abs=1e-12
        )

    def test_large_instance_takes_the_greedy_path(self):
        rng = np.random.default_rng(105)
        inst = random_selection_instance(rng, n=60)
        items = _selection_items(inst)
        assert len(items) > EXACT_SELECTION_LIMIT
        got = solve_selection(inst)
        assert got == _knapsack_greedy(items, inst.bandwidth)
        assert got != _knapsack_branch_and_bound(items, inst.bandwidth)
        assert 0 < len(got) < len(items)
        assert selection_load(inst, got) <= inst.bandwidth

    def test_greedy_quality_report(self, capsys):
        rng = np.random.default_rng(104)
        ratios = []
        for _ in range(60):
            inst = random_selection_instance(rng, n=14)
            items = [(c.device_id, c.u * (1 / c.tau) ** inst.kappa, c.rate) for c in inst.candidates]
            items = [it for it in items if it[1] > 0 and it[2] <= inst.bandwidth]
            greedy = _knapsack_greedy(items, inst.bandwidth)
            exact = selection_objective(inst, brute_force_selection(inst))
            if exact > 1e-9:
                ratios.append(selection_objective(inst, greedy) / exact)
        ratios = np.array(ratios)
        print(
            f"\nselection greedy/exact ratio: min={ratios.min():.3f} "
            f"median={np.median(ratios):.3f} mean={ratios.mean():.3f}"
        )
        assert ratios.min() > 0.5  # sanity floor; quality distribution printed above


class TestSolveAssociation:
    def test_single_gateway_gets_everyone(self):
        rng = np.random.default_rng(200)
        inst = AssociationInstance(
            feasible=np.ones((5, 1), dtype=np.int8),
            u=rng.uniform(0.1, 2.0, 5),
            rates=rng.uniform(1.0, 5.0, (5, 1)),
            bandwidth=np.array([100.0]),
            phi=0.0,
        )
        out = solve_association(inst)
        assert out.gateway_of == [0] * 5
        assert out.u_slack == pytest.approx(inst.u.sum(), rel=1e-12)

    def test_two_gateway_tie_breaks_to_gateway_zero(self):
        inst = AssociationInstance(
            feasible=np.ones((1, 2), dtype=np.int8),
            u=np.array([1.5]),
            rates=np.full((1, 2), 3.0),
            bandwidth=np.array([10.0, 10.0]),
            phi=0.0,
        )
        out = solve_association(inst)
        assert out.gateway_of == [0]
        assert out.objective == 0.0  # the empty gateway pins the min at zero
        assert brute_force_association(inst).gateway_of == [0]

    def test_infeasible_device_left_unassigned(self):
        feasible = np.array([[1, 1], [0, 0], [1, 0]], dtype=np.int8)
        inst = AssociationInstance(
            feasible=feasible,
            u=np.array([1.0, 5.0, 1.0]),
            rates=np.full((3, 2), 2.0),
            bandwidth=np.array([10.0, 10.0]),
            phi=0.1,
        )
        out = solve_association(inst)
        assert out.gateway_of[1] is None
        assert_within_feasibility(out, feasible)

    def test_matches_brute_force_on_100_random_instances(self):
        rng = np.random.default_rng(201)
        for _ in range(100):
            inst = random_association_instance(rng)
            got = solve_association(inst)
            want = brute_force_association(inst)
            assert got.objective == pytest.approx(want.objective, abs=1e-9)
            assert_within_feasibility(got, inst.feasible)

    def test_heuristic_quality_report(self, capsys):
        rng = np.random.default_rng(202)
        ratios, gaps = [], []
        for _ in range(40):
            inst = random_association_instance(rng, n=7, g=3)
            exact = brute_force_association(inst)
            heur = _assignment_from_vector(inst, _association_heuristic(inst))
            if abs(exact.objective) > 1e-9:
                if exact.objective > 0:
                    ratios.append(heur.objective / exact.objective)
                else:
                    gaps.append(exact.objective - heur.objective)
            assert heur.objective <= exact.objective + 1e-12
        ratios = np.array(ratios)
        print(
            f"\nassociation heuristic/exact ratio (positive optima): "
            f"min={ratios.min():.3f} median={np.median(ratios):.3f} n={len(ratios)}"
        )

    def test_heuristic_matches_reference_on_random_instances(self):
        rng = np.random.default_rng(205)
        for _ in range(320):
            inst = oracle_association_instance(rng)
            assert _association_heuristic(inst) == reference_association_heuristic(inst)

    def test_heuristic_matches_reference_on_generated_topology(self):
        topo = gen_topology(TopologySpec(1000, 20, model_bytes=8000), seed=11)
        rates = np.zeros((1000, 20))
        for (i, j), params in topo.link_params.items():
            rates[i, j] = est_rate(topo.model_bytes, params.mean_total)
        inst = AssociationInstance(
            feasible=topo.feasible,
            u=np.random.default_rng(12).normal(0.02, 0.01, 1000),
            rates=rates,
            bandwidth=topo.bandwidth,
            phi=0.1,
        )
        assert _association_heuristic(inst) == reference_association_heuristic(inst)

    def test_brute_force_refuses_large(self):
        rng = np.random.default_rng(203)
        inst = random_association_instance(rng, n=30, g=3)
        with pytest.raises(InstanceTooLargeError):
            brute_force_association(inst)
        big = random_selection_instance(rng, n=21)
        with pytest.raises(InstanceTooLargeError):
            brute_force_selection(big)

    def test_assignment_invariants_random(self):
        rng = np.random.default_rng(204)
        for _ in range(30):
            inst = random_association_instance(rng)
            out = solve_association(inst)
            assert isinstance(out, Assignment)
            assert_within_feasibility(out, inst.feasible)
            assert out.objective == pytest.approx(
                out.u_slack - inst.phi * out.r_slack, rel=1e-12, abs=1e-15
            )
