"""Greedy heuristic: hand-traced runs, state mechanics, and oracle cross-checks.

The frozen op_count values follow the documented counter semantics
(extract_max scan costs n, one unit per edge removed or restored, one per
lookahead pick) and were derived by hand-tracing the loop on paper before
being asserted here.

reference_make_decision is the per-pick form of the lookahead: it re-scans
the part for the best vertex after every pick and walks the pick's incident
edges. make_decision counts each part once instead; the tests hold the two to
the same verdict and the same op_count on every call, and check that the
state's per-part open lists and masks hold exactly the NOT_USED vertices,
and live_degree the live degree of each of them and 0 for every other
vertex, and room each part's limit less its SELECTED members, after every
step. The reference reads an edge's liveness from the labels (neither
endpoint SELECTED), not from the state's masks, and each part's residual
budget from the instance's limits and the labels, not from room. Both checks
read each part's members from the partition's part_of, not from the parts
the state's lists start from, and the ensemble holds parts that are
contiguous id ranges (gen_kpartite) and parts that interleave (gen_tree's
level parity, greedy_partition).
"""

from __future__ import annotations

import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings

from kpcover import (Budgets, GenSpec, Instance, InstanceInvalidError,
                     SplitMix64, build_graph, derive_budgets, exact_cvck,
                     extract_max, gen_kpartite, gen_tree, greedy_partition,
                     is_vertex_cover, make_decision, make_partition,
                     per_part_usage, respects_budgets, solve_cvck)
from kpcover import heuristic
from kpcover.heuristic import NOT_SELECTED, NOT_USED, SELECTED, HeuristicState

from oracles import brute_optima
from strategies import instances


def part_members(state: HeuristicState, k: int) -> list[list[int]]:
    """Each of the k parts' vertices in ascending id (index 0 empty), read
    from the partition's part_of."""
    return [[v for v in range(1, state.n + 1) if state.part_of[v] == p]
            for p in range(k + 1)]


def label_room(state: HeuristicState, limits: tuple[int, ...]) -> list[int]:
    """Each part's residual budget (index 0 unused): its limit less its
    SELECTED members, counted from the labels."""
    members_of = part_members(state, len(limits))
    return [0] + [limit - sum(state.state[v] == SELECTED for v in members)
                  for limit, members in zip(limits, members_of[1:])]


def reference_make_decision(state: HeuristicState, limits: tuple[int, ...],
                            passes: Counter | None = None) -> bool:
    """Per-pick greedy lookahead: re-scan the part after every pick.

    passes, if given, counts the part passes with residual budget whose
    positive members all fit ("fits") or outnumber it ("truncated"), and the
    True verdicts reached after the first part ("true after first part").
    """
    if state.live_count == 0:
        return True
    remaining = state.live_count
    vis: set[tuple[int, int]] = set()
    ud = state.live_degree.copy()  # unvisited-degree; consulted only for NOT_USED
    vstate = state.state
    members_of = part_members(state, len(limits))
    residuals = label_room(state, limits)
    order = sorted(range(1, len(limits) + 1), key=lambda p: (-residuals[p], p))
    for i, p in enumerate(order):
        residual = residuals[p]
        members = members_of[p]
        if passes is not None and residual > 0:
            positive = sum(vstate[v] == NOT_USED and ud[v] > 0 for v in members)
            passes["fits" if positive <= residual else "truncated"] += 1
        picks = 0
        while picks < residual:
            best = None
            best_ud = 0
            for v in members:
                if vstate[v] == NOT_USED and ud[v] > best_ud:
                    best_ud = ud[v]
                    best = v
            if best is None:
                break
            state.op_count += 1
            picks += 1
            for other in sorted(state.adjacency[best]):
                edge = (min(best, other), max(best, other))
                # best is NOT_USED, so the edge is live iff other is not SELECTED
                if vstate[other] != SELECTED and edge not in vis:
                    vis.add(edge)
                    remaining -= 1
                    if ud[other] > 0:
                        ud[other] -= 1
            ud[best] = 0
            if remaining == 0:
                if passes is not None and i:
                    passes["true after first part"] += 1
                return True
    return remaining == 0


def decide_both(state: HeuristicState, limits: tuple[int, ...],
                passes: Counter | None = None) -> tuple[bool, int]:
    """make_decision's verdict and op_count delta, checked against the
    reference; limits are the instance's budgets."""
    before = state.op_count
    expected = reference_make_decision(state, limits, passes)
    expected_ops = state.op_count - before
    state.op_count = before
    verdict = make_decision(state)
    assert (verdict, state.op_count - before) == (expected, expected_ops)
    return verdict, expected_ops


def lookahead_instances():
    """Seeded mixed ensemble plus three dense n = 200 instances, then seeded
    trees and greedy-coloured graphs, whose parts interleave."""
    rng = SplitMix64(0x10CA7EAD)
    for _ in range(300):
        n = 2 + rng.next_below(39)
        k = min(n, 1 + rng.next_below(5))
        density = (0.1, 0.3, 0.5, 0.8)[rng.next_below(4)]
        mode = ("slack:0", "slack:1", "slack:2", "exact", "fixed")[rng.next_below(5)]
        if mode == "exact" and n > 16:
            mode = "slack:0"
        if mode == "fixed":
            mode = "fixed:" + ",".join(str(rng.next_below(n // k + 2))
                                       for _ in range(k))
        yield gen_kpartite(GenSpec(n=n, k=k, density=density,
                                   seed=rng.next_u64(), budget_mode=mode))
    for seed, mode in ((1, "slack:1"), (2, "slack:0"), (3, "fixed:30,30,30,30")):
        yield gen_kpartite(GenSpec(n=200, k=4, density=0.5, seed=seed,
                                   budget_mode=mode))
    rng = SplitMix64(0x7EE5)
    for i in range(90):
        mode = ("slack:0", "exact", "fixed")[i % 3]
        n = 2 + rng.next_below(15 if mode == "exact" else 39)
        if mode == "fixed":
            mode = f"fixed:{rng.next_below(n // 2 + 2)},{rng.next_below(n // 2 + 2)}"
        yield gen_tree(n, rng.next_u64(), mode)
    rng = SplitMix64(0x6C0105)
    for i in range(90):
        mode = ("slack:0", "slack:1", "exact", "fixed")[i % 4]
        n = 2 + rng.next_below(15 if mode == "exact" else 39)
        density = (0.1, 0.3, 0.5)[rng.next_below(3)]
        graph = build_graph(n, [(u, v) for u in range(1, n + 1)
                                for v in range(u + 1, n + 1)
                                if rng.next_float() < density])
        partition = greedy_partition(graph)
        if mode == "fixed":
            mode = "fixed:" + ",".join(str(rng.next_below(n // partition.k + 2))
                                       for _ in range(partition.k))
        yield Instance(graph, partition, derive_budgets(graph, partition, mode))


def assert_open_lists(state: HeuristicState, limits: tuple[int, ...]) -> None:
    """open_in_part holds exactly the NOT_USED vertices of each part,
    ascending, and open_mask[p] has exactly the bits of open_in_part[p];
    nbr_mask still holds the adjacency's masks, and unselected the bits of
    every vertex that is not SELECTED. live_degree[v] counts v's neighbours
    that are not SELECTED while v is NOT_USED and reads 0 otherwise, and
    live_count is the number of edges with neither endpoint SELECTED.
    room[p] is limits[p - 1] less the SELECTED vertices of part p."""
    def not_used(vertices):
        return [v for v in vertices if state.state[v] == NOT_USED]
    assert state.open_in_part == [not_used(members)
                                  for members in part_members(state, len(limits))]
    assert state.room == label_room(state, limits)
    assert state.open_mask == [sum(1 << v for v in members)
                               for members in state.open_in_part]
    assert state.nbr_mask == [sum(1 << u for u in nbrs)
                              for nbrs in state.adjacency]
    assert state.unselected == state.full ^ sum(
        1 << v for v in range(1, state.n + 1) if state.state[v] == SELECTED)
    labels = state.state
    assert state.live_degree == [
        sum(labels[u] != SELECTED for u in state.adjacency[v])
        if labels[v] == NOT_USED else 0 for v in range(state.n + 1)]
    assert state.live_count == sum(
        labels[u] != SELECTED and labels[w] != SELECTED
        for u in range(state.n + 1) for w in state.adjacency[u] if u < w)


@pytest.fixture(scope="module")
def checked_solves() -> Counter:
    """Solve every lookahead instance with each step checked; count events.

    Every make_decision call is held to the reference, and the open lists
    and masks are checked after every tentative_select and undo_tentative
    and on entry to every extract_max, which follows each budget-full skip;
    so are the neighbour masks and the unselected mask.
    Events of instances with a part that is not an id range are counted
    again under "interleaved ...".
    """
    events: Counter = Counter()
    select, undo = HeuristicState.tentative_select, HeuristicState.undo_tentative

    # each check reads the budgets of inst, the instance the loop below solves
    def checked_decision(state):
        events["decisions"] += 1
        return decide_both(state, inst.budgets.limits, events)[0]

    def checked_extract(state):
        assert_open_lists(state, inst.budgets.limits)
        events["open-list checks"] += 1
        v = extract_max(state)
        events["picks"] += v is not None
        return v

    def checked_step(method, name):
        def step(state, v):
            method(state, v)
            assert_open_lists(state, inst.budgets.limits)
            events["open-list checks"] += 1
            events[name] += 1
        return step
    for inst in lookahead_instances():
        expected = solve_cvck(inst)
        before = events.copy()
        with pytest.MonkeyPatch.context() as m:
            m.setattr(heuristic, "make_decision", checked_decision)
            m.setattr(heuristic, "extract_max", checked_extract)
            m.setattr(HeuristicState, "tentative_select",
                      checked_step(select, "selections"))
            m.setattr(HeuristicState, "undo_tentative", checked_step(undo, "undos"))
            assert solve_cvck(inst) == expected
        if any(m and m[-1] - m[0] >= len(m) for m in inst.partition.parts):
            events.update({"interleaved " + key: count
                           for key, count in (events - before).items()})
    return events


def path_instance(limits=(0, 1)):
    return Instance(build_graph(3, [(1, 2), (2, 3)]),
                    make_partition(2, [1, 2, 1]), Budgets(limits))


def edge_instance(limits=(0, 0)):
    return Instance(build_graph(2, [(1, 2)]), make_partition(2, [1, 2]),
                    Budgets(limits))


def star_instance(limits=(1, 3)):
    return Instance(build_graph(4, [(1, 2), (1, 3), (1, 4)]),
                    make_partition(2, [1, 2, 2, 2]), Budgets(limits))


def raise_a_live_degree(state: HeuristicState, cover: frozenset[int]) -> None:
    state.live_degree[1] += 1


def set_a_selected_bit(state: HeuristicState, cover: frozenset[int]) -> None:
    state.unselected |= 1 << min(cover)


def clear_an_unread_bit(state: HeuristicState, cover: frozenset[int]) -> None:
    # every neighbour of v is in the cover, so no live degree reads v's bit
    v = min(v for v in range(1, state.n + 1) if v not in cover
            and state.adjacency[v] and set(state.adjacency[v]) <= cover)
    state.unselected ^= 1 << v


def zero_live_count(state: HeuristicState, cover: frozenset[int]) -> None:
    state.live_count = 0


class TestExtractMax:
    def test_path_center_has_max_degree(self):
        state = HeuristicState(path_instance())
        assert extract_max(state) == 2

    def test_tie_breaks_to_lowest_id(self):
        state = HeuristicState(edge_instance((1, 1)))
        assert extract_max(state) == 1

    def test_none_when_no_live_degree(self):
        state = HeuristicState(path_instance())
        state.tentative_select(2)
        assert extract_max(state) is None

    def test_skips_retired_vertices(self):
        state = HeuristicState(path_instance())
        state.retire(2, NOT_SELECTED)
        assert extract_max(state) == 1

    def test_budget_full_centre_leaves_the_pick(self, monkeypatch):
        # the centre's part has budget 0, so solve_cvck's budget check
        # retires it NOT_SELECTED while it still has the highest degree; the
        # next pick must be a leaf, and the leaves and live_count still count
        # the centre's edges
        real = heuristic.extract_max
        seen = []

        def recording_extract_max(state):
            v = real(state)
            seen.append((v, list(state.live_degree), state.live_count))
            return v

        monkeypatch.setattr(heuristic, "extract_max", recording_extract_max)
        res = solve_cvck(star_instance((0, 3)))
        assert seen[:2] == [(1, [0, 3, 1, 1, 1], 3), (2, [0, 0, 1, 1, 1], 3)]
        assert res.success and res.cover == frozenset({2, 3, 4})


class TestMakeDecision:
    def test_no_live_edges_is_trivially_coverable(self):
        state = HeuristicState(path_instance())
        state.tentative_select(2)
        assert make_decision(state)

    def test_no_budget_left_fails(self):
        state = HeuristicState(edge_instance((0, 0)))
        assert not make_decision(state)

    def test_star_leaf_part_goes_first(self):
        state = HeuristicState(star_instance((1, 3)))
        assert make_decision(state)
        assert state.op_count == 3  # three leaf picks cover every edge

    def test_is_transaction_local(self):
        state = HeuristicState(star_instance((1, 3)))
        state.tentative_select(2)

        def snapshot():
            return (state.unselected, list(state.live_degree),
                    state.live_count, list(state.room), list(state.state))
        before = snapshot()
        make_decision(state)
        assert snapshot() == before

    def test_part_without_residual_is_skipped(self):
        # the leaves' part picks two of three leaves; the center's part has
        # budget 0, so the third leaf edge stays unvisited
        state = HeuristicState(star_instance((0, 2)))
        assert decide_both(state, (0, 2)) == (False, 2)

    def test_equal_counts_go_to_the_lowest_id(self):
        # 1 and 2 both see two edges; picking 1 leaves (2,3) and (2,5) for
        # parts 2 and 3, picking 2 would leave (1,3) and (1,4) to part 2 alone
        inst = Instance(build_graph(5, [(1, 3), (1, 4), (2, 3), (2, 5)]),
                        make_partition(3, [1, 1, 2, 2, 3]), Budgets((1, 1, 1)))
        assert decide_both(HeuristicState(inst), inst.budgets.limits) == (True, 3)

    def test_early_exit_counts_the_covering_pick(self):
        # picks 1, 3 and 5, one per part; the third covers the last edge
        inst = Instance(build_graph(5, [(1, 4), (3, 5), (4, 5)]),
                        make_partition(3, [1, 1, 2, 2, 3]), Budgets((2, 1, 1)))
        assert decide_both(HeuristicState(inst), inst.budgets.limits) == (True, 3)

    def test_later_part_counts_exclude_edges_to_earlier_picks(self):
        # part 1 picks 1 and 5; then 2 (live degree 3) sees one unvisited
        # edge and 3 (live degree 2) sees two, so part 2 picks 3
        inst = Instance(build_graph(6, [(1, 2), (2, 5), (2, 4), (3, 4), (3, 6)]),
                        make_partition(3, [1, 2, 2, 3, 1, 3]), Budgets((2, 1, 1)))
        assert decide_both(HeuristicState(inst), inst.budgets.limits) == (True, 4)

    def test_matches_the_reference_in_every_solve_call(self, checked_solves):
        assert checked_solves["decisions"] > 1000

    def test_ensemble_runs_both_part_branches(self, checked_solves):
        # make_decision picks a part whose positive members fit without a
        # sort and ranks one that its residual truncates; the reference
        # comparison must see both, and True verdicts past the first part
        assert checked_solves["fits"] > 0
        assert checked_solves["truncated"] > 0
        assert checked_solves["true after first part"] > 0
        # and so must the instances whose parts are not id ranges
        for event in ("fits", "truncated", "true after first part"):
            assert checked_solves["interleaved " + event] > 0


class TestStateMechanics:
    def test_open_lists_track_every_step(self, checked_solves):
        # the fixture checks the lists after every step; make sure every
        # kind of step, budget-full skips included, was seen
        skips = checked_solves["picks"] - checked_solves["selections"]
        assert checked_solves["undos"] > 0 and skips > 0
        skips = (checked_solves["interleaved picks"]
                 - checked_solves["interleaved selections"])
        assert checked_solves["interleaved undos"] > 0 and skips > 0
        assert checked_solves["open-list checks"] > 1000

    def test_state_memory_is_linear_on_a_low_centred_star(self):
        # every neighbour id is low, so the masks take O(n) words in all;
        # a table of the n single-bit ints would take n**2 / 16 bytes (25 MB)
        n = 20_000
        inst = Instance(build_graph(n, [(1, v) for v in range(2, n + 1)]),
                        make_partition(2, [1] + [2] * (n - 1)), Budgets((1, 0)))
        tracemalloc.start()
        try:
            state = HeuristicState(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.live_count == n - 1
        assert peak < 100 * (n + inst.graph.m), peak

    def test_undo_restores_overlay_exactly(self):
        state = HeuristicState(path_instance((1, 1)))
        assert state.nbr_mask == [0, 0b100, 0b1010, 0b100]
        assert state.unselected == 0b1111
        assert state.live_degree == [0, 1, 2, 1]
        snapshot = (state.unselected, list(state.room), state.live_count)
        state.tentative_select(2)
        assert state.live_count == 0 and state.room == [0, 1, 0]
        assert state.unselected == 0b1011 and state.live_degree == [0] * 4
        state.undo_tentative(2)
        assert (state.unselected, list(state.room), state.live_count) == snapshot
        # the leaves count their edges to 2 again; 2 is retired and reads 0
        assert state.live_degree == [0, 1, 0, 1]
        assert state.state[2] == NOT_SELECTED
        assert state.nbr_mask == [0, 0b100, 0b1010, 0b100]  # never written

    def test_select_counts_only_live_edges(self):
        state = HeuristicState(path_instance((1, 1)))
        state.tentative_select(1)
        assert (state.live_count, state.op_count) == (1, 1)
        state.tentative_select(2)  # (1, 2) is gone already
        assert (state.live_count, state.op_count) == (0, 2)
        state2 = HeuristicState(path_instance((1, 1)))
        state2.tentative_select(2)
        assert (state2.live_count, state2.op_count) == (0, 2)


class TestSolve:
    def test_path_picks_center(self):
        res = solve_cvck(path_instance((0, 1)))
        assert res.success and res.cover == frozenset({2})
        assert res.per_part_usage == (0, 1)
        assert res.op_count == 8
        assert res.uncovered_edges == ()

    def test_zero_budgets_fail_with_uncovered_edge(self):
        res = solve_cvck(edge_instance((0, 0)))
        assert res.status == "HeuristicFailure"
        assert res.uncovered_edges == ((1, 2),)
        assert res.cover == frozenset()
        assert res.op_count == 6

    def test_lookahead_rejections_restore_edges(self):
        # budgets (1, 0) force the center into the budget branch, then both
        # endpoints get selected tentatively and rolled back
        res = solve_cvck(path_instance((1, 0)))
        assert res.status == "HeuristicFailure"
        assert res.uncovered_edges == ((1, 2), (2, 3))
        assert res.op_count == 16

    def test_triangle_within_budgets(self):
        inst = Instance(build_graph(3, [(1, 2), (2, 3), (1, 3)]),
                        make_partition(3, [1, 2, 3]), Budgets((1, 1, 1)))
        res = solve_cvck(inst)
        assert res.success and res.size == 2
        assert res.cover in brute_optima(inst)
        assert res.op_count == 13

    def test_edgeless_costs_one_scan(self):
        inst = Instance(build_graph(3, []), make_partition(1, [1, 1, 1]),
                        Budgets((3,)))
        res = solve_cvck(inst)
        assert res.success and res.cover == frozenset()
        assert res.op_count == 3  # single failed extract_max scan over n vertices

    def test_deterministic(self):
        inst = star_instance((1, 3))
        assert solve_cvck(inst) == solve_cvck(inst)

    def test_invalid_instance_rejected(self):
        bad = Instance(build_graph(2, [(1, 2)]), make_partition(1, [1, 1]),
                       Budgets((2,)))
        with pytest.raises(InstanceInvalidError):
            solve_cvck(bad)

    def test_overlay_check_reads_both_endpoints(self, monkeypatch):
        # after the last extract_max, count a covered edge as live at both
        # endpoints and in live_count: live_degree and live_count still
        # agree, so only the checks read from the masks can stop the solve
        inst = gen_kpartite(GenSpec(n=12, k=3, density=0.5, seed=5))
        real = heuristic.extract_max

        def corrupting_extract_max(state):
            v = real(state)
            if v is None:
                u, w = next((u, w) for u, w in inst.graph.sorted_edges()
                            if SELECTED in (state.state[u], state.state[w]))
                state.live_degree[u] += 1
                state.live_degree[w] += 1
                state.live_count += 1
            return v

        monkeypatch.setattr(heuristic, "extract_max", corrupting_extract_max)
        with pytest.raises(AssertionError):
            solve_cvck(inst)

    @pytest.mark.parametrize("corrupt", [
        raise_a_live_degree, set_a_selected_bit, clear_an_unread_bit,
        zero_live_count,
    ], ids=["live-degree", "selected-bit-set", "unselected-bit-cleared",
            "live-count"])
    def test_end_check_catches_a_corrupted_state(self, monkeypatch, corrupt):
        # the solve ends with a vertex in the cover and edges uncovered;
        # after the last extract_max one field is corrupted, and the solve
        # must raise rather than return any result
        inst = gen_kpartite(GenSpec(n=9, k=3, density=0.4, seed=174,
                                    budget_mode="exact"))
        res = solve_cvck(inst)
        assert res.cover and res.uncovered_edges
        real = heuristic.extract_max

        def corrupting_extract_max(state):
            v = real(state)
            if v is None:
                corrupt(state, res.cover)
            return v

        monkeypatch.setattr(heuristic, "extract_max", corrupting_extract_max)
        with pytest.raises(AssertionError):
            solve_cvck(inst)

    @given(instances())
    @settings(max_examples=200, deadline=None)
    def test_success_results_are_valid(self, inst):
        res = solve_cvck(inst)
        if res.success:
            assert is_vertex_cover(inst.graph, res.cover)
            assert respects_budgets(inst, res.cover)
            assert not res.uncovered_edges
        else:
            assert res.uncovered_edges
        assert res.per_part_usage == per_part_usage(inst.partition, res.cover)
        assert all(res.per_part_usage[i] <= inst.budgets.limits[i]
                   for i in range(inst.partition.k))

    @given(instances())
    @settings(max_examples=100, deadline=None)
    def test_never_beats_the_oracle(self, inst):
        res = solve_cvck(inst)
        oracle = exact_cvck(inst)
        if res.success:
            assert oracle.feasible  # a witness exists
            assert res.size >= oracle.size
