"""Budgeted greedy vertex-cover heuristic with a feasibility lookahead.

The solver repeatedly grabs the live vertex of maximum degree and labels it
with a tri-state flag: every vertex starts NOT_USED and is retired to either
SELECTED (joins the cover, its edges leave the working graph) or NOT_SELECTED
(permanently passed over). A vertex whose part budget is already full is
retired NOT_SELECTED with its edges left intact, so neighbors can still cover
them. Otherwise the vertex is selected tentatively and a lookahead
(make_decision) asks whether the rest of the live edges could still be
covered greedily within the residual part budgets; if not, the selection is
undone, the stashed edges are restored bit for bit, and the vertex is retired
NOT_SELECTED.

The lookahead batches its picks by part. Every part is an independent set
(validate_instance rejects intra-part edges), so a pick never changes how
many unvisited edges another member of its own part touches. make_decision
therefore counts each part's candidates once per call, one popcount of a
live-neighbour bitmask per NOT_USED vertex plus one sort per part, instead of
rescanning the part and walking the pick's edges after every pick. The picks,
the verdict and op_count are the same either way.

The heuristic can paint itself into a corner; that surfaces as a
HeuristicFailure result carrying the uncovered edges, never as
nontermination (each loop iteration retires at least one vertex).

Operation counter semantics (reset per solve, deterministic):
  * +1 per vertex scanned by extract_max (n per call),
  * +1 per edge removed from, or restored to, the working graph,
  * +1 per greedy pick inside make_decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .errors import InstanceInvalidError
from .graph import Edge, Instance, validate_instance

NOT_USED = 0
SELECTED = 1
NOT_SELECTED = 2

SUCCESS = "Success"
HEURISTIC_FAILURE = "HeuristicFailure"


@dataclass(frozen=True)
class CoverResult:
    status: str
    cover: frozenset[int]
    per_part_usage: tuple[int, ...]
    op_count: int
    uncovered_edges: tuple[Edge, ...]

    @property
    def success(self) -> bool:
        return self.status == SUCCESS

    @property
    def size(self) -> int:
        return len(self.cover)


class HeuristicState:
    """Mutable working state for one solve call.

    Keeps a live-edge overlay of the immutable input graph: bit u of
    live_mask[v] is set while edge (u, v) is still present, live_degree[v]
    counts those bits and live_count the live edges. state[v] holds the
    tri-state label, b[p] the selected count of part p, stash the neighbours
    whose edges to the current tentative selection it removed.
    """

    def __init__(self, inst: Instance):
        g = inst.graph
        self.n = g.n
        self.adjacency = g.adjacency
        self.live_mask = [sum(1 << u for u in nbrs) for nbrs in g.adjacency]
        self.live_degree = [len(nbrs) for nbrs in g.adjacency]
        self.live_count = g.m
        self.state = [NOT_USED] * (self.n + 1)
        self.k = inst.partition.k
        self.part_of = inst.partition.part_of
        self.limits = inst.budgets.limits
        self.b = [0] * (self.k + 1)
        self.part_vertices = [sorted(inst.partition.parts[p]) if p else []
                              for p in range(self.k + 1)]
        self.stash: list[int] = []
        self.op_count = 0

    def tentative_select(self, v: int) -> None:
        """Mark v selected, stash and remove its live edges."""
        self.state[v] = SELECTED
        self.b[self.part_of[v]] += 1
        bit = 1 << v
        mask, deg = self.live_mask, self.live_degree
        stash = [u for u in self.adjacency[v] if mask[u] & bit]
        for u in stash:
            mask[u] ^= bit
            deg[u] -= 1
        mask[v] = deg[v] = 0
        self.live_count -= len(stash)
        self.op_count += len(stash)
        self.stash = stash

    def undo_tentative(self, v: int) -> None:
        """Retire v as not-selected and restore the stashed edges exactly."""
        self.state[v] = NOT_SELECTED
        self.b[self.part_of[v]] -= 1
        bit = 1 << v
        mask, deg = self.live_mask, self.live_degree
        for u in self.stash:
            mask[u] |= bit
            deg[u] += 1
            mask[v] |= 1 << u
        deg[v] = len(self.stash)
        self.live_count += len(self.stash)
        self.op_count += len(self.stash)
        self.stash = []


def extract_max(state: HeuristicState) -> int | None:
    """NOT_USED vertex of maximum live degree >= 1; ties to the lowest id."""
    state.op_count += state.n
    best = None
    best_deg = 0
    vstate = state.state
    deg = state.live_degree
    for v in range(1, state.n + 1):
        if vstate[v] == NOT_USED and deg[v] > best_deg:
            best_deg = deg[v]
            best = v
    return best


def make_decision(state: HeuristicState) -> bool:
    """Greedy coverability lookahead over the live edges.

    Parts are processed in descending residual budget (ties to the lower part
    id). Within a part, repeatedly pick the NOT_USED vertex touching the most
    unvisited live edges (at least one; ties to the lowest id), up to the
    residual budget, marking its incident unvisited edges visited. True iff
    no live edge stays unvisited. Purely transactional: the picks and visited
    marks are local to the call.

    A part is an independent set (validate_instance rejects intra-part
    edges), so a pick never changes the unvisited degree of another member of
    its own part. Each part's degrees are therefore counted once, as
    popcount(live_mask[v] & ~picked) over the picks of earlier parts, and the
    picks are those members in descending count order: the same picks, in the
    same order, as re-scanning after every pick. Cost per call: one popcount
    per NOT_USED vertex plus one sort per part with residual budget.
    """
    if state.live_count == 0:
        return True
    remaining = state.live_count
    picked = 0  # bitmask of this call's picks
    mask, vstate, limits, b = state.live_mask, state.state, state.limits, state.b
    order = sorted(range(1, state.k + 1), key=lambda p: (-(limits[p - 1] - b[p]), p))
    for p in order:
        residual = limits[p - 1] - b[p]
        if residual <= 0:
            break  # every later part has no residual either
        unpicked = ~picked
        # members come in ascending id and the sort is stable, so equal
        # counts keep the lowest id first
        ranked = sorted([((mask[v] & unpicked).bit_count(), v)
                         for v in state.part_vertices[p] if vstate[v] == NOT_USED],
                        key=itemgetter(0), reverse=True)
        for count, v in ranked[:residual]:
            if count == 0:
                break
            state.op_count += 1
            remaining -= count
            if remaining == 0:
                return True
            picked |= 1 << v
    return False


def solve_cvck(inst: Instance) -> CoverResult:
    """Run the full heuristic loop on a validated instance.

    Each iteration: take the max-degree NOT_USED vertex; retire it
    NOT_SELECTED if its part budget is full (edges kept); otherwise select it
    tentatively and keep the selection only if the lookahead still sees a
    coverable remainder. Deterministic, including the operation count.
    """
    report = validate_instance(inst)
    if not report.ok:
        raise InstanceInvalidError(report)
    state = HeuristicState(inst)
    for _ in range(state.n + 1):
        v = extract_max(state)
        if v is None:
            break
        p = state.part_of[v]
        if state.b[p] + 1 > state.limits[p - 1]:
            state.state[v] = NOT_SELECTED  # edges stay live for neighbors
            continue
        state.tentative_select(v)
        if not make_decision(state):
            state.undo_tentative(v)
    else:  # pragma: no cover
        raise AssertionError("heuristic loop exceeded n iterations")

    cover = frozenset(v for v in range(1, state.n + 1) if state.state[v] == SELECTED)
    mask, edges = state.live_mask, inst.graph.sorted_edges()
    # overlay consistency: live edges are exactly the ones the cover misses
    assert all(mask[u] >> v & 1 == (u not in cover and v not in cover)
               for u, v in edges)
    uncovered = tuple(e for e in edges if mask[e[0]] >> e[1] & 1)
    assert len(uncovered) == state.live_count
    status = SUCCESS if not uncovered else HEURISTIC_FAILURE
    return CoverResult(status=status, cover=cover,
                       per_part_usage=tuple(state.b[1:]),
                       op_count=state.op_count,
                       uncovered_edges=uncovered)
