"""Budgeted greedy vertex-cover heuristic with a feasibility lookahead.

The solver repeatedly grabs the live vertex of maximum degree and labels it
with a tri-state flag: every vertex starts NOT_USED and is retired to either
SELECTED (joins the cover, its edges leave the working graph) or NOT_SELECTED
(permanently passed over). A vertex whose part budget is already full is
retired NOT_SELECTED with its edges left intact, so neighbors can still cover
them. Otherwise the vertex is selected tentatively and a lookahead
(make_decision) asks whether the rest of the live edges could still be
covered greedily within the residual part budgets; if not, the selection is
undone, its NOT_USED neighbours get their live degrees back, and the vertex is
retired NOT_SELECTED.

An edge is live exactly while neither endpoint is SELECTED. The state keeps
that once: bit v of the integer `unselected` is set while v is not SELECTED,
and the edge (u, v) is live iff bits u and v are both set. Each vertex's
neighbour bitmask is built once and never written again, so a selection or
its undo changes one bit and the live degrees of its NOT_USED neighbours, and
no per-vertex mask.

live_degree is also the pick key. It holds the live degree of each NOT_USED
vertex and 0 for every retired one, so extract_max takes the maximum of the
whole list and its first index, both in C, with no list of the open
vertices. The NOT_USED vertices of each part are kept twice: as an ascending
list `open_in_part[p]`, from which the lookahead reads each part's
candidates, and as a bitmask `open_mask[p]`; a vertex leaves both once, on
its one retirement from NOT_USED. Both start from the partition's parts,
which are ascending tuples already, so the state sorts and copies no part.
The lookahead is transactional, so an undo sees the labels its selection
saw and recomputes the neighbours that selection touched; nothing is kept
between the two.

The lookahead batches its picks by part. Every part is an independent set
(validate_instance rejects intra-part edges), so a pick never changes how
many unvisited edges another member of its own part touches. make_decision
therefore counts each part's candidates once per call: the first part it
ranks reads live_degree, later parts take one popcount per NOT_USED member
of its neighbour bitmask masked by `unselected` less the earlier picks. A
part whose positive members all fit in its residual budget needs no sort at
all, and joins the picks as its whole open_mask; only a part that must be
truncated is ranked. The picks, the verdict and op_count are the same as
rescanning the part and walking the pick's edges after every pick.

The heuristic can paint itself into a corner; that surfaces as a
HeuristicFailure result carrying the uncovered edges, never as
nontermination (each loop iteration retires at least one vertex).

Operation counter semantics (reset per solve, deterministic):
  * +1 per vertex scanned by extract_max (n per call),
  * +1 per edge removed from, or restored to, the working graph,
  * +1 per greedy pick inside make_decision.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter, sub

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

    An edge is live while neither endpoint is SELECTED. nbr_mask[v] has bit
    u set for every neighbour u of v and is never written after __init__;
    bit v of unselected is set while state[v] is not SELECTED, so the live
    neighbours of a vertex that is not selected are the bits of
    nbr_mask[v] & unselected. live_degree[v] counts them while v is
    NOT_USED and reads 0 once v is retired, SELECTED or NOT_SELECTED; a
    NOT_SELECTED vertex's edges still count in its neighbours' live degrees
    and in live_count, the number of live edges. state[v] holds the
    tri-state label and room[p] the budget part p has left, indexed by part
    id with index 0 unused, like the partition's parts. open_in_part[p]
    lists the NOT_USED vertices of part p in ascending order and bit v of
    open_mask[p] is set while v is one of them; retire is the only way out
    of NOT_USED, and it updates both and zeroes the live degree.
    open_in_part[p] starts as a list of inst.partition.parts[p], which is
    ascending already, and open_mask[p] from that list; no other copy of a
    part is kept. The open masks take at most one bit per vertex id per
    part, k * n bits in all.
    """

    def __init__(self, inst: Instance):
        g = inst.graph
        self.n = g.n
        self.adjacency = g.adjacency
        self.full = (1 << (self.n + 1)) - 1  # every vertex bit, kept positive
        self.nbr_mask = [sum(1 << u for u in nbrs) for nbrs in g.adjacency]
        self.unselected = self.full
        self.live_degree = [len(nbrs) for nbrs in g.adjacency]
        self.live_count = g.m
        self.state = [NOT_USED] * (self.n + 1)
        self.part_of = inst.partition.part_of
        self.room = [0, *inst.budgets.limits]
        self.open_in_part = list(map(list, inst.partition.parts))
        self.open_mask = [sum(1 << v for v in members) for members in self.open_in_part]
        self.op_count = 0

    def retire(self, v: int, label: int) -> None:
        """Label NOT_USED vertex v, zero its live degree and drop it from its
        part's open list and mask."""
        self.state[v] = label
        self.live_degree[v] = 0
        p = self.part_of[v]
        members = self.open_in_part[p]
        del members[bisect_left(members, v)]
        self.open_mask[p] ^= 1 << v

    def _shift_live_edges(self, v: int, step: int) -> None:
        """Add step to the live degree of each NOT_USED neighbour of v and
        step per live edge at v to live_count; op_count counts those edges."""
        labels, deg = self.state, self.live_degree
        for u in self.adjacency[v]:
            if labels[u] == NOT_USED:
                deg[u] += step
        live = (self.nbr_mask[v] & self.unselected).bit_count()
        self.live_count += step * live
        self.op_count += live

    def tentative_select(self, v: int) -> None:
        """Mark v selected and take its live edges out of the working graph."""
        self.retire(v, SELECTED)
        self.room[self.part_of[v]] -= 1
        self.unselected ^= 1 << v
        self._shift_live_edges(v, -1)

    def undo_tentative(self, v: int) -> None:
        """Retire v as not-selected and make its edges live again.

        The lookahead changes no label, so v's NOT_USED neighbours are those
        its selection reached. v left the open lists and its live degree
        read 0 when it was selected, so they stay as they are.
        """
        self.state[v] = NOT_SELECTED
        self.room[self.part_of[v]] += 1
        self.unselected |= 1 << v
        self._shift_live_edges(v, 1)


def extract_max(state: HeuristicState) -> int | None:
    """NOT_USED vertex of maximum live degree >= 1; ties to the lowest id.

    Reads only live_degree, where every retired vertex reads 0, and counts
    n operations per call.
    """
    state.op_count += state.n
    deg = state.live_degree
    d = max(deg)
    return deg.index(d) if d else None  # index finds the lowest id


def make_decision(state: HeuristicState) -> bool:
    """Greedy coverability lookahead over the live edges.

    Parts are processed in descending residual budget room[p] (ties to the
    lower part id). Within a part, repeatedly pick the NOT_USED vertex
    touching the most unvisited live edges (at least one; ties to the lowest
    id), up to the residual budget, marking its incident unvisited edges
    visited. True iff no live edge stays unvisited. Purely transactional:
    the picks and visited marks are local to the call.

    A part is an independent set (validate_instance rejects intra-part
    edges), so a pick never changes the unvisited degree of another member of
    its own part. Each part's counts are therefore taken once, over
    open_in_part[p]: live_degree while nothing is picked yet, otherwise
    popcount(nbr_mask[v] & (unselected ^ picked)). A member v is not
    selected, so its live edges are those to the unselected bits of
    nbr_mask[v]; the earlier parts' picks are all NOT_USED, so the XOR
    clears exactly their bits. The picks are the members in descending count
    order, the same picks in the same order as re-scanning after every pick.

    No edge joins two members of a part, so the counts of a part sum to the
    number of unvisited edges it touches, at most `remaining`. The running
    remainder can thus reach 0 only at the part's last positive pick, and
    the order of the picks within a part cannot change the verdict or
    op_count. So when the part's positive members all fit in its residual,
    they are all picked at once with no sort; only a truncated part is
    ranked, by a stable descending sort over its members in ascending id.
    The picks of a part that fits are its whole open_mask: a member whose
    count is 0 has every live edge ending in an earlier pick, so marking it
    picked too changes no later part's count.
    Cost per call: one count per open member of each part with residual
    budget, plus one sort per truncated part.
    """
    if state.live_count == 0:
        return True
    remaining = state.live_count
    picked = 0  # bitmask of this call's picks
    nbr, deg, room = state.nbr_mask, state.live_degree, state.room
    # the sort is stable with reverse=True too: equal residuals keep the
    # lower part id first
    for p in sorted(range(1, len(room)), key=room.__getitem__, reverse=True):
        residual = room[p]
        if residual <= 0:
            break  # every later part has no residual either
        members = state.open_in_part[p]
        if picked:
            unpicked = state.unselected ^ picked
            counts = [(nbr[v] & unpicked).bit_count() for v in members]
        else:
            counts = list(map(deg.__getitem__, members))
        positive = len(counts) - counts.count(0)
        if positive <= residual:
            state.op_count += positive
            remaining -= sum(counts)
            if remaining == 0:
                return True
            picked |= state.open_mask[p]
        else:
            # members come in ascending id and the sort is stable, so equal
            # counts keep the lowest id first
            ranked = sorted(zip(counts, members), key=itemgetter(0), reverse=True)
            state.op_count += residual
            for count, v in ranked[:residual]:
                remaining -= count
                picked |= 1 << v
            # a positive member is left unpicked, so remaining stays > 0
    return False


def solve_cvck(inst: Instance) -> CoverResult:
    """Run the full heuristic loop on a validated instance.

    Each iteration: take the max-degree NOT_USED vertex; retire it
    NOT_SELECTED if its part budget is full (edges kept); otherwise select it
    tentatively and keep the selection only if the lookahead still sees a
    coverable remainder. Deterministic, including the operation count.
    """
    validate_instance(inst).check()
    state = HeuristicState(inst)
    for _ in range(state.n + 1):
        v = extract_max(state)
        if v is None:
            break
        if not state.room[state.part_of[v]]:
            state.retire(v, NOT_SELECTED)  # edges stay live for neighbors
            continue
        state.tentative_select(v)
        if not make_decision(state):
            state.undo_tentative(v)
    else:  # pragma: no cover
        raise AssertionError("heuristic loop exceeded n iterations")

    cover = frozenset(v for v in range(1, state.n + 1) if state.state[v] == SELECTED)
    unselected, labels = state.unselected, state.state
    # liveness on both endpoints: the live edges are those the cover misses
    assert unselected == state.full ^ sum(1 << v for v in cover)
    live = [(m & unselected).bit_count() for m in state.nbr_mask]
    assert all(d == (c if label == NOT_USED else 0)
               for d, c, label in zip(state.live_degree, live, labels))
    live_ends = sum(c for c, label in zip(live, labels) if label != SELECTED)
    assert 2 * state.live_count == live_ends
    uncovered = tuple((u, w) for u, w in inst.graph.sorted_edges()
                      if u not in cover and w not in cover) if live_ends else ()
    status = SUCCESS if not uncovered else HEURISTIC_FAILURE
    return CoverResult(status=status, cover=cover,
                       per_part_usage=tuple(map(sub, inst.budgets.limits,
                                                state.room[1:])),
                       op_count=state.op_count,
                       uncovered_edges=uncovered)
