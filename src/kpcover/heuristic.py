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

    Keeps a live-edge overlay of the immutable input graph: live[ei] flags
    edge ei (index into edge_list, sorted order) as still present, and
    live_degree[v] counts live edges at v. state[v] holds the tri-state
    label, b[p] the selected count of part p, edge_stash the edges removed
    by the current tentative selection.
    """

    def __init__(self, inst: Instance):
        g = inst.graph
        self.n = g.n
        self.edge_list: list[Edge] = g.sorted_edges()
        self.m = len(self.edge_list)
        self.inc: list[list[int]] = [[] for _ in range(self.n + 1)]
        for ei, (u, v) in enumerate(self.edge_list):
            self.inc[u].append(ei)
            self.inc[v].append(ei)
        self.live = bytearray(b"\x01" * self.m)
        self.live_count = self.m
        self.live_degree = [len(self.inc[v]) for v in range(self.n + 1)]
        self.state = [NOT_USED] * (self.n + 1)
        self.k = inst.partition.k
        self.part_of = inst.partition.part_of
        self.limits = inst.budgets.limits
        self.b = [0] * (self.k + 1)
        self.part_vertices = [sorted(inst.partition.parts[p]) if p else []
                              for p in range(self.k + 1)]
        self.edge_stash: list[int] = []
        self.op_count = 0

    def tentative_select(self, v: int) -> None:
        """Mark v selected, stash and remove its live edges."""
        self.state[v] = SELECTED
        self.b[self.part_of[v]] += 1
        stash = []
        for ei in self.inc[v]:
            if self.live[ei]:
                self.live[ei] = 0
                stash.append(ei)
                a, c = self.edge_list[ei]
                self.live_degree[a] -= 1
                self.live_degree[c] -= 1
        self.live_count -= len(stash)
        self.op_count += len(stash)
        self.edge_stash = stash

    def undo_tentative(self, v: int) -> None:
        """Retire v as not-selected and restore the stashed edges exactly."""
        self.state[v] = NOT_SELECTED
        self.b[self.part_of[v]] -= 1
        for ei in self.edge_stash:
            self.live[ei] = 1
            a, c = self.edge_list[ei]
            self.live_degree[a] += 1
            self.live_degree[c] += 1
        self.live_count += len(self.edge_stash)
        self.op_count += len(self.edge_stash)
        self.edge_stash = []


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
    """
    if state.live_count == 0:
        return True
    remaining = state.live_count
    vis = bytearray(state.m)
    ud = state.live_degree.copy()  # unvisited-degree; consulted only for NOT_USED
    vstate = state.state
    order = sorted(range(1, state.k + 1),
                   key=lambda p: (-(state.limits[p - 1] - state.b[p]), p))
    for p in order:
        residual = state.limits[p - 1] - state.b[p]
        members = state.part_vertices[p]
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
            for ei in state.inc[best]:
                if state.live[ei] and not vis[ei]:
                    vis[ei] = 1
                    remaining -= 1
                    a, c = state.edge_list[ei]
                    other = c if a == best else a
                    if ud[other] > 0:
                        ud[other] -= 1
            ud[best] = 0
            if remaining == 0:
                return True
    return remaining == 0


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
    uncovered = tuple(state.edge_list[ei] for ei in range(state.m) if state.live[ei])
    # overlay consistency: live edges are exactly the ones the cover misses
    assert uncovered == tuple(e for e in state.edge_list
                              if e[0] not in cover and e[1] not in cover)
    status = SUCCESS if not uncovered else HEURISTIC_FAILURE
    return CoverResult(status=status, cover=cover,
                       per_part_usage=tuple(state.b[1:]),
                       op_count=state.op_count,
                       uncovered_edges=uncovered)
