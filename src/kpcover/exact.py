"""Ground-truth solvers: exact budgeted cover, exact cover, exact max clique.

The cover solvers share one branch-and-bound core; the unbudgeted cover is
the budgeted search with a single part of limit n. It branches on an
uncovered edge (u, v): either u joins the cover, or u is excluded and every
neighbor of u is forced in. The bound is a greedy maximal matching on the
still-uncovered edges (disjoint edges each need a distinct cover vertex).
Each node scans for it from its parent's branching vertex on, since every
edge whose smaller endpoint lies below that vertex is already covered.
Budget violations prune eagerly. Every search keeps its own stack, so its
depth is not bounded by Python's recursion limit. Among minimum-size
budget-respecting covers the lexicographically smallest vertex sequence is
returned, so results are reproducible byte for byte. Both searches settle
that tie by visit order: each visits its leaves in lexicographic order and
keeps only a strictly better find.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice

from .graph import Graph, Instance, validate_instance

FEASIBLE = "Feasible"
INFEASIBLE = "Infeasible"


@dataclass(frozen=True)
class ExactResult:
    status: str
    cover: frozenset[int] | None
    size: int | None
    nodes_explored: int

    @property
    def feasible(self) -> bool:
        return self.status == FEASIBLE


def exact_cvck(inst: Instance) -> ExactResult:
    """Minimum-size budget-respecting vertex cover, or Infeasible if none exists."""
    validate_instance(inst).check()
    best, nodes = _min_cover_search(inst.graph, inst.partition.part_of,
                                    inst.budgets.limits)
    if best is None:
        return ExactResult(status=INFEASIBLE, cover=None, size=None, nodes_explored=nodes)
    return ExactResult(status=FEASIBLE, cover=frozenset(best), size=len(best),
                       nodes_explored=nodes)


def exact_min_vc(g: Graph) -> frozenset[int]:
    """Minimum vertex cover with the same deterministic tie-break, no budgets."""
    best, _ = _min_cover_search(g, (0,) + (1,) * g.n, (g.n,))
    assert best is not None  # the full vertex set always covers
    return frozenset(best)


def _min_cover_search(g: Graph, part_of: tuple[int, ...], limits: tuple[int, ...]):
    """Depth-first branch and bound over an explicit stack.

    A stack entry is a move from a parent node: the vertices it puts in the
    cover, the vertex it excludes (or None), the parent's branching vertex
    (1 at the root) and a sign. Popping a move with sign 1 applies it and
    pushes the same move with sign -1 below the node's children, so that
    marker pops once every descendant has been explored and undoes exactly
    what the apply added. The branch that puts u in the cover is pushed
    last, so it is explored first. room[p] is the budget part p has left
    (index 0 unused). It never goes below 0, so the budget left for the rest
    of the cover is sum(room), which is total - len(cover).

    Each node starts its matching scan at first[start], the first sorted
    edge whose smaller endpoint is at least start, its parent's branching
    vertex. At the parent, start was the smallest vertex on an uncovered
    edge, and the cover only grows below a node, so every edge before
    first[start] is covered and a scan from edge 0 would skip each of them.
    The bound, the branching edge and every prune stay the same; only the
    walk over covered edges is cut.

    Leaves arrive in lexicographic order of their sorted covers, so the
    search keeps the first leaf of the minimum size. u is the smallest
    vertex that touches an uncovered edge, so its neighbours below it are in
    the cover already: every vertex added below a node is >= its u, and the
    u-out branch always adds some vertex > u (v, at least). Every leaf below
    the node shares its cover's vertices below u; those of the u-in branch
    then hold u and those of the u-out branch do not, so each u-in leaf
    precedes each u-out leaf.
    """
    edges_sorted = g.sorted_edges()
    total = sum(limits)
    best: list[int] | None = None
    best_size = g.n + 1
    nodes = 0
    cover: set[int] = set()
    excluded: set[int] = set()
    room = [0, *limits]
    # first[v]: index of the first sorted edge whose smaller endpoint is >= v
    first = [bisect_left(edges_sorted, (v,)) for v in range(g.n + 2)]
    stack: list[tuple[list[int], int | None, int, int]] = [([], None, 1, 1)]
    while stack:
        joined, out, start, sign = stack.pop()
        for w in joined:
            room[part_of[w]] -= sign
        if sign < 0:
            cover.difference_update(joined)
            excluded.discard(out)
            continue
        cover.update(joined)
        if out is not None:
            excluded.add(out)
        stack.append((joined, out, start, -1))
        nodes += 1
        # greedy maximal matching on the uncovered edges; its first edge,
        # the first uncovered edge in sorted order, is the branching edge;
        # the edges before first[start] are all covered
        blocked = set(cover)
        lb = 0
        for a, b in islice(edges_sorted, first[start], None):
            if a in blocked or b in blocked:
                continue
            if not lb:
                u = a
            blocked.add(a)
            blocked.add(b)
            lb += 1
        if not lb:
            if len(cover) < best_size:
                best_size, best = len(cover), sorted(cover)
            continue
        # prune when the bound passes the best size or the budgets' total
        if len(cover) + lb > min(best_size, total):
            continue
        # excluding a vertex forces its neighbors in, so an uncovered edge
        # never has an excluded endpoint
        assert u not in excluded
        forced = [w for w in g.adjacency[u] if w not in cover]
        assert excluded.isdisjoint(forced)
        after = room[:]
        for w in forced:
            after[part_of[w]] -= 1
        if min(after) >= 0:
            stack.append((forced, u, u, 1))
        if room[part_of[u]]:
            stack.append(([u], None, u, 1))
    return best, nodes


def exact_max_clique(g: Graph) -> frozenset[int]:
    """Maximum clique; ties broken toward the lexicographically smallest set.

    Depth-first extension over ascending vertex ids visits equal-size cliques
    in lexicographic order, so keeping only strictly larger finds is enough
    for the tie-break. The search keeps its own stack, one frame per level:
    that level's candidates and the index of the next one to try.
    """
    adj = list(map(set, g.adjacency))
    best: tuple[int, ...] = ()
    current: list[int] = []
    stack: list[tuple[list[int], int]] = [(list(range(1, g.n + 1)), 0)]
    while stack:
        cands, i = stack.pop()
        # no candidate left, or too few to pass the best clique
        if len(current) + len(cands) - i <= len(best):
            if current:  # the vertex that opened this frame
                current.pop()
            continue
        v = cands[i]
        stack.append((cands, i + 1))
        current.append(v)
        if len(current) > len(best):
            best = tuple(current)
        stack.append(([w for w in cands[i + 1:] if w in adj[v]], 0))
    return frozenset(best)
