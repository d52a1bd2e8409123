"""Undirected graphs, k-partitions, budgets, and the predicates solvers are checked against.

Vertices are dense 1-based integer ids. Edges are unordered pairs stored as
(u, v) tuples with u < v. A Graph stores its edges once, as a tuple sorted
ascending; sorted_edges() hands out that tuple and every layer that walks
the edges reads it.
All types are immutable after construction, so instances can be shared
freely between concurrent solver calls; solvers that need a mutable edge
view keep their own overlay.
"""

from __future__ import annotations

from bisect import bisect
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from .errors import InstanceInvalidError, SelfLoopError, VertexOutOfRangeError

Edge = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 1..n.

    edge_order holds every edge once, ascending, and is what equality and
    hashing compare. adjacency[v] is the ascending tuple of v's neighbors
    (index 0 is an unused, empty placeholder so vertex ids index directly).
    Tuples of ints cost a fraction of frozensets and leave the cyclic GC's
    tracking; a reader that tests membership, of a neighbour list or of a
    KPartition's part stored the same way, builds its own set.
    """

    n: int
    edge_order: tuple[Edge, ...]
    adjacency: tuple[tuple[int, ...], ...] = field(compare=False)

    @property
    def m(self) -> int:
        return len(self.edge_order)

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def sorted_edges(self) -> tuple[Edge, ...]:
        return self.edge_order


def build_graph(n: int, edge_list: Iterable[tuple[int, int]]) -> Graph:
    """Construct a Graph from a vertex count and an edge pair sequence.

    Duplicate pairs (in either orientation) are deduplicated silently.
    Self-loops and endpoints outside 1..n are hard errors. Input that is
    already nearly sorted, as a hand-edited file gives it, sorts in close to
    linear time, and (u, v) tuples with u < v are stored as they are.
    """
    if n < 1:
        raise VertexOutOfRangeError(f"vertex count must be >= 1, got {n}")
    pairs: list[Edge] = []
    append = pairs.append
    for e in edge_list:
        u, v = e
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        if not (1 <= u <= n) or not (1 <= v <= n):
            raise VertexOutOfRangeError(f"edge ({u}, {v}) outside 1..{n}")
        if u > v:
            e = (v, u)
        elif type(e) is not tuple:
            e = (u, v)
        append(e)
    pairs.sort()  # duplicates are now adjacent
    return _sorted_graph(n, pairs[:1] + [e for prev, e in zip(pairs, pairs[1:]) if e != prev])


def _sorted_graph(n: int, edges: Sequence[Edge]) -> Graph:
    """Graph from (u, v) tuples that are already ascending, distinct, in
    1..n and have u < v, as build_graph leaves them, as the generators and
    complement emit them and as parse_instance reads canonical text; nothing
    is checked again. In ascending edge order each neighbor list is appended
    in ascending order: v's smaller neighbors u arrive with edges (u, v),
    sorted by u, before its larger ones, sorted by the second endpoint."""
    edges = tuple(edges)
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return Graph(n=n, edge_order=edges, adjacency=tuple(map(tuple, adj)))


def complement(g: Graph) -> Graph:
    """Graph on the same vertices whose edge set is inverted over all pairs."""
    nbrs = list(map(set, g.adjacency))
    missing = [(u, v)
               for u in range(1, g.n + 1)
               for v in range(u + 1, g.n + 1)
               if v not in nbrs[u]]
    return _sorted_graph(g.n, missing)


@dataclass(frozen=True)
class KPartition:
    """Assignment of every vertex to one of k parts.

    part_of[v] is the part id of vertex v in 1..k (index 0 unused).
    parts[i] is the ascending tuple of part i's vertices (index 0 is an
    unused, empty placeholder), stored like Graph.adjacency. Empty parts are
    representable; validate_instance reports them as warnings.
    """

    k: int
    part_of: tuple[int, ...]
    parts: tuple[tuple[int, ...], ...] = field(compare=False)

    @property
    def n(self) -> int:
        return len(self.part_of) - 1


def make_partition(k: int, part_of: Mapping[int, int] | Sequence[int]) -> KPartition:
    """Build a KPartition from a vertex -> part mapping.

    Accepts a dict keyed by vertex id or a sequence of part ids for vertices
    1..n in order. Every part id must lie in 1..k. Each part is appended to
    in vertex-id order, so it comes out ascending with no sort.
    """
    if k < 1:
        raise VertexOutOfRangeError(f"part count must be >= 1, got {k}")
    if isinstance(part_of, Mapping):
        n = len(part_of)
        if set(part_of.keys()) != set(range(1, n + 1)):
            raise VertexOutOfRangeError("partition must assign exactly vertices 1..n")
        part_of = map(part_of.__getitem__, range(1, n + 1))
    assign = [0, *part_of]
    groups: list[list[int]] = [[] for _ in range(k + 1)]
    for v, p in enumerate(assign[1:], start=1):
        if not (1 <= p <= k):
            raise VertexOutOfRangeError(f"vertex {v} assigned to part {p}, outside 1..{k}")
        groups[p].append(v)
    return KPartition(k=k, part_of=tuple(assign), parts=tuple(map(tuple, groups)))


@dataclass(frozen=True)
class Budgets:
    """Per-part selection limits: at most limits[i-1] vertices from part i."""

    limits: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.limits)

    def __post_init__(self) -> None:
        if any(b < 0 for b in self.limits):
            raise ValueError("budgets must be non-negative")


@dataclass(frozen=True)
class Instance:
    """A solvable unit: graph + k-partition + per-part budgets."""

    graph: Graph
    partition: KPartition
    budgets: Budgets


@dataclass(frozen=True)
class ValidationReport:
    """What validate_instance found. Violations make the instance unusable,
    warnings do not; check() is how every entry point refuses one."""

    ok: bool
    violations: tuple[str, ...]
    warnings: tuple[str, ...]

    def check(self) -> ValidationReport:
        """This report if it is ok; InstanceInvalidError carrying it if not."""
        if not self.ok:
            raise InstanceInvalidError(self)
        return self


def validate_instance(inst: Instance) -> ValidationReport:
    """Check partition totality, budget arity, and the no-intra-part-edge condition.

    Violations make the instance unusable; empty parts are only warnings
    (their budget is simply unusable).
    """
    violations: list[str] = []
    warnings: list[str] = []
    g, part, budgets = inst.graph, inst.partition, inst.budgets
    if part.n != g.n:
        violations.append(f"partition assigns {part.n} vertices, graph has {g.n}")
    if budgets.k != part.k:
        violations.append(f"budgets have {budgets.k} entries, partition has {part.k} parts")
    if part.n == g.n:
        if _has_intra_part_edge(g, part):  # the edge walk only names them
            part_of = part.part_of
            for u, v in g.sorted_edges():
                if part_of[u] == part_of[v]:
                    violations.append(f"intra-part edge ({u}, {v}) in part {part_of[u]}")
        for p in range(1, part.k + 1):
            if not part.parts[p]:
                warnings.append(f"part {p} is empty")
    return ValidationReport(ok=not violations,
                            violations=tuple(violations),
                            warnings=tuple(warnings))


def _has_intra_part_edge(g: Graph, part: KPartition) -> bool:
    """True iff an edge of g joins two vertices of one part (part.n == g.n).
    Edge (u, v) with u < v lies in the ascending tail of adjacency[u] past
    u, so a part holds an edge iff one of its members lies in its members'
    tails: one set of tails per part, tested against the part's tuple, each
    edge hashed once, and no walk over the edges."""
    adj = g.adjacency
    for members in part.parts:
        later: set[int] = set()
        for u in members:
            nbrs = adj[u]
            later.update(nbrs[bisect(nbrs, u):])
        if not later.isdisjoint(members):
            return True
    return False


def is_vertex_cover(g: Graph, s: Iterable[int]) -> bool:
    """True iff every edge of g has at least one endpoint in s."""
    sset = _checked_subset(g, s)
    return all(u in sset or v in sset for u, v in g.sorted_edges())


def is_clique(g: Graph, s: Iterable[int]) -> bool:
    """True iff every pair of vertices in s is an edge of g."""
    sset = _checked_subset(g, s)
    # no self-loops: v is joined to every other member iff it has |s| - 1
    # neighbors in s
    return all(len(sset.intersection(g.adjacency[v])) == len(sset) - 1 for v in sset)


def respects_budgets(inst: Instance, s: Iterable[int]) -> bool:
    """True iff s takes at most the budgeted number of vertices from each part."""
    usage = per_part_usage(inst.partition, s)
    return all(usage[i] <= inst.budgets.limits[i] for i in range(inst.partition.k))


def per_part_usage(partition: KPartition, s: Iterable[int]) -> tuple[int, ...]:
    """Count of distinct selected vertices per part, ordered part 1..k."""
    counts = [0] * (partition.k + 1)
    part_of, n = partition.part_of, partition.n
    for v in set(s):
        # part_of[0] and negative ids would index without an error
        if not (1 <= v <= n):
            raise VertexOutOfRangeError(f"vertex {v} outside 1..{n}")
        counts[part_of[v]] += 1
    return tuple(counts[1:])


def greedy_partition(g: Graph) -> KPartition:
    """Proper coloring by smallest available color in vertex-id order.

    The number of colors used becomes k. Output never places both endpoints
    of an edge in one part.
    """
    color = [0] * (g.n + 1)  # 0: not coloured yet
    for v in g.vertices():
        taken = {color[u] for u in g.adjacency[v]}
        c = 1
        while c in taken:
            c += 1
        color[v] = c
    return make_partition(max(color), color[1:])


def _checked_subset(g: Graph, s: Iterable[int]) -> set[int]:
    sset = set(s)
    for v in sset:
        if not (1 <= v <= g.n):
            raise VertexOutOfRangeError(f"vertex {v} outside 1..{g.n}")
    return sset
