"""Undirected graphs, k-partitions, budgets, and the predicates solvers are checked against.

Vertices are dense 1-based integer ids. Edges are unordered pairs (u, v)
with u < v. A Graph keeps each edge once, as adjacency: v sits in the
ascending tail of adjacency[u] past u, and u in the head of adjacency[v].
sorted_edges() derives the ascending (u, v) tuple from those tails on every
call, so a caller that walks the edges more than once keeps the tuple;
the layers that walk every edge in timed code walk the tails instead.
This module alone lays adjacency out. Every Graph is built by filling
n + 1 neighbour lists, by _add_tail (u's tail onto adj[u], u onto each
tail vertex's list) in the generators, complement and the parser, or a
pair at a time in build_graph, and finished by _graph, which applies the
one ordering rule, _sort_lists, unless the lists are known to ascend.
All types are immutable after construction, so instances can be shared
freely between concurrent solver calls; solvers that need a mutable edge
view keep their own overlay.
"""

from __future__ import annotations

from bisect import bisect
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import filterfalse, islice
from operator import lt

from .errors import InstanceInvalidError, SelfLoopError, VertexOutOfRangeError

Edge = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 1..n with m edges.

    adjacency[v] is the ascending tuple of v's neighbors (index 0 is an
    unused, empty placeholder so vertex ids index directly); it is the one
    record of the edges, and with n what equality and hashing compare.
    Tuples of ints cost a fraction of frozensets and leave the cyclic GC's
    tracking; a reader that tests membership, of a neighbour list or of a
    KPartition's part stored the same way, builds its own set. No field
    holds a tuple per edge: sorted_edges() builds them when asked.
    """

    n: int
    m: int = field(compare=False)
    adjacency: tuple[tuple[int, ...], ...]

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def tails(self) -> list[tuple[int, ...]]:
        """adjacency[u]'s neighbours past u, for u = 0..n: each edge (u, v)
        once, as v in the tail of u, in ascending edge order."""
        return [nbrs[bisect(nbrs, u):] for u, nbrs in enumerate(self.adjacency)]

    def sorted_edges(self) -> tuple[Edge, ...]:
        """Every edge once, as (u, v) with u < v, ascending; derived from
        the tails on each call and not kept."""
        return tuple([(u, v) for u, tail in enumerate(self.tails()) for v in tail])


def build_graph(n: int, edge_list: Iterable[tuple[int, int]]) -> Graph:
    """Construct a Graph from a vertex count and an edge pair sequence.

    Duplicate pairs (in either orientation) are deduplicated silently.
    Self-loops and endpoints outside 1..n are hard errors. Each checked pair
    is appended to both endpoints' lists, and _graph orders them: pairs in
    ascending edge order, either way round, leave every list ascending and
    sort nothing, so no tuple per edge is made.
    """
    if n < 1:
        raise VertexOutOfRangeError(f"vertex count must be >= 1, got {n}")
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in edge_list:
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        if not (1 <= u <= n) or not (1 <= v <= n):
            raise VertexOutOfRangeError(f"edge ({u}, {v}) outside 1..{n}")
        adj[u].append(v)
        adj[v].append(u)
    return _graph(adj, ordered=False)


def _add_tail(adj: list[list[int]], u: int, tail: Sequence[int]) -> None:
    """The one fill step: u's tail, its neighbours above u, goes onto adj[u]
    in one +=, and u is appended to each tail vertex's list. Filled for u
    = 1..n in turn with ascending tails, every list comes out strictly
    ascending: v's smaller neighbours arrive with their own tails, in
    order, before its tail."""
    adj[u] += tail
    for v in tail:
        adj[v].append(u)


def _sort_lists(adj: list[list[int]]) -> bool:
    """The one ordering rule: sort in place each neighbour list that is not
    strictly ascending; True iff a sorted list holds a neighbour twice, a
    pair given twice."""
    repeated = False
    for nbrs in adj:
        if not all(map(lt, nbrs, islice(nbrs, 1, None))):
            nbrs.sort()
            repeated = repeated or not all(map(lt, nbrs, islice(nbrs, 1, None)))
    return repeated


def _graph(adj: list[list[int]], ordered: bool) -> Graph:
    """The one finisher: the Graph on 1..n whose n + 1 neighbour lists adj
    holds (index 0 empty), each edge in both endpoints' lists. Unless the
    caller knows every list is strictly ascending (ordered), _sort_lists
    orders them, and where it finds a pair given twice each list keeps one
    of each neighbour, so m counts the distinct pairs."""
    lists = adj
    if not ordered and _sort_lists(adj):
        lists = map(dict.fromkeys, adj)  # sorted, so one of each neighbour, in order
    adjacency = tuple(map(tuple, lists))
    return Graph(n=len(adj) - 1, m=sum(map(len, adjacency)) // 2, adjacency=adjacency)


def complement(g: Graph) -> Graph:
    """Graph on the same vertices whose edge set is inverted over all pairs:
    each vertex's tail is the vertices above it that it misses."""
    n = g.n
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for u, nbrs in enumerate(g.adjacency[1:], start=1):
        _add_tail(adj, u, list(filterfalse(set(nbrs).__contains__, range(u + 1, n + 1))))
    return _graph(adj, ordered=True)


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
    """True iff every edge of g has at least one endpoint in s: each vertex
    outside s has its tail, the edges it leads, inside s."""
    sset = _checked_subset(g, s)
    return all(u in sset or sset.issuperset(tail) for u, tail in enumerate(g.tails()))


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
