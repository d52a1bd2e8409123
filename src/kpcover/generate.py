"""Seeded instance generators: random k-partite graphs, random trees, complete k-partite graphs.

Reproducibility contract
------------------------
All randomness comes from SplitMix64 below, so identical specs give
byte-identical serialized instances on any platform. Normative draw order:

* gen_kpartite: vertices 1..n are split into contiguous parts as evenly as
  possible (parts 1..n%k get the extra vertex). Pairs (u, v) with u < v are
  visited in ascending order; each pair whose endpoints lie in different
  parts consumes exactly one draw and becomes an edge iff
  next_float() < density. Same-part pairs consume nothing.
  This contract holds however the draws are computed. gen_kpartite
  evaluates them in batches: SplitMix64's state after draw i (counting
  from 1) is state_i = seed + i*gamma mod 2**64, gamma = 0x9E3779B97F4A7C15,
  so each draw depends on i alone. The SplitMix64 class is the reference
  the batched draws are tested against. _contiguous_parts lays out the
  parts and reads one flag per pair in this order, for gen_complete_kpartite
  too, whose flags are all 1.
* gen_tree: a tree on n >= 2 vertices is decoded from a sequence of n - 2
  labels, each drawn as 1 + next_below(n); the decode repeatedly joins the
  smallest degree-1 vertex to the next label. n <= 2 draws nothing.

Budget modes (canonical spelling, also used in files and CSV; S, a and b
are ASCII decimal, as in the instance grammar):

* ``exact``     - limits are the per-part usage of the exact minimum cover,
                  the tightest budgets that stay feasible (small n only).
* ``slack:S``   - limits are the per-part usage of the deterministic
                  matching 2-approximation cover plus S, so a feasible
                  cover exists by construction at any scale.
* ``fixed:a,b`` - limits given verbatim (possibly infeasible, for
                  failure-mode testing).
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import accumulate, chain, compress, pairwise, repeat

from .approx import two_approx_vc
from .errors import SpecInvalidError
from .exact import exact_min_vc
from .graph import (Budgets, Graph, Instance, KPartition, _add_tail, _graph,
                    build_graph, make_partition, per_part_usage)
from .ioformat import _decimal

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# gen_kpartite's draws are evaluated _LANES at a time as 128-bit lanes of one
# int: lane j holds a 64-bit value in its low half, and its high half takes
# the carry of one 64 x 64-bit multiply, so no lane spills into the next.
# _ONES has 1 in every lane, _LANE_MASK has 2**64 - 1, and _STEPS has
# (j + 1) * gamma mod 2**64, the state increment of lane j within a batch.
_LANES = 2048
_ONES = int.from_bytes((b"\x01" + bytes(15)) * _LANES, "little")
_LANE_MASK = int.from_bytes((b"\xff" * 8 + bytes(8)) * _LANES, "little")
_STEPS = int.from_bytes(b"".join(((j + 1) * _GAMMA & _MASK64).to_bytes(16, "little")
                                 for j in range(_LANES)), "little")


class SplitMix64:
    """SplitMix64 stream: state += 0x9E3779B97F4A7C15; output is the
    xor-shift-multiply finalizer (>>30 * 0xBF58476D1CE4E5B9, >>27 *
    0x94D049BB133111EB, >>31), all modulo 2^64."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def next_below(self, bound: int) -> int:
        """Uniform integer in [0, bound), unbiased via rejection."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        threshold = (1 << 64) - ((1 << 64) % bound)
        while True:
            r = self.next_u64()
            if r < threshold:
                return r % bound


@dataclass(frozen=True)
class GenSpec:
    n: int
    k: int
    density: float
    seed: int
    budget_mode: str = "slack:1"


def parse_budget_mode(mode: str) -> tuple[str, int | None, tuple[int, ...] | None]:
    """Split a budget-mode string into (kind, slack, fixed_limits)."""
    if mode == "exact":
        return "exact", None, None
    if mode.startswith("slack:"):
        try:
            s = _decimal(mode.split(":", 1)[1])
        except ValueError:
            raise SpecInvalidError(f"bad slack amount in {mode!r}") from None
        if s < 0:
            raise SpecInvalidError("slack must be >= 0")
        return "slack", s, None
    if mode.startswith("fixed:"):
        try:
            limits = tuple(_decimal(x) for x in mode.split(":", 1)[1].split(","))
        except ValueError:
            raise SpecInvalidError(f"bad fixed limits in {mode!r}") from None
        if any(b < 0 for b in limits):
            raise SpecInvalidError("fixed limits must be >= 0")
        return "fixed", None, limits
    raise SpecInvalidError(f"unknown budget mode {mode!r}")


def derive_budgets(graph: Graph, partition: KPartition, mode: str) -> Budgets:
    """Budgets for a generated graph, per the budget-mode contract above."""
    kind, slack, fixed = parse_budget_mode(mode)
    if kind == "fixed":
        if len(fixed) != partition.k:
            raise SpecInvalidError(
                f"fixed budgets have {len(fixed)} entries, partition has {partition.k} parts")
        return Budgets(fixed)
    if kind == "exact":
        usage = per_part_usage(partition, exact_min_vc(graph))
        return Budgets(usage)
    usage = per_part_usage(partition, two_approx_vc(graph))
    return Budgets(tuple(u + slack for u in usage))


def even_part_sizes(n: int, k: int) -> list[int]:
    base, rem = divmod(n, k)
    return [base + 1 if p <= rem else base for p in range(1, k + 1)]


def gen_kpartite(spec: GenSpec) -> Instance:
    """Random k-partite instance; every admissible inter-part pair is an
    independent density-probability edge."""
    if spec.n < 1 or not (1 <= spec.k <= spec.n):
        raise SpecInvalidError(f"need 1 <= k <= n, got n={spec.n} k={spec.k}")
    if not (0.0 <= spec.density <= 1.0):
        raise SpecInvalidError(f"density {spec.density} outside [0, 1]")
    parse_budget_mode(spec.budget_mode)

    sizes = even_part_sizes(spec.n, spec.k)
    draws = (spec.n * spec.n - sum(size * size for size in sizes)) // 2
    hits = chain.from_iterable(_hit_flags(spec.seed, draws, spec.density))
    graph, partition = _contiguous_parts(sizes, hits)
    return Instance(graph=graph, partition=partition,
                    budgets=derive_budgets(graph, partition, spec.budget_mode))


def _contiguous_parts(sizes: Sequence[int], hits: Iterator) -> tuple[Graph, KPartition]:
    """Graph and partition with parts of the given sizes over consecutive
    ids, part 1 first. Each inter-part pair (u, v), u < v, takes the next
    flag of hits, in ascending pair order, and is an edge iff it is true.
    u's partners in later parts are exactly end..n, sliced once per part
    from one list of ids, and compress reads one flag per partner, so a
    missed pair allocates nothing; the hits are u's tail, which _add_tail
    puts onto the neighbour lists in ascending order, so _graph sorts
    nothing.
    """
    n = sum(sizes)
    ids = list(range(n + 1))
    bounds = list(accumulate(sizes, initial=1))  # part p is bounds[p-1]..bounds[p]-1
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for start, end in pairwise(bounds):
        partners = ids[end:]
        for u in range(start, end):
            _add_tail(adj, u, list(compress(partners, hits)))
    assign = [p for p, size in enumerate(sizes, start=1) for _ in range(size)]
    return _graph(adj, ordered=True), make_partition(len(sizes), assign)


def _hit_flags(seed: int, draws: int, density: float) -> Iterator[bytes]:
    """Yield bytes of 0/1 flags, one per draw, that are 1 where
    SplitMix64(seed).next_float() < density, for the first `draws` draws.

    next_float() is (z >> 11) * 2**-53, and scaling by 2**53 is exact, so
    the test is (z >> 11) < density * 2**53, that is z >> 11 < t with
    t = ceil(density * 2**53), that is z < t << 11. Each lane holds
    (t << 11) + 2**64 - 1 - z after one subtraction, which never borrows,
    and its bit 64 is set exactly when z < t << 11.
    """
    state = seed & _MASK64
    limit = (math.ceil(density * 2.0 ** 53) << 11) + _MASK64
    ones, lane_mask, steps = _ONES, _LANE_MASK, _STEPS
    limits = limit * ones if draws >= _LANES else 0
    for done in range(0, draws, _LANES):
        lanes = min(_LANES, draws - done)
        if lanes < _LANES:  # the last batch: cut the constants to its lanes
            cut = (1 << 128 * lanes) - 1
            ones, lane_mask, steps = ones & cut, lane_mask & cut, steps & cut
            limits = limit * ones
        # z >> s pulls the next lane's low bits into this lane's high half,
        # so each xor-shift is masked before the multiply
        z = (state * ones + steps) & lane_mask
        z = ((z ^ (z >> 30)) & lane_mask) * 0xBF58476D1CE4E5B9 & lane_mask
        z = ((z ^ (z >> 27)) & lane_mask) * 0x94D049BB133111EB & lane_mask
        z = (z ^ (z >> 31)) & lane_mask
        yield (limits - z).to_bytes(16 * lanes, "little")[8::16]
        state = (state + lanes * _GAMMA) & _MASK64


def gen_tree(n: int, seed: int, budget_mode: str = "slack:1") -> Instance:
    """Uniform random labeled tree, 2-partitioned by breadth-first level parity.

    The tree is decoded from n - 2 uniform labels (every labeled tree
    corresponds to exactly one label sequence, so the distribution is
    uniform). Budgets follow budget_mode, as in gen_kpartite.
    """
    if n < 1:
        raise SpecInvalidError(f"tree needs n >= 1, got {n}")
    if n == 1:
        graph, partition = build_graph(1, []), make_partition(1, [1])
    else:
        rng = SplitMix64(seed)
        seq = [1 + rng.next_below(n) for _ in range(n - 2)]
        graph = build_graph(n, _decode_label_sequence(n, seq))
        depth = _bfs_depths(graph)
        partition = make_partition(2, [1 + depth[v] % 2 for v in range(1, n + 1)])
    return Instance(graph=graph, partition=partition,
                    budgets=derive_budgets(graph, partition, budget_mode))


def gen_complete_kpartite(sizes: tuple[int, ...] | list[int]) -> Instance:
    """Complete k-partite instance; budgets default to the part sizes."""
    sizes = tuple(sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise SpecInvalidError(f"part sizes must all be >= 1, got {sizes}")
    graph, partition = _contiguous_parts(sizes, repeat(1))
    return Instance(graph=graph, partition=partition, budgets=Budgets(sizes))


def _decode_label_sequence(n: int, seq: list[int]) -> list[tuple[int, int]]:
    degree = [0] + [1] * n
    for s in seq:
        degree[s] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, s))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return edges


def _bfs_depths(graph: Graph) -> list[int]:
    depth = [-1] * (graph.n + 1)
    depth[1] = 0
    queue = [1]
    while queue:
        nxt = []
        for u in queue:
            for w in graph.adjacency[u]:
                if depth[w] < 0:
                    depth[w] = depth[u] + 1
                    nxt.append(w)
        queue = nxt
    return depth
