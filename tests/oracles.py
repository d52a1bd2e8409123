"""Independent brute-force references the solvers are checked against.

Deliberately kept free of kpcover internals: plain tuples, sets, and
exhaustive enumeration only, so a bug in the package cannot hide behind a
shared code path.
"""

from __future__ import annotations

from itertools import combinations


def covers_all_edges(edges, s) -> bool:
    s = set(s)
    return all(u in s or v in s for u, v in edges)


def within_budgets(part_of, limits, s) -> bool:
    counts = [0] * len(limits)
    for v in s:
        counts[part_of[v] - 1] += 1
    return all(counts[i] <= limits[i] for i in range(len(limits)))


def is_clique_naive(adj_pairs, s) -> bool:
    s = sorted(s)
    pairs = {tuple(sorted(e)) for e in adj_pairs}
    return all((s[i], s[j]) in pairs
               for i in range(len(s)) for j in range(i + 1, len(s)))


def brute_min_vc_size(n, edges) -> int:
    for size in range(n + 1):
        for combo in combinations(range(1, n + 1), size):
            if covers_all_edges(edges, combo):
                return size
    raise AssertionError("full vertex set always covers")


def brute_min_cvck(n, edges, part_of, limits):
    """(optimal size or None, frozenset of all optimal covers)."""
    for size in range(n + 1):
        found = {frozenset(c) for c in combinations(range(1, n + 1), size)
                 if covers_all_edges(edges, c) and within_budgets(part_of, limits, c)}
        if found:
            return size, found
    return None, set()


def brute_optima(inst):
    """brute_min_cvck's set of optimal covers (empty if none) for an instance.

    Reads only the instance's plain fields: n, the edge pairs, each vertex's
    part and the budgets.
    """
    return brute_min_cvck(inst.graph.n, inst.graph.sorted_edges(),
                          inst.partition.part_of, inst.budgets.limits)[1]


def brute_max_clique_size(n, edges) -> int:
    best = 0
    for size in range(n, -1, -1):
        for combo in combinations(range(1, n + 1), size):
            if is_clique_naive(edges, combo):
                return size
    return best


def all_graphs(n):
    """Every edge subset on n vertices as a list of edge lists."""
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    for mask in range(1 << len(pairs)):
        yield [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
