"""Digest of the exact cover oracles on 5,120 seeded instances.

For each instance it hashes exact_cvck's (status, cover, size,
nodes_explored) and exact_min_vc's cover on the same graph. Two commits whose
digests match search in the same order, prune the same nodes and break ties
the same way. Run it against any checkout's sources:

    PYTHONPATH=src python scripts/exact_digest.py

The ensemble mixes k-partite instances (n 2..20, k 1..4, densities 0.1 to
0.8) under slack:0, slack:1, exact and fixed budgets with random trees
(n 1..40, slack 0..2).
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter

from kpcover import (GenSpec, SplitMix64, exact_cvck, exact_min_vc,
                     gen_kpartite, gen_tree)


def instances(seed: int = 20261018, count: int = 5120):
    rng = SplitMix64(seed)
    for i in range(count):
        kind = i % 8
        inst_seed = rng.next_u64()
        if kind == 7:
            n, slack = 1 + rng.next_below(40), rng.next_below(3)
            yield "tree", gen_tree(n, inst_seed, f"slack:{slack}")
            continue
        n = 2 + rng.next_below(19)
        k = 1 + rng.next_below(min(4, n))
        density = (0.1, 0.3, 0.5, 0.8)[rng.next_below(4)]
        mode = ("slack:0", "slack:1", "exact", "exact", "fixed")[kind % 5]
        if mode == "fixed":
            mode = "fixed:" + ",".join(str(rng.next_below(n // k + 2))
                                       for _ in range(k))
        yield mode.split(":")[0], gen_kpartite(GenSpec(
            n=n, k=k, density=density, seed=inst_seed, budget_mode=mode))


def main() -> None:
    digest = hashlib.sha256()
    kinds: Counter[str] = Counter()
    t0 = time.perf_counter()
    for kind, inst in instances():
        res = exact_cvck(inst)
        cover = None if res.cover is None else sorted(res.cover)
        digest.update(repr((res.status, cover, res.size, res.nodes_explored,
                            sorted(exact_min_vc(inst.graph)))).encode())
        kinds[kind] += 1
    print(digest.hexdigest(), sum(kinds.values()), dict(sorted(kinds.items())),
          f"{time.perf_counter() - t0:.1f}s")


if __name__ == "__main__":
    main()
