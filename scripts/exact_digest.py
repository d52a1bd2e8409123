"""Digests of generated text and solver output on 5,120 seeded instances.

For each instance it hashes serialize_instance's text into one digest,
exact_cvck's (status, cover, size, nodes_explored) with exact_min_vc's cover
on the same graph into a second, and solve_cvck's (status, cover,
per_part_usage, op_count, uncovered_edges) into a third. Two commits whose
text digests match generate and serialize the same bytes; two whose exact
digests match search in the same order, prune the same nodes and break ties
the same way; two whose cvck digests match pick, veto and count operations
the same way. Run it against any checkout's sources:

    PYTHONPATH=src python scripts/exact_digest.py

It prints the digests and exits 1 when any differs from the pinned value
below, so a change that means to alter one of them must update it here.

The ensemble mixes k-partite instances (n 2..20, k 1..4, densities 0.1 to
0.8) under slack:0, slack:1, exact and fixed budgets with random trees
(n 1..40, slack 0..2).
"""

from __future__ import annotations

import hashlib
import sys
import time
from collections import Counter

from kpcover import (GenSpec, SplitMix64, exact_cvck, exact_min_vc,
                     gen_kpartite, gen_tree, serialize_instance, solve_cvck)

EXPECTED = {
    "text": "4d081075e92f334b1195bb0c59dd590de3ab1d552ed4e2fa37f538a8edb987fe",
    "exact": "28ec5b1c53d842c7eb70f4daa34b36fbe0b90ead11a06ec746408c15e8ded330",
    "cvck": "e759294e0352c6b83a91f3418a66625f3ca983e55399d4f517a0e26752b93224",
}


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


def main() -> int:
    digests = {name: hashlib.sha256() for name in EXPECTED}
    kinds: Counter[str] = Counter()
    t0 = time.perf_counter()
    for kind, inst in instances():
        digests["text"].update(serialize_instance(inst).encode())
        res = exact_cvck(inst)
        cover = None if res.cover is None else sorted(res.cover)
        digests["exact"].update(repr((
            res.status, cover, res.size, res.nodes_explored,
            sorted(exact_min_vc(inst.graph)))).encode())
        heur = solve_cvck(inst)
        digests["cvck"].update(repr((
            heur.status, sorted(heur.cover), heur.per_part_usage,
            heur.op_count, heur.uncovered_edges)).encode())
        kinds[kind] += 1
    print(sum(kinds.values()), dict(sorted(kinds.items())),
          f"{time.perf_counter() - t0:.1f}s")
    failed = False
    for name, digest in digests.items():
        got = digest.hexdigest()
        ok = got == EXPECTED[name]
        failed |= not ok
        print(f"{name:5s} {got} {'ok' if ok else 'MISMATCH, pinned ' + EXPECTED[name]}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
