"""Digests of generated text, parser and solver output on seeded instances.

For each instance it hashes serialize_instance's text into one digest,
exact_cvck's (status, cover, size, nodes_explored) with exact_min_vc's cover
on the same graph into a second, and solve_cvck's (status, cover,
per_part_usage, op_count, uncovered_edges) into a third. A fourth hashes
what parse_instance makes of that text after one seeded edit of the kinds a
hand-edited file shows: the parsed instance's canonical text, or the
error's (kind, line, message). Two commits whose text digests match
generate and serialize the same bytes; two whose exact digests match search
in the same order, prune the same nodes and break ties the same way; two
whose cvck digests match pick, veto and count operations the same way; two
whose parse digests match accept and reject the same texts with the same
errors. A fifth digest, large, hashes serialize_instance's text for a few
gen_kpartite specs with n in the hundreds, each making thousands of draws,
at the extreme densities 5e-324 and 1 - 2**-53, with parts of unequal
size and seeds at and beyond 2**63. A sixth, cvck-large, hashes solve_cvck's
outcome, as in cvck, on those instances and on one more n = 200 instance
under slack:0 budgets. A seventh, generators, hashes serialize_instance's
text for gen_complete_kpartite on 240 seeded size tuples (1-6 parts of 1-12
vertices each) and for gen_tree on n = 1..20 under exact and fixed budgets,
the two modes the text digest's trees never use. An eighth, approx, hashes
matching_vertex_cover's sorted cover and its matching on the ensemble's
graphs and on the large specs, so the 2-approximation's edge order is
pinned beyond the budgets it derives. A ninth, parse-large, hashes
parse_outcome, as in parse, on each large spec's text after one seeded
edit at each of several lines: its first e line, the lines on each side of
its first two and its last e-chunk boundaries (every CHUNK e lines), its
last line and three lines of its v section; and on the same text with its
e section reversed, with every e line's two vertices swapped, and with its
e section shuffled. Run it against any checkout's
sources:

    PYTHONPATH=src python scripts/exact_digest.py

It prints the instance counts, the total of exact_cvck's nodes_explored
over the ensemble (so a change to the search shows as a count, not only as
a digest mismatch) with the seconds exact_cvck took to explore them, and
the digests, and exits 1 when any digest differs from the pinned value
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

from kpcover import (GenSpec, ParseError, SplitMix64, exact_cvck,
                     exact_min_vc, gen_complete_kpartite, gen_kpartite,
                     gen_tree, matching_vertex_cover, parse_instance,
                     serialize_instance, solve_cvck)

EXPECTED = {
    "text": "4d081075e92f334b1195bb0c59dd590de3ab1d552ed4e2fa37f538a8edb987fe",
    "exact": "28ec5b1c53d842c7eb70f4daa34b36fbe0b90ead11a06ec746408c15e8ded330",
    "cvck": "e759294e0352c6b83a91f3418a66625f3ca983e55399d4f517a0e26752b93224",
    "parse": "af501f7f8c33b531d94e0131ebbe6aa9c72a92039d7a4b2cdcf40b368a4be9d6",
    "large": "635b54f16c61988668482def5838462e9da75e5d2137dcd1add0ad3b8d1a42d0",
    "cvck-large": "f0088dba1737a3e5f94a08fcf665f3f3e4a6481b22875a015b990b481d58d7a5",
    "generators": "827e2bd75ed93b07496040a68bbbb29a643492760fe105826c9d740407f89360",
    "approx": "23d12011f512a98920c49d587256c562616fdfd4284211c696cadcdd1929523b",
    "parse-large": "0fcb5a4d88a6c0ec7e08786f580012224c114483cec728aecd0e45d3591111f9",
}
LARGE_SPECS = (
    GenSpec(n=200, k=4, density=0.5, seed=41),
    GenSpec(n=302, k=7, density=1 - 2 ** -53, seed=2 ** 64 - 1),
    GenSpec(n=150, k=4, density=5e-324, seed=-7, budget_mode="slack:0"),
    GenSpec(n=123, k=5, density=0.1, seed=2 ** 63, budget_mode="fixed:9,9,9,9,9"),
)
CVCK_LARGE_SPECS = LARGE_SPECS + (
    GenSpec(n=200, k=4, density=0.5, seed=41, budget_mode="slack:0"),
)
# lines in one of parse_instance's bulk e runs: parse-large edits the lines
# on each side of a run's end
CHUNK = 1024
EDITS = ("delete", "duplicate", "swap", "digit", "reverse", "zero", "space",
         "cr", "comment", "no-final-lf")


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


def generator_instances(seed: int = 20261020, count: int = 240):
    rng = SplitMix64(seed)
    for _ in range(count):
        k = 1 + rng.next_below(6)
        yield gen_complete_kpartite([1 + rng.next_below(12) for _ in range(k)])
    for n in range(1, 21):
        tree_seed = rng.next_u64()
        limits = ",".join(str(rng.next_below(n)) for _ in range(min(n, 2)))
        yield gen_tree(n, tree_seed, "exact")
        yield gen_tree(n, tree_seed, "fixed:" + limits)


def edit(text: str, rng: SplitMix64, at: int | None = None) -> str:
    """Canonical text with one edit drawn from rng, of line `at` (from 0)
    or of a line drawn from rng; reversing a line that is not an e record
    leaves the text as it is."""
    lines = text.split("\n")[:-1]  # canonical text ends with LF
    how = EDITS[rng.next_below(len(EDITS))]
    i = rng.next_below(len(lines)) if at is None else at
    fields = lines[i].split(" ")
    if how == "delete":
        del lines[i]
    elif how == "duplicate":
        lines.insert(rng.next_below(len(lines) + 1), lines[i])
    elif how == "swap":
        j = rng.next_below(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    elif how == "digit":
        digits = [j for j, ch in enumerate(text) if ch.isdigit()]
        j = digits[rng.next_below(len(digits))]
        return text[:j] + str(rng.next_below(10)) + text[j + 1:]
    elif how == "reverse" and fields[0] == "e":
        lines[i] = " ".join((fields[0], fields[2], fields[1]))
    elif how == "zero":
        j = 1 + rng.next_below(len(fields) - 1)
        fields[j] = "0" + fields[j]
        lines[i] = " ".join(fields)
    elif how == "space":
        lines[i] += " "
    elif how == "cr":
        lines[i] += "\r"
    elif how == "comment":
        lines.insert(i, "c note")
    elif how == "no-final-lf":
        return "\n".join(lines)
    return "\n".join(lines) + "\n"


def large_parse_texts(text: str, rng: SplitMix64):
    """The parse-large texts of one canonical text: one edit at each line
    the module docstring names, then the e section reversed, flipped and
    shuffled."""
    lines = text.split("\n")[:-1]
    _, _, n, _, k = lines[0].split()
    e_start = 1 + int(n) + int(k)  # p line, v records, b records
    ends = range(e_start + CHUNK, len(lines), CHUNK)
    spots = {e_start, len(lines) - 1}
    spots.update(i for end in (*ends[:2], *ends[-1:]) for i in (end - 1, end, end + 1))
    spots.update(1 + rng.next_below(int(n)) for _ in range(3))
    for at in sorted(spots & set(range(len(lines)))):
        yield edit(text, rng, at)
    head, es = lines[:e_start], lines[e_start:]
    yield "\n".join(head + es[::-1]) + "\n"
    yield "\n".join(head + [f"e {v} {u}" for _, u, v in map(str.split, es)]) + "\n"
    for i in range(len(es) - 1, 0, -1):  # Fisher-Yates
        j = rng.next_below(i + 1)
        es[i], es[j] = es[j], es[i]
    yield "\n".join(head + es) + "\n"


def parse_outcome(text: str) -> tuple:
    try:
        return ("ok", serialize_instance(parse_instance(text)))
    except ParseError as err:
        return (err.kind, err.line, str(err))


def cvck_outcome(inst) -> bytes:
    heur = solve_cvck(inst)
    return repr((heur.status, sorted(heur.cover), heur.per_part_usage,
                 heur.op_count, heur.uncovered_edges)).encode()


def approx_outcome(graph) -> bytes:
    cover, matching = matching_vertex_cover(graph)
    return repr((sorted(cover), matching)).encode()


def main() -> int:
    digests = {name: hashlib.sha256() for name in EXPECTED}
    kinds: Counter[str] = Counter()
    nodes = 0
    exact_s = 0.0
    edit_rng = SplitMix64(20261019)
    t0 = time.perf_counter()
    for kind, inst in instances():
        text = serialize_instance(inst)
        digests["text"].update(text.encode())
        digests["parse"].update(repr(parse_outcome(edit(text, edit_rng))).encode())
        t = time.perf_counter()
        res = exact_cvck(inst)
        exact_s += time.perf_counter() - t
        cover = None if res.cover is None else sorted(res.cover)
        nodes += res.nodes_explored
        digests["exact"].update(repr((
            res.status, cover, res.size, res.nodes_explored,
            sorted(exact_min_vc(inst.graph)))).encode())
        digests["cvck"].update(cvck_outcome(inst))
        digests["approx"].update(approx_outcome(inst.graph))
        kinds[kind] += 1
    large_rng = SplitMix64(20261021)
    for spec in LARGE_SPECS:
        inst = gen_kpartite(spec)
        text = serialize_instance(inst)
        digests["large"].update(text.encode())
        digests["approx"].update(approx_outcome(inst.graph))
        for edited in large_parse_texts(text, large_rng):
            digests["parse-large"].update(repr(parse_outcome(edited)).encode())
    for spec in CVCK_LARGE_SPECS:
        digests["cvck-large"].update(cvck_outcome(gen_kpartite(spec)))
    for inst in generator_instances():
        digests["generators"].update(serialize_instance(inst).encode())
    print(sum(kinds.values()), dict(sorted(kinds.items())),
          f"{time.perf_counter() - t0:.1f}s")
    print("exact_cvck nodes_explored", nodes, f"in {exact_s:.2f}s",
          f"({nodes / exact_s:,.0f} nodes/s)")
    failed = False
    for name, digest in digests.items():
        got = digest.hexdigest()
        ok = got == EXPECTED[name]
        failed |= not ok
        print(f"{name:11s} {got} {'ok' if ok else 'MISMATCH, pinned ' + EXPECTED[name]}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
