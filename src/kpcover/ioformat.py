"""Text instance format.

Instance grammar, one record per line, fields space-separated, ASCII decimal
integers, UTF-8 with LF line endings (a CR before the LF is ignored). Comments
may hold any text; every other line is ASCII:

    c <anything>          comment, ignored anywhere
    p kpvc <n> <m> <k>    exactly one, first non-comment line
    v <vertex> <part>     exactly one per vertex 1..n, part in 1..k
    b <part> <budget>     exactly one per part 1..k, budget >= 0
    e <u> <v>             m lines, u != v, no pair twice in either order

v/b/e records may interleave after the p line. Budgets are mandatory, so a
file is always a complete instance. parse(serialize(inst)) == inst, and the
canonical serialization (sorted records, no comments) is byte-stable.

parse_instance reads the text with one line regex and splits each line into
tokens, so every line, comment, p line or record, takes the same checks.
Its fast paths are bulk v and e runs, and both fall back to that line
reader, so every error keeps its kind, line and message.

After the p line, a run of plain v lines, each `v`, a space, 1-18 digits, a
space, 1-18 digits and an LF, is read in chunks of at most _RUN_LINES
lines: one match, one split and int() over digits the regex has checked.
The range and duplicate checks run once per chunk, and a chunk that fails
one is read line by line. When the n-th v record is read, a table from
decimal text to vertex is built from those records, so it never holds more
than the file gave, and a hit is a vertex already checked to lie in 1..n;
its int is shared by every edge that names it. The neighbour lists are
allocated then too, so a hostile header allocates nothing; e lines read
before that point wait in one flat list and join the lists in file order.

After that point a run of plain e lines, the same shape led by `e`, is read
in chunks the same way. A chunk is checked before any of it is kept: every
second field must be in the table, and every first field is looked up once
per group of consecutive lines with equal first fields, so those lookups
cost one per vertex, not one per edge. A chunk in canonical order (below)
has u < v on every line; in any other, a self-loop is ruled out by
comparing each line's two fields as text. A chunk with a self-loop or a
field the table lacks (a leading zero or a vertex outside 1..n) is read
line by line instead, and the cap keeps the chunk's token lists small
however long the run. Each group's first endpoint u then takes its tail,
the group's second endpoints, onto its list in one extend, and u is
appended to each tail vertex's list: no tuple per edge.

Canonical text gives its edges with u < v and strictly ascending. Then every
group's u is above the last one's (or equal to it where a group spans two
chunks, with its tail going on past the last one's), its tail starts above u
and rises, and every neighbour list comes out strictly ascending: smaller
neighbours arrive first, with their own groups, then the tail. Each group is
checked so; a chunk whose first line is written v u is grouped by its second
fields, so text with every pair the other way round passes too; text in any other order only drops the check, and then the
lists that are not strictly ascending are sorted in place, and an equal
neighbour in a sorted list is a pair given twice. Intra-part edges are found
after the loop with one set per part of the built graph, the union of its
members' neighbour tails, tested against the part. Only to name the line of
an intra-part or repeated edge are the e records read again from the text.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from itertools import chain, groupby, islice
from operator import eq, lt

from .errors import ParseError
# build_graph stays a module attribute, though parse_instance does not call
# it: kpbench's tracer wraps kpcover.ioformat.build_graph
from .graph import (Budgets, Graph, Instance, _has_intra_part_edge,
                    build_graph, make_partition, validate_instance)


def parse_instance(text: str) -> Instance:
    """Parse the grammar above; every rejection names a 1-based line number."""
    header: tuple[int, int, int, int] | None = None  # (lineno, n, m, k)
    v_records: dict[int, int] = {}
    b_records: dict[int, int] = {}
    ids: dict[str, int] | None = None  # decimal text -> vertex, once all are read
    adj: list[list[int]] = []  # neighbour lists, allocated with ids
    early: list[int] = []  # e records read before ids, as u, v, u, v, ...
    # the last edge (u, v) while every edge so far came in canonical order
    last: tuple[int, int] | None = (0, 0)
    n = k = lineno = pos = bulk_from = 0
    size = len(text)

    while pos < size:
        if header is not None and pos >= bulk_from:
            if ids is None:
                run = _V_RUN.match(text, pos)
                if run is not None:
                    parts = _v_chunk(run[0], n, k, v_records)
                    if parts is not None:
                        v_records.update(zip(*parts))
                        lineno += len(parts[0])
                        pos = run.end()
                        if len(v_records) == n:
                            ids, adj, last = _lists(v_records, early, last)
                        continue
                    bulk_from = run.end()  # the loop below names the first bad line
            else:
                run = _E_RUN.match(text, pos)
                if run is not None:
                    chunk = _e_chunk(run[0], ids)
                    if chunk is not None:
                        last = _add_tails(adj, *chunk, last)
                        lineno += run[0].count("\n")
                        pos = run.end()
                        continue
                    bulk_from = run.end()
        line = _LINE.match(text, pos)  # takes at least one character
        lineno += 1
        pos = line.end()
        raw = line[1]
        tokens = raw.split()
        if not tokens or tokens[0] == "c":
            continue
        # a non-ASCII character inside a field fails that field's check
        # below; between fields, str.split() took it for a separator
        if not raw.isascii() and "".join(tokens).isascii():
            raise ParseError(lineno, "Syntax", f"non-ASCII separator in {raw!r}")
        kind = tokens[0]
        if kind == "p":
            if header is not None:
                raise ParseError(lineno, "DuplicateRecord", "second p line")
            if len(tokens) != 5 or tokens[1] != "kpvc":
                raise ParseError(lineno, "Syntax", "expected 'p kpvc <n> <m> <k>'")
            n, m, k = _ints(lineno, tokens[2:])
            if n < 1 or m < 0 or k < 1:
                raise ParseError(lineno, "Syntax", f"bad header values n={n} m={m} k={k}")
            header = (lineno, n, m, k)
            continue
        if header is None:
            raise ParseError(lineno, "Syntax", "record before the p line")
        if kind not in _RECORDS:
            raise ParseError(lineno, "Syntax", f"unknown record kind {kind!r}")
        if len(tokens) != 3:
            raise ParseError(lineno, "Syntax", f"expected {_RECORDS[kind]!r}")
        x, y = _ints(lineno, tokens[1:])
        if kind == "e":
            if x == y:
                raise ParseError(lineno, "Syntax", f"self-loop at vertex {x}")
            if not (0 < x <= n and 0 < y <= n):
                raise ParseError(lineno, "Syntax", f"edge ({x}, {y}) outside 1..{n}")
            if ids is None:
                early += (x, y)
            else:
                last = _add_tails(adj, (x,), (1,), (y,), x < y, last)
        elif kind == "v":
            if not (0 < x <= n):
                raise ParseError(lineno, "Syntax", f"vertex {x} outside 1..{n}")
            if not (0 < y <= k):
                raise ParseError(lineno, "Syntax", f"part {y} outside 1..{k}")
            if x in v_records:
                raise ParseError(lineno, "DuplicateRecord", f"vertex {x} assigned twice")
            v_records[x] = y
            if len(v_records) == n:  # every vertex read: bulk e runs may start
                ids, adj, last = _lists(v_records, early, last)
        else:
            if not (0 < x <= k):
                raise ParseError(lineno, "Syntax", f"part {x} outside 1..{k}")
            if y < 0:
                raise ParseError(lineno, "Syntax", f"negative budget {y}")
            if x in b_records:
                raise ParseError(lineno, "DuplicateRecord", f"budget for part {x} given twice")
            b_records[x] = y

    if header is None:
        raise ParseError(1, "Syntax", "missing p line")
    p_lineno, n, m, k = header
    edges = (sum(map(len, adj)) + len(early)) // 2  # early is empty once adj is filled
    if edges != m:
        raise ParseError(p_lineno, "CountMismatch",
                         f"p line declares {m} edges, file has {edges}")
    # compare counts before scanning ids: n and k come from the header, and
    # the file need not hold anywhere near that many records
    if len(v_records) != n:
        missing = next(v for v in range(1, n + 1) if v not in v_records)
        raise ParseError(p_lineno, "MissingVertexAssignment",
                         f"no v record for vertex {missing}")
    if len(b_records) != k:
        missing = next(p for p in range(1, k + 1) if p not in b_records)
        raise ParseError(p_lineno, "MissingBudget",
                         f"no b record for part {missing}")
    partition = make_partition(k, v_records)  # vertices 1..n, parts 1..k: no raise
    repeated = last is None and _sort_lists(adj)
    graph = Graph(n=n, m=m, adjacency=tuple(map(tuple, adj)))
    if _has_intra_part_edge(graph, partition):  # the file-order walk names the first
        part_of = partition.part_of
        lineno, u, v = next((lineno, u, v) for lineno, u, v in _e_records(text)
                            if part_of[u] == part_of[v])
        raise ParseError(lineno, "IntraPartEdge", f"edge ({u}, {v}) inside part {part_of[u]}")
    if repeated:  # name the line of the first pair's second copy
        seen: set[tuple[int, int]] = set()
        for lineno, u, v in _e_records(text):
            pair = (u, v) if u < v else (v, u)
            if pair in seen:
                raise ParseError(lineno, "DuplicateRecord", f"edge ({u}, {v}) given twice")
            seen.add(pair)
    return Instance(graph=graph, partition=partition,
                    budgets=Budgets(tuple(b_records[p] for p in range(1, k + 1))))


# one line, ended by LF or the end of the text. `.` stops only at LF, so a
# U+2028 or similar in a comment can neither end a line nor shift the line
# numbers after it.
_LINE = re.compile(r"(.*)(?:\n|\Z)")
_RECORDS = {"v": "v <vertex> <part>", "b": "b <part> <budget>", "e": "e <u> <v>"}
# up to _RUN_LINES consecutive plain v or e records, each ended by LF;
# capping the chunk keeps the transient token lists the same size however
# long the run
_RUN_LINES = 1024
_V_RUN = re.compile(r"(?:v [0-9]{1,18} [0-9]{1,18}\n){1,%d}" % _RUN_LINES)
_E_RUN = re.compile(r"(?:e [0-9]{1,18} [0-9]{1,18}\n){1,%d}" % _RUN_LINES)


def _v_chunk(run: str, n: int, k: int,
             v_records: dict[int, int]) -> tuple[list[int], list[int]] | None:
    """The vertices and the parts of a _V_RUN match's lines, as two lists,
    or None when a vertex lies outside 1..n, a part outside 1..k or a vertex
    is assigned twice, in the run or before it; the caller then reads the
    run line by line."""
    fields = run.split()
    vertices = list(map(int, fields[1::3]))
    parts = list(map(int, fields[2::3]))
    if (0 < min(vertices) and max(vertices) <= n and 0 < min(parts) and max(parts) <= k
            and len(set(vertices)) == len(vertices) and v_records.keys().isdisjoint(vertices)):
        return vertices, parts
    return None


def _lists(v_records: dict[int, int], early: list[int], last: tuple[int, int] | None
           ) -> tuple[dict[str, int], list[list[int]], tuple[int, int] | None]:
    """Once all n v records are read: the table from decimal text to vertex,
    the n + 1 neighbour lists (index 0 unused) holding the e records read
    so far, and the canonical-order state after them."""
    adj: list[list[int]] = [[] for _ in range(len(v_records) + 1)]
    for u, v in zip(early[::2], early[1::2]):
        last = _add_tails(adj, (u,), (1,), (v,), u < v, last)
    early.clear()
    return {str(v): v for v in v_records}, adj, last


def _e_chunk(run: str, ids: dict[str, int]
             ) -> tuple[list[int], list[int], list[int], bool] | None:
    """An _E_RUN match's lines, every field mapped through ids (decimal
    text -> vertex, for every vertex 1..n), in groups of consecutive lines
    with the same first field: each group's first endpoint, each group's
    size, the second endpoints in file order (the groups' tails, one after
    the other), and whether the chunk alone is in canonical order. A chunk
    whose first line has u > v is grouped by its second fields instead, so
    text that writes every pair the other way round reads as canonical text
    does. None when a field is not in ids or a line is a self-loop; the
    caller then reads the run line by line. Two flat lists, not one tuple
    per group, keep text in any order as light as canonical text."""
    fields = run.split()
    firsts, seconds = fields[1::3], fields[2::3]
    us: list[int] = []
    sizes: list[int] = []
    ordered, prev, i = True, 0, 0
    try:
        if ids[firsts[0]] > ids[seconds[0]]:  # written v u: group by the smaller field
            firsts, seconds = seconds, firsts
        vs = list(map(ids.__getitem__, seconds))
        for u, group in groupby(firsts):
            size = len(list(group))
            u = ids[u]
            if ordered:
                tail = vs[i:i + size]
                ordered = prev < u < tail[0] and all(map(lt, tail, islice(tail, 1, None)))
            us.append(u)
            sizes.append(size)
            prev = u
            i += size
    except KeyError:
        return None
    # an ordered chunk has u < v on every line; else compare each line's
    # fields, equal as text iff equal as vertices since both are in ids
    if not ordered and any(map(eq, firsts, seconds)):
        return None
    return us, sizes, vs, ordered


def _add_tails(adj: list[list[int]], us: Sequence[int], sizes: Sequence[int],
               vs: Sequence[int], ordered: bool,
               last: tuple[int, int] | None) -> tuple[int, int] | None:
    """Add the edges of _e_chunk's groups, in canonical order by themselves
    if ordered, to the neighbour lists: each group's tail onto adj[u], u
    onto each tail vertex's list. last is the previous edge while every
    edge so far came in canonical order, else None; the same is returned
    after these edges."""
    if last is not None:
        last = (us[-1], vs[-1]) if ordered and (
            last[0] < us[0] or last[0] == us[0] and last[1] < vs[0]) else None
    i = 0
    for u, size in zip(us, sizes):
        tail = vs[i:i + size]
        i += size
        adj[u] += tail
        for v in tail:
            adj[v].append(u)
    return last


def _sort_lists(adj: list[list[int]]) -> bool:
    """Sort in place each neighbour list that is not strictly ascending;
    True iff a sorted list holds a neighbour twice, a pair given twice."""
    repeated = False
    for nbrs in adj:
        if not all(map(lt, nbrs, islice(nbrs, 1, None))):
            nbrs.sort()
            repeated = repeated or not all(map(lt, nbrs, islice(nbrs, 1, None)))
    return repeated


def _e_records(text: str):
    """(line, u, v) of each e record in file order, read again only to name
    an error's line: the loop read every line led by token e as one, so
    each has two integer fields."""
    for lineno, line in enumerate(_LINE.finditer(text), 1):
        tokens = line[1].split()
        if tokens[:1] == ["e"]:
            yield lineno, int(tokens[1]), int(tokens[2])


def serialize_instance(inst: Instance) -> str:
    """Canonical text form: p, then v/b/e records each in ascending order."""
    validate_instance(inst).check()
    g, part, budgets = inst.graph, inst.partition, inst.budgets
    n, m, k, flat = g.n, g.m, part.k, chain.from_iterable
    tails = g.tails()
    # one % over the whole text: per-kind pieces joined afterwards made
    # kpbench's peak RSS grow faster with the instance count. u's e records
    # carry u in the format, so only the tails' ints are arguments
    fmt = "".join(("p kpvc %d %d %d\n", "v %d %d\n" * n, "b %d %d\n" * k,
                   *(f"e {u} %d\n" * len(tail) for u, tail in enumerate(tails) if tail)))
    return fmt % (n, m, k, *flat(zip(range(1, n + 1), part.part_of[1:])),
                  *flat(zip(range(1, k + 1), budgets.limits)), *flat(tails))


# the one rule for integers from text: instance fields, budget modes and
# the command line's options
def _decimal(field: str) -> int:
    """int(field) for ASCII digits after an optional '-'; int() alone would
    also take '+1', ' 1', '1_0' and non-ASCII digits."""
    digits = field.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(field)
    return int(field)


def _ints(lineno: int, tokens: list[str]) -> list[int]:
    try:
        return [_decimal(t) for t in tokens]
    except ValueError as exc:
        if exc.args[0] in tokens:  # _decimal names the field it refused
            raise ParseError(lineno, "Syntax", f"non-integer field in {tokens}") from None
        # more digits than the interpreter's int() limit
        raise ParseError(lineno, "Syntax", "integer field too long") from None
