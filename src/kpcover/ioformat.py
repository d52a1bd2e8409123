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
before that point wait in one flat list and join the lists in file order,
each endpoint mapped through the table, as the line reader maps the e
records it reads after that point, so no endpoint is an int of its own.

After that point a run of plain e lines, the same shape led by `e`, is read
in chunks the same way. A chunk is checked before any of it is kept: every
second field must be in the table, and every first field is looked up once
per group of consecutive lines with equal first fields, so those lookups
cost one per vertex, not one per edge. A chunk that keeps canonical order
(below) has u < v on every line; in any other, a self-loop is ruled out by
comparing each line's two fields as text. A chunk with a self-loop or a
field the table lacks (a leading zero or a vertex outside 1..n) is read
line by line instead, and the cap keeps the chunk's token lists small
however long the run. Each group's first endpoint u and its tail, the
group's second endpoints, then go to graph._add_tail, the fill step every
builder shares: the tail onto u's list in one +=, and u onto each tail
vertex's list, with no tuple per edge.

Canonical text gives its edges with u < v and strictly ascending, and every
neighbour list then comes out strictly ascending: smaller neighbours arrive
first, with their own groups, then the tail. One rule, applied by the bulk
e reader alone, keeps track of that order: last is the previous edge while
every edge so far came in canonical order, and a group u, tail keeps that
order iff (u, tail[0]) follows last, u < tail[0] and the tail rises; a
group that spans two chunks is two groups, the second following the first.
An e record read by the line reader, after the v records or before the last
of them, sets last to None, as does any group that breaks the rule;
serialize_instance's text sends no e record there. Once last is None,
graph._graph finishes the lists with the shared ordering rule: the lists
that are not strictly ascending are sorted in place, and a pair given
twice, an equal neighbour in a sorted list, is kept once, so the graph has
fewer edges than the p line declares. This module only reads text: graph.py
alone orders the lists and builds the Graph. Intra-part edges are found
after the loop with one set per part of the built graph, the union of its
members' neighbour tails, tested against the part. Only to name the line of
an intra-part or repeated edge are the e records read again from the text.
"""

from __future__ import annotations

import re
from itertools import accumulate, chain, groupby
from operator import eq, lt

from .errors import ParseError
# build_graph stays a module attribute, though parse_instance does not call
# it: kpbench's tracer wraps kpcover.ioformat.build_graph
from .graph import (Budgets, Instance, _add_tail, _graph, _has_intra_part_edge,
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
                            ids, adj = _lists(v_records, early)
                        continue
                    bulk_from = run.end()  # the loop below names the first bad line
            else:
                run = _E_RUN.match(text, pos)
                if run is not None:
                    chunk = _e_chunk(run[0], ids, last)
                    if chunk is not None:
                        us, sizes, vs, last = chunk
                        for u, end, count in zip(us, accumulate(sizes), sizes):
                            _add_tail(adj, u, vs[end - count:end])
                        lineno += len(vs)
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
            else:  # through ids, so every edge holds its vertices' one int
                _add_tail(adj, ids[str(x)], (ids[str(y)],))
            last = None
        elif kind == "v":
            if not (0 < x <= n):
                raise ParseError(lineno, "Syntax", f"vertex {x} outside 1..{n}")
            if not (0 < y <= k):
                raise ParseError(lineno, "Syntax", f"part {y} outside 1..{k}")
            if x in v_records:
                raise ParseError(lineno, "DuplicateRecord", f"vertex {x} assigned twice")
            v_records[x] = y
            if len(v_records) == n:  # every vertex read: bulk e runs may start
                ids, adj = _lists(v_records, early)
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
    # a pair given twice is kept once, so the graph has fewer than m edges
    graph = _graph(adj, ordered=last is not None)
    if _has_intra_part_edge(graph, partition):  # the file-order walk names the first
        part_of = partition.part_of
        lineno, u, v = next((lineno, u, v) for lineno, u, v in _e_records(text)
                            if part_of[u] == part_of[v])
        raise ParseError(lineno, "IntraPartEdge", f"edge ({u}, {v}) inside part {part_of[u]}")
    if graph.m < m:  # name the line of the first pair's second copy
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


def _lists(v_records: dict[int, int], early: list[int]
           ) -> tuple[dict[str, int], list[list[int]]]:
    """Once all n v records are read: the table from decimal text to vertex
    and the n + 1 neighbour lists (index 0 unused) holding the e records
    read so far, each endpoint mapped through the table."""
    ids = {str(v): v for v in v_records}
    adj: list[list[int]] = [[] for _ in range(len(v_records) + 1)]
    for u, v in zip(early[::2], early[1::2]):
        _add_tail(adj, ids[str(u)], (ids[str(v)],))
    early.clear()
    return ids, adj


def _e_chunk(run: str, ids: dict[str, int], last: tuple[int, int] | None
             ) -> tuple[list[int], list[int], list[int], tuple[int, int] | None] | None:
    """An _E_RUN match's lines, every field mapped through ids (decimal
    text -> vertex, for every vertex 1..n), in groups of consecutive lines
    with the same first field: each group's first endpoint, each group's
    size, the second endpoints in file order (the groups' tails, one after
    the other), and the canonical-order state after the chunk, given last,
    the state before it (module docstring). None when a field is not in ids
    or a line is a self-loop; the caller then reads the run line by line.
    Flat lists, not one tuple per group, keep text in any order as light
    as canonical text."""
    fields = run.split()
    firsts, seconds = fields[1::3], fields[2::3]
    us: list[int] = []
    sizes: list[int] = []
    i = 0
    try:
        vs = list(map(ids.__getitem__, seconds))
        for u, group in groupby(firsts):
            size = len(list(group))
            u = ids[u]
            if last is not None:
                tail = vs[i:i + size]
                last = ((u, tail[-1]) if last < (u, tail[0])
                        and all(map(lt, (u, *tail), tail)) else None)
            us.append(u)
            sizes.append(size)
            i += size
    except KeyError:
        return None
    # a chunk that kept the order has u < v on every line; else compare each
    # line's fields, equal as text iff equal as vertices since both are in ids
    if last is None and any(map(eq, firsts, seconds)):
        return None
    return us, sizes, vs, last


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
