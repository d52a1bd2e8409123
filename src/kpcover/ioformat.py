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
The one fast path is a bulk e run, and it falls back to that line reader.

After the last of the n v records, a run of plain e lines, each `e`, a
space, 1-18 digits, a space, 1-18 digits and an LF, is read in chunks of at
most _RUN_LINES lines: one match, one split and one pass per chunk that
looks each field up in a table from decimal text to vertex. The table is
built when the n-th v record is read, from those records, so it never holds
more than the file gave, and a hit is a vertex already checked to lie in
1..n; its int is shared by every edge that names it. e lines before that
point are read line by line. A chunk with a self-loop or a field the table
lacks (a leading zero or a vertex outside 1..n) is read line by line
instead, so every error keeps its kind, line and message, and the cap keeps
the chunk's token lists small however long the run.

Canonical text gives its pairs with u < v and strictly ascending; then they
are the graph's edge order as read and build_graph's orienting, sorting and
de-duplication are skipped. Other text goes through build_graph. Intra-part
edges are found after the loop with one set per part of the built graph,
the union of its members' neighbour tails, tested against the part.
"""

from __future__ import annotations

import re
from itertools import chain, islice, starmap
from operator import eq, lt

from .errors import ParseError
from .graph import (Budgets, Instance, _has_intra_part_edge, _sorted_graph,
                    build_graph, make_partition, validate_instance)


def parse_instance(text: str) -> Instance:
    """Parse the grammar above; every rejection names a 1-based line number."""
    header: tuple[int, int, int, int] | None = None  # (lineno, n, m, k)
    v_records: dict[int, int] = {}
    b_records: dict[int, int] = {}
    e_pairs: list[tuple[int, int]] = []
    ids: dict[str, int] | None = None  # decimal text -> vertex, once all are read
    lineno = pos = bulk_from = 0
    size = len(text)

    while pos < size:
        if ids is not None and pos >= bulk_from:
            run = _E_RUN.match(text, pos)
            if run is not None:
                pairs = _run_pairs(run[0], ids)
                if pairs is not None:
                    e_pairs += pairs
                    lineno += len(pairs)
                    pos = run.end()
                    continue
                bulk_from = run.end()  # the loop below names the first bad line
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
            e_pairs.append((x, y))
        elif kind == "v":
            if not (0 < x <= n):
                raise ParseError(lineno, "Syntax", f"vertex {x} outside 1..{n}")
            if not (0 < y <= k):
                raise ParseError(lineno, "Syntax", f"part {y} outside 1..{k}")
            if x in v_records:
                raise ParseError(lineno, "DuplicateRecord", f"vertex {x} assigned twice")
            v_records[x] = y
            if len(v_records) == n:  # every vertex read: bulk e runs may start
                ids = {str(v): v for v in v_records}
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
    if len(e_pairs) != m:
        raise ParseError(p_lineno, "CountMismatch",
                         f"p line declares {m} edges, file has {len(e_pairs)}")
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
    if all(starmap(lt, e_pairs)) and all(map(lt, e_pairs, islice(e_pairs, 1, None))):
        graph = _sorted_graph(n, e_pairs)  # canonical: none to orient, sort or merge
    else:
        graph = build_graph(n, e_pairs)  # pairs range-checked above: no raise
    if _has_intra_part_edge(graph, partition):  # the file-order walk names the first
        part_of = partition.part_of
        i, (u, v) = next((i, (u, v)) for i, (u, v) in enumerate(e_pairs)
                         if part_of[u] == part_of[v])
        raise ParseError(_e_line(text, i), "IntraPartEdge",
                         f"edge ({u}, {v}) inside part {part_of[u]}")
    if graph.m != m:  # build_graph merged a repeated pair; name its line
        seen: set[tuple[int, int]] = set()
        for i, (u, v) in enumerate(e_pairs):
            pair = (u, v) if u < v else (v, u)
            if pair in seen:
                raise ParseError(_e_line(text, i), "DuplicateRecord",
                                 f"edge ({u}, {v}) given twice")
            seen.add(pair)
    return Instance(graph=graph, partition=partition,
                    budgets=Budgets(tuple(b_records[p] for p in range(1, k + 1))))


# one line, ended by LF or the end of the text. `.` stops only at LF, so a
# U+2028 or similar in a comment can neither end a line nor shift the line
# numbers after it.
_LINE = re.compile(r"(.*)(?:\n|\Z)")
_RECORDS = {"v": "v <vertex> <part>", "b": "b <part> <budget>", "e": "e <u> <v>"}
# up to _RUN_LINES consecutive plain e records, each ended by LF; capping the
# chunk keeps the transient token lists the same size however long the run
_RUN_LINES = 1024
_E_RUN = re.compile(r"(?:e [0-9]{1,18} [0-9]{1,18}\n){1,%d}" % _RUN_LINES)


def _run_pairs(run: str, ids: dict[str, int]) -> list[tuple[int, int]] | None:
    """The (u, v) pairs of an _E_RUN match, each field mapped through ids
    (decimal text -> vertex, for every vertex 1..n), or None when a field
    is not in ids or a pair is a self-loop; the caller then reads the run
    line by line."""
    fields = run.split()
    try:
        us = list(map(ids.__getitem__, fields[1::3]))
        vs = list(map(ids.__getitem__, fields[2::3]))
    except KeyError:
        return None
    if any(map(eq, us, vs)):
        return None
    return list(zip(us, vs))


def _e_line(text: str, i: int) -> int:
    """Line of the i-th e record (from 0), found again only for an error:
    the loop read every line led by token e as one."""
    for lineno, line in enumerate(_LINE.finditer(text), 1):
        if line[0].split()[:1] == ["e"]:
            if i == 0:
                return lineno
            i -= 1
    raise AssertionError("fewer e records than edges read")


def serialize_instance(inst: Instance) -> str:
    """Canonical text form: p, then v/b/e records each in ascending order."""
    validate_instance(inst).check()
    g, part, budgets = inst.graph, inst.partition, inst.budgets
    n, m, k, flat = g.n, g.m, part.k, chain.from_iterable
    # one % over the whole text: per-kind pieces joined afterwards made
    # kpbench's peak RSS grow faster with the instance count
    fmt = "".join(("p kpvc %d %d %d\n", "v %d %d\n" * n, "b %d %d\n" * k, "e %d %d\n" * m))
    return fmt % (n, m, k, *flat(zip(range(1, n + 1), part.part_of[1:])),
                  *flat(zip(range(1, k + 1), budgets.limits)), *flat(g.sorted_edges()))


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
