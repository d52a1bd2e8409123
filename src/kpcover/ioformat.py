"""Text instance format.

Instance grammar, one record per line, fields space-separated, ASCII decimal
integers, UTF-8 with LF line endings (a CR before the LF is ignored). Comments
may hold any text; every other line is ASCII:

    c <anything>          comment, ignored anywhere
    p kpvc <n> <m> <k>    exactly one, first non-comment line
    v <vertex> <part>     exactly one per vertex 1..n, part in 1..k
    b <part> <budget>     exactly one per part 1..k, budget >= 0
    e <u> <v>             m lines, u != v

v/b/e records may interleave after the p line. Budgets are mandatory, so a
file is always a complete instance. parse(serialize(inst)) == inst, and the
canonical serialization (sorted records, no comments) is byte-stable.

parse_instance reads one line at a time. At the first e record it tries to
take all the remaining lines in one step, as canonical text ends: when each
is `e <u> <v>` and LF, with u != v and both ends in 1..n, one regex pass
reads the pairs. The per-line e branch would accept exactly those lines with
the same values, so any other tail simply goes on line by line, and every
ParseError comes from the per-line code.
"""

from __future__ import annotations

import re

from .errors import InstanceInvalidError, ParseError
from .graph import (Budgets, Instance, build_graph, make_partition,
                    validate_instance)


def parse_instance(text: str) -> Instance:
    """Parse the grammar above; every rejection names a 1-based line number."""
    header: tuple[int, int, int, int] | None = None  # (lineno, n, m, k)
    v_records: dict[int, int] = {}
    b_records: dict[int, int] = {}
    e_pairs: list[tuple[int, int]] = []
    e_lines: list[int] | range = []

    # records end at LF only, so a U+2028 or similar in a comment can neither
    # start a record nor shift the line numbers after it
    lineno, pos = 0, 0
    while pos <= len(text):
        end = text.find("\n", pos)
        if end < 0:
            end = len(text)
        start, pos = pos, end + 1
        lineno += 1
        raw = text[start:end]
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
        _, n, m, k = header
        if kind == "v":
            if len(tokens) != 3:
                raise ParseError(lineno, "Syntax", "expected 'v <vertex> <part>'")
            vertex, part = _ints(lineno, tokens[1:])
            if not (1 <= vertex <= n):
                raise ParseError(lineno, "Syntax", f"vertex {vertex} outside 1..{n}")
            if not (1 <= part <= k):
                raise ParseError(lineno, "Syntax", f"part {part} outside 1..{k}")
            if vertex in v_records:
                raise ParseError(lineno, "DuplicateRecord", f"vertex {vertex} assigned twice")
            v_records[vertex] = part
        elif kind == "b":
            if len(tokens) != 3:
                raise ParseError(lineno, "Syntax", "expected 'b <part> <budget>'")
            part, budget = _ints(lineno, tokens[1:])
            if not (1 <= part <= k):
                raise ParseError(lineno, "Syntax", f"part {part} outside 1..{k}")
            if budget < 0:
                raise ParseError(lineno, "Syntax", f"negative budget {budget}")
            if part in b_records:
                raise ParseError(lineno, "DuplicateRecord", f"budget for part {part} given twice")
            b_records[part] = budget
        elif kind == "e":
            if not e_pairs:  # the first e record
                run = _edge_run(text, start, n)
                if run is not None:
                    e_pairs, e_lines = run, range(lineno, lineno + len(run))
                    break
            if len(tokens) != 3:
                raise ParseError(lineno, "Syntax", "expected 'e <u> <v>'")
            u, v = _ints(lineno, tokens[1:])
            if u == v:
                raise ParseError(lineno, "Syntax", f"self-loop at vertex {u}")
            if not (1 <= u <= n) or not (1 <= v <= n):
                raise ParseError(lineno, "Syntax", f"edge ({u}, {v}) outside 1..{n}")
            e_pairs.append((u, v))
            e_lines.append(lineno)
        else:
            raise ParseError(lineno, "Syntax", f"unknown record kind {kind!r}")

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
    part_of = [0] * (n + 1)
    for v, p in v_records.items():
        part_of[v] = p
    for i, (u, v) in enumerate(e_pairs):
        if part_of[u] == part_of[v]:
            raise ParseError(e_lines[i], "IntraPartEdge",
                             f"edge ({u}, {v}) inside part {part_of[u]}")

    return Instance(graph=build_graph(n, e_pairs),
                    partition=make_partition(k, part_of[1:]),
                    budgets=Budgets(tuple(b_records[p] for p in range(1, k + 1))))


# at most 18 digits, so each int() is cheap; longer fields go line by line
_FIELD = "[0-9]{1,18}"
# a line break followed by neither an e record nor the end of the text;
# unlike a fullmatch of a repeated record group, it keeps no state per line
_NOT_EDGE = re.compile(rf"\n(?!e {_FIELD} {_FIELD}\n|\Z)")
_EDGE = re.compile(rf"e ({_FIELD}) ({_FIELD})\n")


def _edge_run(text: str, start: int, n: int) -> list[tuple[int, int]] | None:
    """The (u, v) pairs of the lines from offset start to the end of text,
    if each is `e <u> <v>` and LF with u != v and both ends in 1..n; else
    None. text[start - 1] is the LF that ends the p line or a later one."""
    if _NOT_EDGE.search(text, start - 1) is not None:
        return None
    pairs = []
    for e in _EDGE.finditer(text, start):
        u, v = int(e[1]), int(e[2])
        if u == v or not (0 < u <= n and 0 < v <= n):
            return None
        pairs.append((u, v))
    return pairs


def serialize_instance(inst: Instance) -> str:
    """Canonical text form: p, then v/b/e records each in ascending order."""
    report = validate_instance(inst)
    if not report.ok:
        raise InstanceInvalidError(report)
    g, part, budgets = inst.graph, inst.partition, inst.budgets
    lines = [f"p kpvc {g.n} {g.m} {part.k}"]
    lines += [f"v {v} {part.part_of[v]}" for v in range(1, g.n + 1)]
    lines += [f"b {p} {budgets.limits[p - 1]}" for p in range(1, part.k + 1)]
    lines += [f"e {u} {v}" for u, v in g.sorted_edges()]
    return "\n".join(lines) + "\n"


# int() would also take "+1", "0_2" and non-ASCII digits, which the grammar
# forbids; one match per line costs less than one per token
_DECIMALS = re.compile(r"-?[0-9]+(?: -?[0-9]+)*")


def _ints(lineno: int, tokens: list[str]) -> list[int]:
    if not _DECIMALS.fullmatch(" ".join(tokens)):
        raise ParseError(lineno, "Syntax", f"non-integer field in {tokens}")
    return [int(t) for t in tokens]
