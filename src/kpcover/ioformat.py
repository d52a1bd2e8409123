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

parse_instance first tries a fast path for text in the canonical shape: one
regex search over the whole text finds any line that is not a record, the v
and b records are split as a block and the e records are streamed. Any
departure from that shape, or any value the grammar rejects, sends the text
through the general line loop instead, so every accepted instance and every
ParseError (kind, line and message) is the same as the line loop alone
gives.
"""

from __future__ import annotations

import re

from .errors import InstanceInvalidError, ParseError
from .graph import (Budgets, Instance, build_graph, make_partition,
                    validate_instance)


def parse_instance(text: str) -> Instance:
    """Parse the grammar above; every rejection names a 1-based line number."""
    inst = _parse_canonical(text)
    return inst if inst is not None else _parse_lines(text)


# serialize_instance's shape: the p line, then the v, b and e records in
# that order, single spaces, every line ending in LF. Fields longer than 18
# digits take the line loop, which reports them as it always has.
_FIELD = "[0-9]{1,18}"
_HEADER = re.compile(rf"p kpvc ({_FIELD}) ({_FIELD}) ({_FIELD})\n")
# a line break followed by neither a record nor the end of the text; unlike
# a fullmatch of a repeated record group, this search keeps no state per line
_STRAY = re.compile(rf"\n(?![vbe] {_FIELD} {_FIELD}\n|\Z)")
_EDGE = re.compile(rf"e ({_FIELD}) ({_FIELD})\n")


def _parse_canonical(text: str) -> Instance | None:
    """The instance, if text has the canonical shape and is valid; else None."""
    head = _HEADER.match(text)
    if head is None or _STRAY.search(text, head.end() - 1) is not None:
        return None
    # every line after the p line is a v, b or e record
    n, m, k = map(int, head.groups())
    # the first e record, or the end of the text
    e_at = text.find("\ne ", head.end() - 1) + 1 or len(text)
    fields = text[head.end():e_at].split()
    # the length test comes first: it bounds n and k by the file
    if (n < 1 or k < 1 or len(fields) != 3 * (n + k)
            or fields[0::3] != ["v"] * n + ["b"] * k):
        return None
    v_fields, b_fields = fields[:3 * n], fields[3 * n:]
    # records in id order, so no id is missing, repeated or out of range
    if (list(map(int, v_fields[1::3])) != list(range(1, n + 1))
            or list(map(int, b_fields[1::3])) != list(range(1, k + 1))):
        return None
    part_of = [0, *map(int, v_fields[2::3])]
    if not all(1 <= p <= k for p in part_of[1:]):
        return None
    edges = []
    for e in _EDGE.finditer(text, e_at):
        u, v = int(e[1]), int(e[2])
        # a self-loop is an intra-part edge too
        if not (0 < u <= n and 0 < v <= n) or part_of[u] == part_of[v]:
            return None
        edges.append((u, v))
    # as many e matches as lines from e_at on: no v or b record among them
    if not len(edges) == m == text.count("\n", e_at):
        return None
    return Instance(graph=build_graph(n, edges),
                    partition=make_partition(k, part_of[1:]),
                    budgets=Budgets(tuple(map(int, b_fields[2::3]))))


def _parse_lines(text: str) -> Instance:
    """The general parser: one record per line, any grammatical layout."""
    header: tuple[int, int, int, int] | None = None  # (lineno, n, m, k)
    v_records: dict[int, int] = {}
    b_records: dict[int, int] = {}
    e_records: list[tuple[int, int, int]] = []

    # records end at LF only, so a U+2028 or similar in a comment can neither
    # start a record nor shift the line numbers after it
    for lineno, raw in enumerate(text.split("\n"), start=1):
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
            if len(tokens) != 3:
                raise ParseError(lineno, "Syntax", "expected 'e <u> <v>'")
            u, v = _ints(lineno, tokens[1:])
            if u == v:
                raise ParseError(lineno, "Syntax", f"self-loop at vertex {u}")
            if not (1 <= u <= n) or not (1 <= v <= n):
                raise ParseError(lineno, "Syntax", f"edge ({u}, {v}) outside 1..{n}")
            e_records.append((lineno, u, v))
        else:
            raise ParseError(lineno, "Syntax", f"unknown record kind {kind!r}")

    if header is None:
        raise ParseError(1, "Syntax", "missing p line")
    p_lineno, n, m, k = header
    if len(e_records) != m:
        raise ParseError(p_lineno, "CountMismatch",
                         f"p line declares {m} edges, file has {len(e_records)}")
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
    for lineno, u, v in e_records:
        if v_records[u] == v_records[v]:
            raise ParseError(lineno, "IntraPartEdge",
                             f"edge ({u}, {v}) inside part {v_records[u]}")

    return Instance(graph=build_graph(n, [(u, v) for _, u, v in e_records]),
                    partition=make_partition(k, v_records),
                    budgets=Budgets(tuple(b_records[p] for p in range(1, k + 1))))


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
