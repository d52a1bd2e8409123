"""Instance file grammar, canonical serialization, result emission."""

from __future__ import annotations

import json
import random
import re
import sys
import tracemalloc
from types import SimpleNamespace

import pytest

from kpcover import (ALGOS, Budgets, GenSpec, Instance, InstanceInvalidError,
                     ParseError, build_graph, gen_kpartite, make_partition,
                     parse_instance, serialize_instance, solve,
                     validate_instance)
from kpcover import ioformat, solvers

from test_generate import _large_specs

MINIMAL = """p kpvc 2 1 2
v 1 1
v 2 2
b 1 1
b 2 1
e 1 2
"""


def parse_err(text):
    with pytest.raises(ParseError) as exc:
        parse_instance(text)
    return exc.value


class TestParse:
    def test_minimal_file(self):
        inst = parse_instance(MINIMAL)
        assert inst.graph.sorted_edges() == ((1, 2),)
        assert inst.partition.part_of[1:] == (1, 2)
        assert inst.budgets.limits == (1, 1)

    def test_comments_and_blank_lines_ignored(self):
        text = "c hello\n\n" + MINIMAL + "c trailing\n"
        assert parse_instance(text) == parse_instance(MINIMAL)

    def test_records_may_interleave(self):
        text = "p kpvc 2 1 2\ne 1 2\nb 2 1\nv 2 2\nv 1 1\nb 1 1\n"
        assert parse_instance(text) == parse_instance(MINIMAL)

    def test_self_loop_line_numbered(self):
        err = parse_err("p kpvc 2 1 2\nv 1 1\nv 2 2\nb 1 1\nb 2 1\ne 1 1\n")
        assert err.line == 6 and "self-loop" in str(err)

    @pytest.mark.parametrize("text", ["", "c only a comment\n\nc and another\n"],
                             ids=["empty", "comments-only"])
    def test_no_p_line_at_all(self, text):
        err = parse_err(text)
        assert (err.kind, err.line, str(err)) == (
            "Syntax", 1, "line 1: Syntax: missing p line")

    @pytest.mark.parametrize("record, line, expected", [
        ("e 1 2 3", 6, "expected 'e <u> <v>'"),
        ("v 1", 2, "expected 'v <vertex> <part>'"),
        ("b 1 1 1", 4, "expected 'b <part> <budget>'"),
    ], ids=["e", "v", "b"])
    def test_wrong_field_count(self, record, line, expected):
        lines = MINIMAL.splitlines()
        lines[line - 1] = record
        err = parse_err("\n".join(lines) + "\n")
        assert (err.kind, err.line, str(err)) == (
            "Syntax", line, f"line {line}: Syntax: {expected}")

    @pytest.mark.parametrize("text, line, pair", [
        (MINIMAL.replace("p kpvc 2 1 2", "p kpvc 2 2 2") + "e 1 2\n", 7, "(1, 2)"),
        (MINIMAL.replace("p kpvc 2 1 2", "p kpvc 2 2 2") + "e 2 1\n", 7, "(2, 1)"),
        ("p kpvc 3 3 2\nv 1 1\nv 2 2\nv 3 1\nb 1 1\nb 2 1\n"
         "e 2 3\ne 1 2\nc between\ne 3 2\n", 10, "(3, 2)"),
    ], ids=["same-order", "reversed", "apart"])
    def test_repeated_edge_record(self, text, line, pair):
        err = parse_err(text)
        assert (err.kind, err.line, str(err)) == (
            "DuplicateRecord", line,
            f"line {line}: DuplicateRecord: edge {pair} given twice")

    def test_duplicate_p_line(self):
        err = parse_err(MINIMAL + "p kpvc 2 1 2\n")
        assert err.kind == "DuplicateRecord"

    def test_duplicate_vertex(self):
        err = parse_err("p kpvc 2 1 2\nv 1 1\nv 1 2\nv 2 2\nb 1 1\nb 2 1\ne 1 2\n")
        assert err.kind == "DuplicateRecord" and err.line == 3

    def test_duplicate_budget(self):
        err = parse_err("p kpvc 2 1 2\nv 1 1\nv 2 2\nb 1 1\nb 1 1\nb 2 1\ne 1 2\n")
        assert err.kind == "DuplicateRecord"

    def test_count_mismatch(self):
        err = parse_err("p kpvc 2 2 2\nv 1 1\nv 2 2\nb 1 1\nb 2 1\ne 1 2\n")
        assert err.kind == "CountMismatch" and err.line == 1

    def test_missing_vertex_assignment(self):
        err = parse_err("p kpvc 2 1 2\nv 1 1\nb 1 1\nb 2 1\ne 1 2\n")
        assert err.kind == "MissingVertexAssignment"

    def test_missing_budget(self):
        err = parse_err("p kpvc 2 1 2\nv 1 1\nv 2 2\nb 1 1\ne 1 2\n")
        assert err.kind == "MissingBudget"

    def test_intra_part_edge_line_numbered(self):
        err = parse_err("p kpvc 2 1 1\nv 1 1\nv 2 1\nb 1 2\ne 1 2\n")
        assert err.kind == "IntraPartEdge" and err.line == 5

    @pytest.mark.parametrize("edge_lines, index, kind, message", [
        (["e 1 2", "e 1 3\r"], 1, "IntraPartEdge", "edge (1, 3) inside part 1"),
        ([" e 1 3", "e 3 4"], 0, "IntraPartEdge", "edge (1, 3) inside part 1"),
        (["c note", "e  1 2", "e\t3 4\r", "c e 1 3", "e 1 3"], 4,
         "IntraPartEdge", "edge (1, 3) inside part 1"),
        (["e 1 2", "e 2 1\r"], 1, "DuplicateRecord", "edge (2, 1) given twice"),
        (["e 1 2", " e 2 1", "e 3 4"], 1, "DuplicateRecord", "edge (2, 1) given twice"),
        (["c note", "e  1 2", "e\t3 4\r", "c e 2 1", "e 2 1"], 4,
         "DuplicateRecord", "edge (2, 1) given twice"),
        (["e 1 2", "e 2 1", "e 1 3"], 2, "IntraPartEdge", "edge (1, 3) inside part 1"),
    ], ids=["intra-cr", "intra-space", "intra-after-token-shaped",
            "repeat-cr", "repeat-space", "repeat-after-token-shaped",
            "intra-part-wins-over-earlier-repeat"])
    def test_post_loop_error_names_the_record_line(self, edge_lines, index, kind,
                                                   message):
        # parts {1, 3} and {2, 4}; the p line counts the lines led by token e
        m = sum(line.split()[:1] == ["e"] for line in edge_lines)
        err = parse_err("".join([f"p kpvc 4 {m} 2\n",
                                 "v 1 1\nv 2 2\nv 3 1\nv 4 2\nb 1 2\nb 2 2\n",
                                 *(line + "\n" for line in edge_lines)]))
        line = 8 + index
        assert (err.kind, err.line, str(err)) == (
            kind, line, f"line {line}: {kind}: {message}")

    def test_unicode_line_separator_in_a_comment_is_comment_text(self):
        text = "c one\u2028more\n" + MINIMAL.replace("e 1 2", "e 1 1")
        err = parse_err(text)
        assert err.line == 7 and "self-loop" in str(err)

    @pytest.mark.parametrize("text, line", [
        (MINIMAL.replace("e 1 2", "e 1\u20282"), 6),  # line separator
        (MINIMAL.replace("v 2 2", "v 2\u00a02"), 3),  # no-break space
    ], ids=["line-separator", "no-break-space"])
    def test_non_ascii_separator_in_a_record(self, text, line):
        err = parse_err(text)
        assert err.kind == "Syntax" and err.line == line
        assert "non-ASCII separator" in str(err)

    def test_crlf_and_repeated_spaces_still_parse(self):
        text = MINIMAL.replace("\n", "\r\n").replace("e 1 2", "e  1   2")
        assert parse_instance(text) == parse_instance(MINIMAL)

    def test_unknown_record_kind(self):
        err = parse_err("p kpvc 1 0 1\nv 1 1\nb 1 1\nq 1\n")
        assert err.kind == "Syntax" and err.line == 4

    @pytest.mark.parametrize("text, line", [
        ("p kpvc 1 0 1\nv one 1\nb 1 1\n", 2),
        (MINIMAL.replace("v 2 2", "v \u0662 2"), 3),  # Arabic-Indic digit two
        (MINIMAL.replace("b 2 1", "b 2 +1"), 5),
        (MINIMAL.replace("p kpvc 2", "p kpvc 0_2"), 1),
    ], ids=["word", "arabic-indic-digit", "plus-sign", "underscore"])
    def test_non_integer_field(self, text, line):
        err = parse_err(text)
        assert err.kind == "Syntax" and err.line == line
        assert "non-integer field" in str(err)

    def test_vertex_out_of_range(self):
        err = parse_err("p kpvc 2 1 2\nv 1 1\nv 3 2\nb 1 1\nb 2 1\ne 1 2\n")
        assert err.kind == "Syntax" and err.line == 3

    def test_negative_budget(self):
        err = parse_err("p kpvc 1 0 1\nv 1 1\nb 1 -1\n")
        assert err.kind == "Syntax"

    def test_field_over_the_int_digit_limit_is_a_syntax_error(self):
        # int() refuses strings of more than 4,300 digits by default
        err = parse_err(MINIMAL.replace("b 2 1", "b 2 " + "1" * 5000))
        assert err.kind == "Syntax" and err.line == 5
        assert "too long" in str(err)

    def test_record_before_p(self):
        err = parse_err("v 1 1\np kpvc 1 0 1\nb 1 1\n")
        assert err.kind == "Syntax" and err.line == 1

    @pytest.mark.parametrize("text, kind, message", [
        ("p kpvc 1000000 0 1\n", "MissingVertexAssignment", "vertex 1"),
        ("p kpvc 1 0 1000000\nv 1 1\n", "MissingBudget", "part 1"),
        # the e run's vertex table holds the v records read, not 1..n
        ("p kpvc 1000000000000 1 1\ne 1 2\n", "MissingVertexAssignment", "vertex 1"),
    ])
    def test_missing_records_cost_memory_of_the_file_not_the_header(
            self, text, kind, message):
        tracemalloc.start()
        try:
            err = parse_err(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert err.kind == kind and err.line == 1 and message in str(err)
        assert peak < 1_000_000


def _outcome(text):
    """An instance, or (kind, line, message) for a rejection."""
    try:
        return parse_instance(text)
    except ParseError as err:
        return err.kind, err.line, str(err)


def _mutate(text, rng):
    """text with one random edit of the kinds a hand-edited file shows."""
    final_lf = text.endswith("\n")
    lines = text.split("\n")
    if final_lf:
        lines.pop()
    if not lines:
        return text
    how = rng.choice(("delete", "duplicate", "swap", "digit", "reverse", "zero",
                      "space", "cr", "comment", "no-final-lf"))
    i = rng.randrange(len(lines))
    fields = lines[i].split(" ")
    if how == "delete":
        del lines[i]
    elif how == "duplicate":
        lines.insert(rng.randrange(len(lines) + 1), lines[i])
    elif how == "swap":
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    elif how == "digit":
        digits = [j for j, ch in enumerate(text) if ch.isdigit()]
        j = rng.choice(digits)
        return text[:j] + str(rng.randrange(10)) + text[j + 1:]
    elif how == "reverse" and fields[0] == "e" and len(fields) == 3:
        lines[i] = " ".join((fields[0], fields[2], fields[1]))
    elif how == "zero" and len(fields) > 1:
        j = rng.randrange(1, len(fields))
        fields[j] = "0" + fields[j]
        lines[i] = " ".join(fields)
    elif how == "space":
        lines[i] += " "
    elif how == "cr":
        lines[i] += "\r"
    elif how == "comment":
        lines.insert(i, "c note")
    elif how == "no-final-lf":
        final_lf = False
    return "\n".join(lines) + ("\n" if final_lf else "")


# 4 vertices in 2 parts; its three e records are the whole tail
EDGE_TAIL = """p kpvc 4 3 2
v 1 1
v 2 2
v 3 1
v 4 2
b 1 2
b 2 2
e 1 2
e 1 4
e 2 3
"""


# stands in for ioformat._E_RUN or _V_RUN to turn a record run off
_NO_RUN = re.compile("(?!)")


def _outcomes(text, reader="_e_chunk"):
    """(outcome, line counts of the runs that reader, ioformat's _e_chunk or
    _v_chunk, read in bulk, or None for a run refused, and the outcome with
    the v and e runs turned off: line by line)."""
    sizes, read = [], getattr(ioformat, reader)

    def counting(run, *args):
        chunk = read(run, *args)
        sizes.append(None if chunk is None else run.count("\n"))
        return chunk

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ioformat, reader, counting)
        outcome = _outcome(text)
        mp.setattr(ioformat, "_E_RUN", _NO_RUN)
        mp.setattr(ioformat, "_V_RUN", _NO_RUN)
        return outcome, sizes, _outcome(text)


def _peak(text):
    """parse_instance(text) and its tracemalloc peak."""
    tracemalloc.start()
    try:
        return parse_instance(text), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestEdgeRun:
    """The run of e records canonical text ends with, read in bulk, against
    the same text read line by line, with the v and e runs turned off."""

    def assert_same_outcome(self, text, kind):
        """Both readings agree: EDGE_TAIL's instance, or an error of kind."""
        outcome, _, expected = _outcomes(text)
        assert outcome == expected
        if kind is None:
            assert outcome == parse_instance(EDGE_TAIL)
        else:
            assert outcome[0] == kind

    def test_same_outcome_as_line_by_line(self):
        rng = random.Random(20261018)
        plain_edited = rejected = 0
        for _ in range(3000):
            n = rng.randint(1, 12)
            k = rng.randint(1, min(4, n))
            mode = rng.choice(["slack:1", "fixed:" + ",".join(
                str(rng.randrange(4)) for _ in range(k))])
            text = serialize_instance(gen_kpartite(GenSpec(
                n=n, k=k, density=rng.random(), seed=rng.getrandbits(64),
                budget_mode=mode)))
            edits = rng.choice((0, 1, 1, 2, 3))
            for _ in range(edits):
                text = _mutate(text, rng)
            outcome, sizes, expected = _outcomes(text)
            assert outcome == expected, text
            plain_edited += edits > 0 and sum(filter(None, sizes)) > 0
            rejected += isinstance(expected, tuple)
        # edited text was read in bulk too, and errors were compared
        assert plain_edited > 200 and rejected > 500

    def test_canonical_tail_is_taken(self):
        outcome, sizes, expected = _outcomes(EDGE_TAIL)
        assert sum(filter(None, sizes)) == 3 and outcome == expected
        assert outcome.graph.sorted_edges() == ((1, 2), (1, 4), (2, 3))

    @pytest.mark.parametrize("text, kind", [
        (EDGE_TAIL.replace("e 1 4\n", "e 1 4\r\n"), None),
        (EDGE_TAIL.replace("e 1 4\n", "c note\ne 1 4\n"), None),
        (EDGE_TAIL.replace("v 4 2\n", "").replace("e 1 4\n", "v 4 2\ne 1 4\n"), None),
        (EDGE_TAIL.replace("e 2 3", "e 3 3"), "Syntax"),
        (EDGE_TAIL.replace("e 2 3", "e 2 5"), "Syntax"),
        (EDGE_TAIL[:-1], None),
        (EDGE_TAIL.replace("e 2 3", "e 2 " + "3".zfill(19)), None),
    ], ids=["cr", "comment", "v-record", "self-loop", "vertex-n-plus-1",
            "no-final-lf", "19-digit-field"])
    def test_refused_tail_goes_line_by_line(self, text, kind):
        self.assert_same_outcome(text, kind)

    @pytest.mark.parametrize("text, kind", [
        (EDGE_TAIL.replace("v 4 2\n", "v 4 2\r\n"), None),
        (EDGE_TAIL.replace("b 2 2\n", "b 2 2\r\n"), None),
        (EDGE_TAIL.replace("v 4 2\n", "c note\nv 4 2\n"), None),
        (EDGE_TAIL.replace("b 2 2\n", "c note\nb 2 2\n"), None),
        (EDGE_TAIL.replace("b 2 2\n", "").replace("e 1 4\n", "b 2 2\ne 1 4\n"), None),
        (EDGE_TAIL.replace("v 4 2", "v 4 3"), "Syntax"),
        (EDGE_TAIL.replace("b 2 2", "b 0 2"), "Syntax"),
        (EDGE_TAIL.replace("v 4 2", "v 5 2"), "Syntax"),
        (EDGE_TAIL.replace("b 2 2", "b 3 2"), "Syntax"),
        (EDGE_TAIL.replace("v 4 2\n", "") + "v 4 2", None),
        (EDGE_TAIL.replace("b 2 2\n", "") + "b 2 2", None),
        (EDGE_TAIL.replace("v 4 2", "v 4 " + "2".zfill(19)), None),
        (EDGE_TAIL.replace("b 2 2", "b 2 " + "2".zfill(19)), None),
    ], ids=["cr-v", "cr-b", "comment-v", "comment-b", "b-record-after-e",
            "part-k-plus-1-v", "part-0-b", "vertex-n-plus-1-v",
            "part-k-plus-1-b", "no-final-lf-v", "no-final-lf-b",
            "19-digit-field-v", "19-digit-field-b"])
    def test_edited_v_and_b_records_go_line_by_line(self, text, kind):
        self.assert_same_outcome(text, kind)

    def test_star_parses_and_validates_without_per_vertex_masks(self):
        # one neighbour bitmask per vertex would take ~50 MB for the leaves
        # alone; the edge tuple and neighbour sets take O(n + m)
        n = 20_000
        text = "".join([f"p kpvc {n} {n - 1} 2\n",
                        *(f"v {v} 1\n" for v in range(1, n)), f"v {n} 2\n",
                        "b 1 0\nb 2 1\n",
                        *(f"e {v} {n}\n" for v in range(1, n))])
        tracemalloc.start()
        try:
            inst = parse_instance(text)
            report = validate_instance(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.ok and inst.graph.m == n - 1
        assert peak < 40_000_000


def _run_text(m, edit=None, at=None):
    """Text whose e records are one run of m plain lines over parts {odd}
    and {even} of 120 vertices, with the e record at index `at` edited."""
    n = 120
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1, 2)][:m]
    lines = [f"e {u} {v}" for u, v in pairs]
    u, v = pairs[at] if at is not None else (0, 0)
    if edit == "self-loop":
        lines[at] = f"e {u} {u}"
    elif edit == "out-of-range":
        lines[at] = f"e {u} {n + 1}"
    elif edit == "vertex-0":
        lines[at] = f"e 0 {v}"
    elif edit == "19-digit":
        lines[at] = f"e {u:019d} {v}"
    elif edit == "leading-zero":
        lines[at] = f"e 0{u} {v}"
    elif edit == "reversed":
        lines[at] = f"e {v} {u}"
    elif edit == "out-of-order":
        j = at - 1 if at else 1
        lines[at], lines[j] = lines[j], lines[at]
    elif edit == "cr":
        lines[at] += "\r"
    elif edit == "comment":
        lines.insert(at, "c note")
    elif edit == "intra-part":
        lines[at] = f"e {u} {u + 2}"  # u stays below n - 1 in these runs
    elif edit == "repeated":
        other = pairs[at - 1] if at else pairs[1]
        lines[at] = f"e {other[1]} {other[0]}"
    return "".join([f"p kpvc {n} {m} 2\n",
                    *(f"v {w} {2 - w % 2}\n" for w in range(1, n + 1)),
                    f"b 1 {n}\nb 2 {n}\n",
                    *(line + "\n" for line in lines)])


class TestBulkRun:
    """A run of plain e records is read _RUN_LINES at a time; any chunk with
    a bad record goes line by line, so every outcome, instance or error,
    matches a parse with the run turned off."""

    CHUNK = ioformat._RUN_LINES

    @pytest.mark.parametrize("m", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 1])
    def test_run_lengths(self, m):
        outcome, sizes, expected = _outcomes(_run_text(m))
        assert outcome == expected and outcome.graph.m == m
        full, rest = divmod(m, self.CHUNK)
        assert sizes == [self.CHUNK] * full + [rest] * (rest > 0)

    @pytest.mark.parametrize("at", [0, CHUNK - 1, CHUNK, CHUNK + 1,
                                    2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 1, 3 * CHUNK])
    @pytest.mark.parametrize("edit, kind", [
        ("self-loop", "Syntax"), ("out-of-range", "Syntax"), ("vertex-0", "Syntax"),
        ("19-digit", None), ("cr", None), ("comment", None),
        ("leading-zero", None), ("reversed", None), ("out-of-order", None),
        ("intra-part", "IntraPartEdge"), ("repeated", "DuplicateRecord")])
    def test_edited_record(self, edit, kind, at):
        outcome, sizes, expected = _outcomes(_run_text(3 * self.CHUNK + 1, edit, at))
        assert outcome == expected
        if kind is None:
            assert outcome.graph.m == 3 * self.CHUNK + 1
        else:
            # 123 lines come before the run; a repeat at its first line
            # names its second occurrence, the next line
            assert outcome[:2] == (kind, 124 + at + (edit == "repeated" and at == 0))
        # a self-loop, a vertex outside 1..n or a field not written as its
        # vertex's decimal text refuses its chunk
        assert (None in sizes) == (kind == "Syntax" or edit == "leading-zero")

    @pytest.mark.parametrize("edit, at, unsorted", [
        (None, None, None),
        # e 70 19 stands where e 19 70 was: every list still comes ascending
        ("reversed", CHUNK, []),
        # e 19 70 comes before e 19 68, so only vertex 19's list is out of order
        ("out-of-order", CHUNK, [19]),
        ("out-of-order", 0, [1])],
        ids=["canonical", "reversed", "out-of-order", "out-of-order-first"])
    def test_only_the_lists_out_of_order_are_sorted(self, edit, at, unsorted, monkeypatch):
        sorted_lists, sort_lists = [], ioformat._sort_lists

        def recording(adj):
            sorted_lists.append([v for v, nbrs in enumerate(adj) if nbrs != sorted(set(nbrs))])
            return sort_lists(adj)

        def refused(*args):
            raise AssertionError("parse_instance called build_graph")

        monkeypatch.setattr(ioformat, "_sort_lists", recording)
        monkeypatch.setattr(ioformat, "build_graph", refused)
        m = 3 * self.CHUNK + 1
        assert parse_instance(_run_text(m, edit, at)) == parse_instance(_run_text(m))
        # canonical text reaches no sort at all
        assert sorted_lists == ([] if unsorted is None else [unsorted])

    @pytest.mark.parametrize("order", ["reversed", "shuffled", "flipped"])
    def test_any_e_line_order_parses_to_the_canonical_instance(self, order, monkeypatch):
        text = serialize_instance(gen_kpartite(GenSpec(n=200, k=4, density=0.5, seed=41)))
        lines = text.splitlines(keepends=True)
        e_start = 1 + 200 + 4
        head, es = lines[:e_start], lines[e_start:]
        if order == "reversed":
            es.reverse()
        elif order == "shuffled":
            random.Random(20261021).shuffle(es)
        else:
            es = [f"e {v} {u}\n" for _, u, v in map(str.split, es)]
        canonical, canonical_peak = _peak(text)
        sorts, sort_lists = [], ioformat._sort_lists
        monkeypatch.setattr(ioformat, "_sort_lists",
                            lambda adj: sorts.append(order) or sort_lists(adj))
        inst, peak = _peak("".join(head + es))
        assert inst == canonical
        assert peak <= 1.15 * canonical_peak
        # every pair written v u, in canonical order otherwise, needs no sort
        assert sorts == ([] if order == "flipped" else [order])

    def test_v_records_after_the_first_run(self):
        # bulk reading starts at the last v record, so the first chunk is
        # read line by line and no chunk is matched only to be refused
        lines = _run_text(3 * self.CHUNK + 1).splitlines(keepends=True)
        late_v, e_start = lines[61:121], 123 + self.CHUNK
        text = "".join(lines[:61] + lines[121:e_start] + late_v + lines[e_start:])
        outcome, sizes, expected = _outcomes(text)
        assert outcome == expected and outcome.graph.m == 3 * self.CHUNK + 1
        assert None not in sizes

    def test_no_final_lf(self):
        m = 2 * self.CHUNK
        outcome, sizes, expected = _outcomes(_run_text(m)[:-1])
        assert outcome == expected and outcome.graph.m == m
        assert sizes == [self.CHUNK, self.CHUNK - 1]  # the last line has no LF

    @staticmethod
    def peaks(spec):
        """tracemalloc peaks of parsing spec's text with and without the run."""
        text = serialize_instance(gen_kpartite(spec))
        with_run = _peak(text)[1]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ioformat, "_E_RUN", _NO_RUN)
            return with_run, _peak(text)[1]

    def test_chunk_memory_is_bounded(self):
        with_run, without_run = self.peaks(GenSpec(n=200, k=4, density=0.5, seed=41))
        assert with_run <= 1.15 * without_run

    def test_endpoints_share_the_vertex_ints(self):
        # ids above 256 read by int() are one object per endpoint; through
        # the table every edge holds its vertex's one int
        with_run, without_run = self.peaks(GenSpec(n=600, k=4, density=0.5, seed=41))
        assert with_run <= 0.9 * without_run


def _v_text(n, edit=None, at=None):
    """Text whose v records are one run of n plain lines, vertex w in part
    2 - w % 2, with the v record at index `at` edited, then its two b records
    and the path 1-2-...-n as e records."""
    lines = [f"v {w} {2 - w % 2}" for w in range(1, n + 1)]
    b_lines = [f"b 1 {n}", f"b 2 {n}"]
    w = at + 1 if at is not None else 0
    if edit == "duplicate":
        lines[at] = lines[at - 1] if at else lines[1]
    elif edit == "vertex-0":
        lines[at] = f"v 0 {2 - w % 2}"
    elif edit == "vertex-n-plus-1":
        lines[at] = f"v {n + 1} {2 - w % 2}"
    elif edit == "part-0":
        lines[at] = f"v {w} 0"
    elif edit == "part-k-plus-1":
        lines[at] = f"v {w} 3"
    elif edit == "leading-zero":
        lines[at] = f"v 0{w} {2 - w % 2}"
    elif edit == "19-digit":
        lines[at] = f"v {w:019d} {2 - w % 2}"
    elif edit == "cr":
        lines[at] += "\r"
    elif edit == "comment":
        lines.insert(at, "c note")
    elif edit == "b-record":
        lines.insert(at, b_lines.pop())
    return "".join([f"p kpvc {n} {n - 1} 2\n",
                    *(line + "\n" for line in lines + b_lines),
                    *(f"e {u} {u + 1}\n" for u in range(1, n))])


class TestVRun:
    """A run of plain v records is read _RUN_LINES at a time, as e runs are;
    any chunk with a bad record goes line by line, so every outcome matches
    a parse with the v and e runs turned off."""

    CHUNK = ioformat._RUN_LINES
    N = 3 * CHUNK + 1

    @pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 1])
    def test_run_lengths(self, n):
        outcome, sizes, expected = _outcomes(_v_text(n), "_v_chunk")
        assert outcome == expected and outcome.partition.n == n
        full, rest = divmod(n, self.CHUNK)
        assert sizes == [self.CHUNK] * full + [rest] * (rest > 0)

    @pytest.mark.parametrize("at", [0, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1,
                                    2 * CHUNK, 2 * CHUNK + 1, 3 * CHUNK - 1, 3 * CHUNK])
    @pytest.mark.parametrize("edit, kind", [
        ("duplicate", "DuplicateRecord"), ("vertex-0", "Syntax"),
        ("vertex-n-plus-1", "Syntax"), ("part-0", "Syntax"), ("part-k-plus-1", "Syntax"),
        ("leading-zero", None), ("19-digit", None), ("cr", None), ("comment", None),
        ("b-record", None)])
    def test_edited_record(self, edit, kind, at):
        outcome, sizes, expected = _outcomes(_v_text(self.N, edit, at), "_v_chunk")
        assert outcome == expected
        if kind is None:
            assert outcome == parse_instance(_v_text(self.N))
        else:
            # the p line comes first; a copy of the next line at index 0
            # is refused at that next line
            assert outcome[:2] == (kind, 2 + at + (edit == "duplicate" and at == 0))
        # a record outside the ranges or repeating a vertex refuses its chunk
        assert (None in sizes) == (kind is not None)

    def test_a_hostile_header_allocates_nothing(self):
        text = "p kpvc 1000000000000 0 2\n" + "".join(f"v {w} 1\n" for w in range(1, 3000))
        tracemalloc.start()
        try:
            err = parse_err(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert err.kind == "MissingVertexAssignment" and "vertex 3000" in str(err)
        assert peak < 1_000_000


class TestSerialize:
    def test_canonical_output(self):
        inst = parse_instance("p kpvc 2 1 2\ne 2 1\nb 2 1\nv 2 2\nv 1 1\nb 1 1\n")
        assert serialize_instance(inst) == MINIMAL

    def test_round_trip_sample(self):
        for seed in range(50):
            inst = gen_kpartite(GenSpec(n=12, k=3, density=0.5, seed=seed))
            assert parse_instance(serialize_instance(inst)) == inst

    @pytest.mark.parametrize("spec", _large_specs())
    def test_round_trip_keeps_adjacency(self, spec):
        # Graph equality leaves adjacency out
        inst = gen_kpartite(spec)
        parsed = parse_instance(serialize_instance(inst))
        assert parsed == inst and parsed.graph.adjacency == inst.graph.adjacency

    def test_rejects_invalid_instance(self):
        bad = Instance(build_graph(2, [(1, 2)]), make_partition(1, [1, 1]),
                       Budgets((2,)))
        with pytest.raises(InstanceInvalidError):
            serialize_instance(bad)


class TestEmitResult:
    """The JSON object `solve` builds for `kpcover solve`."""

    def inst(self, limits=(0, 1)):
        return Instance(build_graph(3, [(1, 2), (2, 3)]),
                        make_partition(2, [1, 2, 1]), Budgets(limits))

    def emit(self, algo, limits=(0, 1)):
        return json.loads(json.dumps(solve(self.inst(limits), algo)))

    def test_heuristic_success_json(self):
        out = self.emit("cvck")
        assert out["status"] == "Success" and out["size"] == 1
        assert out["cover"] == [2] and out["op_count"] == 8
        assert out["per_part_usage"] == [0, 1] and out["wall_ms"] >= 0

    def test_infeasible_json_has_null_size(self):
        out = self.emit("exact", (0, 0))
        assert out["status"] == "Infeasible"
        assert out["cover"] == [] and out["size"] is None
        assert out["per_part_usage"] is None
        assert "nodes_explored" in out

    def test_plain_cover_has_no_effort(self):
        out = self.emit("2approx", (1, 1))
        assert out["status"] == "Success" and out["size"] == len(out["cover"])
        assert "op_count" not in out and "nodes_explored" not in out
        assert out["budget_violation"] is False

    def test_exact_reports_nodes_explored(self):
        result = solve(self.inst(), "exact")
        assert result["status"] == "Feasible"
        assert result["cover"] == [2] and result["size"] == 1
        assert result["nodes_explored"] >= 1
        assert "op_count" not in result

    @pytest.mark.parametrize("algo", ALGOS)
    @pytest.mark.parametrize("partition, limits", [
        (make_partition(2, [1, 1, 2]), (1, 1)),
        (make_partition(2, [1, 2, 1]), (1, 1, 1)),
    ], ids=["intra-part-edge", "budget-count"])
    def test_invalid_instance_rejected(self, algo, partition, limits):
        inst = Instance(build_graph(3, [(1, 2), (2, 3)]), partition,
                        Budgets(limits))
        with pytest.raises(InstanceInvalidError):
            solve(inst, algo)

    @pytest.mark.parametrize("algo", ALGOS)
    def test_validates_once(self, algo, monkeypatch):
        """One validate_instance, between the two clock reads of wall_ms."""
        calls = []

        def counting(inst):
            calls.append(inst)
            return validate_instance(inst)

        def clock():
            calls.append("clock")
            return 0.0

        # every module that bound the name at import, so no call goes uncounted
        for name, module in list(sys.modules.items()):
            if name.startswith("kpcover.") and hasattr(module, "validate_instance"):
                monkeypatch.setattr(module, "validate_instance", counting)
        monkeypatch.setattr(solvers, "time", SimpleNamespace(perf_counter=clock))
        inst = self.inst()
        solve(inst, algo)
        assert calls == ["clock", inst, "clock"]

    def test_unknown_algo(self):
        with pytest.raises(ValueError):
            solve(self.inst(), "xml")
