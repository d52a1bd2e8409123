"""End-to-end command-line behavior, exit codes as contracted."""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kpcover
from kpcover.cli import main
from kpcover.errors import SelfLoopError
from kpcover.generate import GenSpec, gen_kpartite, gen_tree
from kpcover.graph import ValidationReport
from kpcover.ioformat import serialize_instance

SRC = str(Path(kpcover.__file__).resolve().parents[1])

PATH_FILE = """p kpvc 3 2 2
v 1 1
v 2 2
v 3 1
b 1 0
b 2 1
e 1 2
e 2 3
"""

ZERO_BUDGET_FILE = """p kpvc 2 1 2
v 1 1
v 2 2
b 1 0
b 2 0
e 1 2
"""

TRIANGLE_PLUS_ISOLATED = """p kpvc 4 3 3
v 1 1
v 2 2
v 3 3
v 4 1
b 1 2
b 2 1
b 3 1
e 1 2
e 1 3
e 2 3
"""


def write(tmp_path, name, text):
    target = tmp_path / name
    target.write_text(text)
    return str(target)


def strip_wall_ms(csv_text: str) -> list[str]:
    return [line.rsplit(",", 1)[0] for line in csv_text.splitlines()]


# bench flags -> full summary text, sha256 of the CSV less its wall_ms column
BENCH_PINS = [
    (["--sizes", "8,12,30", "--trials", "4", "--budget-mode", "exact",
      "--seed", "3"],
     "ensemble: sizes=[8, 12, 30] trials=4 density=0.5 budget_mode=exact "
     "tree=False k=3 seed=3\n"
     "instances: 12 (oracle evaluated: 8, oracle feasible: 8)\n"
     "heuristic success_rate: 0.9167 (denominator: all)\n"
     "gap histogram (heuristic vs optimum): {0: 7}\n"
     "mean op_count by n: {8: 47.0, 12: 181.2, 30: 998.5}\n"
     "scaling: slope=2.236 r2=0.9770\n",
     "094e16df086a93544a6d7b8f3013fb782fcb81e3ab303cdd609d7abca8cee84a"),
    (["--sizes", "6,9", "--trials", "3", "--tree", "--budget-mode", "slack:2",
      "--seed", "11"],
     "ensemble: sizes=[6, 9] trials=3 density=0.5 budget_mode=slack:2 "
     "tree=True k=3 seed=11\n"
     "instances: 6 (oracle evaluated: 6, oracle feasible: 6)\n"
     "heuristic success_rate: 1.0000 (denominator: oracle-feasible)\n"
     "gap histogram (heuristic vs optimum): {0: 5, 1: 1}\n"
     "tree_claim_rate (size <= optimum+1): 1.0000\n"
     "mean op_count by n: {6: 32.0, 9: 55.3}\n"
     "scaling: slope=1.351 r2=1.0000\n",
     "9dfa0c1d129fd495795a363f1d0c8b6aafb492063c3cedf911cc06aac95ea7ce"),
    (["--sizes", "12", "--trials", "3", "--seed", "2", "--exact-cutoff", "0"],
     "ensemble: sizes=[12] trials=3 density=0.5 budget_mode=slack:1 "
     "tree=False k=3 seed=2\n"
     "instances: 3 (oracle evaluated: 0, oracle feasible: 0)\n"
     "heuristic success_rate: 1.0000 (denominator: all)\n"
     "gap histogram (heuristic vs optimum): {}\n"
     "mean op_count by n: {12: 145.7}\n",
     "6f45a2c627564e8cac0fd80277a14f802e207aa65802298b74fc1714195a845e"),
]


class TestValidate:
    def test_ok(self, tmp_path, capsys):
        assert main(["validate", write(tmp_path, "a.kpvc", PATH_FILE)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_missing_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.kpvc")]) == 1

    def test_syntax_error(self, tmp_path, capsys):
        path = write(tmp_path, "bad.kpvc", "p kpvc x 0 1\n")
        assert main(["validate", path]) == 2

    def test_intra_part_edge(self, tmp_path, capsys):
        text = "p kpvc 2 1 1\nv 1 1\nv 2 1\nb 1 2\ne 1 2\n"
        assert main(["validate", write(tmp_path, "intra.kpvc", text)]) == 3
        assert "line 5" in capsys.readouterr().err

    def test_failing_report_exits_3(self, tmp_path, capsys, monkeypatch):
        report = ValidationReport(ok=False, violations=("part 2 is odd",),
                                  warnings=())
        monkeypatch.setattr("kpcover.cli.validate_instance", lambda inst: report)
        assert main(["validate", write(tmp_path, "a.kpvc", PATH_FILE)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: part 2 is odd\n"

    def test_other_toolkit_error_exits_2(self, tmp_path, capsys, monkeypatch):
        def fail(inst):
            raise SelfLoopError("edge (2, 2) is a loop")
        monkeypatch.setattr("kpcover.cli.validate_instance", fail)
        assert main(["validate", write(tmp_path, "a.kpvc", PATH_FILE)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: edge (2, 2) is a loop\n"

    def test_empty_part_is_a_warning(self, tmp_path, capsys):
        text = "p kpvc 2 1 3\nv 1 1\nv 2 2\nb 1 1\nb 2 1\nb 3 0\ne 1 2\n"
        assert main(["validate", write(tmp_path, "empty.kpvc", text)]) == 0
        assert capsys.readouterr().out == "warning: part 3 is empty\nok\n"

    def test_repeated_edge_exits_2(self, tmp_path, capsys):
        text = PATH_FILE.replace("p kpvc 3 2 2", "p kpvc 3 3 2") + "e 2 1\n"
        assert main(["validate", write(tmp_path, "twice.kpvc", text)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: line 9: DuplicateRecord: "
                                "edge (2, 1) given twice\n")


class TestSolve:
    def test_exact_on_path(self, tmp_path, capsys):
        path = write(tmp_path, "p.kpvc", PATH_FILE)
        assert main(["solve", path, "--algo", "exact"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["cover"] == [2] and out["status"] == "Feasible"

    def test_cvck_on_path(self, tmp_path, capsys):
        path = write(tmp_path, "p.kpvc", PATH_FILE)
        assert main(["solve", path, "--algo", "cvck"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["cover"] == [2] and out["status"] == "Success"

    def test_directory_exits_1(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_non_utf8_exits_2(self, tmp_path, capsys):
        target = tmp_path / "latin1.kpvc"
        target.write_bytes(b"p kpvc 2 1 2\nv 1 1\nc caf\xe9\n")
        assert main(["solve", str(target)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: line 3: Syntax: invalid UTF-8 byte 0xe9"]

    def test_field_over_the_int_digit_limit_exits_2(self, tmp_path, capsys):
        text = PATH_FILE.replace("b 2 1", "b 2 " + "1" * 5000)
        assert main(["solve", write(tmp_path, "long.kpvc", text)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: line 6: Syntax: integer field too long"]

    def test_heuristic_failure_exit_code(self, tmp_path):
        path = write(tmp_path, "z.kpvc", ZERO_BUDGET_FILE)
        assert main(["solve", path, "--algo", "cvck"]) == 4

    def test_infeasible_exit_code(self, tmp_path):
        path = write(tmp_path, "z.kpvc", ZERO_BUDGET_FILE)
        assert main(["solve", path, "--algo", "exact"]) == 5

    def test_2approx_reports_budget_violation(self, tmp_path, capsys):
        path = write(tmp_path, "z.kpvc", ZERO_BUDGET_FILE)
        assert main(["solve", path, "--algo", "2approx"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["size"] == 2 and out["budget_violation"] is True

    @pytest.mark.parametrize("algo, keys", [
        ("cvck", ["op_count", "wall_ms"]),
        ("exact", ["nodes_explored", "wall_ms"]),
        ("2approx", ["wall_ms", "budget_violation"]),
    ])
    def test_json_key_order(self, tmp_path, capsys, algo, keys):
        path = write(tmp_path, "p.kpvc", PATH_FILE)
        assert main(["solve", path, "--algo", algo]) == 0
        out = json.loads(capsys.readouterr().out)
        assert list(out) == ["algo", "status", "cover", "size",
                             "per_part_usage"] + keys

    def test_text_output(self, tmp_path, capsys):
        path = write(tmp_path, "p.kpvc", PATH_FILE)
        assert main(["solve", path, "--algo", "cvck", "--output", "text"]) == 0
        out = capsys.readouterr().out
        assert "status: Success" in out and "cover: 2" in out

    @pytest.mark.parametrize("text, algo, code, lines", [
        (ZERO_BUDGET_FILE, "exact", 5, ["size: null", "per_part_usage: null"]),
        (ZERO_BUDGET_FILE, "2approx", 0, ["budget_violation: true"]),
        (ZERO_BUDGET_FILE.replace(" 0\n", " 1\n"), "2approx", 0,
         ["budget_violation: false"]),
    ], ids=["exact-infeasible", "2approx-violation", "2approx-no-violation"])
    def test_text_output_prints_json_scalars(self, tmp_path, capsys, text,
                                             algo, code, lines):
        path = write(tmp_path, "z.kpvc", text)
        assert main(["solve", path, "--algo", algo, "--output", "text"]) == code
        out = capsys.readouterr().out.splitlines()
        assert all(line in out for line in lines), out

    @pytest.mark.parametrize("text, algo, code, cover", [
        (PATH_FILE, "cvck", 0, "cover: 2"),
        (ZERO_BUDGET_FILE, "cvck", 4, "cover: []"),
        (ZERO_BUDGET_FILE, "exact", 5, "cover: []"),
        (PATH_FILE, "2approx", 0, "cover: 1 2"),
    ], ids=["cvck-success", "cvck-failure", "exact-infeasible", "2approx"])
    def test_text_lines_end_without_whitespace(self, tmp_path, capsys, text,
                                               algo, code, cover):
        path = write(tmp_path, "z.kpvc", text)
        assert main(["solve", path, "--algo", algo, "--output", "text"]) == code
        out = capsys.readouterr().out.splitlines()
        assert cover in out
        assert all(line == line.rstrip() for line in out), out


class TestGen:
    def test_k2_instance(self, capsys):
        assert main(["gen", "--n", "2", "--k", "2", "--density", "1",
                     "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "p kpvc 2 1 2" in out and "e 1 2" in out

    def test_identical_bytes_for_identical_flags(self, capsys):
        flags = ["gen", "--n", "14", "--k", "3", "--density", "0.5", "--seed", "77"]
        assert main(flags) == 0
        first = capsys.readouterr().out
        assert main(flags) == 0
        assert capsys.readouterr().out == first

    def test_tree_has_n_minus_one_edges(self, capsys):
        assert main(["gen", "--tree", "--n", "10", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert sum(1 for line in out.splitlines() if line.startswith("e ")) == 9

    def test_tree_honours_budget_mode(self, capsys):
        assert main(["gen", "--tree", "--n", "10", "--seed", "7",
                     "--budget-mode", "fixed:4,5"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [line for line in out if line.startswith("b ")] == ["b 1 4", "b 2 5"]

    def test_complete_sizes(self, capsys):
        assert main(["gen", "--complete", "2,3"]) == 0
        out = capsys.readouterr().out
        assert sum(1 for line in out.splitlines() if line.startswith("e ")) == 6

    def test_text_only_stdout(self, monkeypatch):
        # gen writes bytes to stdout's buffer, which io.StringIO does not have
        out = io.StringIO()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["gen", "--complete", "2,3"]) == 0
        assert out.getvalue().startswith("p kpvc 5 6 2\nv 1 1\n")

    def test_bad_spec_exits_2(self, capsys):
        assert main(["gen", "--n", "3", "--k", "5", "--density", "0.5",
                     "--seed", "1"]) == 2

    @pytest.mark.parametrize("flags, message", [
        (["--complete", "2,x"], "bad part sizes '2,x'"),
        (["--tree", "--seed", "1"], "--tree requires --n"),
        (["--n", "4", "--density", "0.5"], "gen requires --n, --k and --density"),
        (["--complete", ""], "bad part sizes ''"),
        (["--complete", "1_0,2"], "bad part sizes '1_0,2'"),
        (["--complete", "+2,3"], "bad part sizes '+2,3'"),
        (["--complete", " 3,2"], "bad part sizes ' 3,2'"),
        (["--complete", "\u0663,2"], "bad part sizes '\u0663,2'"),
        (["--complete", "2,3", "--budget-mode", "nonsense"],
         "--complete does not take --budget-mode"),
        (["--complete", "2,3", "--budget-mode", "fixed:1,1"],
         "--complete does not take --budget-mode"),
        (["--complete", "2,3", "--seed", "0"], "--complete does not take --seed"),
        (["--complete", "2,3", "--tree"], "--complete does not take --tree"),
        (["--complete", "2,3", "--n", "5"], "--complete does not take --n"),
        (["--complete", "2,3", "--k", "2"], "--complete does not take --k"),
        (["--complete", "2,3", "--density", "0"], "--complete does not take --density"),
        (["--tree", "--n", "5", "--density", "3"], "--tree does not take --density"),
        (["--tree", "--n", "5", "--k", "2"], "--tree does not take --k"),
    ], ids=["complete-sizes", "tree-without-n", "without-k", "complete-empty",
            "complete-underscore", "complete-plus", "complete-space",
            "complete-arabic-indic", "complete-budget-mode",
            "complete-fixed-budgets", "complete-seed-0", "complete-tree",
            "complete-n", "complete-k", "complete-density-0", "tree-density",
            "tree-k"])
    def test_spec_errors_exit_2(self, capsys, flags, message):
        assert main(["gen"] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    def test_seed_and_budget_mode_defaults(self, capsys):
        assert main(["gen", "--tree", "--n", "10"]) == 0
        assert capsys.readouterr().out == serialize_instance(gen_tree(10, 0, "slack:1"))
        assert main(["gen", "--n", "9", "--k", "3", "--density", "0.5"]) == 0
        spec = GenSpec(n=9, k=3, density=0.5, seed=0, budget_mode="slack:1")
        assert capsys.readouterr().out == serialize_instance(gen_kpartite(spec))

    def test_gen_output_validates(self, tmp_path, capsys):
        assert main(["gen", "--n", "9", "--k", "3", "--density", "0.6",
                     "--seed", "3"]) == 0
        path = write(tmp_path, "g.kpvc", capsys.readouterr().out)
        assert main(["validate", path]) == 0


    def test_runs_as_module(self):
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-m", "kpcover.cli", "gen", "--n", "2", "--k", "2",
             "--density", "1"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "p kpvc 2 1 2"

    def test_runs_as_package(self):
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-m", "kpcover", "gen", "--n", "2", "--k", "2",
             "--density", "1"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "p kpvc 2 1 2"


class TestProcess:
    """kpcover.cli run as a program: entry() turns main's code into the exit status."""

    def test_exit_statuses(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=SRC)
        path_file = write(tmp_path, "path.kpvc", PATH_FILE)
        zero_budget = write(tmp_path, "zero.kpvc", ZERO_BUDGET_FILE)
        cases = [
            (["validate", path_file], 0, "ok\n", ""),
            (["validate", str(tmp_path / "nope.kpvc")], 1, "", "error: [Errno 2]"),
            (["validate", write(tmp_path, "syntax.kpvc", "p kpvc x 0 1\n")], 2, "",
             "error: line 1: Syntax: non-integer field in ['x', '0', '1']\n"),
            (["validate", write(tmp_path, "intra.kpvc",
                                "p kpvc 2 1 1\nv 1 1\nv 2 1\nb 1 2\ne 1 2\n")], 3, "",
             "error: line 5: IntraPartEdge: edge (1, 2) inside part 1\n"),
            (["solve", zero_budget, "--algo", "cvck"], 4,
             '{"algo": "cvck", "status": "HeuristicFailure"', ""),
            (["solve", zero_budget, "--algo", "exact"], 5,
             '{"algo": "exact", "status": "Infeasible"', ""),
        ]
        for args, status, out, err in cases:
            proc = subprocess.run([sys.executable, "-m", "kpcover.cli", *args],
                                  capture_output=True, text=True, env=env,
                                  timeout=60)
            assert proc.returncode == status, (args, proc.stderr)
            assert proc.stdout.startswith(out) and bool(proc.stdout) == bool(out), args
            assert proc.stderr.startswith(err) and bool(proc.stderr) == bool(err), args


    @pytest.mark.parametrize("args, status", [
        (["gen", "--n", "300", "--k", "3", "--density", "0.5"], (1,)),
        (["solve", "tree.kpvc", "--algo", "2approx", "--output", "text"], (1,)),
    ], ids=["gen", "solve"])
    def test_stdout_closed_early_is_quiet(self, tmp_path, capsys, args, status):
        # both outputs are far longer than a pipe holds. gen writes its bytes
        # until all are taken, so a write cut short by the closed pipe is
        # followed by one that fails; solve prints again after the reader
        # has gone. Either way the status is 1
        assert main(["gen", "--tree", "--n", "30000", "--seed", "1"]) == 0
        write(tmp_path, "tree.kpvc", capsys.readouterr().out)
        proc = subprocess.Popen([sys.executable, "-m", "kpcover", *args],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                cwd=tmp_path, env=dict(os.environ, PYTHONPATH=SRC))
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) in status
        assert len(head) == 100 and err == b""

    @pytest.mark.parametrize("args", [
        ["validate", "PATH"], ["solve", "PATH"],
        ["gen", "--n", "9", "--k", "3", "--density", "0.5"],
    ], ids=["validate", "solve", "gen"])
    def test_only_bench_loads_the_bench_module(self, tmp_path, args):
        # a fresh interpreter, so no earlier import in this session counts
        path = write(tmp_path, "path.kpvc", PATH_FILE)
        args = [path if arg == "PATH" else arg for arg in args]
        code = ("import sys\n"
                "from kpcover.cli import main\n"
                f"code = main({args!r})\n"
                "print(code, [m for m in ('kpcover.bench', 'kpcover.reduction', "
                "'statistics', 'csv') if m in sys.modules])\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=SRC),
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []"


class TestReduceClique:
    def test_writes_complement_instance(self, tmp_path, capsys):
        src = write(tmp_path, "t.kpvc", TRIANGLE_PLUS_ISOLATED)
        out_path = str(tmp_path / "red.kpvc")
        assert main(["reduce-clique", src, "--k", "3", "--out", out_path]) == 0
        text = (tmp_path / "red.kpvc").read_text()
        assert "c target_cover_size 1" in text
        assert "e 1 4" in text and "e 2 4" in text and "e 3 4" in text
        capsys.readouterr()
        assert main(["validate", out_path]) == 0

    def test_k_out_of_range(self, tmp_path):
        src = write(tmp_path, "t.kpvc", TRIANGLE_PLUS_ISOLATED)
        assert main(["reduce-clique", src, "--k", "9",
                     "--out", str(tmp_path / "x.kpvc")]) == 2


class TestBench:
    def test_record_arithmetic_and_summary(self, tmp_path, capsys):
        out_path = str(tmp_path / "bench.csv")
        assert main(["bench", "--sizes", "10", "--trials", "5", "--seed", "1",
                     "--out", out_path]) == 0
        printed = capsys.readouterr().out
        assert "success_rate" in printed
        lines = (tmp_path / "bench.csv").read_text().splitlines()
        assert lines[0].startswith("instance_id,")
        assert len(lines) == 1 + 15  # header + 3 algos x 5 trials

    def test_reproducible_modulo_wall_ms(self, tmp_path, capsys):
        a_path, b_path = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        flags = ["bench", "--sizes", "8,12", "--trials", "3", "--density", "0.4",
                 "--seed", "9"]
        assert main(flags + ["--out", a_path]) == 0
        assert main(flags + ["--out", b_path]) == 0
        capsys.readouterr()
        a = strip_wall_ms((tmp_path / "a.csv").read_text())
        b = strip_wall_ms((tmp_path / "b.csv").read_text())
        assert a == b

    def test_tree_ensemble_reports_claim_rate(self, tmp_path, capsys):
        out_path = str(tmp_path / "trees.csv")
        assert main(["bench", "--tree", "--sizes", "10", "--trials", "4",
                     "--seed", "2", "--out", out_path]) == 0
        assert "tree_claim_rate" in capsys.readouterr().out

    def test_tree_ensemble_records_its_budget_mode(self, tmp_path, capsys):
        out_path = str(tmp_path / "trees.csv")
        assert main(["bench", "--tree", "--sizes", "8,10", "--trials", "3",
                     "--seed", "2", "--budget-mode", "exact",
                     "--out", out_path]) == 0
        assert "budget_mode=exact" in capsys.readouterr().out
        rows = (tmp_path / "trees.csv").read_text().splitlines()[1:]
        assert len(rows) == 18
        assert {row.split(",")[5] for row in rows} == {"exact"}

    @pytest.mark.parametrize("flags, option", [
        (["--k", "7"], "--k"),
        (["--density", "3"], "--density"),
        (["--density", "0"], "--density"),
        (["--k", "7", "--density", "3"], "--k"),
    ], ids=["k", "density", "density-0", "k-and-density"])
    def test_tree_refuses_k_and_density(self, tmp_path, capsys, flags, option):
        # a tree ensemble draws neither option, so the summary would echo a
        # value its rows do not have
        out_path = tmp_path / "bench.csv"
        assert main(["bench", "--sizes", "8", "--trials", "1", "--tree", *flags,
                     "--out", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --tree does not take {option}\n"
        assert not out_path.exists()

    def test_gap_never_negative_and_2approx_bound(self, tmp_path, capsys):
        out_path = str(tmp_path / "gaps.csv")
        assert main(["bench", "--sizes", "8,10,12", "--trials", "4", "--seed", "4",
                     "--out", out_path]) == 0
        capsys.readouterr()
        lines = (tmp_path / "gaps.csv").read_text().splitlines()[1:]
        for line in lines:
            fields = line.split(",")
            if fields[10] != "":
                assert int(fields[10]) >= 0
            if fields[6] == "2approx" and fields[9] != "":
                assert int(fields[8]) <= 2 * int(fields[9])

    def test_bad_sizes_exits_2(self, tmp_path, capsys):
        out_path = tmp_path / "bench.csv"
        assert main(["bench", "--sizes", "1,x", "--out", str(out_path)]) == 2
        assert capsys.readouterr().err == "error: bad sizes list '1,x'\n"
        assert not out_path.exists()

    def test_repeated_size_exits_2(self, tmp_path, capsys):
        # each size's trials are named kp-n<size>-t<trial>, so a repeat
        # would give two instances one id
        out_path = tmp_path / "bench.csv"
        assert main(["bench", "--sizes", "3,3", "--trials", "1",
                     "--out", str(out_path)]) == 2
        assert capsys.readouterr().err == "error: repeated size in sizes [3, 3]\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("tree", [False, True], ids=["kpartite", "tree"])
    @pytest.mark.parametrize("sizes", ["0", "-3", "4,0"])
    def test_size_below_one_exits_2(self, tmp_path, capsys, sizes, tree):
        # the generators would name k or the tree, not the size given
        out_path = tmp_path / "bench.csv"
        argv = ["bench", "--sizes", sizes, "--out", str(out_path)]
        assert main(argv + ["--tree"] * tree) == 2
        assert capsys.readouterr().err == (
            f"error: sizes must be >= 1, got [{sizes.replace(',', ', ')}]\n")
        assert not out_path.exists()

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_trials_below_one_exit_2(self, tmp_path, capsys, trials):
        # an empty ensemble would write a header-only CSV and exit 0
        out_path = tmp_path / "bench.csv"
        assert main(["bench", "--sizes", "4", "--trials", trials,
                     "--out", str(out_path)]) == 2
        assert capsys.readouterr().err == f"error: trials must be >= 1, got {trials}\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("sizes", ["1_0,8", "+2,8", " 3,8", "\u0663,8"],
                             ids=["underscore", "plus", "space", "arabic-indic"])
    def test_non_decimal_sizes_exit_2(self, tmp_path, capsys, sizes):
        # int() reads each of these fields; the budget-mode rule does not
        out_path = tmp_path / "bench.csv"
        assert main(["bench", "--sizes", sizes, "--out", str(out_path)]) == 2
        assert capsys.readouterr().err == f"error: bad sizes list {sizes!r}\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("flags, summary, csv_sha256", BENCH_PINS,
                             ids=["oracle-on-some", "tree-claim", "no-oracle"])
    def test_summary_and_csv_pinned(self, tmp_path, capsys, flags, summary,
                                    csv_sha256):
        out_path = tmp_path / "bench.csv"
        assert main(["bench", *flags, "--out", str(out_path)]) == 0
        assert capsys.readouterr().out == summary
        rows = "".join(line + "\n" for line in strip_wall_ms(out_path.read_text()))
        assert hashlib.sha256(rows.encode()).hexdigest() == csv_sha256


class TestIntegerOptions:
    """Every integer option takes the instance grammar's ASCII decimals."""

    # (subcommand flags that are valid without the option, the option);
    # int() would read each bad value below as a value these flags accept
    OPTIONS = [
        (["gen", "--k", "2", "--density", "0.5"], "--n"),
        (["gen", "--n", "12", "--density", "0.5"], "--k"),
        (["gen", "--n", "12", "--k", "2", "--density", "0.5"], "--seed"),
        (["bench", "--sizes", "4"], "--trials"),
        (["bench", "--sizes", "4", "--trials", "1"], "--seed"),
        (["bench", "--sizes", "4", "--trials", "1"], "--k"),
        (["bench", "--sizes", "4", "--trials", "1"], "--exact-cutoff"),
        (["reduce-clique", "PATH"], "--k"),
    ]

    @pytest.mark.parametrize("value", ["1_0", "+4", " 4", "\u0663"],
                             ids=["underscore", "plus", "space", "arabic-indic"])
    @pytest.mark.parametrize("flags, option", OPTIONS, ids=[
        "gen-n", "gen-k", "gen-seed", "bench-trials", "bench-seed", "bench-k",
        "bench-exact-cutoff", "reduce-clique-k"])
    def test_non_decimal_value_exits_2(self, tmp_path, capsys, flags, option, value):
        spec = GenSpec(n=12, k=3, density=0.5, seed=1)  # room for a clique size 10
        path = write(tmp_path, "g.kpvc", serialize_instance(gen_kpartite(spec)))
        out_path = tmp_path / "out"
        flags = [path if flag == "PATH" else flag for flag in flags]
        if flags[0] != "gen":
            flags += ["--out", str(out_path)]
        with pytest.raises(SystemExit) as exit_info:
            main([*flags, option, value])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out_path.exists()
        assert f"argument {option}: invalid _decimal value: {value!r}" in captured.err

    def test_negative_seed_gives_the_spec_bytes(self, capsys):
        assert main(["gen", "--n", "9", "--k", "3", "--density", "0.5",
                     "--seed", "-7"]) == 0
        spec = GenSpec(n=9, k=3, density=0.5, seed=-7)
        assert capsys.readouterr().out == serialize_instance(gen_kpartite(spec))
