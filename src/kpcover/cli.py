"""Command-line front end.

Subcommands: validate, solve, reduce-clique, gen, bench.

Exit codes: 0 success, 1 missing or unreadable file or other I/O error (a
write to a stdout whose reader closed early exits 1 with nothing on
stderr), 2 parse, parameter or other toolkit error, 3 invalid instance,
4 heuristic failure, 5 infeasible.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import (InstanceInvalidError, KPCoverError, ParseError,
                     SpecInvalidError)
from .exact import INFEASIBLE
from .generate import GenSpec, gen_complete_kpartite, gen_kpartite, gen_tree
from .graph import Budgets, Instance, greedy_partition, validate_instance
from .heuristic import HEURISTIC_FAILURE
from .ioformat import _decimal, parse_instance, serialize_instance
from .solvers import ALGOS, solve

EXIT_OK = 0
EXIT_IO = 1
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_HEURISTIC_FAILURE = 4
EXIT_INFEASIBLE = 5
EXIT_BY_STATUS = {HEURISTIC_FAILURE: EXIT_HEURISTIC_FAILURE,
                  INFEASIBLE: EXIT_INFEASIBLE}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that left shows here, not at exit
        return code
    except BrokenPipeError:
        # stdout's reader went away: say nothing, and point stdout at
        # devnull so the interpreter's exit-time flush finds no pipe either
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_IO
    except (OSError, KPCoverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, OSError):
            return EXIT_IO
        if (isinstance(exc, InstanceInvalidError)
                or isinstance(exc, ParseError) and exc.kind == "IntraPartEdge"):
            return EXIT_INVALID
        return EXIT_PARSE


def entry() -> None:  # console-script hook
    sys.exit(main())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kpcover",
        description="Budget-constrained minimum vertex cover toolkit for k-partite graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate an instance file")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("path")
    p.add_argument("--algo", choices=ALGOS, default="cvck")
    p.add_argument("--output", choices=["json", "text"], default="json")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("reduce-clique",
                       help="write the complement instance for the clique question (g, k)")
    p.add_argument("path")
    p.add_argument("--k", type=_decimal, required=True, help="clique size to decide")
    p.add_argument("--out", required=True, help="output instance path")
    p.set_defaults(func=cmd_reduce_clique)

    p = sub.add_parser("gen", help="generate an instance file on stdout")
    p.add_argument("--n", type=_decimal)
    p.add_argument("--k", type=_decimal)
    p.add_argument("--density", type=float)
    p.add_argument("--seed", type=_decimal)  # None: not given; 0 where read
    p.add_argument("--budget-mode")  # None: not given; slack:1 where read
    p.add_argument("--tree", action="store_true", help="random tree instead of k-partite")
    p.add_argument("--complete", help="complete k-partite with these part sizes, e.g. 2,3")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="run an ensemble and write per-record CSV")
    p.add_argument("--sizes", required=True, help="comma-separated n values")
    p.add_argument("--trials", type=_decimal, default=5)
    p.add_argument("--density", type=float)  # None: not given; 0.5 where read
    p.add_argument("--seed", type=_decimal, default=0)
    p.add_argument("--budget-mode", default="slack:1")
    p.add_argument("--k", type=_decimal)  # None: not given; 3 where read
    p.add_argument("--tree", action="store_true")
    p.add_argument("--exact-cutoff", type=_decimal)  # None: DEFAULT_EXACT_CUTOFF where read
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_bench)

    return parser


def _load_instance(path: str) -> Instance:
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(line, "Syntax",
                         f"invalid UTF-8 byte 0x{data[exc.start]:02x}") from None
    return parse_instance(text)


def _decimal_list(text: str, what: str) -> tuple[int, ...]:
    """The comma-separated decimals of an option, or SpecInvalidError."""
    try:
        return tuple(map(_decimal, text.split(",")))
    except ValueError:
        raise SpecInvalidError(f"{what} {text!r}") from None


def cmd_validate(args: argparse.Namespace) -> int:
    report = validate_instance(_load_instance(args.path)).check()
    for w in report.warnings:
        print(f"warning: {w}")
    print("ok")
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    fields = solve(_load_instance(args.path), args.algo)
    if args.output == "json":
        print(json.dumps(fields))
    else:
        for key, value in fields.items():
            if isinstance(value, list):  # cover, per_part_usage; [] as in JSON
                value = " ".join(str(v) for v in value) or "[]"
            elif key == "wall_ms":
                value = f"{value:.3f}"
            elif not isinstance(value, str):  # null, true and false as in JSON
                value = json.dumps(value)
            print(f"{key}: {value}")
    return EXIT_BY_STATUS.get(fields["status"], EXIT_OK)


def cmd_reduce_clique(args: argparse.Namespace) -> int:
    from .reduction import reduce_clique_to_vc  # loaded only by this command
    inst = _load_instance(args.path)
    out = reduce_clique_to_vc(inst.graph, args.k)
    comp = out.complement_graph
    partition = greedy_partition(comp)
    budgets = Budgets(tuple(len(partition.parts[p]) for p in range(1, partition.k + 1)))
    reduced = Instance(graph=comp, partition=partition, budgets=budgets)
    text = f"c target_cover_size {out.target_cover_size}\n" + serialize_instance(reduced)
    with open(args.out, "w", encoding="utf-8", newline="") as f:
        f.write(text)
    print(f"wrote {args.out} (target cover size {out.target_cover_size})")
    return EXIT_OK


def _refuse_options(args: argparse.Namespace, mode: str, *options: str) -> None:
    """SpecInvalidError naming the first of options given with mode."""
    for option in options:
        value = getattr(args, option[2:].replace("-", "_"))
        if value is not None and value is not False:  # 0 and 0.0 are given
            raise SpecInvalidError(f"{mode} does not take {option}")


def cmd_gen(args: argparse.Namespace) -> int:
    seed = 0 if args.seed is None else args.seed
    budget_mode = "slack:1" if args.budget_mode is None else args.budget_mode
    if args.complete is not None:
        _refuse_options(args, "--complete", "--tree", "--n", "--k", "--density",
                        "--seed", "--budget-mode")
        inst = gen_complete_kpartite(_decimal_list(args.complete, "bad part sizes"))
    elif args.tree:
        _refuse_options(args, "--tree", "--k", "--density")
        if args.n is None:
            raise SpecInvalidError("--tree requires --n")
        inst = gen_tree(args.n, seed, budget_mode)
    else:
        if args.n is None or args.k is None or args.density is None:
            raise SpecInvalidError("gen requires --n, --k and --density")
        inst = gen_kpartite(GenSpec(n=args.n, k=args.k, density=args.density,
                                    seed=seed, budget_mode=budget_mode))
    text = serialize_instance(inst)
    if not hasattr(sys.stdout, "buffer"):  # a text stream, such as io.StringIO
        sys.stdout.write(text)
        return EXIT_OK
    # write the bytes until all are taken: a pipe whose reader has gone may
    # take part of one large write without an error, and the text layer
    # would drop that short count; writing the rest raises BrokenPipeError
    sys.stdout.flush()
    out, data = sys.stdout.buffer, memoryview(text.encode())
    while data:
        data = data[out.write(data):]
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    # bench, and with it statistics and csv, loads only for this command
    from .bench import DEFAULT_EXACT_CUTOFF, BenchConfig, run_bench, write_csv
    cutoff = DEFAULT_EXACT_CUTOFF if args.exact_cutoff is None else args.exact_cutoff
    if args.tree:
        _refuse_options(args, "--tree", "--k", "--density")
    config = BenchConfig(sizes=_decimal_list(args.sizes, "bad sizes list"),
                         trials=args.trials,
                         density=0.5 if args.density is None else args.density,
                         seed=args.seed, budget_mode=args.budget_mode,
                         k=3 if args.k is None else args.k, tree=args.tree,
                         exact_cutoff=cutoff)
    records, summary = run_bench(config)
    with open(args.out, "w", encoding="utf-8", newline="") as f:
        write_csv(records, f)
    sys.stdout.write(summary)
    return EXIT_OK


if __name__ == "__main__":
    entry()
