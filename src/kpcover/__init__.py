"""Solver toolkit for budget-constrained minimum vertex cover on k-partite graphs.

Capabilities: a greedy heuristic with feasibility lookahead, exact
branch-and-bound oracles (budgeted cover, plain cover, max clique), the
clique-to-cover complement reduction with certificate translation, a
maximal-matching 2-approximation baseline, one `solve(inst, algo)` dispatcher
over the three solvers, seeded instance generators, a text instance format,
and a benchmark harness.
"""

from .approx import matching_vertex_cover, two_approx_vc
from .bench import BenchConfig, BenchRecord, loglog_slope, run_bench, write_csv
from .errors import (InstanceInvalidError, KOutOfRangeError, KPCoverError,
                     NotACliqueError, NotACoverError, ParseError,
                     SelfLoopError, SpecInvalidError, VertexOutOfRangeError)
from .exact import ExactResult, exact_cvck, exact_max_clique, exact_min_vc
from .generate import (GenSpec, SplitMix64, derive_budgets,
                       gen_complete_kpartite, gen_kpartite, gen_tree,
                       parse_budget_mode)
from .graph import (Budgets, Graph, Instance, KPartition, ValidationReport,
                    build_graph, complement, greedy_partition, is_clique,
                    is_vertex_cover, make_partition, per_part_usage,
                    respects_budgets, validate_instance)
from .heuristic import (CoverResult, HeuristicState, extract_max,
                        make_decision, solve_cvck)
from .ioformat import parse_instance, serialize_instance
from .reduction import (ReductionOutput, clique_cert_to_cover,
                        cover_cert_to_clique, reduce_clique_to_vc)
from .solvers import ALGOS, solve

__version__ = "0.1.0"

__all__ = [
    "ALGOS", "Budgets", "BenchConfig", "BenchRecord",
    "CoverResult", "ExactResult", "GenSpec", "Graph", "HeuristicState",
    "Instance", "InstanceInvalidError", "KOutOfRangeError", "KPCoverError",
    "KPartition", "NotACliqueError", "NotACoverError", "ParseError",
    "ReductionOutput", "SelfLoopError", "SpecInvalidError", "SplitMix64",
    "ValidationReport", "VertexOutOfRangeError",
    "build_graph", "clique_cert_to_cover", "complement",
    "cover_cert_to_clique", "derive_budgets", "exact_cvck",
    "exact_max_clique", "exact_min_vc", "extract_max",
    "gen_complete_kpartite", "gen_kpartite",
    "gen_tree", "greedy_partition", "is_clique", "is_vertex_cover",
    "loglog_slope", "make_decision", "make_partition", "matching_vertex_cover",
    "parse_budget_mode", "parse_instance", "per_part_usage",
    "reduce_clique_to_vc", "respects_budgets", "run_bench",
    "serialize_instance", "solve", "solve_cvck",
    "two_approx_vc", "validate_instance", "write_csv",
]
