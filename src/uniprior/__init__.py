"""Solver and bound engine for single-uniprior index-coding instances.

Single-sender instances are solved exactly (optimal codelength plus an
optimal linear code).  Multi-sender binary instances get matching-form
lower and upper bounds with tightness detection, plus brute-force
verification oracles for ground truth on small inputs.
"""

from .classify import (DegeneracyWitness, Kind, LeafSccClass,
                       check_degeneracy_witness, classify_leaf_scc,
                       find_degeneracy_witness)
from .codes import (CapExceededError, CodeSymbol, Gf2Basis, LinearIndexCode,
                    MalformedCodeError, OracleResult, VerifyReport,
                    bit_layout, check_code, load_code, oracle_min_linear,
                    parse_code, serialize_code, symbol, verify_exhaustive,
                    verify_linear)
from .graph import (SccPartition, WorkGraph, is_grounded, leaf_scc_sets,
                    leaf_vertices, predecessor_weight_bound, predecessors,
                    reach, scc_partition, v_out)
from .instance import (Instance, MessageGraph, ParseError, ValidationReport,
                       derive_message_graph, load_instance, parse_instance,
                       serialize_instance, validate)
from .multi import (BinaryRequiredError, BoundReport, ConnectingTree,
                    ExhaustiveResult, LowerBoundReport, StepKind, StepRecord,
                    TightReason, TreeSearchResult, bound_multi, encode_multi,
                    exhaustive_lower_bound, find_connecting_trees,
                    run_algorithm2, senders_pairwise_disjoint, step_limit)
from .single import (NotSingleSenderError, PruneStep, PruneTrace,
                     SingleSolution, encode_single, lower_bound_single,
                     prune_all, solve_single)

__all__ = [
    "Instance", "MessageGraph", "ParseError", "ValidationReport",
    "parse_instance", "serialize_instance", "load_instance", "validate",
    "derive_message_graph",
    "WorkGraph", "SccPartition", "scc_partition", "leaf_scc_sets",
    "leaf_vertices", "predecessors", "reach", "is_grounded",
    "predecessor_weight_bound", "v_out",
    "CodeSymbol", "LinearIndexCode", "VerifyReport", "OracleResult",
    "MalformedCodeError", "CapExceededError", "Gf2Basis", "bit_layout",
    "check_code", "symbol", "parse_code",
    "serialize_code", "load_code", "verify_linear", "verify_exhaustive",
    "oracle_min_linear",
    "PruneStep", "PruneTrace", "SingleSolution", "NotSingleSenderError",
    "prune_all", "lower_bound_single", "encode_single", "solve_single",
    "Kind", "LeafSccClass", "DegeneracyWitness", "classify_leaf_scc",
    "find_degeneracy_witness", "check_degeneracy_witness",
    "StepKind", "StepRecord", "LowerBoundReport", "ExhaustiveResult",
    "ConnectingTree", "TreeSearchResult", "BoundReport", "TightReason",
    "BinaryRequiredError", "run_algorithm2", "exhaustive_lower_bound",
    "find_connecting_trees", "encode_multi", "bound_multi", "step_limit",
    "senders_pairwise_disjoint",
]
