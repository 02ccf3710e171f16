"""Solver and bound engine for single-uniprior index-coding instances.

Single-sender instances are solved exactly (optimal codelength plus an
optimal linear code).  Multi-sender binary instances get matching-form
lower and upper bounds with tightness detection, plus brute-force
verification oracles for ground truth on small inputs.

Each library module is registered here as a lazy module and runs on its
first attribute access, so a command compiles only the layers it calls.
Every submodule is in ``sys.modules`` and bound as an attribute from
the start; the names of ``__all__`` are read from their modules on
first use.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

# public name -> the module that defines it
_HOMES = {
    "instance": ("Instance", "MessageGraph", "ParseError", "ValidationReport",
                 "parse_instance", "serialize_instance", "load_instance", "validate",
                 "derive_message_graph"),
    "graph": ("WorkGraph", "SccPartition", "scc_partition", "leaf_scc_sets",
              "leaf_vertices", "predecessors", "reach", "v_out"),
    "codes": ("CodeSymbol", "LinearIndexCode", "VerifyReport", "OracleResult",
              "MalformedCodeError", "CapExceededError", "Gf2Basis", "bit_layout",
              "check_code", "symbol", "parse_code", "serialize_code", "load_code",
              "verify_linear", "verify_exhaustive", "oracle_min_linear"),
    "single": ("PruneStep", "PruneTrace", "SingleSolution", "NotSingleSenderError",
               "encode_single", "solve_single"),
    "classify": ("Kind", "LeafSccClass", "DegeneracyWitness", "classify_leaf_scc",
                 "find_degeneracy_witness"),
    "multi": ("StepKind", "StepRecord", "LowerBoundReport", "ExhaustiveResult",
              "ConnectingTree", "TreeSearchResult", "BoundReport", "TightReason",
              "BinaryRequiredError", "run_algorithm2", "exhaustive_lower_bound",
              "find_connecting_trees", "encode_multi", "bound_multi", "step_limit",
              "senders_pairwise_disjoint"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}


def _lazy(name: str):
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in _HOMES:
    globals()[_name] = _lazy(_name)
del _name

__all__ = [name for names in _HOMES.values() for name in names]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[module], name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
