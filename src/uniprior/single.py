"""Single-sender solver: the exact codelength, its pruning trace, cyclic codes.

The optimal codelength is total weight, minus the weight of leaf
vertices (nobody wants those messages), minus one minimum weight per
leaf SCC (the cyclic-code saving).  Pruning a minimum-weight vertex of
each leaf SCC grounds the graph; a prune creates no leaf SCC and touches
no other (rule 1 of ``graph``'s module docstring), so the trace is read
off the root graph's leaf SCCs, and no pruned graph is built.
"""

from __future__ import annotations

from collections import namedtuple

from .codes import CodeSymbol, LinearIndexCode
from .graph import WorkGraph, _leaf_sccs, leaf_vertices
from .instance import Instance


class NotSingleSenderError(ValueError):
    """solve_single only handles one sender; use the multi-sender bounds."""


# one pruning: the leaf SCC, its pruned vertex and that vertex's out-arcs
PruneStep = namedtuple("PruneStep", "scc vertex removed_arcs")
PruneTrace = namedtuple("PruneTrace", "steps")
# arithmetic: total weight, leaf weight, per-SCC minimum sum
SingleSolution = namedtuple("SingleSolution",
                            "optimal_length lower_bound code trace arithmetic")


def encode_single(g: WorkGraph) -> LinearIndexCode:
    """Cyclic code per leaf SCC, everything else non-leaf sent uncoded.

    Per leaf SCC with vertices v_1 < ... < v_k and minimum length q_min:
    first the XOR chain x_{v_t}[b] ^ x_{v_{t+1}}[b] for t = 1..k-1, bits
    inner; then the SCC messages' bits beyond q_min uncoded, ascending
    (vertex, bit).  Then all non-leaf vertices outside leaf SCCs,
    uncoded ascending.  Leaf messages are never transmitted.
    """
    symbols: list[CodeSymbol] = []
    in_scc: set[int] = set()
    for scc in _leaf_sccs(g):
        vs = sorted(scc)
        in_scc |= scc
        q_min = min(g.weight[v] for v in vs)
        for t in range(len(vs) - 1):
            for b in range(1, q_min + 1):
                symbols.append(CodeSymbol(sender=1, terms=((vs[t], b), (vs[t + 1], b))))
        for v in vs:
            for b in range(q_min + 1, g.weight[v] + 1):
                symbols.append(CodeSymbol(sender=1, terms=((v, b),)))
    leaves = leaf_vertices(g)
    for v in g.vertices:
        if v in in_scc or v in leaves:
            continue
        for b in range(1, g.weight[v] + 1):
            symbols.append(CodeSymbol(sender=1, terms=((v, b),)))
    return LinearIndexCode(symbols=tuple(symbols))


def solve_single(inst: Instance) -> SingleSolution:
    """Exact optimum for a one-sender instance: the pruning bound is
    achieved by the cyclic-code construction, so lower bound, codelength
    and optimum coincide.  Each leaf SCC's step prunes its minimum-weight
    vertex (smallest id on ties), whose weight is the SCC's minimum."""
    if len(inst.senders) != 1:
        raise NotSingleSenderError(
            f"instance has {len(inst.senders)} senders; this solver handles exactly one")
    g = WorkGraph.from_instance(inst)
    steps = []
    scc_min = 0
    for scc in _leaf_sccs(g):
        pick = min(scc, key=lambda v: (g.weight[v], v))
        steps.append(PruneStep(scc=scc, vertex=pick,
                               removed_arcs=tuple((pick, j) for j in g.out_neighbors(pick))))
        scc_min += g.weight[pick]
    total = sum(g.weight.values())
    leaf_w = sum(g.weight[v] for v in leaf_vertices(g))
    bound = total - leaf_w - scc_min
    return SingleSolution(optimal_length=bound, lower_bound=bound, code=encode_single(g),
                          trace=PruneTrace(steps=tuple(steps)),
                          arithmetic=(total, leaf_w, scc_min))
