"""Single-sender exact solver: pruning, the bound arithmetic, cyclic codes."""

from __future__ import annotations

import json
import random

import pytest

from uniprior import (LinearIndexCode, NotSingleSenderError, WorkGraph, cli,
                      encode_single, leaf_scc_sets, oracle_min_linear, solve_single,
                      symbol, v_out, verify_linear)

from generators import cyclic_arcs, make_instance, rand_single
from oracles import (brute_is_grounded, reference_codelength,
                     reference_predecessor_weight_bound, reference_prune_all)

EX2 = make_instance(5, [[2, 1], [3, 1], [1, 2], [3, 2], [1, 3], [2, 3], [4, 5]],
                    [[1, 2, 3, 4, 5]], q=[1, 2, 2, 2, 2])
EX1 = make_instance(4, [[4, 1], [3, 2], [1, 3], [2, 3], [1, 4], [2, 4]],
                    [[1, 2, 3, 4]])


def test_example_weighted():
    sol = solve_single(EX2)
    assert sol.optimal_length == 6
    assert sol.lower_bound == 6
    assert sol.code == LinearIndexCode((
        symbol(1, (1, 1), (2, 1)),
        symbol(1, (2, 1), (3, 1)),
        symbol(1, (2, 2)),
        symbol(1, (3, 2)),
        symbol(1, (4, 1)),
        symbol(1, (4, 2)),
    ))
    assert verify_linear(EX2, sol.code).valid
    assert sol.arithmetic == (9, 2, 1)
    assert reference_codelength(WorkGraph.from_instance(EX2)) == 6
    [step] = sol.trace.steps
    assert sorted(step.scc) == [1, 2, 3]
    assert step.vertex == 1
    assert step.removed_arcs == ((1, 2), (1, 3))


def test_example_binary():
    sol = solve_single(EX1)
    assert sol.optimal_length == 3
    assert sol.arithmetic == (4, 0, 1)
    assert reference_codelength(WorkGraph.from_instance(EX1)) == 3
    assert verify_linear(EX1, sol.code).valid


def test_two_cycle_single_xor():
    inst = make_instance(2, [[1, 2], [2, 1]], [[1, 2]])
    sol = solve_single(inst)
    assert sol.optimal_length == 1
    assert sol.code.symbols == (symbol(1, (1, 1), (2, 1)),)


def test_cyclic_code_remainder_bits():
    # one 3-cycle covering everything, q=(3,1,2): chain over the first bit,
    # then leftovers ascending by (vertex, bit)
    inst = make_instance(3, [[1, 2], [2, 3], [3, 1]], [[1, 2, 3]], q=[3, 1, 2])
    sol = solve_single(inst)
    assert sol.optimal_length == 6 - 1
    assert sol.code.symbols == (
        symbol(1, (1, 1), (2, 1)),
        symbol(1, (2, 1), (3, 1)),
        symbol(1, (1, 2)),
        symbol(1, (1, 3)),
        symbol(1, (3, 2)),
    )
    assert verify_linear(inst, sol.code).valid


def test_min_weight_vertex_pruned_with_tie_break():
    # weights 2,1,1: vertex 2 and 3 tie at weight 1; vertex 2 wins
    inst = make_instance(3, [[1, 2], [2, 3], [3, 1]], [[1, 2, 3]], q=[2, 1, 1])
    [step] = solve_single(inst).trace.steps
    assert step.vertex == 2


def test_no_prune_on_grounded_input():
    chain = make_instance(3, [[1, 2], [2, 3]], [[1, 2, 3]])
    sol = solve_single(chain)
    assert sol.trace.steps == ()
    assert sol.arithmetic == (3, 1, 0)
    assert sol.code.symbols == (symbol(1, (1, 1)), symbol(1, (2, 1)))
    assert encode_single(WorkGraph.from_instance(chain)) == sol.code


def test_two_disjoint_two_cycles():
    inst = make_instance(4, [[1, 2], [2, 1], [3, 4], [4, 3]], [[1, 2, 3, 4]])
    sol = solve_single(inst)
    assert [s.vertex for s in sol.trace.steps] == [1, 3]
    assert sol.optimal_length == 2 == 4 - 0 - 2
    assert sol.optimal_length == oracle_min_linear(inst).length


def test_edgeless_graph_needs_nothing():
    inst = make_instance(3, [], [[1, 2, 3]], q=[2, 1, 3])
    sol = solve_single(inst)
    assert (sol.optimal_length, sol.arithmetic) == (0, (6, 6, 0))
    assert sol.code.symbols == ()


def test_binary_solution_counts_leaves_and_leaf_sccs():
    rng = random.Random(151)
    for _ in range(200):
        inst = rand_single(rng, n_max=8)
        g = WorkGraph.from_instance(inst)
        leaves = sum(1 for v in g.vertices if not g.out_neighbors(v))
        expected = inst.n - leaves - len(leaf_scc_sets(g))
        assert solve_single(inst).optimal_length == expected


def test_multi_sender_rejected():
    d1 = make_instance(3, [[1, 2], [2, 1], [3, 1]], [[1, 3], [2, 3]])
    with pytest.raises(NotSingleSenderError):
        solve_single(d1)


def _pruned(g: WorkGraph, trace) -> WorkGraph:
    """g with the trace's steps applied, one at a time."""
    for step in trace.steps:
        g = g.without_out_arcs(step.vertex)
    return g


def test_trace_grounds_and_drops_one_vertex_per_leaf_scc():
    rng = random.Random(43)
    for _ in range(300):
        inst = rand_single(rng, n_max=8, q_max=3)
        g = WorkGraph.from_instance(inst)
        n_leaf = len(leaf_scc_sets(g))
        trace = solve_single(inst).trace
        g2 = _pruned(g, trace)
        assert brute_is_grounded(g2)
        # pruning never creates leaf SCCs, so one step per original leaf SCC
        assert len(trace.steps) == n_leaf
        for step in trace.steps:
            assert step.removed_arcs == tuple(sorted(a for a in g.arcs if a[0] == step.vertex))
        assert v_out(g2) == v_out(g) - n_leaf


def _weighted_graph(rng, cyclic):
    """n <= 40 with weights 1-4, and 0 to 3n random arcs or, if cyclic,
    disjoint 2- and 3-cycles plus up to n random arcs (many leaf SCCs)."""
    n = rng.randint(2, 40)
    if cyclic:
        arcs = {tuple(a) for a in cyclic_arcs(rng, range(1, n + 1), rng.randint(0, n))}
    else:
        arcs = {(i, j) for i, j in (rng.sample(range(1, n + 1), 2)
                                    for _ in range(rng.randint(0, 3 * n)))}
    return WorkGraph(range(1, n + 1), arcs, {v: rng.randint(1, 4) for v in range(1, n + 1)})


def _instance(g: WorkGraph):
    """The one-sender instance whose graph is g (vertices 1..n)."""
    n = len(g.vertices)
    return make_instance(n, sorted(map(list, g.arcs)), [list(range(1, n + 1))],
                         q=[g.weight[v] for v in g.vertices])


def test_trace_matches_step_by_step_reference():
    # one walk of the root graph's leaf SCCs gives the trace of pruning
    # one leaf SCC at a time and looking again, and the steps ground g
    rng = random.Random("prune-all")
    graphs = [_weighted_graph(rng, cyclic=k % 3 == 0) for k in range(3000)]
    golden = random.Random("cli-golden:single")  # test_cli_golden's single family
    graphs += [WorkGraph.from_instance(rand_single(golden, n_max=6, q_max=2)) for _ in range(50)]
    multi_step = 0
    for g in graphs:
        sol = solve_single(_instance(g))
        ref_pruned, ref_trace = reference_prune_all(g)
        assert sol.trace == ref_trace
        pruned = _pruned(g, sol.trace)
        assert pruned == ref_pruned
        assert brute_is_grounded(pruned)
        assert sol.optimal_length == reference_codelength(g)
        multi_step += len(sol.trace.steps) > 1
    assert multi_step > 500, multi_step


def test_solve_builds_no_pruned_graph(monkeypatch, tmp_path, capsys):
    # solve_single reads the trace off the root graph: no step is applied
    # and no graph is built but the root, whatever the number of leaf SCCs
    calls = []
    for name in ("without_out_arcs", "_child"):
        real = getattr(WorkGraph, name)
        monkeypatch.setattr(WorkGraph, name,
                            lambda self, *a, _real=real, _name=name, **k:
                            calls.append(_name) or _real(self, *a, **k))
    rng = random.Random("no-prune-copies")
    steps = 0
    for k in range(200):
        sol = solve_single(_instance(_weighted_graph(rng, cyclic=k % 2 == 0)))
        steps += len(sol.trace.steps)
    n = 400  # n/2 disjoint 2-cycles under one sender
    doc = {"n": n, "q": [1] * n, "senders": [list(range(1, n + 1))],
           "arcs": [[i, i + 1] for i in range(1, n, 2)] + [[i + 1, i] for i in range(1, n, 2)]}
    assert len(solve_single(make_instance(**doc)).trace.steps) == n // 2
    path = tmp_path / "two-cycles.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["solve", str(path)]) == 0
    assert "optimal codelength = 400 - 0 - 200 = 200" in capsys.readouterr().out
    assert steps > 300, steps
    assert calls == []


def test_lower_bound_equals_pruned_predecessor_weight():
    rng = random.Random(47)
    for _ in range(300):
        inst = rand_single(rng, n_max=8, q_max=3)
        sol = solve_single(inst)
        g2 = _pruned(WorkGraph.from_instance(inst), sol.trace)
        assert sol.optimal_length == reference_predecessor_weight_bound(g2)


def test_encode_length_equals_lower_bound_and_verifies():
    rng = random.Random(53)
    for _ in range(150):
        inst = rand_single(rng, n_max=8, q_max=3)
        g = WorkGraph.from_instance(inst)
        code = encode_single(g)
        assert len(code) == reference_codelength(g)
        assert verify_linear(inst, code).valid
        # leaf messages are never transmitted
        leaves = {v for v in g.vertices if not g.out_neighbors(v)}
        assert all(m not in leaves for s in code.symbols for (m, _) in s.terms)


def test_solve_matches_oracle_binary():
    rng = random.Random(59)
    for _ in range(60):
        inst = rand_single(rng, n_max=5)
        assert solve_single(inst).optimal_length == oracle_min_linear(inst).length


def test_lower_bound_monotone_under_arc_removal():
    rng = random.Random(61)
    for _ in range(200):
        inst = rand_single(rng, n_max=8, q_max=3)
        g = WorkGraph.from_instance(inst)
        keep = frozenset(a for a in g.arcs if rng.random() < 0.6)
        assert solve_single(_instance(WorkGraph(g.vertices, keep, g.weight))).optimal_length \
            <= solve_single(inst).optimal_length
