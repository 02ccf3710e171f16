"""Acceptance gate: ten end-to-end criteria, one test (and one printed
pass/fail line) each. Randomized sweeps are seeded and deterministic."""

from __future__ import annotations

import random
import time

from uniprior import (Kind, LinearIndexCode, TightReason, WorkGraph,
                      bound_multi, classify_leaf_scc, derive_message_graph,
                      encode_multi, exhaustive_lower_bound,
                      find_connecting_trees, leaf_scc_sets,
                      oracle_min_linear, run_algorithm2, scc_partition,
                      solve_single, step_limit, symbol, v_out,
                      verify_exhaustive, verify_linear)
from uniprior.multi import _apply, _steps

from generators import (make_instance, rand_code, rand_cyclic, rand_disjoint,
                        rand_graph, rand_multi, rand_single)
from oracles import brute_is_grounded, reference_codelength

EX2 = make_instance(5, [[2, 1], [3, 1], [1, 2], [3, 2], [1, 3], [2, 3], [4, 5]],
                    [[1, 2, 3, 4, 5]], q=[1, 2, 2, 2, 2])
EX1 = make_instance(4, [[4, 1], [3, 2], [1, 3], [2, 3], [1, 4], [2, 4]],
                    [[1, 2, 3, 4]])
SPLIT = make_instance(4, [[1, 3], [4, 2], [1, 2], [2, 1], [3, 4], [4, 3]],
                   [[1, 2], [3, 4]])
GAP = make_instance(6, [[1, 2], [2, 1], [3, 4], [4, 3], [5, 6], [6, 5]],
                   [[1, 3, 5], [2, 3, 5], [2, 4, 5], [2, 4, 6]])


def report(line: str) -> None:
    print(line)


def test_c01_example2_exact_optimum_and_code():
    sol = solve_single(EX2)
    assert sol.optimal_length == 6
    assert verify_linear(EX2, sol.code).valid
    assert sol.code == LinearIndexCode((
        symbol(1, (1, 1), (2, 1)),
        symbol(1, (2, 1), (3, 1)),
        symbol(1, (2, 2)),
        symbol(1, (3, 2)),
        symbol(1, (4, 1)),
        symbol(1, (4, 2)),
    ))
    report("criterion 1 PASS: weighted example solves to 6 with the "
           "expected cyclic code")


def test_c02_example1_arithmetic():
    sol = solve_single(EX1)
    assert sol.optimal_length == 3
    assert sol.arithmetic == (4, 0, 1)
    assert reference_codelength(WorkGraph.from_instance(EX1)) == 3
    report("criterion 2 PASS: binary example gives 4 - 0 - 1 = 3")


def test_c03_single_sender_oracle_equivalence():
    rng = random.Random(20101)
    t0 = time.monotonic()
    for k in range(500):
        inst = rand_single(rng, n_max=5)
        got = solve_single(inst).optimal_length
        want = oracle_min_linear(inst).length
        assert got == want, (inst, got, want)
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    report(f"criterion 3 PASS: 500 random binary single-sender instances "
           f"match the oracle exactly ({elapsed:.1f}s)")


def test_c04_disjoint_senders_example():
    rep = bound_multi(SPLIT)
    assert (rep.lower, rep.upper) == (4, 4)
    assert rep.tight and rep.tight_reason is TightReason.DISJOINT_SENDERS
    naive = LinearIndexCode((symbol(1, (1, 1), (2, 1)),
                             symbol(2, (3, 1), (4, 1))))
    assert not verify_linear(SPLIT, naive).valid
    report("criterion 4 PASS: split-cycle example is tight at 4/4 "
           "(DisjointSenders) and the naive 2-symbol split is rejected")


def test_c05_gap_example():
    rep = bound_multi(GAP)
    assert rep.lower == run_algorithm2(GAP).bound == 4
    trees = find_connecting_trees(GAP).trees
    assert len(encode_multi(GAP, trees)) == 5 == rep.upper
    four = LinearIndexCode((symbol(1, (1, 1), (3, 1), (5, 1)),
                            symbol(2, (2, 1), (3, 1), (5, 1)),
                            symbol(3, (2, 1), (4, 1), (5, 1)),
                            symbol(4, (2, 1), (4, 1), (6, 1))))
    assert verify_linear(GAP, four).valid
    assert verify_exhaustive(GAP, four).valid
    report("criterion 5 PASS: three-cycle example bounds 4/5 and the "
           "4-bit triple-XOR code verifies, exhibiting the gap")


def test_c06_disjoint_senders_always_tight():
    rng = random.Random(20106)
    for _ in range(500):
        inst = rand_disjoint(rng, n_max=8)
        rep = bound_multi(inst)
        lr = rep.lower_report
        assert rep.lower == rep.upper == \
            lr.v_out_original - lr.connected_count
    report("criterion 6 PASS: 500 random disjoint-sender instances all "
           "tight at V_out - connected")


def test_c07_step_deltas_and_termination():
    rng = random.Random(20107)
    steps = 0
    runs = 0
    while steps < 1000:
        inst = rand_cyclic(rng, n_max=8)
        g = WorkGraph.from_instance(inst)
        u = derive_message_graph(inst)
        for scc in leaf_scc_sets(g):
            c = classify_leaf_scc(g, u, scc)
            g2 = _apply(g, *next(_steps(g, u, scc)))
            if c.kind is Kind.MESSAGE_DISCONNECTED:
                delta = (-1, 0)
            elif c.kind is Kind.DEGENERATED:
                delta = None  # -1 or 0 allowed
            else:
                delta = (-1, -1)
            dn = len(leaf_scc_sets(g2)) - len(leaf_scc_sets(g))
            dv = v_out(g2) - v_out(g)
            if delta is None:
                assert dn in (-1, 0) and dv == 0
            else:
                assert (dn, dv) == delta
            steps += 1
        rep = run_algorithm2(inst)
        runs += 1
        assert len(rep.steps) <= step_limit(inst.n)
        assert brute_is_grounded(rep.final_graph)
    report(f"criterion 7 PASS: {steps} step applications match the "
           f"predicted deltas; {runs} full runs stay within 3n/2 - 2 steps")


def test_c08_grounded_iff_no_leaf_scc():
    rng = random.Random(20108)
    for _ in range(1000):
        g = rand_graph(rng, rng.randint(1, 10))
        p = scc_partition(g)
        assert brute_is_grounded(g) == (not any(p.leaf_flags))
    report("criterion 8 PASS: 1000 random digraphs agree on "
           "grounded <=> no leaf SCC")


def test_c09_bound_sandwich():
    rng = random.Random(20109)
    for _ in range(200):
        inst = rand_multi(rng, n_max=7)
        lower = run_algorithm2(inst).bound
        ex = exhaustive_lower_bound(inst)
        assert ex.exact
        oracle = oracle_min_linear(inst)
        assert oracle.exact
        upper = len(encode_multi(inst, find_connecting_trees(inst).trees))
        assert lower <= ex.bound <= oracle.length <= upper, \
            (inst, lower, ex.bound, oracle.length, upper)
    report("criterion 9 PASS: 200 random multi-sender instances keep "
           "heuristic <= exhaustive <= linear optimum <= pairwise encoder")


def test_c10_verifier_cross_check():
    rng = random.Random(20110)
    for _ in range(500):
        inst = rand_multi(rng, n_max=8)
        code = rand_code(rng, inst)
        a = verify_linear(inst, code)
        b = verify_exhaustive(inst, code)
        assert (a.valid, a.failures) == (b.valid, b.failures)
    report("criterion 10 PASS: 500 random instance/code pairs verified "
           "identically by rank and truth-table checks")
