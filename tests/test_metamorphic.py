"""Metamorphic relations: checks between runs rather than of one value
(Chen, Cheung and Yiu, "Metamorphic testing: a new approach for
generating next test cases", 1998).  They follow from the paper and
reach where the brute-force references do not:

- Relabeling.  Permuting the message ids and shuffling the sender order
  leaves every exact value unchanged: the exhaustive maximum, the
  connecting-tree count, the oracle's linear optimum, the one-sender
  optimum, and ``tight`` where both of its sides are exact.  Algorithm
  2's bound and the greedy tree packing break ties by vertex id, so
  only their sandwich is checked.
- Disjoint union.  No arc and no sender joins two instances placed side
  by side, so each exact value of the union is the sum over the parts.
- Scaling.  For one sender, multiplying every q by t multiplies the
  optimum, total - leaf weight - per-SCC minima, by t.

A value enters a relation only when the search that gives it is exact.
"""

from __future__ import annotations

import random

from uniprior import bound_multi, oracle_min_linear, solve_single, verify_linear

from generators import (cyclic_arcs, make_instance, rand_cyclic, rand_multi, rand_single,
                        rand_triples)
from test_multi import BOUNDS_DIFFER, GAP

MAX_STATES = 20_000


def relabel(rng: random.Random, inst):
    """inst with message v renamed perm[v - 1] and the senders shuffled."""
    perm = rng.sample(range(1, inst.n + 1), inst.n)
    q = [0] * inst.n
    for v, w in enumerate(perm, start=1):
        q[w - 1] = inst.q[v - 1]
    senders = [sorted(perm[m - 1] for m in s) for s in inst.senders]
    rng.shuffle(senders)
    arcs = [[perm[i - 1], perm[j - 1]] for (i, j) in inst.arcs]
    return make_instance(inst.n, arcs, senders, q)


def union(a, b):
    """a and b side by side, b's messages shifted past a's."""
    k = a.n
    return make_instance(a.n + b.n,
                         [list(x) for x in a.arcs] + [[i + k, j + k] for (i, j) in b.arcs],
                         [list(s) for s in a.senders] + [[m + k for m in s] for s in b.senders],
                         list(a.q) + list(b.q))


def exact_values(inst, oracle: bool = True) -> tuple:
    """(exhaustive maximum, tree count, oracle length, tight), each None
    unless exact, after checking the sandwich lower <= upper, and
    exhaustive <= oracle <= upper where the oracle is exact, on inst.
    tight is exact when both of its sides are: the lower bound is then
    the exhaustive maximum, and the upper bound is V_out minus the tree
    count and the message-connected leaf SCCs."""
    rep = bound_multi(inst, exhaustive=True, max_states=MAX_STATES)
    assert rep.lower <= rep.upper
    ex = rep.exhaustive.bound if rep.exhaustive.exact else None
    trees = len(rep.trees) if rep.trees_exact else None
    length = None
    if oracle and (res := oracle_min_linear(inst)).exact:
        assert rep.exhaustive.bound <= res.length <= rep.upper
        length = res.length
    tight = rep.tight if ex is not None and trees is not None else None
    return ex, trees, length, tight


def _pins():
    return [GAP] + [make_instance(n, arcs, senders)
                    for n, arcs, senders, *_ in BOUNDS_DIFFER.values()]


def _small(rng: random.Random):
    return ([rand_multi(rng, n_max=6) for _ in range(30)]
            + [rand_cyclic(rng, n_max=6) for _ in range(30)]
            + [rand_triples(rng, t_max=2) for _ in range(15)])


def _agree(a: tuple, b: tuple) -> int:
    """Assert a and b agree wherever both are exact; the count compared."""
    checked = 0
    for x, y in zip(a, b):
        if x is not None and y is not None:
            assert x == y
            checked += 1
    return checked


def test_relabeling_keeps_exact_values():
    rng = random.Random(211)
    checked = 0
    tights = []  # each tight compared, on both sides exact
    for inst in _small(rng):
        base = exact_values(inst)
        for _ in range(2):
            other = exact_values(relabel(rng, inst))
            checked += _agree(base, other)
            if base[3] is not None and other[3] is not None:
                tights.append(base[3])
    for inst in _pins():  # the oracle needs up to 200 000 nodes here
        base, other = exact_values(inst, oracle=False), exact_values(relabel(rng, inst), oracle=False)
        checked += _agree(base, other)
        if base[3] is not None and other[3] is not None:
            tights.append(base[3])
    for _ in range(40):
        inst = rand_single(rng, n_max=7, q_max=3)
        assert (solve_single(relabel(rng, inst)).optimal_length
                == solve_single(inst).optimal_length)
    assert checked >= 400
    assert tights.count(True) >= 50 and tights.count(False) >= 5, tights


def test_disjoint_union_sums_exact_values():
    rng = random.Random(223)
    parts = [rand_multi(rng, n_max=5) for _ in range(40)] + [rand_cyclic(rng, n_max=5)
                                                             for _ in range(40)]
    checked = 0
    for a, b in zip(parts[::2], parts[1::2]):
        sums = [x + y if x is not None and y is not None else None
                for x, y in zip(exact_values(a)[:3], exact_values(b)[:3])]
        checked += _agree(sums, exact_values(union(a, b))[:3])
    gap, n11, n9, n8, n7 = _pins()
    # past the tree limit and not tight; the pairs whose search ends
    # under the state cap (GAP with n7 needs more than 20 000 states)
    for a, b in ((gap, n8), (n11, n8), (n9, n8), (n8, n7)):
        sums = [x + y if x is not None and y is not None else None
                for x, y in zip(exact_values(a, oracle=False)[:3],
                                exact_values(b, oracle=False)[:3])]
        checked += _agree(sums, exact_values(union(a, b), oracle=False)[:3])
    assert checked >= 100


def _one_sender(rng: random.Random, n: int):
    """One sender over n messages: disjoint 2- and 3-cycles on the first
    m = 9n/10 with m/10 arcs across them, so thousands of leaf SCCs, an
    arc into each leaf m+1..n, and q in 1..3."""
    m = n * 9 // 10
    arcs = cyclic_arcs(rng, range(1, m + 1), m // 10)
    arcs += [[rng.randint(1, m), v] for v in range(m + 1, n + 1)]
    return make_instance(n, arcs, [list(range(1, n + 1))], [rng.randint(1, 3) for _ in range(n)])


def test_one_sender_optimum_scales_with_q_and_ignores_labels():
    # n = 10 000: tripling q triples the optimum, and the emitted code is
    # that long and decodes; relabeling leaves the optimum alone
    rng = random.Random(227)
    n = 10_000
    inst = _one_sender(rng, n)
    base = solve_single(inst).optimal_length
    tripled = make_instance(n, [list(a) for a in inst.arcs], [list(range(1, n + 1))],
                            [3 * x for x in inst.q])
    sol = solve_single(tripled)
    assert sol.optimal_length == 3 * base == len(sol.code)
    assert verify_linear(tripled, sol.code).valid
    assert solve_single(relabel(rng, inst)).optimal_length == base


def test_one_sender_optimum_ignores_labels_at_n_30000():
    # the optimum prunes thousands of leaf SCCs, and a relabeling leaves
    # it alone
    rng = random.Random(229)
    inst = _one_sender(rng, 30_000)
    sol = solve_single(inst)
    assert len(sol.trace.steps) >= 2000
    assert solve_single(relabel(rng, inst)).optimal_length == sol.optimal_length
