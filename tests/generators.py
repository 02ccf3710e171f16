"""Seeded random generators for instances, graphs, and codes.

Every generator takes an explicit random.Random so test runs are
reproducible from the seed alone.
"""

from __future__ import annotations

import json
import random

from uniprior import Instance, LinearIndexCode, WorkGraph, parse_instance, symbol


def make_instance(n, arcs, senders, q=None) -> Instance:
    return parse_instance(json.dumps({
        "n": n,
        "q": q if q is not None else [1] * n,
        "arcs": arcs,
        "senders": senders,
    }))


def rand_arcs(rng: random.Random, n: int, p: float) -> list[list[int]]:
    return [[i, j]
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if i != j and rng.random() < p]


def rand_graph(rng: random.Random, n: int, p: float | None = None) -> WorkGraph:
    """Bare digraph with unit weights, no Instance wrapper."""
    if p is None:
        p = rng.uniform(0.1, 0.5)
    arcs = frozenset((i, j) for (i, j) in rand_arcs(rng, n, p))
    return WorkGraph(vertices=tuple(range(1, n + 1)), arcs=arcs,
                     weight={v: 1 for v in range(1, n + 1)})


def rand_single(rng: random.Random, n_max: int = 5, q_max: int = 1) -> Instance:
    """Single sender owning everything; q_max=1 gives a binary instance."""
    n = rng.randint(2, n_max)
    arcs = rand_arcs(rng, n, rng.uniform(0.15, 0.55))
    q = [rng.randint(1, q_max) for _ in range(n)]
    return make_instance(n, arcs, [list(range(1, n + 1))], q)


def rand_senders(rng: random.Random, n: int, size_max: int = 3,
                 extra: int = 2) -> list[list[int]]:
    """Random cover of 1..n: a shuffled partition into chunks, plus a few
    overlapping sender sets on top."""
    msgs = list(range(1, n + 1))
    rng.shuffle(msgs)
    senders = []
    i = 0
    while i < n:
        k = rng.randint(1, min(size_max, n - i))
        senders.append(sorted(msgs[i:i + k]))
        i += k
    for _ in range(rng.randint(0, extra)):
        k = rng.randint(2, min(size_max, n))
        senders.append(sorted(rng.sample(range(1, n + 1), k)))
    return senders


def wide_senders(rng: random.Random, n: int) -> list[list[int]]:
    """Overlapping senders of up to n members each, plus singletons; they
    need not cover 1..n."""
    senders = [sorted(rng.sample(range(1, n + 1), rng.randint(2, n)))
               for _ in range(rng.randint(1, 4))]
    return senders + [[v] for v in rng.sample(range(1, n + 1), rng.randint(0, n))]


def rand_multi(rng: random.Random, n_max: int = 8, size_max: int = 3) -> Instance:
    """Binary multi-sender instance with a random overlapping cover."""
    n = rng.randint(2, n_max)
    arcs = rand_arcs(rng, n, rng.uniform(0.15, 0.55))
    return make_instance(n, arcs, rand_senders(rng, n, size_max))


def rand_disjoint(rng: random.Random, n_max: int = 8) -> Instance:
    """Binary instance whose senders partition the message set."""
    n = rng.randint(2, n_max)
    arcs = rand_arcs(rng, n, rng.uniform(0.15, 0.55))
    return make_instance(n, arcs, rand_senders(rng, n, size_max=3, extra=0))


def rand_cyclic(rng: random.Random, n_max: int = 8, size_max: int = 3) -> Instance:
    """Instance biased toward leaf SCCs: disjoint directed cycles with a few
    forward arcs between clusters, under a random sender cover.

    Plain sparse digraphs rarely contain 2-cycles, which starves the step
    and classification sweeps; this generator feeds them.
    """
    n = rng.randint(4, n_max)
    verts = list(range(1, n + 1))
    rng.shuffle(verts)
    arcs: list[list[int]] = []
    cycles: list[list[int]] = []
    i = 0
    while i < n:
        k = rng.randint(2, min(3, n - i)) if n - i >= 2 else 1
        cyc = verts[i:i + k]
        if len(cyc) >= 2:
            cycles.append(cyc)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                arcs.append([a, b])
        i += k
    # sprinkle arcs from earlier cycles into later ones (keeps some leaf SCCs)
    for _ in range(rng.randint(0, n // 2)):
        a, b = rng.sample(range(1, n + 1), 2)
        if [a, b] not in arcs:
            arcs.append([a, b])
    return make_instance(n, arcs, rand_senders(rng, n, size_max))


def rand_triples(rng: random.Random, t_max: int = 3) -> Instance:
    """Instances built from 2-cycles i<->j with a feeder k->i and senders
    {i,k},{j,k}: each triple {i,j,k} is closed, leaf-free, and connected
    only through k in the message graph. Guarantees connecting trees."""
    t = rng.randint(1, t_max)
    arcs: list[list[int]] = []
    senders: list[list[int]] = []
    for b in range(t):
        i, j, k = 3 * b + 1, 3 * b + 2, 3 * b + 3
        arcs += [[i, j], [j, i], [k, i]]
        senders += [[i, k], [j, k]]
    n = 3 * t
    for _ in range(rng.randint(0, t)):
        a, b = rng.sample(range(1, n + 1), 2)
        senders.append(sorted({a, b}))
    return make_instance(n, arcs, senders)


def big_sender_clusters(rng: random.Random) -> Instance:
    """Disjoint 2- and 3-cycles with a few extra arcs under small
    overlapping senders, plus one sender owning about 30% of the
    messages: the shape whose witness searches dominate Algorithm 2."""
    n = rng.randint(14, 26)
    verts = list(range(1, n + 1))
    rng.shuffle(verts)
    arcs: list[list[int]] = []
    i = 0
    while i < n:
        k = rng.randint(2, min(3, n - i)) if n - i >= 2 else 1
        cyc = verts[i:i + k]
        if len(cyc) >= 2:
            arcs += [[a, b] for a, b in zip(cyc, cyc[1:] + cyc[:1])]
        i += k
    for _ in range(n // 4):
        a, b = rng.sample(range(1, n + 1), 2)
        if [a, b] not in arcs:
            arcs.append([a, b])
    senders = rand_senders(rng, n, size_max=4, extra=n // 8)
    senders.append(sorted(rng.sample(range(1, n + 1), round(0.3 * n))))
    return make_instance(n, arcs, senders)


def cyclic_arcs(rng: random.Random, verts, extra: int) -> list[list[int]]:
    """Disjoint directed 2- and 3-cycles on a shuffled vertex list, then
    ``extra`` random arcs between its vertices (repeats dropped): the
    construction of the benchmark's instance pools."""
    verts = list(verts)
    rng.shuffle(verts)
    n = len(verts)
    arcs: list[list[int]] = []
    i = 0
    while i < n:
        k = rng.randint(2, min(3, n - i)) if n - i >= 2 else 1
        cyc = verts[i:i + k]
        if len(cyc) >= 2:
            arcs += [[a, b] for a, b in zip(cyc, cyc[1:] + cyc[:1])]
        i += k
    seen = {tuple(a) for a in arcs}
    for _ in range(extra):
        a, b = rng.sample(verts, 2)
        if (a, b) not in seen:
            seen.add((a, b))
            arcs.append([a, b])
    return arcs


def cyclic_with_triples(rng: random.Random, n: int, size_max: int,
                        big_sender: bool) -> Instance:
    """n messages: cyclic clusters under small overlapping senders of at
    most size_max messages, plus up to three planted connecting-tree
    triples, and with big_sender one more sender owning about 30% of the
    messages.  The shape of the benchmark's multi-bound pool."""
    triples = rand_triples(rng, t_max=3)
    base = n - triples.n
    arcs = cyclic_arcs(rng, range(1, base + 1), base // 4)
    senders = rand_senders(rng, base, size_max=size_max, extra=base // 8)
    arcs += [[i + base, j + base] for (i, j) in triples.arcs]
    senders += [[m + base for m in s] for s in triples.senders]
    if big_sender:
        senders.append(sorted(rng.sample(range(1, n + 1), round(0.3 * n))))
    return make_instance(n, arcs, senders)


def cyclic_300() -> Instance:
    """The n=300 cyclic instance the performance notes measure: 2- and
    3-cycles plus 30 extra arcs, senders of at most 6 messages."""
    rng = random.Random("a2:300")
    arcs = cyclic_arcs(rng, range(1, 301), 30)
    return make_instance(300, arcs, rand_senders(rng, 300, size_max=6, extra=37))


def rand_code(rng: random.Random, inst: Instance, max_len: int = 6) -> LinearIndexCode:
    """Random well-formed code: each symbol XORs a nonempty subset of one
    sender's bits."""
    syms = []
    for _ in range(rng.randint(0, max_len)):
        s = rng.randint(1, len(inst.senders))
        bits = [(m, b)
                for m in inst.senders[s - 1]
                for b in range(1, inst.q[m - 1] + 1)]
        k = rng.randint(1, min(3, len(bits)))
        syms.append(symbol(s, *rng.sample(bits, k)))
    return LinearIndexCode(tuple(syms))
