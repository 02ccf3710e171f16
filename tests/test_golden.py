"""Golden corpus: Algorithm-2 step traces, bound reports and exhaustive
bounds on 1 040 seeded instances, pinned by one sha256 per family, plus
the same lines on 60 instances shaped like the benchmark's multi-bound
pool and on one n=300 cyclic instance.

The digests were recorded from the implementation before graph queries
were memoized; those of rand_cyclic, rand_triples and the capped
searches again when the exhaustive search learned to stop a state at its
ceiling, which moved only states visited and exactness (two capped
bounds rose, none fell); those of big_sender and the benchmark-shaped
instances again when a tight bound's tree packing became exact, which
moved only ``trees_exact``.  Any change to a step, a witness, a final graph, a bound
or an emitted code moves a digest.  To find the first instance that
moved, compare ``_family_lines`` of the two implementations.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from uniprior import bound_multi, exhaustive_lower_bound, run_algorithm2

from generators import (big_sender_clusters, cyclic_300, cyclic_with_triples, rand_cyclic,
                        rand_multi, rand_triples)

EXHAUSTIVE_MAX_N = 6
EXHAUSTIVE_MAX_STATES = 60
CAPPED_MAX_STATES = (60, 7)
CAPPED_COUNT = 150


# family: (generator, count)
FAMILIES = {
    "rand_cyclic": (lambda rng: rand_cyclic(rng, n_max=10, size_max=3), 320),
    "rand_multi": (lambda rng: rand_multi(rng, n_max=8, size_max=3), 320),
    "rand_triples": (lambda rng: rand_triples(rng, t_max=4), 200),
    "big_sender": (big_sender_clusters, 200),
}

DIGESTS = {
    "rand_cyclic": "fd08f5dbf4e02b16a1921726b2840caf1360eb1d0f4aa9f504b16394bcf1a255",
    "rand_multi": "f93513f2d19010cdd09b532bd060b3b49046d4c02476e7c6e480293e5180a295",
    "rand_triples": "4d128900f08872fec106763065a1bbfa0091221f8219dafdcc08d785e84c990d",
    "big_sender": "b4cb00dd48dc678669c0c885df462c3a54fbff98f495047894a237bc1d9fae67",
}

BENCH_SCALE_COUNT = 60

# recorded before the message classes were memoized on the message graph,
# and again (with big_sender) when a tight bound's trees became exact
BENCH_SCALE_DIGEST = "fffbb978d230f29bceeea2513182b5876dbae26e5025717fcdebd0881a4f6c5d"
CYCLIC_300_DIGEST = "3e8cee7718f23c276c3957c625cee85be4b964960416a8faab8ee457a5a18084"

# recorded from the search that stops a state at its ceiling
CAPPED_DIGEST = "7062d90d8a6ce3979a1ba65a7306b3a06f4bb35e19310623feb5cce20c34f346"


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def _witness(w):
    if w is None:
        return None
    return (sorted(w.s_inside), sorted(w.s_outside), w.v_inside, w.target)


def _instance_line(inst) -> str:
    lr = run_algorithm2(inst)
    steps = [(st.kind.value, sorted(st.scc), st.phase, st.selected_vertex,
              st.added_arc, st.dummy, _witness(st.witness)) for st in lr.steps]
    g = lr.final_graph
    final = (g.vertices, sorted(g.arcs), sorted(g.dummies))
    rep = bound_multi(inst)
    code = [(s.sender, s.terms) for s in rep.code.symbols]
    bound = (rep.lower, rep.upper, rep.tight,
             rep.tight_reason.value if rep.tight_reason else None, rep.trees_exact, code)
    ex = None
    if inst.n <= EXHAUSTIVE_MAX_N:
        r = exhaustive_lower_bound(inst, max_states=EXHAUSTIVE_MAX_STATES)
        ex = (r.bound, r.exact, r.states_visited)
    return repr((lr.bound, lr.v_out_original, lr.connected_count, lr.iterations,
                 steps, final, bound, ex))


def _family_lines(family: str) -> list[str]:
    make, count = FAMILIES[family]
    rng = random.Random(f"golden:{family}")
    return [_instance_line(make(rng)) for _ in range(count)]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_golden_corpus_digest(family):
    assert _digest(_family_lines(family)) == DIGESTS[family]


def _capped_instance(rng: random.Random):
    """A rand_cyclic instance with 9 to 12 messages, where a search
    capped at CAPPED_MAX_STATES usually runs out of states."""
    while (inst := rand_cyclic(rng, n_max=12)).n < 9:
        pass
    return inst


def _capped_lines() -> list[str]:
    rng = random.Random("golden:capped")
    lines = []
    for _ in range(CAPPED_COUNT):
        inst = _capped_instance(rng)
        rs = [exhaustive_lower_bound(inst, max_states=m) for m in CAPPED_MAX_STATES]
        lines.append(repr([(r.bound, r.exact, r.states_visited) for r in rs]))
    return lines


def test_golden_capped_exhaustive_digest():
    assert _digest(_capped_lines()) == CAPPED_DIGEST


def _bench_scale_instances():
    """n 24 to 36 spread by position, cyclic clusters with planted
    triples, a 30% sender on every fourth instance."""
    rng = random.Random("golden:bench_scale")
    for k in range(BENCH_SCALE_COUNT):
        n = 24 + 13 * k // BENCH_SCALE_COUNT
        yield cyclic_with_triples(rng, n, size_max=4 + k % 3, big_sender=k % 4 == 3)


def test_golden_benchmark_scale_digest():
    assert _digest(map(_instance_line, _bench_scale_instances())) == BENCH_SCALE_DIGEST


def test_golden_cyclic_300_digest():
    assert _digest([_instance_line(cyclic_300())]) == CYCLIC_300_DIGEST
