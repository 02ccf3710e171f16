"""Instance parsing, validation, serialization, and the message graph."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, strategies as st

from uniprior import (Instance, ParseError, bit_layout, derive_message_graph, load_instance,
                      parse_instance, serialize_instance, validate)
from uniprior.codes import _receivers

from generators import make_instance, rand_multi, rand_senders, wide_senders
from oracles import (reference_components, reference_connected_within,
                     reference_neighbors)

EX2 = {"n": 5, "q": [1, 2, 2, 2, 2],
       "arcs": [[2, 1], [3, 1], [1, 2], [3, 2], [1, 3], [2, 3], [4, 5]],
       "senders": [[1, 2, 3, 4, 5]]}


def test_parse_example():
    inst = parse_instance(json.dumps(EX2))
    assert inst.n == 5
    assert inst.q == (1, 2, 2, 2, 2)
    assert (1, 2) in inst.arcs
    assert inst.senders == ((1, 2, 3, 4, 5),)
    assert validate(inst).ok


def test_wants_follow_arc_convention():
    # arc (i -> j) means receiver j wants x_i; the verifier and the oracle
    # read each receiver's wanted bits this way
    inst = parse_instance(json.dumps(EX2))
    wants = {r: sorted({j for (j, _) in wanted})
             for r, _, wanted, _ in _receivers(inst, bit_layout(inst)[0])}
    assert wants[1] == [2, 3]
    assert wants[2] == [1, 3]
    assert wants[5] == [4]
    assert 4 not in wants


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("n"),
    lambda d: d.pop("q"),
    lambda d: d.pop("arcs"),
    lambda d: d.pop("senders"),
    lambda d: d.update(extra=1),
    lambda d: d.update(n="5"),
    lambda d: d.update(n=True),
    lambda d: d.update(q=5),
    lambda d: d.update(q=[1, 2, 2, 2, "2"]),
    lambda d: d.update(arcs=[[1]]),
    lambda d: d.update(arcs=[[1, 2, 3]]),
    lambda d: d.update(arcs="nope"),
    lambda d: d.update(senders=[5]),
])
def test_parse_rejects_malformed(mutate):
    doc = json.loads(json.dumps(EX2))
    mutate(doc)
    with pytest.raises(ParseError):
        parse_instance(json.dumps(doc))


@pytest.mark.parametrize("fields,message", [
    (dict(q=[1, 2, True, 2, 2]), "q[2] must be an integer, got True"),
    (dict(q=[1, 2, 2, 2, 2.0]), "q[4] must be an integer, got 2.0"),
    (dict(arcs=[[2, 1], [3]]), "arcs[1] must be a 2-element array"),
    (dict(arcs=[[2, 1], "x"]), "arcs[1] must be a 2-element array"),
    (dict(arcs=[[2, 1], [3, False]]), "arcs[1][1] must be an integer, got False"),
    (dict(arcs=[[1.5, 2]]), "arcs[0][0] must be an integer, got 1.5"),
    (dict(arcs=[[2, None], [3]]), "arcs[0][1] must be an integer, got None"),
    (dict(senders=[[1, 2], [3, None]]), "senders[1] must be an integer, got None"),
    (dict(senders=[[1], 5]), "senders[1] must be an array"),
    (dict(q=[True], arcs=[[1]]), "q[0] must be an integer, got True"),
])
def test_parse_error_names_the_first_bad_item(fields, message):
    with pytest.raises(ParseError) as e:
        parse_instance(json.dumps(dict(EX2, **fields)))
    assert str(e.value) == message


def test_parse_rejects_non_object():
    with pytest.raises(ParseError):
        parse_instance("[1, 2]")
    with pytest.raises(ParseError):
        parse_instance("not json")


def test_duplicates_deduplicated_with_note():
    doc = dict(EX2, arcs=EX2["arcs"] + [[2, 1]],
               senders=[[1, 2, 3, 4, 5], [1, 2, 3, 4, 5], [3, 3, 2]])
    inst = parse_instance(json.dumps(doc))
    assert inst.arcs == parse_instance(json.dumps(EX2)).arcs
    assert inst.senders == ((1, 2, 3, 4, 5), (2, 3))
    assert inst.notes
    # notes do not take part in equality
    assert inst == parse_instance(json.dumps(doc))


@pytest.mark.parametrize("doc,fragment", [
    (dict(EX2, n=0, q=[], arcs=[], senders=[[]]), "n"),
    (dict(EX2, q=[1, 2, 2, 2]), "q"),
    (dict(EX2, q=[1, 2, 2, 2, 0]), "positive"),
    (dict(EX2, arcs=[[1, 6]]), "range"),
    (dict(EX2, arcs=[[2, 2]]), "self"),
    (dict(EX2, senders=[[]]), "empty"),
    (dict(EX2, senders=[[1, 2, 3, 4, 6]]), "range"),
    (dict(EX2, senders=[[1, 2, 3, 4]]), "unowned"),
])
def test_validate_flags_violations(doc, fragment):
    report = validate(parse_instance(json.dumps(doc)))
    assert not report.ok
    assert any(fragment in v for v in report.violations), report.violations


@pytest.mark.parametrize("n,tail", [
    (21, ["message 21 unowned by any sender"]),
    (22, ["message 21 unowned by any sender", "... and 1 more unowned messages"]),
    (3_000_000, ["message 21 unowned by any sender", "... and 2999979 more unowned messages"]),
])
def test_validate_lists_at_most_twenty_unowned_messages(n, tail):
    inst = Instance(n=n, q=(1,) * min(n, 30), arcs=(), senders=((1,),))
    unowned = [v for v in validate(inst).violations if "unowned" in v]
    assert unowned[:19] == [f"message {m} unowned by any sender" for m in range(2, 21)]
    assert unowned[19:] == tail


def test_serialize_round_trip_exact():
    inst = parse_instance(json.dumps(EX2))
    again = parse_instance(serialize_instance(inst))
    assert again == inst
    # serialization is itself stable
    assert serialize_instance(again) == serialize_instance(inst)


def test_serialize_round_trip_random():
    rng = random.Random(7)
    for _ in range(100):
        inst = rand_multi(rng, n_max=7)
        assert parse_instance(serialize_instance(inst)) == inst


def test_load_instance(tmp_path):
    p = tmp_path / "inst.json"
    p.write_text(json.dumps(EX2))
    assert load_instance(str(p)) == parse_instance(json.dumps(EX2))


def test_message_graph_single_sender_complete():
    inst = parse_instance(json.dumps(EX2))
    u = derive_message_graph(inst)
    assert len(u.edges) == 5 * 4 // 2
    assert u.connected_within(frozenset(range(1, 6)))


def test_message_graph_splits_into_components():
    inst = make_instance(4, [[1, 3], [4, 2], [1, 2], [2, 1], [3, 4], [4, 3]],
                         [[1, 2], [3, 4]])
    u = derive_message_graph(inst)
    assert u.edges == frozenset({(1, 2), (3, 4)})
    assert u.components() == [frozenset({1, 2}), frozenset({3, 4})]
    assert not u.connected_within(frozenset({1, 2, 3, 4}))


@given(st.permutations([[1, 2], [2, 3], [3, 4], [1, 4], [2, 4]]),
       st.integers(0, 4))
def test_message_graph_ignores_sender_order_and_duplicates(perm, dup):
    base = make_instance(4, [], [[1, 2], [2, 3], [3, 4], [1, 4], [2, 4]])
    shuffled = make_instance(4, [], list(perm) + [list(perm[dup])])
    assert derive_message_graph(base).edges == derive_message_graph(shuffled).edges


def test_message_graph_neighbors():
    inst = make_instance(3, [[1, 2], [2, 1], [3, 1]], [[1, 3], [2, 3]])
    u = derive_message_graph(inst)
    assert u.neighbors(3) == frozenset({1, 2})
    assert u.neighbors(1) == frozenset({3})
    assert u.neighbors_of_set(frozenset({1, 2})) == frozenset({3})


def test_message_graph_matches_edge_scan_reference():
    """The sender-index queries against scans of ``u.edges``, which is
    derived from sender pairs alone."""
    rng = random.Random(31)
    for draw in range(600):
        n = rng.randint(2, 14)
        senders = (rand_senders(rng, n, size_max=rng.randint(2, 5)) if draw % 2
                   else wide_senders(rng, n))
        u = derive_message_graph(make_instance(n, [], senders))
        for v in range(1, n + 1):
            assert u.neighbors(v) == reference_neighbors(u, v)
        comps = reference_components(u)
        assert u.components() == comps
        for k, comp in enumerate(comps):
            assert all(u.component_of(v) == k for v in comp)
        for _ in range(5):
            vs = frozenset(rng.sample(range(1, n + 1), rng.randint(0, n)))
            assert u.neighbors_of_set(vs) == {w for v in vs
                                              for w in reference_neighbors(u, v)} - vs
            assert u.connected_within(vs) == reference_connected_within(u, vs)
            within = u.components_within(vs)
            assert sorted(v for c in within for v in c) == sorted(vs)
            assert [min(c) for c in within] == sorted(min(c) for c in within)
            assert all(reference_connected_within(u, c) for c in within)
            assert all(not reference_connected_within(u, a | b)
                       for a in within for b in within if a != b)


def test_message_graph_queries_return_copies():
    u = derive_message_graph(make_instance(3, [], [[1, 3], [2, 3]]))
    u.neighbors(3).add(99)
    u.components().append(frozenset({99}))
    assert u.neighbors(3) == {1, 2}
    assert u.components() == [frozenset({1, 2, 3})]
    assert u.edges == derive_message_graph(make_instance(3, [], [[2, 3], [1, 3]])).edges
    assert repr(u) == "MessageGraph(n=3, senders=((1, 3), (2, 3)))"
