"""The package's value types: construction, equality, immutability, repr.

Every public value type builds by keyword and by position, with its
defaults; compares and hashes by value; refuses assignment to a field;
copies and pickles; and prints the repr pinned below.  ``Instance`` equality ignores its
ingestion notes, and ``len`` of a ``LinearIndexCode`` is its symbol
count.  A fresh interpreter that imports ``uniprior.cli`` loads neither
``dataclasses``, ``inspect`` nor ``typing``: the command-line start-up
pays for every module the package imports.

The file needs only the standard library, so it also runs without
pytest:

    PYTHONPATH=src python3 -S tests/test_records.py
"""

from __future__ import annotations

import copy
import pickle
import subprocess
import sys
from pathlib import Path

from uniprior import (BoundReport, CodeSymbol, ConnectingTree, DegeneracyWitness,
                      ExhaustiveResult, Instance, Kind, LeafSccClass, LinearIndexCode,
                      LowerBoundReport, MessageGraph, OracleResult, PruneStep, PruneTrace,
                      SccPartition, SingleSolution, StepKind, StepRecord, TightReason,
                      TreeSearchResult, ValidationReport, VerifyReport, WorkGraph,
                      derive_message_graph, parse_instance)
from uniprior.classify import message_class
from uniprior.multi import _graphs

SRC = Path(__file__).resolve().parents[1] / "src"

GRAPH = WorkGraph(vertices=(1, 2, 3), arcs={(1, 2), (2, 1)}, weight={1: 1, 2: 1, 3: 1})
SYMBOL = CodeSymbol(sender=1, terms=((1, 1), (2, 1)))
CODE = LinearIndexCode(symbols=(SYMBOL,))
WITNESS = DegeneracyWitness(s_inside=frozenset({1}), s_outside=frozenset({3}), v_inside=1,
                            target=3)
TREE = ConnectingTree(vertices=frozenset({1, 2}), edges=frozenset({(1, 2)}))
PRUNE = PruneStep(scc=frozenset({1, 2}), vertex=1, removed_arcs=((1, 2),))

# (type, every field by keyword in order, the repr)
CASES = [
    (CodeSymbol, dict(sender=1, terms=((1, 1), (2, 1))),
     "CodeSymbol(sender=1, terms=((1, 1), (2, 1)))"),
    (LinearIndexCode, dict(symbols=(SYMBOL,)),
     "LinearIndexCode(symbols=(CodeSymbol(sender=1, terms=((1, 1), (2, 1))),))"),
    (VerifyReport, dict(valid=False, failures=((2, (1, 1)),)),
     "VerifyReport(valid=False, failures=((2, (1, 1)),))"),
    (OracleResult, dict(length=1, code=CODE, exact=False, note="capped"),
     "OracleResult(length=1, code=LinearIndexCode(symbols=(CodeSymbol(sender=1, "
     "terms=((1, 1), (2, 1))),)), exact=False, note='capped')"),
    (Instance, dict(n=2, q=(1, 1), arcs=((1, 2),), senders=((1, 2),), notes=("x",)),
     "Instance(n=2, q=(1, 1), arcs=((1, 2),), senders=((1, 2),))"),
    (MessageGraph, dict(n=3, senders=((1, 2), (2, 3))),
     "MessageGraph(n=3, senders=((1, 2), (2, 3)))"),
    (ValidationReport, dict(ok=False, violations=("bad",), notes=("note",)),
     "ValidationReport(ok=False, violations=('bad',), notes=('note',))"),
    (SccPartition, dict(components=(frozenset({1, 2}), frozenset({3})),
                        leaf_flags=(True, False)),
     "SccPartition(components=(frozenset({1, 2}), frozenset({3})), leaf_flags=(True, False))"),
    (DegeneracyWitness, dict(s_inside=frozenset({1}), s_outside=frozenset({3}), v_inside=1,
                             target=3),
     "DegeneracyWitness(s_inside=frozenset({1}), s_outside=frozenset({3}), v_inside=1, "
     "target=3)"),
    (LeafSccClass, dict(kind=Kind.DEGENERATED, disconnected_pair=(1, 2), degeneracy=WITNESS),
     "LeafSccClass(kind=<Kind.DEGENERATED: 'Degenerated'>, disconnected_pair=(1, 2), "
     "degeneracy=DegeneracyWitness(s_inside=frozenset({1}), s_outside=frozenset({3}), "
     "v_inside=1, target=3))"),
    (StepRecord, dict(kind=StepKind.PRUNE_CONNECTED, scc=frozenset({1, 2}), phase="iteration",
                      selected_vertex=2, added_arc=(2, 4), dummy=4, witness=None),
     "StepRecord(kind=<StepKind.PRUNE_CONNECTED: 'PruneConnected'>, scc=frozenset({1, 2}), "
     "phase='iteration', selected_vertex=2, added_arc=(2, 4), dummy=4, witness=None)"),
    (LowerBoundReport, dict(bound=1, v_out_original=2, connected_count=0, iterations=1,
                            steps=(), final_graph=GRAPH),
     "LowerBoundReport(bound=1, v_out_original=2, connected_count=0, iterations=1, steps=(), "
     "final_graph=WorkGraph(vertices=(1, 2, 3), arcs=[(1, 2), (2, 1)], dummies=[]))"),
    (ExhaustiveResult, dict(bound=3, exact=True, states_visited=7),
     "ExhaustiveResult(bound=3, exact=True, states_visited=7)"),
    (ConnectingTree, dict(vertices=frozenset({1, 2}), edges=frozenset({(1, 2)})),
     "ConnectingTree(vertices=frozenset({1, 2}), edges=frozenset({(1, 2)}))"),
    (TreeSearchResult, dict(trees=(TREE,), exact=False),
     "TreeSearchResult(trees=(ConnectingTree(vertices=frozenset({1, 2}), "
     "edges=frozenset({(1, 2)})),), exact=False)"),
    (BoundReport, dict(lower=1, upper=2, tight=False, tight_reason=TightReason.BOUNDS_COINCIDE,
                       lower_report=None, exhaustive=ExhaustiveResult(2, False, 9), trees=(),
                       trees_exact=True, code=LinearIndexCode(())),
     "BoundReport(lower=1, upper=2, tight=False, "
     "tight_reason=<TightReason.BOUNDS_COINCIDE: 'BoundsCoincide'>, lower_report=None, "
     "exhaustive=ExhaustiveResult(bound=2, exact=False, states_visited=9), trees=(), "
     "trees_exact=True, code=LinearIndexCode(symbols=()))"),
    (PruneStep, dict(scc=frozenset({1, 2}), vertex=1, removed_arcs=((1, 2),)),
     "PruneStep(scc=frozenset({1, 2}), vertex=1, removed_arcs=((1, 2),))"),
    (PruneTrace, dict(steps=(PRUNE,)),
     "PruneTrace(steps=(PruneStep(scc=frozenset({1, 2}), vertex=1, removed_arcs=((1, 2),)),))"),
    (SingleSolution, dict(optimal_length=1, lower_bound=1, code=CODE, trace=PruneTrace(()),
                          arithmetic=(2, 0, 1)),
     "SingleSolution(optimal_length=1, lower_bound=1, code=LinearIndexCode(symbols=("
     "CodeSymbol(sender=1, terms=((1, 1), (2, 1))),)), trace=PruneTrace(steps=()), "
     "arithmetic=(2, 0, 1))"),
]

# (type, the fields without a default, the defaults)
DEFAULTS = [
    (OracleResult, dict(length=0, code=CODE, exact=True), dict(note="")),
    (Instance, dict(n=1, q=(1,), arcs=(), senders=((1,),)), dict(notes=())),
    (ValidationReport, dict(ok=True, violations=()), dict(notes=())),
    (LeafSccClass, dict(kind=Kind.MESSAGE_CONNECTED),
     dict(disconnected_pair=None, degeneracy=None)),
    (StepRecord, dict(kind=StepKind.PRUNE_CONNECTED, scc=frozenset({1, 2}), phase="init"),
     dict(selected_vertex=None, added_arc=None, dummy=None, witness=None)),
]

# each field that takes part in equality, with a value that differs and
# still builds; the fields of every other type change to object()
OTHER_VALUES = {
    Instance: dict(n=3, q=(1,), arcs=(), senders=((1,),)),
    MessageGraph: dict(n=4, senders=((1, 2),)),
}


def _hashable(values) -> bool:
    try:
        hash(tuple(values))
    except TypeError:  # a WorkGraph field: graphs compare by value but are unhashable
        return False
    return True


def test_types_build_by_keyword_and_by_position():
    assert len(CASES) == 19
    for cls, fields, _ in CASES:
        by_keyword = cls(**fields)
        by_position = cls(*fields.values())
        assert by_keyword == by_position, cls
        for name, value in fields.items():
            assert getattr(by_keyword, name) is value, (cls, name)
            assert getattr(by_position, name) is value, (cls, name)


def test_types_take_their_defaults():
    for cls, given, defaults in DEFAULTS:
        record = cls(**given)
        for name, value in defaults.items():
            assert getattr(record, name) == value, (cls, name)
        assert record == cls(**given, **defaults) == cls(*given.values()), cls


def test_equality_and_hash_are_by_value():
    for cls, fields, _ in CASES:
        a, b = cls(**fields), cls(**fields)
        assert a == b and not a != b, cls
        if _hashable(fields.values()):
            assert hash(a) == hash(b) and len({a, b}) == 1, cls
        for name, value in OTHER_VALUES.get(cls, dict.fromkeys(fields, object())).items():
            other = cls(**{**fields, name: value})
            assert a != other and not a == other, (cls, name)


def test_instance_equality_ignores_notes():
    a = Instance(n=2, q=(1, 1), arcs=((1, 2),), senders=((1, 2),), notes=("a",))
    b = Instance(n=2, q=(1, 1), arcs=((1, 2),), senders=((1, 2),))
    assert a == b and hash(a) == hash(b)
    assert a.notes == ("a",) and b.notes == ()
    assert repr(a) == repr(b)
    parsed = parse_instance('{"n": 2, "q": [1, 1], "arcs": [[1, 2], [1, 2]], '
                            '"senders": [[1, 2]]}')
    assert parsed == b and parsed.notes == ("duplicate arc [1, 2] removed",)


def test_instance_keeps_its_graphs_memo_outside_its_value():
    a = Instance(n=3, q=(1, 1, 1), arcs=((1, 2), (2, 1)), senders=((1, 2), (3,)))
    b = Instance(n=3, q=(1, 1, 1), arcs=((1, 2), (2, 1)), senders=((1, 2), (3,)))
    graphs = _graphs(a)
    assert _graphs(a) is graphs
    assert graphs[1] == derive_message_graph(b)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


def test_message_graph_memos_stay_outside_its_value():
    u = MessageGraph(n=4, senders=((1, 2), (3, 4)))
    fresh = MessageGraph(n=4, senders=((1, 2), (3, 4)))
    h = hash(u)
    assert u.components() == [frozenset({1, 2}), frozenset({3, 4})]
    assert u.component_of(4) == 1
    assert u.edges == frozenset({(1, 2), (3, 4)})
    message_class(u, frozenset({1, 2, 3, 4}))
    assert u == fresh and hash(u) == h == hash(fresh) and repr(u) == repr(fresh)
    assert u != MessageGraph(n=5, senders=u.senders)
    assert u != MessageGraph(n=4, senders=((1, 2),))
    # the value is the senders, not the edges they give
    assert u != MessageGraph(n=4, senders=((3, 4), (1, 2)))
    assert MessageGraph(n=4, senders=((3, 4), (1, 2))).edges == u.edges
    memo = {(u, frozenset({1})): "kept"}
    assert memo[(fresh, frozenset({1}))] == "kept"


def test_len_of_a_code_is_its_symbol_count():
    assert len(LinearIndexCode(())) == 0
    assert len(CODE) == 1
    assert len(LinearIndexCode((SYMBOL,) * 5)) == 5


def test_fields_are_read_only():
    for cls, fields, _ in CASES:
        record = cls(**fields)
        for name in fields:
            for change in (lambda: setattr(record, name, 0), lambda: delattr(record, name)):
                try:
                    change()
                except AttributeError:
                    continue
                raise AssertionError(f"{cls.__name__}.{name} is writable")
            assert getattr(record, name) is fields[name]


def test_copies_and_pickles_are_equal():
    for cls, fields, _ in CASES:
        record = cls(**fields)
        for twin in (copy.copy(record), copy.deepcopy(record),
                     pickle.loads(pickle.dumps(record))):
            assert type(twin) is cls and twin == record, cls
            assert [getattr(twin, name) for name in fields] == list(fields.values()), cls


def test_repr_is_pinned():
    for cls, fields, text in CASES:
        assert repr(cls(**fields)) == text, cls


def test_cli_import_loads_no_introspection_modules():
    """A fresh interpreter without site hooks (pytest and site-packages
    import these modules themselves)."""
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import uniprior.cli; "
             "print(' '.join(m for m in ('dataclasses', 'inspect', 'typing') "
             "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", probe, str(SRC)], check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == [], f"import uniprior.cli loads {out}"


if __name__ == "__main__":
    for name, test in sorted(globals().items()):
        if name.startswith("test_"):
            test()
            print("ok", name)
    print(f"Python {sys.version.split()[0]}: value types behave as pinned")
