"""The one-walk JSON emitter against the standard library.

``json_text(doc)`` must equal ``reference_emit_json(doc)`` (conversion
to plain JSON types, then ``json.dumps(..., indent=2, sort_keys=True)``)
byte for byte: on every document the CLI emits, for every report type
over seeded instances, and on edge cases of every type the package
builds.  ``serialize_code`` must equal ``json.dumps(doc, indent=2) +
"\\n"``.  Code symbols are written from %-templates, checked here on
codes from every producer and on lists that mix symbols with other
items; a work graph is written from its adjacency.  Any type the
package does not build raises TypeError, and a symbol holding a bool
or IntEnum is written as the ints it equals.

The file needs only the standard library, so it also runs without
pytest, under each Python version the package supports:

    PYTHONPATH=src python3 tests/test_json_text.py
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
from dataclasses import dataclass
from enum import Enum, IntEnum
from pathlib import Path

import uniprior.cli as cli
from uniprior import (CodeSymbol, ExhaustiveResult, Instance, LinearIndexCode, MessageGraph,
                      WorkGraph, bound_multi, encode_multi, find_connecting_trees,
                      oracle_min_linear, parse_code, run_algorithm2, serialize_code,
                      serialize_instance, solve_single, symbol)
from uniprior.codes import _FIELD_KEYS, json_text

from generators import rand_code, rand_cyclic, rand_graph, rand_multi, rand_single, rand_triples
from oracles import reference_emit_json

REPORTS = ("validate", "solve", "bound", "trace", "oracle", "verify", "encode")


class Color(Enum):
    RED = "red"


class Level(IntEnum):
    ONE = 1
    TWO = 2


@dataclass(frozen=True)
class Pair:
    zeta: object
    alpha: object = None


class Items(list):
    pass


def _dummy_graph() -> WorkGraph:
    return WorkGraph(vertices=(1, 2, 3, 10, 11), arcs={(1, 2), (2, 1), (3, 10), (2, 11)},
                     weight={1: 1, 2: 2, 3: 3, 10: 0, 11: 0}, dummies=(10, 11))


EDGE_CASES = [
    # strings: non-ASCII, control characters, quotes, backslashes
    "", "plain", "unknown field(s): é", "\x00\x01\x08\x0c\x1f\x7f\t\n\r",
    'q"uo\\te/d', "  ", "\U0001f600", "é" * 3,
    # empty and set-like containers
    [], {}, (), frozenset(), set(), frozenset({(2, 1), (1, 3), (1, 2)}), {3, 1, 2},
    [frozenset(), [], {}],
    # Enums (by value), None, bool (a bool never printed as an int)
    Color.RED, Level.TWO, None, True, False, [True, False, 1, 0], [1, True],
    {"flag": False, "none": None},
    # ints: negative, above 2**64; int, bool and None dict keys
    -1, 0, 2 ** 64 + 1, -(2 ** 70), [2 ** 64, -3, 7],
    {1: "a", 10: "b", 2: "c"}, {1: "int", "1": "str"}, {True: 1, None: 2, "x": 3},
    {"é": 1, "a": {"b": [[], {}]}, "\x00": "nul"},
    # a graph with dummies; codes, one with a symbol of no terms
    _dummy_graph(), symbol(1, (2, 1), (1, 1)), LinearIndexCode(()), symbol(2),
    LinearIndexCode((symbol(1, (1, 1)), symbol(2), symbol(3, (1, 1), (2, 1), (3, 1)))),
    # named tuples and value classes write as objects of their fields
    ExhaustiveResult(bound=3, exact=True, states_visited=7),
    Instance(n=2, q=(1, 1), arcs=((1, 2),), senders=((1, 2),), notes=("é",)),
    MessageGraph(n=3, senders=((1, 2), (2, 3))),
]


def _wrapped(doc) -> list:
    """doc itself and at deeper indents, inside lists and dicts."""
    return [doc, [doc], {"k": [doc, {"z": doc}]}, (1, doc, "x")]


def test_edge_cases_match_reference():
    for case in EDGE_CASES:
        for doc in _wrapped(case):
            assert json_text(doc) == reference_emit_json(doc), doc


def test_unserializable_object_raises_type_error():
    """Types the package does not build, at the top level and nested,
    raise TypeError naming the type."""
    for value in (1.5, float("nan"), Pair(zeta=1), Items([1]), object(), b"bytes",
                  bytearray(b"x"), 1j):
        name = type(value).__name__
        for doc in (value, [1, value], {"k": value}, (symbol(1, (1, 1)), value)):
            try:
                json_text(doc)
            except TypeError as e:
                assert name in str(e), (doc, e)
                continue
            raise AssertionError(f"no TypeError for {doc!r}")


def _instances() -> list[dict]:
    rng = random.Random("json-text")
    docs = []
    for _ in range(12):
        for inst in (rand_single(rng, n_max=5, q_max=2), rand_multi(rng, n_max=6),
                     rand_cyclic(rng, n_max=8), rand_triples(rng, t_max=2)):
            docs.append(json.loads(serialize_instance(inst)))
    # invalid: unowned message, zero-length message, and no sender at all
    docs += [{"n": 3, "q": [1, 0, 1], "arcs": [[1, 2]], "senders": [[1]]},
             {"n": 2, "q": [1, 1], "arcs": [], "senders": []}]
    return docs


def _cli_documents(work: Path) -> list:
    """Every document the CLI emits over the seeded instances, recorded
    at its one emit point."""
    docs = []
    real = cli.json_text

    def record(doc):
        docs.append(doc)
        return real(doc)

    inst, code, short = (str(work / name) for name in ("inst.json", "code.json", "short.json"))
    commands = [["validate", inst], ["solve", inst], ["bound", inst],
                ["bound", inst, "--exhaustive", "--max-states", "60"], ["trace", inst],
                ["oracle", inst, "--max-bits", "8"], ["encode", inst, "-o", code],
                ["verify", inst, code], ["verify", inst, short]]
    cli.json_text = record
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            for doc in _instances():
                Path(inst).write_text(json.dumps(doc))
                for argv in commands:
                    cli.main([*argv, "--format", "json"])
                    if argv[0] == "encode" and Path(code).exists():
                        Path(short).write_text(json.dumps(json.loads(Path(code).read_text())[1:]))
            # a parse error names the offending key
            Path(inst).write_text('{"n": 1, "é": 2}')
            cli.main(["validate", inst, "--format", "json"])
    finally:
        cli.json_text = real
    return docs


def test_every_report_type_matches_reference():
    with tempfile.TemporaryDirectory() as tmp:
        docs = _cli_documents(Path(tmp))
    assert {d["command"] for d in docs} == set(REPORTS)
    assert any("unknown field(s): é" in d.get("violations", ()) for d in docs)
    assert any(d["command"] == "verify" and not d["valid"] for d in docs)
    for doc in docs:
        assert json_text(doc) == reference_emit_json(doc), doc["command"]


def _code_doc(code) -> list:
    """What serialize_code writes, in plain terms for the reference."""
    return [{"sender": s.sender, "terms": s.terms} for s in code.symbols]


def _produced_codes() -> list[LinearIndexCode]:
    """Codes from every producer: the single-sender solver, the pairwise
    code of bound and encode, the oracle, random codes and their parsed
    files."""
    rng = random.Random("json-text:producers")
    codes = []
    for _ in range(8):
        codes.append(solve_single(rand_single(rng, n_max=6, q_max=3)).code)
        for inst in (rand_cyclic(rng, n_max=8), rand_triples(rng, t_max=2)):
            codes.append(bound_multi(inst).code)
            codes.append(encode_multi(inst, find_connecting_trees(inst).trees))
        codes.append(oracle_min_linear(rand_multi(rng, n_max=5), max_bits=8).code)
        codes.append(rand_code(rng, rand_multi(rng, n_max=6), max_len=8))
        codes.append(parse_code(serialize_code(codes[-1])))
    return [c for c in codes if c.symbols]


def _takes_generic_walk(code) -> bool:
    """Whether writing code walks a CodeSymbol as a record: that walk
    memoizes the type's field keys, the templates do not."""
    _FIELD_KEYS.pop(CodeSymbol, None)
    json_text(code)
    return CodeSymbol in _FIELD_KEYS


def test_kernel_matches_reference_on_produced_codes():
    codes = _produced_codes()
    assert len(codes) >= 40
    for code in codes:
        assert not _takes_generic_walk(code), code
        for doc in _wrapped(code):
            assert json_text(doc) == reference_emit_json(doc), code
        assert serialize_code(code) == reference_emit_json(_code_doc(code)) + "\n", code


# symbols holding bools or IntEnums, each with the int symbol it equals
INT_LIKE_SYMBOLS = [
    (CodeSymbol(True, ((1, 1),)), symbol(1, (1, 1))),
    (CodeSymbol(1, ((1, True), (2, True))), symbol(1, (1, 1), (2, 1))),
    (CodeSymbol(Level.TWO, ((Level.ONE, Level.TWO),)), symbol(2, (1, 2))),
    (CodeSymbol(Level.ONE, ((1, 1), (2, Level.TWO), (3, True))), symbol(1, (1, 1), (2, 2), (3, 1))),
]

# symbols no producer builds and no template fits
UNWRITABLE_SYMBOLS = [
    CodeSymbol(1, [[1, 2], [3, 1]]),           # list-typed terms
    CodeSymbol(1, ([1, 2],)),                  # a list-typed pair
    CodeSymbol(1, ((1, 2), (3, 1), [2, 2])),   # a list-typed third pair
    CodeSymbol(1, ((1, 2, 3),)),               # a 3-element term
    CodeSymbol(1, ((1,), (2, 1))),             # a 1-element term
    CodeSymbol("1", ((1, 1),)),                # a string sender
]


def test_symbols_of_bools_and_int_enums_write_as_ints():
    """A symbol holding a bool or IntEnum is written as the int symbol
    it equals, so parse_code reads its file back; a symbol no template
    fits raises TypeError, not malformed text."""
    plain = symbol(2, (1, 1), (3, 2))
    for odd, ints in INT_LIKE_SYMBOLS:
        for seq in ((odd,), (plain, odd, plain)):
            text = serialize_code(LinearIndexCode(seq))
            want = LinearIndexCode(tuple(ints if s is odd else s for s in seq))
            assert text == serialize_code(want), odd
            back = parse_code(text)
            assert back == want
            assert all(type(x) is int for s in back.symbols for t in s.terms
                       for x in (s.sender, *t)), back
    for bad in UNWRITABLE_SYMBOLS:
        for code in (LinearIndexCode((bad,)), LinearIndexCode((plain, bad, plain))):
            try:
                serialize_code(code)
            except TypeError:
                continue
            raise AssertionError(f"no TypeError for {code!r}")
    assert serialize_code(LinearIndexCode(())) == "[]\n"


def test_symbol_lists_mix_term_counts_and_other_items():
    """One-, two- and three-term symbols in one list take their three
    templates; a list goes on item by item from its first item that is
    no symbol, whatever follows it."""
    one, two = symbol(1, (4, 1)), symbol(2, (3, 2), (1, 1))
    three = symbol(3, (1, 1), (2, 1), (3, 1))
    mixed = (one, two, three, two, one, three)
    for seq in (mixed, list(mixed), [three, three], [one], (two,), (one, 5),
                (two, three, 5, one), [three, "x", None, two], [5, one], (None, three, two)):
        for doc in _wrapped(seq) + _wrapped(LinearIndexCode(tuple(seq))):
            assert json_text(doc) == reference_emit_json(doc), seq
        if all(type(s) is CodeSymbol for s in seq):
            code = LinearIndexCode(seq)
            assert serialize_code(code) == reference_emit_json(_code_doc(code)) + "\n", seq
        assert not _takes_generic_walk(seq), seq


def _graphs() -> list[WorkGraph]:
    """Graphs with and without dummies, arcs or weights, each written
    from its adjacency."""
    rng = random.Random("json-text:graphs")
    ring = WorkGraph(range(1, 13), {(v, v % 12 + 1) for v in range(1, 13)} | {(12, 2), (3, 11)},
                     {v: v % 3 for v in range(1, 13)})
    graphs = [_dummy_graph(), WorkGraph((), (), {}), WorkGraph((2, 1, 3), (), {1: 1, 2: 0, 3: 4}),
              ring, ring.with_new_dummy(12)[0], ring.with_new_dummy(3)[0].with_new_dummy(7)[0],
              ring.without_out_arcs(1), ring.with_arc(5, 9),
              WorkGraph((-2, 0, 7), {(0, -2), (-2, 7)}, {-2: 1, 0: 2 ** 70, 7: -1})]
    graphs += [rand_graph(rng, n) for n in (1, 4, 10, 15)]
    return graphs


def test_graphs_match_reference():
    graphs = _graphs()
    assert any(len(g.vertices) >= 10 and g.dummies for g in graphs)
    for g in graphs:
        for doc in _wrapped(g):
            assert json_text(doc) == reference_emit_json(doc), g
    weights = json.loads(json_text(graphs[3]))["weight"]
    assert list(weights)[:4] == ["1", "10", "11", "12"]  # keys in string order


def test_lower_bound_report_in_a_dict_matches_reference():
    """The Algorithm-2 report, with its steps and final graph, nested
    where the CLI puts it."""
    rng = random.Random("json-text:reports")
    for _ in range(10):
        for inst in (rand_cyclic(rng, n_max=12), rand_triples(rng, t_max=3)):
            report = run_algorithm2(inst)
            for doc in _wrapped({"lower_report": report, "bound": report.bound}):
                assert json_text(doc) == reference_emit_json(doc)


def test_code_file_round_trip():
    """parse_code(serialize_code(c)) is c with each symbol's terms
    sorted and deduplicated, and c itself when they already are."""
    rng = random.Random("json-text:round-trip")
    for _ in range(200):
        symbols = []
        for _ in range(rng.randint(0, 6)):
            terms = [(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
            terms += rng.sample(terms, rng.randint(0, len(terms)))  # duplicates
            rng.shuffle(terms)
            symbols.append(CodeSymbol(rng.randint(1, 4), tuple(terms)))
        code = LinearIndexCode(tuple(symbols))
        canonical = LinearIndexCode(tuple(symbol(s.sender, *set(s.terms)) for s in symbols))
        assert parse_code(serialize_code(code)) == canonical
        assert parse_code(serialize_code(canonical)) == canonical


def test_serialize_code_matches_json_dumps():
    rng = random.Random("json-text:codes")
    codes = [LinearIndexCode(())]
    for _ in range(40):
        inst = rand_multi(rng, n_max=6)
        codes.append(rand_code(rng, inst, max_len=8))
        codes.append(solve_single(rand_single(rng, n_max=6, q_max=3)).code)
    for code in codes:
        doc = [{"sender": s.sender, "terms": [list(t) for t in s.terms]} for s in code.symbols]
        assert serialize_code(code) == json.dumps(doc, indent=2) + "\n"


if __name__ == "__main__":
    for name, test in sorted(globals().items()):
        if name.startswith("test_"):
            test()
            print("ok", name)
    print(f"Python {sys.version.split()[0]}: json_text matches the standard library")
