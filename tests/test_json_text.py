"""The one-walk JSON emitter against the standard library.

``json_text(doc)`` must equal ``reference_emit_json(doc)`` (conversion
to plain JSON types, then ``json.dumps(..., indent=2, sort_keys=True)``)
byte for byte: on every document the CLI emits, for every report type
over seeded instances, and on edge cases.  ``serialize_code`` must equal
``json.dumps(doc, indent=2) + "\\n"``.

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
from enum import Enum
from pathlib import Path

import uniprior.cli as cli
from uniprior import (LinearIndexCode, WorkGraph, serialize_code, serialize_instance,
                      solve_single, symbol)
from uniprior.codes import json_text

from generators import rand_code, rand_cyclic, rand_multi, rand_single, rand_triples
from oracles import reference_emit_json

REPORTS = ("validate", "solve", "bound", "trace", "oracle", "verify", "encode")


class Color(Enum):
    RED = "red"
    ONE = 1


@dataclass(frozen=True)
class Empty:
    pass


@dataclass(frozen=True)
class Pair:
    zeta: object
    alpha: object = None


def _dummy_graph() -> WorkGraph:
    return WorkGraph(vertices=(1, 2, 3, 10, 11), arcs={(1, 2), (2, 1), (3, 10), (2, 11)},
                     weight={1: 1, 2: 2, 3: 3, 10: 0, 11: 0}, dummies=(10, 11))


EDGE_CASES = [
    # strings: non-ASCII, control characters, quotes, backslashes
    "", "plain", "unknown field(s): é", "\x00\x01\x08\x0c\x1f\x7f\t\n\r",
    'q"uo\\te/d', "  ", "\U0001f600", "é" * 3,
    # empty and set-like containers
    [], {}, (), frozenset(), set(), frozenset({(2, 1), (1, 3), (1, 2)}), {3, 1, 2},
    frozenset({Color.RED}), [frozenset(), [], {}],
    # Enum, None, bool (never printed as an int)
    Color.RED, Color.ONE, None, True, False, [True, False, 1, 0], [1, True],
    {"flag": False, "none": None},
    # ints: negative, above 2**64; int, bool and None dict keys
    -1, 0, 2 ** 64 + 1, -(2 ** 70), [2 ** 64, -3, 7],
    {1: "a", 10: "b", 2: "c"}, {1: "int", "1": "str"}, {True: 1, None: 2, "x": 3},
    {"é": 1, "a": {"b": [[], {}]}, "\x00": "nul"},
    # graphs with dummies, dataclasses, codes
    _dummy_graph(), Empty(), Pair(zeta=[1, (2, 3)], alpha=Color.ONE),
    symbol(1, (2, 1), (1, 1)), LinearIndexCode(()),
    # floats take the standard library's own formatting
    1.5, -2.5e300, float("inf"), [0.1, 2],
]


def _wrapped(doc) -> list:
    """doc itself and at deeper indents, inside lists and dicts."""
    return [doc, [doc], {"k": [doc, {"z": doc}]}, (1, doc, "x")]


def test_edge_cases_match_reference():
    for case in EDGE_CASES:
        for doc in _wrapped(case):
            assert json_text(doc) == reference_emit_json(doc), doc


def test_unserializable_object_raises_type_error():
    for doc in (object(), [1, object()], {"k": b"bytes"}):
        try:
            json_text(doc)
        except TypeError:
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
