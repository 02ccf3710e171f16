"""CLI contract: any input ends in a result or a documented exit code.

Seeded malformed, adversarial and oversized instance and code documents
go to each subcommand, in process, in both output formats.  Every call
must return an exit code in {0, 1, 2, 3}, raise nothing, write no
traceback, print one JSON document (or nothing) under ``--format json``,
and return within ``BUDGET_S``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time

import pytest

from uniprior.cli import main

BUDGET_S = 2.0

BASE = {"n": 4, "q": [1, 1, 1, 1], "arcs": [[1, 2], [2, 1], [3, 4], [4, 3], [1, 3]],
        "senders": [[1, 2], [2, 3], [3, 4]]}
# a code that decodes BASE
BASE_CODE = [{"sender": 3, "terms": [[3, 1], [4, 1]]}, {"sender": 1, "terms": [[1, 1]]},
             {"sender": 1, "terms": [[2, 1]]}]

# a 50-byte file whose n alone once made validate list three million
# unowned messages
HUGE_N = '{"n": 3000000, "q": [], "arcs": [], "senders": [[1]]}'

JUNK = (True, False, None, "x", "é", 1.5, -1, 0, 10 ** 30, [], {}, [[]], [True], {"é": 1})


def _base(**fields) -> str:
    return json.dumps(dict(BASE, **fields))


INSTANCE_DOCS = [
    "", "null", "[]", "42", '"text"', "{", '{"n": 4, "q": [1, 1', "[" * 100_000,
    HUGE_N, HUGE_N.replace("3000000", str(10 ** 9)), HUGE_N.replace("3000000", str(10 ** 30)),
    _base(n=-5), _base(n=0, q=[], arcs=[], senders=[]), _base(n=True), _base(n=4.0),
    _base(q=[1, True, 1, 1]), _base(q="1111"), _base(q=[1, 1, 1, 0]), _base(q=[1, 1, 1]),
    _base(arcs=[[1, True]]), _base(arcs=[[1, 2, 3]]), _base(arcs=[[1]]), _base(arcs={"1": 2}),
    _base(arcs=[[1, 1]]), _base(arcs=[[0, 5]]), _base(arcs=[[10 ** 30, 1]]),
    _base(arcs=BASE["arcs"] * 3),
    _base(senders=[]), _base(senders=[[]]), _base(senders=[[1, True]]), _base(senders=[["1"]]),
    _base(senders=[[1, 2, 3, 4, 4, 1]]), _base(senders=[[9]]), _base(senders=[[1, 2], [2, 3]]),
    json.dumps(dict(BASE, é=1)), json.dumps(dict(BASE, **{"ключ": "значение"})),
    json.dumps({k: v for k, v in BASE.items() if k != "arcs"}),
    _base(senders=[list(range(1, 5))] * 200),
]

CODE_DOCS = [
    "", "{}", "[]", "[", "null", '[{"sender": 1}]', "[" * 100_000,
    json.dumps(BASE_CODE), json.dumps(BASE_CODE[1:]),
    json.dumps([{"sender": 9, "terms": [[1, 1]]}]), json.dumps([{"sender": 0, "terms": [[1, 1]]}]),
    json.dumps([{"sender": True, "terms": [[1, 1]]}]),
    json.dumps([{"sender": "1", "terms": [[1, 1]]}]),
    json.dumps([{"sender": 1, "terms": []}]), json.dumps([{"sender": 1, "terms": [[1, True]]}]),
    json.dumps([{"sender": 1, "terms": [[1, 0]]}]), json.dumps([{"sender": 1, "terms": [[1, 2]]}]),
    json.dumps([{"sender": 1, "terms": [[9, 1]]}]), json.dumps([{"sender": 1, "terms": [[4, 1]]}]),
    json.dumps([{"sender": 1, "terms": [[1]]}]), json.dumps([{"sender": 1, "terms": [[1, 1, 1]]}]),
    json.dumps([{"sender": 1, "terms": [[1, 1]], "é": 1}]),
    json.dumps([{"sender": 10 ** 30, "terms": [[10 ** 30, 1]]}]),
    json.dumps(BASE_CODE * 5000),
]


def _mutate(rng: random.Random, doc) -> str:
    """doc with one seeded fault: a value or list item replaced by junk,
    a field dropped or added, or the text cut short."""
    doc = json.loads(json.dumps(doc))
    op = rng.randrange(4)
    if op == 0:
        text = json.dumps(doc)
        return text[:rng.randrange(len(text))]
    if op == 1 and isinstance(doc, dict):
        doc.pop(rng.choice(sorted(doc)))
    elif op == 1:
        doc.append(rng.choice(JUNK))
    elif op == 2 and isinstance(doc, dict):
        doc[rng.choice(sorted(doc) + ["é"])] = rng.choice(JUNK)
    else:
        # replace one leaf or list item anywhere in the document
        node = doc
        while True:
            items = list(node.items()) if isinstance(node, dict) else list(enumerate(node))
            if not items:
                break
            key, child = rng.choice(items)
            if isinstance(child, (list, dict)) and child and rng.random() < 0.7:
                node = child
                continue
            node[key] = rng.choice(JUNK)
            break
    return json.dumps(doc)


def _params(fixed: list[str], doc, count: int, seed: str):
    """The fixed documents, then count seeded mutations of doc, by index."""
    rng = random.Random(seed)
    texts = fixed + [_mutate(rng, doc) for _ in range(count)]
    ids = [f"fixed{k}" for k in range(len(fixed))] + [f"seeded{k}" for k in range(count)]
    return pytest.mark.parametrize("text", texts, ids=ids)


def _call(argv: list[str]) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def _check(argv: list[str]) -> None:
    for fmt in ("text", "json"):
        status, out, err, seconds = _call([*argv, "--format", fmt])
        assert status in (0, 1, 2, 3), (argv, status)
        assert "Traceback" not in err, (argv, err)
        assert seconds < BUDGET_S, (argv, seconds)
        if fmt == "json" and out:
            json.loads(out)


@_params(INSTANCE_DOCS, BASE, 40, "contract:instance")
def test_instance_documents_end_in_an_exit_code(tmp_path, text):
    inst, code, out = tmp_path / "inst.json", tmp_path / "code.json", tmp_path / "out.json"
    inst.write_text(text)
    code.write_text(json.dumps(BASE_CODE))
    for argv in (["validate"], ["solve"], ["bound"],
                 ["bound", "--exhaustive", "--max-states", "50"], ["trace"], ["oracle"],
                 ["encode", "-o", str(out)], ["verify", None]):
        _check([argv[0], str(inst)] + [str(code) if a is None else a for a in argv[1:]])


@_params(CODE_DOCS, BASE_CODE, 40, "contract:code")
def test_code_documents_end_in_an_exit_code(tmp_path, text):
    inst, code = tmp_path / "inst.json", tmp_path / "code.json"
    inst.write_text(json.dumps(BASE))
    code.write_text(text)
    _check(["verify", str(inst), str(code)])


def test_huge_n_validate_report_is_bounded(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(HUGE_N)
    status, out, err, seconds = _call(["validate", str(path), "--format", "json"])
    assert (status, err) == (1, "")
    assert seconds < 1.0
    violations = json.loads(out)["violations"]
    assert violations[0] == "q has 0 entries, expected n = 3000000"
    assert violations[1:21] == [f"message {m} unowned by any sender" for m in range(2, 22)]
    assert violations[21:] == ["... and 2999979 more unowned messages"]
