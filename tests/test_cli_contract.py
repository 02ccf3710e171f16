"""CLI contract: any input ends in a result or a documented exit code.

Seeded malformed, adversarial and oversized instance and code documents
go to each subcommand, in process, in both output formats.  Every call
must return an exit code in {0, 1, 2, 3}, raise nothing, write no
traceback, write only text that encodes as strict UTF-8, print one JSON
document (or nothing) under ``--format json``, and return within
``BUDGET_S``.  Files whose bytes are not UTF-8 end in
exit 1 with one ``error:`` line (``validate``: its usual report).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
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

# Python refuses to convert an integer literal past 4 300 digits
LONG_INT = "9" * 5000
LONG_N = HUGE_N.replace("3000000", LONG_INT)
# a field name that decodes to a lone surrogate, which strict UTF-8
# cannot encode
SURROGATE_FIELD = json.dumps(dict(BASE, **{"\ud800": 1}))

JUNK = (True, False, None, "x", "é", 1.5, -1, 0, 10 ** 30, [], {}, [[]], [True], {"é": 1})


def _base(**fields) -> str:
    return json.dumps(dict(BASE, **fields))


def _one_sender(n: int) -> str:
    """n one-bit messages, about 3n seeded random arcs and one sender
    that owns them all: its message graph is a clique of n(n-1)/2 edges."""
    rng = random.Random("contract:one-sender")
    arcs = {(rng.randint(1, n), rng.randint(1, n)) for _ in range(3 * n)}
    return json.dumps({"n": n, "q": [1] * n, "arcs": sorted([i, j] for i, j in arcs if i != j),
                       "senders": [list(range(1, n + 1))]})


def _one_sender_cycle(n: int) -> str:
    """n one-bit messages on the cycle v -> v + 1 (mod n), owned by one
    sender: one message-connected leaf SCC with n prune steps."""
    return json.dumps({"n": n, "q": [1] * n, "arcs": [[v, v % n + 1] for v in range(1, n + 1)],
                       "senders": [list(range(1, n + 1))]})


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
    LONG_N, SURROGATE_FIELD, _one_sender(5000), _one_sender_cycle(5000),
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
    '[{"sender": %s, "terms": [[1, 1]]}]' % LONG_INT,
]


# files written byte for byte: a UTF-16 byte-order mark (which Windows
# PowerShell 5's ``>`` writes) before UTF-8 text, a lone continuation
# byte, and UTF-16 copies of valid documents
NOT_UTF8 = {
    "ff-fe-prefix": lambda doc: b"\xff\xfe" + json.dumps(doc).encode(),
    "lone-0x80": lambda doc: b"\x80",
    "utf-16": lambda doc: json.dumps(doc).encode("utf-16"),
}


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
        # a real UTF-8 stdout or stderr takes only what encodes; StringIO
        # takes anything
        out.encode("utf-8"), err.encode("utf-8")
        assert seconds < BUDGET_S, (argv, seconds)
        if fmt == "json" and out:
            json.loads(out)


def _subcommands(tmp_path) -> list[list[str]]:
    """Every subcommand on tmp_path's inst.json (and code.json)."""
    inst, code, out = (str(tmp_path / name) for name in ("inst.json", "code.json", "out.json"))
    return [["validate", inst], ["solve", inst], ["bound", inst],
            ["bound", inst, "--exhaustive", "--max-states", "50"], ["trace", inst],
            ["oracle", inst], ["encode", inst, "-o", out], ["verify", inst, code]]


@_params(INSTANCE_DOCS, BASE, 40, "contract:instance")
def test_instance_documents_end_in_an_exit_code(tmp_path, text):
    (tmp_path / "inst.json").write_text(text)
    (tmp_path / "code.json").write_text(json.dumps(BASE_CODE))
    for argv in _subcommands(tmp_path):
        _check(argv)


@_params(CODE_DOCS, BASE_CODE, 40, "contract:code")
def test_code_documents_end_in_an_exit_code(tmp_path, text):
    inst, code = tmp_path / "inst.json", tmp_path / "code.json"
    inst.write_text(json.dumps(BASE))
    code.write_text(text)
    _check(["verify", str(inst), str(code)])


def _check_not_utf8(argv: list[str], bad_file: str) -> None:
    """The contract, then exit 1 naming the file and the byte offset: one
    error line, or validate's report."""
    _check(argv)
    for fmt in ("text", "json"):
        status, out, err, _ = _call([*argv, "--format", fmt])
        assert status == 1, (argv, fmt, status)
        if argv[0] != "validate":
            assert out == "" and err.count("\n") == 1, (argv, fmt, out, err)
            assert err.startswith(f"error: {bad_file}: not UTF-8 text at byte offset "), err
        elif fmt == "json":
            doc = json.loads(out)
            assert (doc["ok"], doc["notes"], len(doc["violations"])) == (False, [], 1), doc
            assert doc["violations"][0].startswith("not UTF-8 text at byte offset "), doc
        else:
            assert out.startswith("INVALID: not UTF-8 text at byte offset "), out


@pytest.mark.parametrize("encode", NOT_UTF8.values(), ids=NOT_UTF8.keys())
def test_instance_files_not_in_utf8_end_in_exit_1(tmp_path, encode):
    inst = tmp_path / "inst.json"
    inst.write_bytes(encode(BASE))
    (tmp_path / "code.json").write_text(json.dumps(BASE_CODE))
    for argv in _subcommands(tmp_path):
        _check_not_utf8(argv, str(inst))


@pytest.mark.parametrize("encode", NOT_UTF8.values(), ids=NOT_UTF8.keys())
def test_code_files_not_in_utf8_end_in_exit_1(tmp_path, encode):
    inst, code = tmp_path / "inst.json", tmp_path / "code.json"
    inst.write_text(json.dumps(BASE))
    code.write_bytes(encode(BASE_CODE))
    _check_not_utf8(["verify", str(inst), str(code)], str(code))


def test_not_utf8_error_names_the_byte_offset(tmp_path):
    inst = tmp_path / "inst.json"
    text = json.dumps(dict(BASE, pad="x" * 20_000)).encode()
    inst.write_bytes(text[:12_345] + b"\xff" + text[12_345:])
    status, out, err, _ = _call(["solve", str(inst)])
    assert (status, out) == (1, "")
    assert err == f"error: {inst}: not UTF-8 text at byte offset 12345: invalid start byte\n"


def test_utf8_byte_order_mark_stays_a_parse_error(tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_bytes(b"\xef\xbb\xbf" + json.dumps(BASE).encode())
    for argv in _subcommands(tmp_path):
        status, _, err, _ = _call(argv)
        assert status == 1, argv
    assert "Unexpected UTF-8 BOM" in err


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


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no integer digit limit")
def test_long_integer_literals_are_parse_errors(tmp_path):
    inst, code = tmp_path / "inst.json", tmp_path / "code.json"
    inst.write_text(LONG_N)
    code.write_text(json.dumps(BASE_CODE))
    message = ("integer literal too long: exceeds the limit (4300 digits) for integer "
               "string conversion: value has 5000 digits")
    for argv in _subcommands(tmp_path)[1:]:
        assert _call(argv)[:3] == (1, "", f"error: {inst}: {message}\n"), argv
    assert _call(["validate", str(inst)])[:3] == (1, f"INVALID: {message}\n", "")
    status, out, _, _ = _call(["validate", str(inst), "--format", "json"])
    assert (status, json.loads(out)["violations"]) == (1, [message])
    inst.write_text(json.dumps(BASE))
    code.write_text('[{"sender": %s, "terms": [[1, 1]]}]' % LONG_INT)
    assert _call(["verify", str(inst), str(code)])[:3] == (1, "", f"error: {code}: {message}\n")


def test_surrogate_field_name_is_escaped_in_text(tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text(SURROGATE_FIELD)
    assert _call(["validate", str(inst)])[:3] == (1, "INVALID: unknown field(s): \\ud800\n", "")
    assert _call(["solve", str(inst)])[:3] == (
        1, "", f"error: {inst}: unknown field(s): \\ud800\n")
    # JSON output keeps its own escape of the field name
    status, out, _, _ = _call(["validate", str(inst), "--format", "json"])
    assert (status, json.loads(out)["violations"]) == (1, ["unknown field(s): \ud800"])


def test_multi_sender_commands_need_one_bit_messages(tmp_path):
    inst, out = tmp_path / "inst.json", tmp_path / "out.json"
    inst.write_text(_base(q=[1, 2, 1, 1]))
    for argv in (["bound", str(inst)], ["encode", str(inst), "-o", str(out)],
                 ["trace", str(inst)]):
        for fmt in ("text", "json"):
            assert _call([*argv, "--format", fmt])[:3] == (
                1, "", "error: all messages must be one bit long here\n"), (argv, fmt)
    assert not out.exists()
