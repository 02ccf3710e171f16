"""Golden CLI corpus: every subcommand's JSON and text output, and the
code files ``encode`` writes, on 210 seeded instances, pinned by one
sha256 per family.

The digests were recorded from the implementation that emitted JSON
through ``json.dumps(..., indent=2, sort_keys=True)``; those of cyclic
and multi again when the exhaustive search learned to stop a state at
its ceiling, which moved only its states, its exactness, ``partial``
and the exit code.  Any change to a
byte of stdout or stderr, an exit code or a written code file moves a
digest.  To find the first call that moved, compare ``_family_lines``
of the two implementations.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

import pytest

from uniprior import serialize_instance
from uniprior.cli import main

from generators import (rand_cyclic, rand_disjoint, rand_multi, rand_single,
                        rand_triples)

# every subcommand, run in both formats; files are named relative to the
# working directory, so no temporary path reaches the output.  short.json
# is the encoded code minus its last symbol.
COMMANDS = (
    ("validate", "inst.json"),
    ("solve", "inst.json"),
    ("bound", "inst.json"),
    ("bound", "inst.json", "--exhaustive", "--max-states", "60"),
    ("trace", "inst.json"),
    ("oracle", "inst.json", "--max-bits", "7"),
    ("encode", "inst.json", "-o", "code.json"),
    ("verify", "inst.json", "code.json"),
    ("verify", "inst.json", "short.json"),
)


def _broken(rng: random.Random) -> dict:
    """A document that parses but fails validation: an unowned message,
    a zero-length message, an out-of-range endpoint or member, a
    self-arc, or no senders."""
    doc = json.loads(serialize_instance(rand_multi(rng, n_max=7)))
    kind = rng.randrange(5)
    if kind == 0:
        doc["senders"] = [[m for m in s if m != 1] for s in doc["senders"]]
    elif kind == 1:
        doc["q"][rng.randrange(doc["n"])] = 0
    elif kind == 2:
        doc["arcs"].append([1, doc["n"] + 2])
        doc["senders"].append([doc["n"] + 1])
    elif kind == 3:
        doc["arcs"].append([2, 2])
    else:
        doc["senders"] = []
    return doc


def _doc(inst) -> dict:
    return json.loads(serialize_instance(inst))


# family: (document generator, count)
FAMILIES = {
    "single": (lambda rng: _doc(rand_single(rng, n_max=6, q_max=2)), 50),
    "multi": (lambda rng: _doc(rand_multi(rng, n_max=7)), 45),
    "cyclic": (lambda rng: _doc(rand_cyclic(rng, n_max=10)), 45),
    "triples": (lambda rng: _doc(rand_triples(rng, t_max=3)), 25),
    "disjoint": (lambda rng: _doc(rand_disjoint(rng, n_max=7)), 25),
    "broken": (_broken, 20),
}

DIGESTS = {
    "broken": "44e663b5d3ce677cc09314e59e1c9ea5a854d63409ef8b73f1ca529615d4ec33",
    "cyclic": "90fcfa3ad9d69ea089b5ced5bb779a26f26117895622a95beac3b541bb79d354",
    "disjoint": "7ed8fe1e9f1e43656b70fbc457c3682998e11cb97ac7d05ca128680c00ea9c8b",
    "multi": "44bb977d3da8ac90e4d25c8a066f77a3912399ffc38712d23606176c65af809a",
    "single": "8f149b5cb8b310b7e88d34c5dea4c1c6f26296e9b41c19fa12e82cc3b81356a8",
    "triples": "8e1278ca9c4a8f2acfd60851695819af5ea0a605b05e6638c9387f671c56f1b7",
}


def _call(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return f"{status}\n{out.getvalue()}\n{err.getvalue()}"


def _family_lines(family: str) -> list[str]:
    """One record per call; run in a scratch working directory."""
    make, count = FAMILIES[family]
    rng = random.Random(f"cli-golden:{family}")
    lines = []
    for _ in range(count):
        Path("inst.json").write_text(json.dumps(make(rng)))
        for name in ("code.json", "short.json"):
            Path(name).unlink(missing_ok=True)
        for command in COMMANDS:
            for fmt in ("json", "text"):
                lines.append(_call([*command, "--format", fmt]))
            if command[0] == "encode" and Path("code.json").exists():
                text = Path("code.json").read_text()
                lines.append(text)
                Path("short.json").write_text(json.dumps(json.loads(text)[:-1]))
    return lines


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_cli_golden_digest(family, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    h = hashlib.sha256()
    for line in _family_lines(family):
        h.update(line.encode() + b"\n")
    assert h.hexdigest() == DIGESTS[family]
