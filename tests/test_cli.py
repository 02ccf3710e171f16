"""Command-line behavior: output text, json mode, exit codes."""

from __future__ import annotations

import json

import pytest

from uniprior import WorkGraph
from uniprior.cli import main

EX2 = {"n": 5, "q": [1, 2, 2, 2, 2],
       "arcs": [[2, 1], [3, 1], [1, 2], [3, 2], [1, 3], [2, 3], [4, 5]],
       "senders": [[1, 2, 3, 4, 5]]}
GAP = {"n": 6, "q": [1, 1, 1, 1, 1, 1],
      "arcs": [[1, 2], [2, 1], [3, 4], [4, 3], [5, 6], [6, 5]],
      "senders": [[1, 3, 5], [2, 3, 5], [2, 4, 5], [2, 4, 6]]}
SPLIT = {"n": 4, "q": [1, 1, 1, 1],
      "arcs": [[1, 3], [4, 2], [1, 2], [2, 1], [3, 4], [4, 3]],
      "senders": [[1, 2], [3, 4]]}
D1 = {"n": 3, "q": [1, 1, 1],
      "arcs": [[1, 2], [2, 1], [3, 1]],
      "senders": [[1, 3], [2, 3]]}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, doc in (("ex2", EX2), ("gap", GAP), ("split", SPLIT), ("d1", D1)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


def test_validate_ok(files, capsys):
    status, out, _ = run(capsys, "validate", files["ex2"])
    assert status == 0
    assert out.strip() == "VALID: n=5, 7 arcs, 1 sender(s)"


def test_validate_rejects_bad_instance(files, capsys):
    p = files["dir"] / "bad.json"
    p.write_text(json.dumps(dict(EX2, q=[1, 2, 2, 2, 0])))
    status, out, _ = run(capsys, "validate", str(p))
    assert status == 1
    assert "INVALID" in out


def test_missing_file(files, capsys):
    status, _, err = run(capsys, "solve", str(files["dir"] / "nope.json"))
    assert status == 1
    assert "error:" in err


def test_usage_error_maps_to_invalid(files, capsys):
    assert run(capsys, "frobnicate", files["ex2"])[0] == 1
    assert run(capsys, "solve")[0] == 1
    assert run(capsys, "--help")[0] == 0


def test_solve_text(files, capsys):
    status, out, _ = run(capsys, "solve", files["ex2"])
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "optimal codelength = 9 - 2 - 1 = 6"
    assert lines[1] == "code (6 symbols):"
    assert lines[2] == "  1. x1[1]^x2[1]  (sender 1)"
    assert lines[3] == "  2. x2[1]^x3[1]  (sender 1)"
    assert lines[4:8] == ["  3. x2[2]  (sender 1)", "  4. x3[2]  (sender 1)",
                          "  5. x4[1]  (sender 1)", "  6. x4[2]  (sender 1)"]
    assert lines[8] == "prune: leaf SCC [1, 2, 3], vertex 1, removed [[1, 2], [1, 3]]"


def test_solve_rejects_multi_sender(files, capsys):
    status, _, err = run(capsys, "solve", files["d1"])
    assert status == 1
    assert "bound" in err  # points at the right command


def test_bound_text(files, capsys):
    status, out, _ = run(capsys, "bound", files["gap"])
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "lower = V_out - (connected + I) = 6 - (0 + 2) = 4"
    assert lines[1] == "upper = V_out - (connected + trees) = 6 - (0 + 1) = 5"
    assert lines[2] == "tight = no"
    assert lines[3] == "code (5 symbols):"


def test_bound_exhaustive_flag(files, capsys):
    status, out, _ = run(capsys, "bound", files["gap"], "--exhaustive")
    assert status == 0
    assert "exhaustive lower = 4 (complete, 163 states)" in out


def test_bound_tight_reason(files, capsys):
    status, out, _ = run(capsys, "bound", files["split"])
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "lower = V_out - (connected + I) = 4 - (0 + 0) = 4"
    assert lines[1] == "upper = V_out - (connected + trees) = 4 - (0 + 0) = 4"
    assert lines[2] == "tight = yes (DisjointSenders)"


def test_bound_truncated_is_partial(files, capsys):
    status, out, _ = run(capsys, "bound", files["gap"], "--exhaustive",
                         "--max-states", "1")
    assert status == 3
    assert "partial" in out


def test_tight_bound_past_the_exact_tree_limit_is_complete(files, capsys):
    # five triples i <-> j, k -> i under senders {i, k}, {j, k}: n = 15
    # is past EXACT_LIMIT, so the trees are packed greedily, but lower ==
    # upper proves the packing maximum (one more tree would give a code
    # shorter than the lower bound)
    arcs, senders = [], []
    for i in range(1, 15, 3):
        arcs += [[i, i + 1], [i + 1, i], [i + 2, i]]
        senders += [[i, i + 2], [i + 1, i + 2]]
    p = files["dir"] / "triples.json"
    p.write_text(json.dumps({"n": 15, "q": [1] * 15, "arcs": arcs, "senders": senders}))
    status, out, _ = run(capsys, "bound", str(p), "--format", "json")
    doc = json.loads(out)
    assert status == 0
    assert (doc["lower"], doc["upper"], doc["tight"], len(doc["trees"])) == (10, 10, True, 5)
    assert doc["trees_exact"] is True and doc["partial"] is False


def test_max_states_needs_exhaustive(files, capsys):
    status, out, err = run(capsys, "bound", files["gap"], "--max-states", "5")
    assert (status, out) == (1, "")
    assert err == "error: --max-states needs --exhaustive\n"
    assert run(capsys, "bound", files["gap"], "--exhaustive", "--max-states", "0")[0] == 1


def test_encode_verify_round_trip(files, capsys):
    code_path = str(files["dir"] / "out.code.json")
    status, out, _ = run(capsys, "encode", files["gap"], "-o", code_path)
    assert status == 0
    assert "5 symbols" in out
    status, out, _ = run(capsys, "verify", files["gap"], code_path)
    assert status == 0
    assert out.strip() == "VALID: every receiver decodes all wanted bits"


def test_single_sender_commands_build_one_work_graph(files, capsys, monkeypatch):
    builds = []
    build = WorkGraph.__init__

    def counted(self, *args, **kwargs):
        builds.append(1)
        build(self, *args, **kwargs)

    monkeypatch.setattr(WorkGraph, "__init__", counted)
    code_path = str(files["dir"] / "ex2.code.json")
    for argv in (["solve", files["ex2"]], ["solve", files["ex2"], "--format", "json"],
                 ["encode", files["ex2"], "-o", code_path]):
        builds.clear()
        assert run(capsys, *argv)[0] == 0
        assert len(builds) == 1, argv


def test_verify_invalid_code_exits_2(files, capsys):
    # drop the first symbol of the pairwise code
    code_path = str(files["dir"] / "broken.code.json")
    run(capsys, "encode", files["gap"], "-o", code_path)
    doc = json.loads((files["dir"] / "broken.code.json").read_text())
    (files["dir"] / "broken.code.json").write_text(json.dumps(doc[1:]))
    status, out, _ = run(capsys, "verify", files["gap"], code_path)
    assert status == 2
    assert out.splitlines()[0] == "INVALID: receiver 1 cannot decode x2[1]"


def test_verify_malformed_code_exits_1(files, capsys):
    code_path = files["dir"] / "bad.code.json"
    code_path.write_text(json.dumps([{"sender": 9, "terms": [[1, 1]]}]))
    status, _, err = run(capsys, "verify", files["gap"], str(code_path))
    assert status == 1
    assert "malformed" in err


@pytest.mark.parametrize("argv", [
    ("validate",), ("solve",), ("bound",), ("bound", "--exhaustive"), ("trace",),
    ("encode", "-o", "out"), ("verify", "good"), ("oracle",),
])
def test_deeply_nested_instance_exits_1(files, capsys, argv):
    nested = files["dir"] / "nested.json"
    nested.write_text("[" * 200_000)
    extra = {"good": files["ex2"], "out": str(files["dir"] / "out.json")}
    argv = [extra.get(a, a) for a in argv]
    status, out, err = run(capsys, argv[0], str(nested), *argv[1:])
    assert status == 1
    assert "nested too deeply" in out + err and "Traceback" not in err


def test_deeply_nested_code_exits_1(files, capsys):
    nested = files["dir"] / "nested.code.json"
    nested.write_text("[" * 200_000)
    status, _, err = run(capsys, "verify", files["ex2"], str(nested))
    assert status == 1
    assert "nested too deeply" in err and "Traceback" not in err


def test_oracle_labels(files, capsys):
    status, out, _ = run(capsys, "oracle", files["d1"])
    assert status == 0
    assert out.splitlines()[0] == "linear optimum = 2"

    p = files["dir"] / "ex1.json"
    p.write_text(json.dumps({
        "n": 4, "q": [1, 1, 1, 1],
        "arcs": [[4, 1], [3, 2], [1, 3], [2, 3], [1, 4], [2, 4]],
        "senders": [[1, 2, 3, 4]]}))
    status, out, _ = run(capsys, "oracle", str(p))
    assert status == 0
    assert out.splitlines()[0] == "optimum = 3"


def test_oracle_caps(files, capsys):
    status, _, err = run(capsys, "oracle", files["ex2"], "--max-bits", "8")
    assert status == 3

    status, out, _ = run(capsys, "oracle", files["d1"], "--max-len", "1")
    assert status == 3
    assert "upper bound only" in out

    status, out, _ = run(capsys, "oracle", files["d1"], "--max-nodes", "2")
    assert status == 3
    assert "upper bound only" in out and "max_nodes" in out

    for cap in ("--max-bits", "--max-nodes"):
        status, _, err = run(capsys, "oracle", files["d1"], cap, "0")
        assert status == 1
        assert "positive" in err


def test_trace_text(files, capsys):
    status, out, _ = run(capsys, "trace", files["gap"])
    assert status == 0
    assert out.splitlines() == [
        "1. [iteration] PruneNonDegenerated on [1, 2], vertex 1",
        "2. [iteration] AppendDegenerated on [3, 4], arc 3->5",
        "3. [iteration] AppendDegenerated on [5, 6], arc 5->3",
        "4. [iteration] PruneConnected on [3, 4, 5, 6], vertex 3",
        "lower = V_out - (connected + I) = 6 - (0 + 2) = 4",
    ]


def test_json_solve_fields(files, capsys):
    status, out, _ = run(capsys, "--format", "json", "solve", files["ex2"])
    assert status == 0
    doc = json.loads(out)
    assert doc["command"] == "solve"
    assert doc["optimal_length"] == 6
    assert doc["arithmetic"] == {"total": 9, "leaf_weight": 2, "scc_min_sum": 1}
    assert [s["terms"] for s in doc["code"]["symbols"]][0] == [[1, 1], [2, 1]]
    assert doc["trace"]["steps"][0]["vertex"] == 1


def test_json_flag_position_is_flexible(files, capsys):
    a = run(capsys, "--format", "json", "bound", files["gap"])
    b = run(capsys, "bound", files["gap"], "--format", "json")
    assert a == b
    doc = json.loads(a[1])
    assert (doc["lower"], doc["upper"]) == (4, 5)
    assert doc["tight"] is False
    assert doc["lower_report"]["steps"][0]["kind"] == "PruneNonDegenerated"


def test_json_output_is_byte_stable(files, capsys):
    runs = [run(capsys, "--format", "json", "bound", files["gap"],
                "--exhaustive") for _ in range(2)]
    assert runs[0] == runs[1]


def test_json_round_trips_into_report_values(files, capsys):
    from uniprior import bound_multi, load_instance

    _, out, _ = run(capsys, "--format", "json", "bound", files["split"])
    doc = json.loads(out)
    rep = bound_multi(load_instance(files["split"]))
    assert doc["lower"] == rep.lower
    assert doc["upper"] == rep.upper
    assert doc["tight_reason"] == rep.tight_reason.value
    assert doc["trees"] == []
    got = [(s["kind"], s["scc"]) for s in doc["lower_report"]["steps"]]
    want = [(s.kind.value, sorted(s.scc)) for s in rep.lower_report.steps]
    assert got == want


def test_reused_parser_matches_fresh_parsers(files, capsys, monkeypatch):
    import uniprior.cli as cli

    code_path = str(files["dir"] / "reuse.code.json")
    calls = [
        ("--format", "json", "bound", files["gap"]),
        ("bound", files["gap"], "--format", "json", "--exhaustive"),
        ("solve", files["ex2"]),
        ("--format", "json", "validate", files["d1"]),
        ("encode", files["gap"], "-o", code_path, "--format", "json"),
        ("verify", files["gap"], code_path),
        ("--format", "json", "trace", files["split"]),
        ("oracle", files["d1"], "--max-bits", "0"),
        ("frobnicate", files["ex2"]),
        ("--help",),
        ("solve", "--help"),
        ("--format", "text", "oracle", files["d1"], "--format", "json"),
    ]
    reused = [run(capsys, *argv) for argv in calls]
    parser = cli._parser
    assert parser is not None
    assert [run(capsys, *argv) for argv in calls] == reused
    assert cli._parser is parser
    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "_parser", None)
        fresh.append(run(capsys, *argv))
    assert fresh == reused
    assert [status for status, _, _ in reused] == [0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0]
