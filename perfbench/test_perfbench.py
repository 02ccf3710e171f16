"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (puts src/ and tests/ on the path)
from tracer import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, make_pool, write_pool  # noqa: E402

import uniprior.cli  # noqa: E402
import uniprior.codes  # noqa: E402
from uniprior import serialize_instance  # noqa: E402


def _fingerprint(jobs):
    return [(j.name, serialize_instance(j.instance), j.commands) for j in jobs]


def test_generator_is_deterministic_per_seed():
    for workload in WORKLOADS:
        assert _fingerprint(make_pool(workload, 7)) == _fingerprint(make_pool(workload, 7))
        assert _fingerprint(make_pool(workload, 7)) != _fingerprint(make_pool(workload, 8))


def _small_bench(tmp_path, workload="single-verify", count=4):
    return run.Bench(write_pool(make_pool(workload, 3)[:count], tmp_path))


def test_tampered_digest_counts_as_failed(tmp_path):
    bench = _small_bench(tmp_path)
    first = run.Tally()
    bench.run_pass(run.cli.main, first)
    assert first.failed == 0 and bench.problems == []

    clean = run.Tally()
    bench.run_pass(run.cli.main, clean)
    assert clean.failed == 0

    key = next(iter(bench.expected))
    status, _ = bench.expected[key]
    bench.expected[key] = (status, "0" * 64)
    tampered = run.Tally()
    bench.run_pass(run.cli.main, tampered)
    assert tampered.failed / tampered.attempted > 0


def test_span_self_times_are_consistent(tmp_path):
    bench = _small_bench(tmp_path, "multi-bound", count=3)
    bench.run_pass(run.cli.main, run.Tally())
    tracer = Tracer()
    root = tracer.wrap("cli.main", run.cli.main)
    original = uniprior.codes.verify_linear
    with tracer:
        assert uniprior.cli.verify_linear is not original
        bench.run_pass(root, run.Tally(), tracer=tracer)
    assert uniprior.cli.verify_linear is original

    spans = tracer.spans
    assert spans and tracer.dropped == 0
    assert all(rec[2] >= rec[1] for rec in spans)
    selfs = self_times(spans)
    assert min(selfs) >= 0
    children: dict[int, int] = {}
    for rec in spans:
        if rec[3] >= 0:
            children[rec[3]] = children.get(rec[3], 0) + rec[2] - rec[1]
            parent = spans[rec[3]]
            assert parent[1] <= rec[1] and rec[2] <= parent[2]
    for idx, child_ns in children.items():
        assert child_ns <= spans[idx][2] - spans[idx][1]
    # the per-name totals agree with the span records
    for name in tracer.names:
        nid = tracer.names.index(name)
        assert tracer.self_ns[nid] == sum(s for s, rec in zip(selfs, spans) if rec[0] == nid)
    assert tracer.stats("instance.neighbors")[0] > 0


def test_traced_run_reports_the_declared_per_layer_metrics(tmp_path):
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    bench = _small_bench(tmp_path, "oracle-small", count=2)
    metrics, _, _ = run.per_layer(bench, 0.3, tmp_path / "spans.jsonl.gz")
    assert sorted(metrics) == sorted(m["name"] for m in declared)
    assert metrics["multi.exhaustive_self_s"][0] > 0


def test_untraced_run_reports_the_declared_end_to_end_metrics(tmp_path):
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    bench = _small_bench(tmp_path, "single-verify", count=2)
    metrics, details, _ = run.end_to_end(bench, 0.3)
    assert {k: u for k, (_, u) in metrics.items()} == {m["name"]: m["unit"] for m in declared}
    assert all(value > 0 for value, _ in metrics.values())
    assert len(details["setup_starts_s"]) == run.SETUP_STARTS
