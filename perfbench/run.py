"""uniprior benchmark: seeded instance pools driven through the real CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload multi-bound --seed 1 --seconds 36 --trace 0

One client, one thread, closed loop: each instance's pipeline of
``uniprior.cli.main([..., "--format", "json"])`` calls starts when the
previous one returns.  Set-up writes the seed's instance files to a
scratch directory in the checkout.  The first pass over the pool is
always whole; it records each command's exit code and the sha256 of its
JSON output, and every later run of the command is compared with that
record (a mismatch or a crash counts as failed).  Each first output is
checked when it is recorded, outside the timed calls: every emitted code
decodes under ``verify_linear``, lower <= upper, the code length equals
the upper bound or the optimum, solve and encode emit the same code, a
truncated optimal code fails to verify, and on ``oracle-small`` bound
lower <= oracle <= bound upper.

``--trace 0`` reports the end-to-end metrics.  Pipeline times are given
in "ref": each is divided by the time of the fixed reference kernel of
``reference.py``, which runs right after every pipeline, because the
host's speed swings too much for seconds to compare between runs.  The
figures in seconds are in the details line.  ``--trace 1`` runs an
untraced first pass, then traced passes, and reports per-layer metrics
from ``tracer.py``: times and counts are means per traced instance
pipeline.  The second-to-last output line is a JSON record of the
environment and the details behind the metrics; the last line is the
result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(Path(__file__).resolve().parent)]

from uniprior import cli  # noqa: E402
from uniprior.codes import CodeSymbol, LinearIndexCode, verify_linear  # noqa: E402

from reference import reference_kernel  # noqa: E402
from tracer import CLI_MAIN, TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS, make_pool, write_pool  # noqa: E402

SETUP_STARTS = 15
TAIL_BEYOND = 10
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

# Per-layer metrics, with the end-to-end metric each should move:
# - instance (message graph, parsing): instance_p50_ref and instance_tail_ref
#   on multi-bound, the tail through its big-sender quarter; nothing on
#   single-verify.  parse and validate are small everywhere.
# - graph: instances_per_ref on oracle-small (exhaustive search) and
#   multi-bound; predecessors moves instance_p50_ref on multi-bound through
#   the witness search.  Negligible on single-verify.
# - classify: instance_p50_ref on multi-bound.
# - multi: algorithm2 on multi-bound, exhaustive on oracle-small, trees
#   and encode on both.
# - single: solve on single-verify, expected small.
# - codes: verify on single-verify, oracle on oracle-small; the GF(2)
#   basis figures move on both and must be read on both.
# - cli.self_s: argparse, file I/O and JSON output, on every workload.
# The metrics of each traced span are declared with it, in tracer.TARGETS.
# Counts taken from returned results, reported as means per pipeline:
PER_LAYER_COUNTS = ("multi.algorithm2_steps", "multi.exhaustive_states",
                    "multi.exhaustive_partial")


# ------------------------------------------------------------- commands

def run_cli(main, argv: list[str]) -> tuple[int, str]:
    """Exit code and JSON stdout of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = main([*argv, "--format", "json"])
    return status, out.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def expand(command: tuple[str, ...], paths: dict[str, str]) -> list[str]:
    return [arg.format(**paths) for arg in command]


def _code_from_json(doc: dict) -> LinearIndexCode:
    return LinearIndexCode(tuple(
        CodeSymbol(sender=s["sender"], terms=tuple(tuple(t) for t in s["terms"]))
        for s in doc["symbols"]))


def _check(job, argv: list[str], status: int, doc: dict) -> list[str]:
    """Result checks run once per command at recording time."""
    problems = []

    def need(ok: bool, what: str) -> None:
        if not ok:
            problems.append(f"{job.name} {argv[0]}: {what}")

    kind = doc.get("command")
    if "code" in doc and kind not in ("solve", "encode"):
        # solve's code is compared with encode's, which verify checks
        code = _code_from_json(doc["code"])
        need(verify_linear(job.instance, code).valid, "emitted code does not decode")
    if kind == "solve":
        need(status == 0, f"exit {status}")
        need(len(doc["code"]["symbols"]) == doc["optimal_length"], "code length != optimum")
    elif kind == "encode":
        need(status == 0, f"exit {status}")
    elif kind == "verify":
        short = argv[2].endswith(".short.json")
        need(status == (2 if short else 0), f"exit {status}")
        need(doc["valid"] is not short, "unexpected verify verdict")
        need(bool(doc["failures"]) is short, "unexpected failure list")
    elif kind == "bound":
        need(status == (3 if doc["partial"] else 0), f"exit {status}")
        need(doc["lower"] <= doc["upper"], "lower > upper")
        need(len(doc["code"]["symbols"]) == doc["upper"], "code length != upper")
    elif kind == "oracle":
        need(status == 0 and doc["exact"], f"exit {status}")
    else:
        problems.append(f"{job.name}: unexpected output {kind!r}")
    return problems


def _cross_check(name: str, docs: dict[str, dict]) -> list[str]:
    """Checks across the commands of one job: solve and encode emit the
    same code, and bound lower <= oracle length <= bound upper."""
    problems = []
    if {"solve", "encode"} <= docs.keys():
        if docs["solve"]["code"] != docs["encode"]["code"]:
            problems.append(f"{name}: solve and encode emit different codes")
    if {"bound", "oracle"} <= docs.keys():
        lower, upper = docs["bound"]["lower"], docs["bound"]["upper"]
        length = docs["oracle"]["length"]
        if not lower <= length <= upper:
            problems.append(f"{name}: sandwich {lower} <= {length} <= {upper} fails")
    return problems


class Bench:
    """One run's jobs, the recorded result of each command, and the
    problems the checks found when the results were recorded."""

    def __init__(self, pairs):
        self.pairs = pairs
        self.expected: dict[tuple[str, int], tuple[int, str]] = {}
        self.problems: list[str] = []

    def run_job(self, main, job, paths) -> tuple[float, int]:
        """Run one pipeline: its CLI time and the number of failed commands.

        The first run of a command records its exit code and output
        digest and checks the output, outside the timed calls; every
        later run is compared with that record."""
        seconds = 0.0
        failed = 0
        docs: dict[str, dict] = {}
        for k, command in enumerate(job.commands):
            argv = expand(command, paths)
            t0 = time.perf_counter()
            try:
                status, out = run_cli(main, argv)
            except Exception:  # a crash is a failed command, not a failed run
                seconds += time.perf_counter() - t0
                failed += 1
                continue
            seconds += time.perf_counter() - t0
            key = (job.name, k)
            if key not in self.expected:
                self.expected[key] = (status, digest(out))
                self._record(job, argv, status, out, paths, docs)
            elif (status, digest(out)) != self.expected[key]:
                failed += 1
        if docs:
            self.problems += _cross_check(job.name, docs)
        return seconds, failed

    def _record(self, job, argv, status, out, paths, docs) -> None:
        """Check a command's first output; keep its document for the
        job's cross-checks and, after encode, write the truncated code."""
        try:
            doc = json.loads(out)
            self.problems += _check(job, argv, status, doc)
        except (ValueError, KeyError, TypeError) as e:
            self.problems.append(f"{job.name} {argv[0]}: unreadable output ({e!r})")
            return
        docs[argv[0]] = doc
        if argv[0] == "encode":
            symbols = json.loads(Path(paths["code"]).read_text())
            Path(paths["short"]).write_text(json.dumps(symbols[:-1]))

    def run_pass(self, main, tally, deadline=None, tracer=None, after=None) -> bool:
        """Run the pool once in order, calling ``after(job, seconds,
        failed)`` after each pipeline; False if the deadline cut the pass
        short."""
        for idx, (job, paths) in enumerate(self.pairs):
            if deadline is not None and time.perf_counter() >= deadline:
                return False
            if tracer is not None:
                tracer.instance = idx
            seconds, failed = self.run_job(main, job, paths)
            tally.add(job, seconds, failed)
            if after is not None:
                after(job, seconds, failed)
        return True


class Tally:
    """Per-instance pipeline times and command outcomes."""

    def __init__(self):
        self.times: dict[str, list[float]] = {}
        self.runs = 0
        self.attempted = 0
        self.failed = 0
        self.completed = 0
        self.elapsed = 0.0

    def add(self, job, seconds: float, failed: int) -> None:
        self.runs += 1
        self.attempted += len(job.commands)
        self.failed += failed
        self.elapsed += seconds
        if not failed:
            self.completed += 1
            self.times.setdefault(job.name, []).append(seconds)


# ---------------------------------------------------------- measurement

def tail(values: list[float]) -> tuple[float, float]:
    """The highest of TAIL_PERCENTILES with at least TAIL_BEYOND values
    above it: (value, percentile)."""
    ordered = sorted(values)
    for pct in TAIL_PERCENTILES:
        k = math.ceil(pct / 100 * len(ordered)) - 1
        if len(ordered) - 1 - k >= TAIL_BEYOND:
            return ordered[k], pct
    return ordered[len(ordered) // 2], 50.0


def setup_start() -> float:
    """Wall time of one fresh interpreter that imports uniprior.cli."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import uniprior.cli"], env=env,
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict, list]:
    """Whole first pass, then passes until the deadline.  The reference
    kernel runs after every pipeline, whose time in ref is its time over
    the kernel's; one of the SETUP_STARTS set-up starts runs every
    seconds / SETUP_STARTS, so that they sample the host over the whole
    run, as the pipelines do."""
    tally = Tally()
    ref: list[float] = []
    in_ref: dict[str, list[float]] = {}
    setup: list[float] = []
    next_start = time.perf_counter()
    deadline = next_start + seconds

    def between(job, seconds_run: float, failed: int) -> None:
        nonlocal next_start
        t0 = time.perf_counter()
        reference_kernel()
        ref.append(time.perf_counter() - t0)
        if not failed:
            in_ref.setdefault(job.name, []).append(seconds_run / ref[-1])
        if len(setup) < SETUP_STARTS and t0 >= next_start:
            setup.append(setup_start())
            next_start += seconds / SETUP_STARTS

    bench.run_pass(cli.main, tally, after=between)
    passes = 1
    while bench.run_pass(cli.main, tally, deadline=deadline, after=between):
        passes += 1
    while len(setup) < SETUP_STARTS:
        setup.append(setup_start())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    medians = [statistics.median(ts) for ts in in_ref.values()]
    tail_ref, tail_pct = tail(medians)
    medians_s = [statistics.median(ts) for ts in tally.times.values()]
    metrics = {
        "instances_per_ref": (tally.completed / sum(map(sum, in_ref.values())), "1/ref"),
        "instance_p50_ref": (statistics.median(medians), "ref"),
        "instance_tail_ref": (tail_ref, "ref"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    details = {"full_passes": passes, "samples": tally.completed,
               "instances": len(medians), "tail_percentile": tail_pct,
               "time_basis": "per-instance medians of pipeline time over the "
                             "time of the reference kernel run after it",
               "ref_ms_mean": 1e3 * statistics.fmean(ref),
               "instances_per_s": tally.completed / tally.elapsed,
               "instance_p50_ms": 1e3 * statistics.median(medians_s),
               "instance_tail_ms": 1e3 * tail(medians_s)[0],
               "setup_starts_s": setup}
    return metrics, details, [tally]


def per_layer(bench: Bench, seconds: float, spans_path: Path) -> tuple[dict, dict, list]:
    """An untraced first pass, then traced passes until the deadline (and
    for at least a third of the run); per-layer figures are means per
    traced pipeline."""
    plain, traced = Tally(), Tally()
    tracer = Tracer()
    root = tracer.wrap(CLI_MAIN.span, cli.main)
    deadline = time.perf_counter() + seconds
    bench.run_pass(cli.main, plain)
    deadline = max(deadline, time.perf_counter() + seconds / 3)
    with tracer:
        while bench.run_pass(root, traced, deadline=deadline, tracer=tracer):
            pass
    tracer.write_spans(spans_path)

    n = traced.runs
    metrics: dict[str, tuple[float, str]] = {}
    for t in (CLI_MAIN, *TARGETS):
        calls, total, self_s = tracer.stats(t.span)
        metrics[t.time_metric] = ((total if t.time_kind == "total" else self_s) / n, "s")
        if t.calls_metric:
            metrics[t.calls_metric] = (calls / n, "count")
    for metric in PER_LAYER_COUNTS:
        metrics[metric] = (tracer.counts[metric] / n, "count")

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    metrics["instance.message_graph_edges"] = (ratio(
        tracer.counts["instance.message_graph_edges"],
        tracer.counts["instance.message_graphs"]), "count")
    metrics["classify.witness_found_ratio"] = (ratio(
        tracer.counts["classify.witness_found"],
        tracer.stats("classify.witness_search")[0]), "ratio")
    metrics["codes.gf2_independent_ratio"] = (ratio(
        tracer.counts["codes.gf2_independent"], tracer.stats("codes.gf2_add")[0]), "ratio")
    # traced time over untraced time of the same pipelines
    both = [job for job in traced.times if job in plain.times]
    metrics["trace.overhead_ratio"] = (
        sum(sum(traced.times[j]) for j in both)
        / sum(len(traced.times[j]) * statistics.median(plain.times[j]) for j in both), "ratio")
    metrics["trace.layer_share"] = (1.0 - tracer.stats(CLI_MAIN.span)[2] / traced.elapsed,
                                    "ratio")
    details = {"untraced_pipelines": plain.runs, "traced_pipelines": n,
               "spans_kept": len(tracer.spans), "spans_dropped": tracer.dropped,
               "spans_file": str(spans_path)}
    return metrics, details, [plain, traced]


# ----------------------------------------------------------------- main

def environment(args) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "git_commit": commit,
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace,
            "client": "single process, one thread, closed loop"}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # let the finally clause below remove the scratch files on SIGTERM
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    work_dir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        bench = Bench(write_pool(make_pool(args.workload, args.seed), work_dir))
        if args.trace == 0:
            metrics, details, tallies = end_to_end(bench, args.seconds)
        else:
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
            metrics, details, tallies = per_layer(bench, args.seconds, spans)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    details["fail_ratio"] = failed / attempted
    details["check_problems"] = bench.problems
    print(json.dumps({"env": environment(args), "details": details}))
    print(json.dumps({
        "correct": not bench.problems and failed == 0,
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
