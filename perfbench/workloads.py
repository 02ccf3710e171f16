"""Seeded instance pools for the benchmark workloads.

Every workload is a pool of synthetic instances drawn from one seed; no
real user traces exist.  The families follow the paper's constructions
(cyclic clusters, connecting-tree triples, single-sender weighted
graphs) and the shapes behind the ROADMAP baseline.  Instance sizes are
spread evenly over each workload's range by position in the pool, so
the seed changes structure but not the size mix; that keeps medians
comparable between seeds.

Sizes are smaller than the ROADMAP baseline shapes, so that one 36 s
run covers hundreds of pipelines: with fewer, or with a wider size
range, the pool a seed draws moves the figures more than a regression
would.  Pool sizes trade that against repeats: each instance runs two
to five times in a 36 s run, so that its median time is not a single
timing, and the highest percentile with ten instances beyond it (p90
or p95) rests on 10-30 of them.  Two
ROADMAP baseline rows are left out on purpose: Algorithm 2 at n=300
(105 s) and ``verify`` at n=1000 (96 s).  One such instance alone would
outlast a whole run.

The instance helpers come from ``tests/generators.py``, which this
module imports without editing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from generators import make_instance, rand_arcs, rand_senders, rand_triples
from uniprior import Instance, serialize_instance

EXHAUSTIVE_MAX_STATES = 60


@dataclass(frozen=True)
class Job:
    """One instance and the CLI commands that make up its pipeline.

    ``commands`` are argument lists for ``uniprior.cli.main`` without
    ``--format``; ``{inst}``, ``{code}`` and ``{short}`` stand for the
    instance file, the encoded code file and that code minus its last
    symbol.
    """

    name: str
    instance: Instance
    commands: tuple[tuple[str, ...], ...]


def _spread(lo: int, hi: int, index: int, pool_size: int) -> int:
    """Size for pool position ``index``: evenly spaced over [lo, hi]."""
    return lo + (hi - lo + 1) * index // pool_size


def _cyclic_arcs(rng: random.Random, verts, extra: int) -> list[list[int]]:
    """The ``rand_cyclic`` construction on a fixed vertex list: disjoint
    directed 2- and 3-cycles, then ``extra`` random arcs.  A fixed count,
    where ``rand_cyclic`` draws one, narrows the cost spread between
    instances of one size."""
    verts = list(verts)
    rng.shuffle(verts)
    n = len(verts)
    arcs: list[list[int]] = []
    i = 0
    while i < n:
        k = rng.randint(2, min(3, n - i)) if n - i >= 2 else 1
        cyc = verts[i:i + k]
        if len(cyc) >= 2:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                arcs.append([a, b])
        i += k
    seen = {tuple(a) for a in arcs}
    for _ in range(extra):
        a, b = rng.sample(verts, 2)
        if (a, b) not in seen:
            seen.add((a, b))
            arcs.append([a, b])
    return arcs


# --------------------------------------------------------- single-verify

def _single_verify(rng: random.Random, index: int, pool_size: int) -> Job:
    """One sender, n in [36, 52], weighted q in [1, 3], about 3n random arcs.

    Chosen because GF(2) elimination in ``verify_linear`` does nearly
    all the work, and the message-graph and classify layers never run.
    Every fourth instance also verifies its code minus the last symbol,
    which must fail (exit 2): the optimum has no shorter code.
    """
    n = _spread(36, 52, index, pool_size)
    arcs = rand_arcs(rng, n, 3.0 / (n - 1))
    q = [rng.randint(1, 3) for _ in range(n)]
    inst = make_instance(n, arcs, [list(range(1, n + 1))], q)
    commands = [("solve", "{inst}"), ("encode", "{inst}", "-o", "{code}"),
                ("verify", "{inst}", "{code}")]
    if index % 4 == 3:
        commands.append(("verify", "{inst}", "{short}"))
    return Job(f"single-verify-{index}", inst, tuple(commands))


# ----------------------------------------------------------- multi-bound

def _multi_bound(rng: random.Random, index: int, pool_size: int) -> Job:
    """Binary cyclic clusters plus planted connecting-tree triples, n in [24, 36].

    Chosen because message-graph queries, SCC partitions and the witness
    search of Algorithm 2 dominate, with no GF(2) work.  Senders are
    small and overlapping (at most 4-6 messages).  Every fourth instance
    adds one sender owning about 30% of the messages, which multiplies
    the message-graph edge count; those set the tail, the small-sender
    majority sets the median.  ``bound`` exits 3 here because n exceeds
    the exact connecting-tree limit; that is the recorded result.
    """
    n = _spread(24, 36, index, pool_size)
    triples = rand_triples(rng, t_max=3)
    base = n - triples.n
    arcs = _cyclic_arcs(rng, range(1, base + 1), base // 4)
    senders = rand_senders(rng, base, size_max=4 + index % 3, extra=base // 8)
    arcs += [[i + base, j + base] for (i, j) in triples.arcs]
    senders += [[m + base for m in s] for s in triples.senders]
    if index % 4 == 3:
        senders.append(sorted(rng.sample(range(1, n + 1), round(0.3 * n))))
    inst = make_instance(n, arcs, senders)
    return Job(f"multi-bound-{index}", inst, (("bound", "{inst}"),))


# ---------------------------------------------------------- oracle-small

def _oracle_small(rng: random.Random, index: int, pool_size: int) -> Job:
    """Small binary instances for the exact tools: the exhaustive bound
    and the brute-force oracle.

    Chosen because it uses the ``codes`` layer unlike ``single-verify``:
    many tiny bases, snapshots and containment tests instead of a few
    large eliminations, so a GF(2) change that helps one use and costs
    the other shows.  It also carries the exhaustive step search (many
    small SCC partitions, ``WorkGraph`` rebuilds and witness
    enumerations), which a workload of its own could not measure
    steadily: its cost per instance spans orders of magnitude.

    Half the pool is multi-sender with n in [5, 6] and senders of at
    most 3, and a quarter single-sender with n in [4, 5]; both run
    ``bound --exhaustive`` and then ``oracle``, whose length the bounds
    must sandwich.  The last quarter is cyclic clusters with n in
    [10, 12], too large for the oracle, where the exhaustive search
    visits up to the state cap and exits 3 when it reaches it.  The cap
    is low because the memory these searches hold grows with it: at 150
    states the process peak was set by the seed's single heaviest
    search, and moved by 12% between seeds (3% at 60).  The
    oracle's cost grows steeply with the optimal length: at n = 7 one
    instance takes from 5 to 260 ms, and the pool a seed draws moved
    the median by 15%, so n stops at 6.
    """
    exhaustive = ("bound", "{inst}", "--exhaustive", "--max-states", str(EXHAUSTIVE_MAX_STATES))
    if index % 4 == 2:
        n = _spread(10, 12, index // 4, pool_size // 4)
        arcs = _cyclic_arcs(rng, range(1, n + 1), n // 4)
        inst = make_instance(n, arcs, rand_senders(rng, n, size_max=3))
        return Job(f"oracle-small-{index}", inst, (exhaustive,))
    # arc density stratified over [0.15, 0.55]
    density = 0.15 + 0.05 * (index // 4 % 8 + 0.5)
    if index % 4 == 3:
        n = _spread(4, 5, index // 4, pool_size // 4)
        inst = make_instance(n, rand_arcs(rng, n, density), [list(range(1, n + 1))])
    else:
        n = _spread(5, 6, index, pool_size)
        inst = make_instance(n, rand_arcs(rng, n, density), rand_senders(rng, n, size_max=3))
    return Job(f"oracle-small-{index}", inst, (exhaustive, ("oracle", "{inst}")))


# name: (instance maker, pool size)
WORKLOADS = {
    "single-verify": (_single_verify, 100),
    "multi-bound": (_multi_bound, 500),
    "oracle-small": (_oracle_small, 600),
}


def make_pool(workload: str, seed: int) -> list[Job]:
    """The workload's jobs for this seed, in the order they run."""
    make, pool_size = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    jobs = [make(rng, k, pool_size) for k in range(pool_size)]
    # interleave sizes and families so a run cut mid-pass is a fair sample
    rng.shuffle(jobs)
    return jobs


def write_pool(jobs: list[Job], work_dir: Path) -> list[tuple[Job, dict[str, str]]]:
    """Write each instance file; return the jobs with their file names."""
    out = []
    for job in jobs:
        paths = {key: str(work_dir / f"{job.name}.{key}.json")
                 for key in ("inst", "code", "short")}
        Path(paths["inst"]).write_text(serialize_instance(job.instance))
        out.append((job, paths))
    return out
