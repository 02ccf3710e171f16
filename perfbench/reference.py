"""The reference kernel: a fixed piece of pure-Python work that the
benchmark times between pipelines, as the unit of its end-to-end times.

The host this benchmark was built on gives a few cores of a shared
machine whose speed swings by a third from one second to the next and
drifts by half over minutes, for CPU time as much as for wall time.  A
pipeline time in seconds then says more about the neighbours than about
the program.  Timed right after every pipeline of a run, this kernel
runs in the same spell of the host, and a pipeline time divided by the
kernel's time (a time "in ref") stays put.  A per-pipeline ratio, not
one over the run's mean kernel time: the fast and slow spells take
other shares of the run from one run to the next, and they move the
median of the instances' times otherwise than the mean kernel time.

The kernel does the kinds of work the program does, in about equal
shares: GF(2) elimination on Python ints, depth-first search over a
dict-of-lists graph, argparse parser construction and parsing, and
indented JSON output.  Its inputs are fixed, never drawn from the
workload seed, and the program's code is not called, so a change to
the program cannot move the unit.  It lives in the benchmark's files
and must stay unchanged, or figures before and after stop comparing.
"""

from __future__ import annotations

import argparse
import json
import random

_RNG = random.Random("perfbench reference kernel")
_ROWS = [_RNG.getrandbits(160) for _ in range(120)]
_GRAPH = {v: [_RNG.randrange(150) for _ in range(3)] for v in range(150)}
_DOC = {"symbols": [{"sender": i, "terms": [[j, 1] for j in range(4)]} for i in range(12)]}


def _gf2_rank() -> int:
    basis: dict[int, int] = {}
    for row in _ROWS:
        x = row
        while x:
            h = x.bit_length()
            if h in basis:
                x ^= basis[h]
            else:
                basis[h] = x
                break
    return len(basis)


def _reachable() -> int:
    count = 0
    for start in range(0, 150, 15):
        seen: set[int] = set()
        stack = [start]
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(_GRAPH[v])
        count += len(seen)
    return count


def _cli_round() -> int:
    p = argparse.ArgumentParser(prog="ref")
    sub = p.add_subparsers(dest="command")
    for name in ("a", "b"):
        q = sub.add_parser(name)
        q.add_argument("path")
        q.add_argument("--limit", type=int, default=0)
        q.add_argument("--format", choices=("text", "json"), default="text")
    args = p.parse_args(["a", "x.json", "--limit", "3", "--format", "json"])
    return len(json.dumps(_DOC, indent=2)) + args.limit


def reference_kernel() -> int:
    """One unit of reference work (about 1-2 ms on a 2020s x86 core)."""
    return _gf2_rank() + _reachable() + _cli_round()
