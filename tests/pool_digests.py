"""One sha256 per benchmark pool over the first-pass CLI output.

For each workload of ``perfbench/workloads.py`` and seeds 1-3, the pool
of ``make_pool(workload, seed)`` is written to a temporary directory and
each job's commands run once, in order, through
``uniprior.cli.main([..., "--format", "json"])``.  After ``encode`` the
code minus its last symbol is written as the job's short code, as the
benchmark does.  The digest covers each command's exit code, its stdout
with the directory masked, and each code file ``encode`` writes.  Each
output line is ``workload seed commands sha256``.

A change that must leave the output bytes alone prints the same lines
before and after; to take the lines of another checkout, copy this file
into its ``tests/`` and run it there.  The lines must not depend on the
hash seed either:

    PYTHONHASHSEED=0 python3 tests/pool_digests.py

The script needs only the standard library.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

from uniprior import cli  # noqa: E402

from workloads import WORKLOADS, make_pool, write_pool  # noqa: E402

SEEDS = (1, 2, 3)


def pool_digest(workload: str, seed: int) -> tuple[int, str]:
    """(commands run, sha256) of one pool's first pass."""
    h = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        for job, paths in write_pool(make_pool(workload, seed), Path(tmp)):
            for command in job.commands:
                argv = [arg.format(**paths) for arg in command]
                out = io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    status = cli.main([*argv, "--format", "json"])
                h.update(f"{status}\n{out.getvalue().replace(tmp, '<dir>')}\n".encode())
                count += 1
                if argv[0] == "encode":
                    code = Path(paths["code"]).read_text()
                    h.update(code.encode())
                    Path(paths["short"]).write_text(json.dumps(json.loads(code)[:-1]))
    return count, h.hexdigest()


def main() -> None:
    for workload in WORKLOADS:
        for seed in SEEDS:
            count, sha = pool_digest(workload, seed)
            print(workload, seed, count, sha, flush=True)


if __name__ == "__main__":
    main()
