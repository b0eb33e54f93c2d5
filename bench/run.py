"""Benchmark of the meanderslice certifier.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in fresh processes
started by this script, which imports nothing from the package itself:

- one measuring process that runs whole rounds of the workload for about
  S seconds and checks the outputs (see worker.py and checks.py);
- five set-up-only processes before it and five after it, each timed from
  its start until its inputs are built and its warm-up is done.  `setup_s`
  is the median of these ten and the measuring process's own set-up.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`.  A
results file tagged with the git sha, the Python and numpy versions and the
CPU count goes to bench/out/; a traced run also writes its spans there.
The inputs are fixed enumerations of coprime pairs, so `--seed` is recorded
but changes nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("verify-sweep", "stabiliser-band", "construct-atlas", "sigmap-large")
SETUP_SAMPLES = 11  # set-up timings per run, the measuring process's included
TIME_LIMIT = 170  # seconds for the whole run
# one thread per workload: numpy's BLAS pools stay at one thread
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def git_sha():
    """HEAD's commit from .git, without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over the package's source files, to tell builds apart where
    there is no git sha."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def spawn(args, deadline):
    """Run worker.py with `args`; returns (its result line, set-up seconds)."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    started = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=ENV, stdout=subprocess.PIPE, timeout=max(1.0, deadline - started)
    )
    if proc.returncode != 0:
        raise RuntimeError("%s exited with %d" % (" ".join(cmd[1:]), proc.returncode))
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    return result, result["ready"] - started


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "meanderslice" / "__init__.py").is_file():
        print("bench: no meanderslice sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT
    OUT.mkdir(exist_ok=True)
    sha = git_sha()
    stem = "%s_%s%s" % ((sha or "nogit")[:12], args.workload, "_trace" if args.trace else "")

    setup_only = ["--workload", args.workload, "--setup-only"]
    run_args = ["--workload", args.workload, "--seconds", str(args.seconds)]
    if args.trace:
        run_args += ["--trace-file", str(OUT / ("TRACE_%s.jsonl" % stem))]
    setup = []
    try:
        # half of the set-up samples before the measuring process and half
        # after it, so that their median spans the whole run
        for _ in range(SETUP_SAMPLES // 2):
            setup.append(spawn(setup_only, deadline)[1])
        res, own_setup = spawn(run_args, deadline)
        setup.append(own_setup)
        for _ in range(SETUP_SAMPLES // 2):
            setup.append(spawn(setup_only, deadline)[1])
    except (RuntimeError, ValueError, IndexError, KeyError, subprocess.TimeoutExpired) as ex:
        print("bench: %s" % ex, file=sys.stderr)
        return 1

    if args.trace:
        metrics = res["layers"]
    else:
        timed = sum(r["seconds"] for r in res["rounds"])
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "pairs_per_s": {"value": res["attempted"] / timed, "unit": "pairs/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MiB"},
        }
    summary = {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    record = dict(
        summary,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        git_sha=sha,
        source_sha256=source_digest(),
        python=platform.python_version(),
        numpy=res["numpy"],
        nproc=len(os.sched_getaffinity(0)),
        machine=platform.machine(),
        pairs_per_round=res["pairs"],
        rounds=res["rounds"],
        setup_samples_s=setup,
        unix_time=time.time(),
    )
    if args.trace:
        record["pair_ms"] = res["pair_ms"]  # "round/p:q" -> milliseconds
    (OUT / ("BENCH_%s.json" % stem)).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(summary))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
