"""One benchmark workload in one fresh process.

Run by `bench/run.py`, never by hand: it imports meanderslice from the
checkout's `src/`, builds the workload's inputs, warms up, and prints one
JSON line with the moment it became ready (`time.monotonic()`).  Unless
`--setup-only` is given it then runs whole rounds for about `--seconds`
seconds, checks the outputs with `checks.py` outside the timed section, and
adds the round times, counts and peak memory to that line.  With
`--trace-file` every other round runs under the tracer and the per-layer
metrics are added too.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import checks
import tracing

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("cli", "diagram", "linalg", "meander", "rootlab", "slicebuild", "verify")

# The fixed pair sets; the README says why each was chosen.
VERIFY_MAX_N = 30
BAND = (21, 22)
ATLAS_MAX_N = 22
SIGMAP_MAX_N = 80


def load_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import meanderslice

    where = Path(meanderslice.__file__).resolve().parent
    if where != (src / "meanderslice").resolve():
        raise SystemExit("bench: meanderslice imported from %s, not from %s" % (where, src))
    return {name: __import__("meanderslice." + name, fromlist=[name]) for name in MODULES}


def run_cli(cli, argv):
    """`cli.main(argv)` with standard output captured: (exit code, bytes)."""
    buf = io.BytesIO()
    text = io.TextIOWrapper(buf, encoding="utf-8")
    saved = sys.stdout
    sys.stdout = text
    try:
        code = cli.main(argv)
        text.flush()
    finally:
        sys.stdout = saved
    data = buf.getvalue()
    text.detach()
    return code, data


class Workload:
    """A fixed list of operations, each a (pairs covered, call, check)
    triple.  `check(outcome)` raises checks.CheckFailed on a wrong output;
    it runs only on operations that did not fail."""

    def __init__(self, pairs, ops, warm_up, failed):
        self.pairs = pairs
        self.ops = ops
        self.warm_up = warm_up
        self.failed = failed  # (pairs covered, outcome) -> failed pairs

    def run_round(self):
        out = []
        for _, op, _ in self.ops:
            try:
                out.append(op())
            except Exception:  # a crash is a failed operation, reported below
                out.append(("raised", traceback.format_exc()))
        return out

    def failed_pairs(self, outcomes):
        return sum(self.failed(covered, o) for (covered, _, _), o in zip(self.ops, outcomes))

    def check(self, outcomes):
        for (covered, _, check), o in zip(self.ops, outcomes):
            if not self.failed(covered, o):
                check(o)


def _raised(outcome):
    return isinstance(outcome, tuple) and outcome[0] == "raised"


def _sweep_failed(covered, outcome):
    if _raised(outcome) or outcome[0] not in (0, 1):
        return len(covered)
    if outcome[0] == 0:
        return 0
    rows = json.loads(outcome[1])["rows"]
    return sum(not r["all_ok"] for r in rows)


def _cli_failed(covered, outcome):
    return len(covered) if _raised(outcome) or outcome[0] != 0 else 0


def _report_failed(covered, outcome):
    return len(covered) if _raised(outcome) or not outcome["all_ok"] else 0


def make_workload(name, pkg):
    cli, verify, meander = pkg["cli"], pkg["verify"], pkg["meander"]

    def call(argv):
        return lambda: run_cli(cli, argv)

    if name == "verify-sweep":
        pairs = checks.coprime_pairs(3, VERIFY_MAX_N)
        argv = ["verify", "--max-n", str(VERIFY_MAX_N), "--format", "json"]
        op = (pairs, call(argv), lambda o: checks.check_verify_sweep(o[1], VERIFY_MAX_N))
        return Workload(pairs, [op], call(["verify", "2", "3", "--format", "json"]), _sweep_failed)
    if name == "stabiliser-band":
        pairs = checks.coprime_pairs(*BAND)

        def op(p, q):
            pair = meander.CoprimePair(p, q)
            return (
                [(p, q)],
                lambda: verify.full_report(pair, with_stabiliser=True),
                lambda rep: checks.check_stabiliser_report(rep, p, q),
            )

        warm = op(2, 3)[1]
        return Workload(pairs, [op(p, q) for p, q in pairs], warm, _report_failed)
    if name == "construct-atlas":
        pairs = checks.coprime_pairs(3, ATLAS_MAX_N)

        def op(p, q):
            argv = ["construct", str(p), str(q), "--format", "json"]
            return ([(p, q)], call(argv), lambda o: checks.check_construct(o[1], p, q))

        warm = call(["construct", "2", "3", "--format", "json"])
        return Workload(pairs, [op(p, q) for p, q in pairs], warm, _cli_failed)
    if name == "sigmap-large":
        pairs = checks.coprime_pairs(3, SIGMAP_MAX_N)
        argv = ["sigmap", "--max-n", str(SIGMAP_MAX_N), "--format", "json"]
        op = (pairs, call(argv), lambda o: checks.check_sigmap(o[1], SIGMAP_MAX_N))
        return Workload(pairs, [op], call(["sigmap", "--max-n", "5", "--format", "json"]), _cli_failed)
    raise SystemExit("bench: unknown workload %r" % name)


def measure(workload, seconds, tracer):
    """Whole rounds until the next one would end after `seconds`; with a
    tracer, rounds alternate untraced and traced and at least one of each
    runs.  Returns (rounds, first round's outcomes, whether every round gave
    the same outcomes, failed pairs, peak resident KiB after the first
    round)."""
    rounds = []
    first = None
    same = True
    failed = 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.round = len(rounds)
            tracer.install()
        t0 = time.perf_counter()
        outcomes = workload.run_round()
        t1 = time.perf_counter()
        if traced:
            tracer.uninstall()
        rounds.append({"seconds": t1 - t0, "traced": traced})
        if first is None:
            # read now, so that it does not depend on how many rounds fit
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            first = outcomes
        else:
            same = same and outcomes == first
        failed += workload.failed_pairs(outcomes)
        outcomes = None  # hold at most two rounds' outputs
        both = tracer is None or len(rounds) >= 2
        if both and (t1 - start) + (t1 - t0) > seconds:
            break
    return rounds, first, same, failed, peak_kib


def layer_metrics(tracer, rounds, outcomes, pairs):
    """Per-layer figures per round (one pass over the workload's pairs),
    averaged over the traced rounds."""
    k = sum(r["traced"] for r in rounds)
    out = {}
    for layer, secs in tracer.self_times().items():
        out[layer + "_s"] = {"value": secs / k, "unit": "s"}
    for layer, calls in tracer.call_counts().items():
        out[layer + "_calls"] = {"value": calls / k, "unit": "count"}
    for name, count in tracer.counts.items():
        out[name] = {"value": count / k, "unit": "count"}
    out_bytes = sum(len(o[1]) for o in outcomes if isinstance(o, tuple) and isinstance(o[1], bytes))
    out["cli.output_bytes"] = {"value": out_bytes, "unit": "bytes"}
    per_pair = list(tracer.pair_ms().values())
    out["pair.samples"] = {"value": len(per_pair), "unit": "count"}
    out["pair.p50_ms"] = {"value": statistics.median(per_pair), "unit": "ms"}
    p90 = statistics.quantiles(per_pair, n=10, method="inclusive")[-1]
    out["pair.p90_ms"] = {"value": p90, "unit": "ms"}

    def rate(traced):
        chosen = [r["seconds"] for r in rounds if r["traced"] == traced]
        return len(pairs) * len(chosen) / sum(chosen)

    plain, traced = rate(False), rate(True)
    out["trace.pairs_per_s_untraced"] = {"value": plain, "unit": "pairs/s"}
    out["trace.pairs_per_s_traced"] = {"value": traced, "unit": "pairs/s"}
    out["trace.overhead_pct"] = {"value": 100 * (plain - traced) / plain, "unit": "%"}
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-file")
    args = ap.parse_args()

    pkg = load_package()
    workload = make_workload(args.workload, pkg)
    workload.warm_up()
    ready = time.monotonic()
    result = {"ready": ready}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = tracing.Tracer(pkg) if args.trace_file else None
    rounds, outcomes, same, failed, peak_kib = measure(workload, args.seconds, tracer)
    errors = [o[1] for o in outcomes if _raised(o)]
    correct = same
    try:
        workload.check(outcomes)
    except checks.CheckFailed as ex:
        errors.append("check failed: %s" % ex)
        correct = False
    except (KeyError, TypeError, ValueError, IndexError):
        errors.append("check failed on malformed output:\n" + traceback.format_exc())
        correct = False
    if not same:
        errors.append("rounds gave different outputs")
    for err in errors:
        print(err, file=sys.stderr)

    result.update(
        pairs=len(workload.pairs),
        rounds=rounds,
        attempted=len(workload.pairs) * len(rounds),
        failed=failed,
        correct=correct,
        peak_rss_mb=peak_kib / 1024,
        numpy=importlib.metadata.version("numpy"),
    )
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, rounds, outcomes, workload.pairs)
        result["pair_ms"] = {"%d/%s" % key: ms for key, ms in sorted(tracer.pair_ms().items())}
        tracer.write(args.trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
