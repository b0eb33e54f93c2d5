"""Command-line surface: `slice <command> [p q | --max-n N] ...`.

Commands: meander, construct, verify, sigmap, diagram.  All output is
byte-deterministic for a fixed configuration.  Exit codes: 0 success,
1 verification failure, 2 input error or output that cannot be written.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import os
import sys
from json.encoder import encode_basestring_ascii

from . import diagram as diagram_mod
from .meander import (
    CoprimePair,
    MeanderError,
    coprime_pairs,
    signature,
    traversal,
    turning_data,
)
from .rootlab import dense
from .slicebuild import ConstructionFailed, construct, triangularity_order
from .verify import AdaptedPairError, alpha_eigenvalue, full_report

SCHEMA_VERSION = "1"
CSV_COLUMNS = ["p", "q", "n", "signature", "used_fix", "mode", "m"]


def _dump_json(payload):
    r"""The text of `json.dumps(payload, sort_keys=True, indent=2) + "\n"`.

    `json.dumps` with an indent always runs its pure-Python encoder; this
    writer gives the same bytes in a fraction of the time.  It takes what
    every payload here is made of: ints, strs, bools, lists or tuples, and
    dicts with str keys.  Anything else raises TypeError.
    """
    out = []
    _write_json(payload, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(value, newline, out):
    """Append the pieces of `value` to `out`; `newline` is a line break
    followed by the indent of the line that `value` starts on."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        if all(type(v) is int for v in value):
            out.append("[" + inner + ("," + inner).join(map(str, value)) + newline + "]")
            return
        opener = "["
        for v in value:
            out.append(opener + inner)
            _write_json(v, inner, out)
            opener = ","
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        for key in value:
            if not isinstance(key, str):
                raise TypeError("JSON object keys must be str, not %r" % (key,))
        inner = newline + "  "
        opener = "{"
        for key in sorted(value):
            out.append(opener + inner + encode_basestring_ascii(key) + ": ")
            _write_json(value[key], inner, out)
            opener = ","
        out.append(newline + "}")
    else:
        raise TypeError("cannot write %r as JSON" % (value,))


def _dump_csv(rows):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    for row in rows:
        w.writerow(row)
    return buf.getvalue()


def _root_str(r):
    a = r.index(1) + 1
    b = r.index(-1) + 1
    return "e%d-e%d" % (a, b)


def _meander_payload(pair):
    tr = traversal(pair)
    td = turning_data(tr)
    sig = signature(td)
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "meander",
        "p": pair.p,
        "q": pair.q,
        "n": pair.n,
        "phi": list(tr.phi),
        "a": tr.a,
        "b": tr.b,
        "turning_positions": list(td.positions),
        "turning_tags": [td.tag_at(t) for t in td.positions],
        "turning_labels": [td.label_of[t] for t in td.positions],
        "eps": list(td.eps),
        "nil": [i + 1 for i, v in enumerate(td.nil) if v],
        "boundary": [i + 1 for i, v in enumerate(td.boundary) if v],
        "isolated": [i + 1 for i, v in enumerate(td.isolated) if v],
        "e": td.e,
        "m_even": td.m,
        "signature": sig.as_string(),
        "signature_full": list(sig.full),
        "signature_runs": list(sig.changes),
    }


def _construct_payload(pair):
    """The construct report; roots turn dense here, at the JSON boundary."""
    sc = construct(pair)
    ledger = sc.ledger
    n = pair.n
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "construct",
        "p": pair.p,
        "q": pair.q,
        "n": pair.n,
        "signature": sc.sig.as_string(),
        "pi_star": [dense(r, n) for r in sc.pi_star],
        "pi_final": [dense(r, n) for r in sc.pi_final],
        "order": list(sc.order),
        "weyl_perm": list(sc.order),
        "used_exceptional_fix": sc.used_exceptional_fix,
        "construction_mode": sc.construction_mode,
        "m": alpha_eigenvalue(pair),
        "conditions": {k: sc.checks[k] for k in ("a", "b", "c", "d", "ok")},
        "triangularity_order": list(triangularity_order(sc)),
        "ledger": {
            "entries": [
                {
                    "index": e.index,
                    "span": list(e.span),
                    "case": e.case,
                    "added": dense(e.added, n),
                }
                for _, e in sorted(ledger.entries.items())
            ],
            "chi": {str(k): v for k, v in sorted(ledger.chi.items())},
            "undecided": {
                "position": ledger.undecided[0],
                "disposition": ledger.undecided[1],
            },
            "fix": [
                {"index": i, "value": dense(v, n)} for i, v in sorted(ledger.fix_entries.items())
            ],
        },
    }


def _verify_payload(pair):
    rep = full_report(pair, with_stabiliser=pair.n <= 20)
    out = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "p": pair.p,
        "q": pair.q,
        "n": pair.n,
        "signature": rep["signature"],
        "construction_mode": rep["construction_mode"],
        "used_exceptional_fix": rep["used_exceptional_fix"],
        "m": rep["m"],
        "h": [str(v) for v in rep["h"]],
        "order": list(rep["order"]),
        "weyl_perm": list(rep["order"]),
        "conditions": rep["conditions"],
        "regular_nilpotent": rep["regular_nilpotent"],
        "restriction_ok": rep["restriction"]["matches_eta"]
        and rep["restriction"]["rest_in_nilradical"],
        "eta_eigenvalues_ok": rep["eta_eigenvalues_ok"],
        "added_roots": [list(r) for r in rep["added_roots"]],
        "all_ok": rep["all_ok"],
    }
    if "eta_regular" in rep:
        out["eta_regular"] = rep["eta_regular"]
        out["stabiliser_dim"] = rep["stabiliser_dim"]
        out["complement_ok"] = rep["complement_ok"]
    return out


def _csv_row(payload):
    return [
        payload["p"],
        payload["q"],
        payload["n"],
        payload["signature"],
        str(payload.get("used_exceptional_fix", "")).lower(),
        payload.get("construction_mode", ""),
        payload.get("m", ""),
    ]


def _text_kv(payload, keys):
    return "".join("%s: %s\n" % (k, payload[k]) for k in keys)


def cmd_meander(args):
    payload = _meander_payload(CoprimePair(args.p, args.q))
    if args.format == "json":
        return _dump_json(payload), 0
    if args.format == "csv":
        return _dump_csv([CSV_COLUMNS, _csv_row(payload)]), 0
    keys = [
        "p", "q", "n", "phi", "a", "b", "turning_positions", "turning_tags",
        "eps", "nil", "isolated", "e", "m_even", "signature",
    ]
    return _text_kv(payload, keys), 0


def cmd_construct(args):
    pair = CoprimePair(args.p, args.q)
    payload = _construct_payload(pair)
    if args.format == "json":
        return _dump_json(payload), 0
    if args.format == "csv":
        return _dump_csv([CSV_COLUMNS, _csv_row(payload)]), 0
    sc_lines = [
        "pair: (%d,%d)  n=%d  sg=%s" % (pair.p, pair.q, pair.n, payload["signature"]),
        "mode: %s  fix: %s" % (payload["construction_mode"], payload["used_exceptional_fix"]),
        "order c: %s" % (payload["order"],),
        "conditions: %s" % (payload["conditions"],),
        "pi_final:",
    ]
    for r in payload["pi_final"]:
        sc_lines.append("  " + _root_str(tuple(r)))
    sc_lines.append("changes:")
    for e in payload["ledger"]["entries"]:
        sc_lines.append(
            "  beta_%d += %s  span=%s case=%s"
            % (e["index"], _root_str(tuple(e["added"])), tuple(e["span"]), e["case"])
        )
    for f in payload["ledger"]["fix"]:
        sc_lines.append("  fix beta_%d -> %s" % (f["index"], _root_str(tuple(f["value"]))))
    sc_lines.append(
        "undecided d: %s (%s)"
        % (payload["ledger"]["undecided"]["position"], payload["ledger"]["undecided"]["disposition"])
    )
    return "\n".join(sc_lines) + "\n", 0


def cmd_verify(args):
    single = args.max_n is None and args.q is not None
    sweep = args.p is None and args.max_n is not None and args.max_n >= 3
    if not (single or sweep):
        raise MeanderError("verify needs p q, or --max-n N with N >= 3")
    if args.max_n is not None:
        rows = [_verify_payload(pair) for pair in coprime_pairs(args.max_n)]
        ok = all(r["all_ok"] for r in rows)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "verify",
            "max_n": args.max_n,
            "rows": rows,
            "all_ok": ok,
        }
        code = 0 if ok else 1
        if args.format == "json":
            return _dump_json(payload), code
        if args.format == "csv":
            return _dump_csv([CSV_COLUMNS] + [_csv_row(r) for r in rows]), code
        lines = ["p q n sig mode fix m ok"]
        for r in rows:
            lines.append(
                "%d %d %d %s %s %s %d %s"
                % (
                    r["p"], r["q"], r["n"], r["signature"] or "()",
                    r["construction_mode"], r["used_exceptional_fix"], r["m"], r["all_ok"],
                )
            )
        lines.append("all_ok: %s" % ok)
        return "\n".join(lines) + "\n", code
    pair = CoprimePair(args.p, args.q)
    payload = _verify_payload(pair)
    code = 0 if payload["all_ok"] else 1
    if args.format == "json":
        return _dump_json(payload), code
    if args.format == "csv":
        return _dump_csv([CSV_COLUMNS, _csv_row(payload)]), code
    keys = [
        "p", "q", "n", "signature", "construction_mode", "used_exceptional_fix",
        "m", "h", "order", "conditions", "regular_nilpotent", "restriction_ok",
        "eta_eigenvalues_ok", "all_ok",
    ]
    if "eta_regular" in payload:
        keys[-1:-1] = ["eta_regular", "stabiliser_dim", "complement_ok"]
    return _text_kv(payload, keys), code


def cmd_sigmap(args):
    if args.max_n is None or args.max_n < 3:
        raise MeanderError("sigmap needs --max-n N with N >= 3")
    rows = []
    fibers = {}
    for pair in coprime_pairs(args.max_n):
        sc = construct(pair)
        sig = sc.sig.as_string()
        rows.append(
            {
                "p": pair.p,
                "q": pair.q,
                "n": pair.n,
                "signature": sig,
                "used_exceptional_fix": sc.used_exceptional_fix,
                "construction_mode": sc.construction_mode,
                "m": alpha_eigenvalue(pair),
            }
        )
        fibers.setdefault(sig, []).append((pair.p, pair.q))
    fibers = {s: sorted(ps) for s, ps in fibers.items()}
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "sigmap",
        "max_n": args.max_n,
        "rows": rows,
        "image": sorted(fibers),
        "fibers": fibers,
        "shared": {s: ps for s, ps in fibers.items() if len(ps) > 1},
    }
    if args.format == "json":
        return _dump_json(payload), 0
    if args.format == "csv":
        table = [CSV_COLUMNS] + [_csv_row(r) for r in rows]
        fib = [["signature", "count", "pairs"]]
        for s in sorted(fibers):
            fib.append([s, len(fibers[s]), ";".join("%d:%d" % t for t in fibers[s])])
        return _dump_csv(table) + "\n" + _dump_csv(fib), 0
    lines = ["p q n signature"]
    for r in rows:
        lines.append("%d %d %d %s" % (r["p"], r["q"], r["n"], r["signature"] or "()"))
    lines.append("")
    lines.append("fibers:")
    for s in sorted(fibers):
        lines.append("  %r <- %s" % (s, fibers[s]))
    return "\n".join(lines) + "\n", 0


def cmd_diagram(args):
    sc = construct(CoprimePair(args.p, args.q))
    if args.format == "svg":
        return diagram_mod.svg_diagram(sc), 0
    return diagram_mod.ascii_diagram(sc), 0


@functools.cache
def build_parser():
    """The `slice` argument parser, built on the first call and shared by
    every later call in the process.

    Building it costs far more than one `parse_args`, which makes a fresh
    Namespace on each call.  Nothing may change the parser once it is
    built.
    """
    parser = argparse.ArgumentParser(
        prog="slice",
        description="Meander combinatorics and exactly certified adapted pairs for sl(p+q).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    tables = ("json", "csv", "text")

    sp = sub.add_parser("meander", help="orbit, turning points, signature")
    sp.add_argument("p", type=int)
    sp.add_argument("q", type=int)
    sp.add_argument("--format", choices=tables, default="text")
    sp.add_argument("--out")
    sp.set_defaults(run=cmd_meander)

    sp = sub.add_parser("construct", help="modified simple root systems with ledger")
    sp.add_argument("p", type=int)
    sp.add_argument("q", type=int)
    sp.add_argument("--format", choices=tables, default="text")
    sp.add_argument("--out")
    sp.set_defaults(run=cmd_construct)

    sp = sub.add_parser("verify", help="full certification, single pair or sweep")
    sp.add_argument("p", type=int, nargs="?")
    sp.add_argument("q", type=int, nargs="?")
    sp.add_argument("--max-n", type=int, dest="max_n")
    sp.add_argument("--format", choices=tables, default="text")
    sp.add_argument("--out")
    sp.set_defaults(run=cmd_verify)

    sp = sub.add_parser("sigmap", help="signature atlas over all coprime pairs")
    sp.add_argument("--max-n", type=int, dest="max_n")
    sp.add_argument("--format", choices=tables, default="text")
    sp.add_argument("--out")
    sp.set_defaults(run=cmd_sigmap)

    sp = sub.add_parser("diagram", help="ascii/svg rendering of the meander")
    sp.add_argument("p", type=int)
    sp.add_argument("q", type=int)
    sp.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    sp.add_argument("--out")
    sp.set_defaults(run=cmd_diagram)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        text, code = args.run(args)
    except MeanderError as ex:
        print("slice: input error: %s" % ex, file=sys.stderr)
        return 2
    except (ConstructionFailed, AdaptedPairError) as ex:
        print("slice: verification failure: %s" % ex, file=sys.stderr)
        return 1
    data = text.encode("utf-8")
    try:
        if args.out:
            with open(args.out, "wb") as fh:
                fh.write(data)
        else:
            sys.stdout.buffer.write(data)
            sys.stdout.buffer.flush()  # a buffered write fails only here
    except OSError as ex:  # an output that cannot be written is bad input
        if not args.out:
            # the unwritten bytes stay buffered: send them to the null
            # device, so that the flush at interpreter exit cannot fail again
            with contextlib.suppress(AttributeError, OSError):  # no descriptor
                fd = sys.stdout.fileno()
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, fd)
                os.close(devnull)
        print("slice: input error: %s" % ex, file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
