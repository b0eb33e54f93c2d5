"""Spans and counters around the public calls of meanderslice.

The tracer wraps functions from outside: `install` rebinds every name in
the package's modules that refers to a traced function (so aliases such as
`verify.eta_and_h` and names imported with `from ... import` are covered),
and `uninstall` puts the originals back.  Spans stay in memory until
`write` is called.  Each span records its layer, the pair it serves, its
start and end, and the span that called it; spans of one pair share the
pair's identifier "p:q".
"""

from __future__ import annotations

import json
import time

# (module, function, layer): the layer names the metrics `<layer>_s`
# (self time) and `<layer>_calls`.  `cli.self` is the part of `cli.main`
# outside every other span: argument parsing, payloads and serialisation.
TRACED = (
    ("cli", "main", "cli.self"),
    ("meander", "traversal", "meander.walk"),
    ("meander", "turning_data", "meander.walk"),
    ("meander", "signature", "meander.walk"),
    ("slicebuild", "construct", "slicebuild.construct"),
    ("slicebuild", "triangularity_order", "slicebuild.triangularity"),
    ("rootlab", "validate_path_system", "rootlab.validate_path_system"),
    ("verify", "full_report", "verify.full_report"),
    ("verify", "adapted_pair", "verify.adapted_pair"),
    ("verify", "completed_element", "verify.completed_element"),
    ("verify", "check_regular_nilpotent", "verify.regular_nilpotent"),
    ("verify", "check_restriction", "verify.restriction"),
    ("verify", "weyl_permutation", "verify.weyl_permutation"),
    ("verify", "eta_regularity", "verify.eta_regularity"),
    ("verify", "complement_check", "verify.complement_check"),
    ("verify", "skew_form_matrix", "verify.skew_form"),
    ("verify", "certified_rank", "verify.certified_rank"),
    ("linalg", "rank_mod_prime", "linalg.rank_mod_prime"),
    ("linalg", "rank_int", "linalg.rank_int"),
    ("linalg", "mat_mul", "linalg.mat_mul"),
    ("linalg", "solve_unique", "linalg.solve_unique"),
)

# Per-layer metrics reported from the trace, with their units.  Every one is
# reported on every workload; a layer a workload never calls reads 0.
SELF_TIMES = sorted({layer for _, _, layer in TRACED})
CALL_COUNTS = (
    "verify.certified_rank",
    "linalg.rank_mod_prime",
    "linalg.rank_int",
    "linalg.solve_unique",
    "rootlab.validate_path_system",
)
COUNTERS = (
    "verify.skew_form_builds",
    "slicebuild.search_fallbacks",
    "slicebuild.exceptional_fixes",
    "verify.stabiliser_skipped",
)


def pair_key(args):
    """The identifier "p:q" of the pair a call serves: its first argument
    is a pair, an object holding one (construction, traversal, turning
    data, adapted pair), or a CLI argument list naming one.  None
    otherwise."""
    if not args:
        return None
    first = args[0]
    if isinstance(first, list):  # a CLI argument list, or a matrix
        words = first[:3]
        if len(words) == 3 and all(isinstance(w, str) and w.isdigit() for w in words[1:]):
            return "%s:%s" % (words[1], words[2])
        return None
    pair = getattr(first, "pair", first)
    p, q = getattr(pair, "p", None), getattr(pair, "q", None)
    if isinstance(p, int) and isinstance(q, int):
        return "%d:%d" % (p, q)
    return None


class Tracer:
    """Spans and counters for the traced rounds of one process."""

    def __init__(self, package):
        self.package = package  # module name -> module
        self.spans = []  # [layer, pair, round, start_ns, end_ns, parent index]
        self.counts = {name: 0 for name in COUNTERS}
        self.round = 0
        self._stack = []
        self._saved = []  # (module, name, original)

    def _after(self, layer, args, kwargs, result):
        if layer == "verify.skew_form":
            self.counts["verify.skew_form_builds"] += 1
        elif layer == "slicebuild.construct":
            if result.construction_mode == "search-fallback":
                self.counts["slicebuild.search_fallbacks"] += 1
            if result.used_exceptional_fix:
                self.counts["slicebuild.exceptional_fixes"] += 1
        elif layer == "verify.full_report":
            with_stabiliser = args[1] if len(args) > 1 else kwargs.get("with_stabiliser", True)
            if not with_stabiliser:
                self.counts["verify.stabiliser_skipped"] += 1

    def _wrap(self, layer, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            pair = pair_key(args)
            if pair is None and parent >= 0:
                pair = spans[parent][1]
            span = [layer, pair, self.round, time.perf_counter_ns(), 0, parent]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter_ns()
                stack.pop()
            self._after(layer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for mod_name, fn_name, layer in TRACED:
            original = getattr(self.package[mod_name], fn_name)
            wrapper = self._wrap(layer, original)
            for module in self.package.values():
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self):
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved = []

    def self_times(self):
        """Seconds of self time per layer: each span's duration minus the
        durations of the spans it called."""
        out = {layer: 0 for layer in SELF_TIMES}
        child = [0] * len(self.spans)
        for layer, _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (layer, _, _, start, end, _), inner in zip(self.spans, child):
            out[layer] += end - start - inner
        return {layer: ns / 1e9 for layer, ns in out.items()}

    def call_counts(self):
        out = {layer: 0 for layer in CALL_COUNTS}
        for span in self.spans:
            if span[0] in out:
                out[span[0]] += 1
        return out

    def pair_ms(self):
        """Milliseconds per (round, pair): the summed duration of the
        outermost spans carrying that pair."""
        out = {}
        for layer, pair, rnd, start, end, parent in self.spans:
            if pair is None or (parent >= 0 and self.spans[parent][1] == pair):
                continue
            out[(rnd, pair)] = out.get((rnd, pair), 0) + (end - start) / 1e6
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (layer, pair, rnd, start, end, parent) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "layer": layer,
                            "pair": pair,
                            "round": rnd,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                        }
                    )
                    + "\n"
                )

