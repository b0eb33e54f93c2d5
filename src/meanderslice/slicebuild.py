"""Builds the modified simple root systems for a coprime pair.

Starting from the chain beta_1..beta_{n-1} of the traversal, selected
boundary values are changed by adding interval values so that the signed
list eps_i * beta'_i becomes a directed Hamiltonian path again, with every
changed value contributing the p-th simple root with coefficient -1.
A deterministic rule engine performs the changes from the signature in
one pass over the A turning points: the sign of a point picks the side it
changes, and the first sign of the signature picks which point of a
+ -> - change reaches across the neighbouring run.  A checker certifies
the result.  When the exceptional value is left unchanged
a local repair step replaces it by the negative of an interval value.  A
result the checker rejects raises ConstructionFailed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from . import rootlab
from .meander import signature, traversal, turning_data


class ConstructionFailed(RuntimeError):
    """The rule engine and repair step produced no certified result."""


class ConstructionRuleError(ConstructionFailed):
    """The rule engine hit a state its case analysis does not cover."""


def interval_value(td, s, t):
    """The root e_{phi(s)} - e_{phi(t)} between turning positions s < t."""
    if not s < t or s not in td.label_of or t not in td.label_of:
        raise ValueError("(%d,%d) are not turning positions in order" % (s, t))
    phi = td.traversal.phi
    return rootlab.eps_diff(phi[s - 1], phi[t - 1], td.pair.n)


@dataclass(frozen=True)
class ChangeEntry:
    index: int  # the changed value beta_index
    span: tuple  # (s, t) turning positions of the added interval value
    case: str  # adjacent | compound | compound-short | isolated-swap
    added: tuple  # the added root


@dataclass
class ChangeLedger:
    entries: dict  # index -> ChangeEntry
    chi: dict  # internal A turning position -> matched turning position
    undecided: tuple  # (position d, disposition tag)
    beta_prime: tuple  # values after the rule changes
    fix_entries: dict = field(default_factory=dict)  # index -> new value
    beta_final: tuple = None  # values after the repair step (or beta_prime)


def build_pi_star(td, sig):
    """Apply the signature-driven change rules; returns a ChangeLedger.

    One pass over the A turning points in walk order.  The sign picks the
    side: a + point changes the value above it by the interval value to
    the next turning point, a - point the value below it by the interval
    value from the previous one.  The first sign picks which point of a
    + -> - change reaches across a run: after a + start the last + point
    before a - run reaches forward past that run, after a - start the
    first - point after a + run reaches back past it.  Each change induces
    the matched change at the other end of its interval.

    Raises ConstructionRuleError whenever an internal consistency rule is
    violated (a nil value selected, a turning point served twice, a
    changed value not elementary with p-th coefficient -1, a signature
    that starts with - and ends with +, ...).
    """
    p, n = td.pair.p, td.pair.n
    pos_of = {lab: t for t, lab in td.label_of.items()}
    betas = td.betas
    full, first = sig.full, sig.full[0]
    J = len(full)
    later = dict(zip(sig.changes, sig.changes[1:]))  # run start -> next run start
    earlier = {b: a for a, b in later.items()}
    if first == -1 and full[-1] == 1:
        raise ConstructionRuleError("the signature starts with - and ends with +")

    instructions = {}  # index -> (span, case)
    covered = {}  # turning position -> index changed on its behalf
    chi = {}

    def add_instr(idx, span, case, turn):
        if not 1 <= idx <= n - 1:
            raise ConstructionRuleError("index %d out of range" % idx)
        if td.nil[idx - 1]:
            raise ConstructionRuleError("tried to change the nil value beta_%d" % idx)
        if not td.boundary[idx - 1]:
            raise ConstructionRuleError("beta_%d is not a boundary value" % idx)
        if idx in instructions:
            raise ConstructionRuleError("beta_%d changed twice" % idx)
        if turn in covered:
            raise ConstructionRuleError("two changes at turning position %d" % turn)
        instructions[idx] = (span, case)
        covered[turn] = idx

    def partner(t_src, t_b, compound_span=None, short=False):
        # the matched change at the turning position t_b, induced by the
        # change made for t_src
        if t_b in (1, n):
            return
        if t_b > t_src:
            wprime, w = t_b, t_b - 1
        else:
            wprime, w = t_b - 1, t_b
        if td.nil[wprime - 1]:
            # the preferred side is an isolated value: change the other
            # boundary instead, adding that isolated value
            if compound_span is not None:
                raise ConstructionRuleError(
                    "isolated value met a compound change at position %d" % t_b
                )
            lab = td.label_of[t_b]
            span = (pos_of[lab - 1], t_b) if w == t_b else (t_b, pos_of[lab + 1])
            add_instr(w, span, "isolated-swap", t_b)
        elif compound_span is not None:
            add_instr(wprime, compound_span, "compound-short" if short else "compound", t_b)
        else:
            span = (t_src, t_b) if wprime == t_b else (t_b, t_src)
            add_instr(wprime, span, "adjacent", t_b)

    for j in range(1, J + 1):
        t = pos_of[2 * j - 1]
        if full[j - 1] == 1:
            if first == 1 and j < J and full[j] == -1:
                # the last + point before a - run reaches forward past it
                l = later.get(j + 1)
                s = pos_of[2 * l - 2] if l is not None else n
                if t > 1:
                    add_instr(t - 1, (t, s), "compound", t)
                    chi[t] = s
                if l is not None:
                    short = pos_of[2 * j] == t + 1
                    partner(t, s, (pos_of[2 * j + 1], s) if short else (t, s), short)
            elif t > 1:  # the starting end point takes no change
                s = pos_of[2 * j]
                add_instr(t - 1, (t, s), "adjacent", t)
                chi[t] = s
                partner(t, s)
        elif first == -1 and j > 1 and full[j - 2] == 1:
            # the first - point after a + run reaches back past it
            s = pos_of[2 * earlier[j] - 2]
            add_instr(t, (s, t), "compound", t)
            chi[t] = s
            short = pos_of[2 * j - 2] == t - 1
            partner(t, s, (s, pos_of[2 * j - 3]) if short else (s, t), short)
        else:
            s = pos_of[2 * j - 2]
            add_instr(t, (s, t), "adjacent", t)
            chi[t] = s
            partner(t, s)

    if p % 2 == 1:
        if J >= 2 and full[1] == 1:
            # the point matched from the starting end still changes
            t2 = pos_of[2]
            add_instr(t2, (pos_of[1], t2), "adjacent", t2)
            undecided = (t2, "changed-from-start")
        elif J >= 2:
            l = later.get(2)
            d_pos = pos_of[2 * l - 2] if l is not None else n
            undecided = (d_pos, "compound-partner" if l is not None else "finishing-end")
        else:
            undecided = (pos_of[2], "finishing-end")
    elif first == 1:
        undecided = (1, "starting-end")
    else:
        undecided = (n, "finishing-end")

    missing = [t for t in td.positions[1:-1] if t not in covered]
    if missing:
        raise ConstructionRuleError("no change at turning positions %r" % missing)

    beta_prime = list(betas)
    entries = {}
    for idx in sorted(instructions):
        span, case = instructions[idx]
        iv = interval_value(td, *span)
        newv = rootlab.add(betas[idx - 1], iv)
        if newv is None:
            raise ConstructionRuleError("changed beta_%d is not elementary" % idx)
        if rootlab.alpha_p_coefficient(rootlab.scale(td.eps[idx - 1], newv), p) != -1:
            raise ConstructionRuleError("changed beta_%d misses coefficient -1" % idx)
        beta_prime[idx - 1] = newv
        entries[idx] = ChangeEntry(index=idx, span=span, case=case, added=iv)

    return ChangeLedger(
        entries=entries,
        chi=chi,
        undecided=undecided,
        beta_prime=tuple(beta_prime),
    )


def check_conditions(td, beta_now):
    """Certify conditions (a)-(d) for a candidate list of values.

    (a) the signed values form a directed Hamiltonian path; (b) every
    changed signed value carries the p-th simple root with coefficient -1;
    (c) the exceptional value actually changed; (d) every original signed
    value except the exceptional one stays positive for the new path.
    (d) reads the changed values alone: an unchanged signed value is an
    edge of the path that (a) certified, so it is positive.
    """
    p, n = td.pair.p, td.pair.n
    betas, eps = td.betas, td.eps
    beta_star = tuple(rootlab.scale(eps[i], beta_now[i]) for i in range(n - 1))
    res = {"witness": None}
    try:
        order = rootlab.validate_path_system(beta_star, n)
        res["a"] = True
    except rootlab.PathSystemError as ex:
        order = None
        res["a"] = False
        res["witness"] = "path: %s (%s)" % (ex, ex.kind)
    changed = [i for i in range(1, n) if beta_now[i - 1] != betas[i - 1]]
    res["changed"] = tuple(changed)
    res["b"] = True
    for i in changed:
        bs = beta_star[i - 1]
        if not rootlab.is_root(bs, n) or rootlab.alpha_p_coefficient(bs, p) != -1:
            res["b"] = False
            res["witness"] = res["witness"] or "coefficient at beta_%d" % i
            break
    res["c"] = beta_now[td.e - 1] != betas[td.e - 1]
    if not res["c"]:
        res["witness"] = res["witness"] or "exceptional value beta_%d unchanged" % td.e
    if order is None:
        res["d"] = False
    else:
        pos = rootlab.path_positions(order)
        old = {i: rootlab.scale(eps[i - 1], betas[i - 1]) for i in changed if i != td.e}
        bad = [i for i, r in old.items() if not rootlab.positive_wrt(r, pos)]
        res["d"] = not bad
        if bad:
            res["witness"] = res["witness"] or "negative original values %r" % bad
    res["ok"] = res["a"] and res["b"] and res["c"] and res["d"]
    res["order"] = order
    return res


def _reanchor(values, betas, i, e):
    """values[i] - beta_e, the value i re-anchored off the exceptional
    value; ConstructionRuleError when that is not a root."""
    r = rootlab.sub(values[i - 1], betas[e - 1])
    if r is None:
        raise ConstructionRuleError("re-anchored beta_%d is not a root" % i)
    return r


def exceptional_fix(td, ledger):
    """Repair step when the exceptional value was left unchanged.

    Returns (fixes, beta_final): a dict of replaced values and the full
    repaired list.
    """
    e, n = td.e, td.pair.n
    betas = td.betas
    anchors = [t for t in (e, e + 1) if t in td.label_of]
    if len(anchors) != 1:
        raise ConstructionRuleError("exceptional value without a unique turning point")
    t0 = anchors[0]
    if td.tag_at(t0) != "B":
        raise ConstructionRuleError("exceptional anchor is not on the B side")
    bp = list(ledger.beta_prime)
    fixes = {}
    if t0 in (1, n):
        # only p = 1 anchors at an end; its turning points are 1 and n
        if td.pair.p != 1:
            raise ConstructionRuleError(
                "exceptional anchor at the end point %d with p = %d" % (t0, td.pair.p)
            )
        fixes[e] = rootlab.neg(interval_value(td, 1, n))
    else:
        f = t0 - 1 if t0 - 1 != e else t0
        if f not in ledger.entries:
            raise ConstructionRuleError("second boundary of the anchor was not changed")
        iota1 = ledger.entries[f].added
        fixes[f] = betas[f - 1]  # revert
        fixes[e] = rootlab.neg(iota1)
        cands = [
            i
            for i in ledger.entries
            if i != f and rootlab.sub(bp[i - 1], betas[e - 1]) is not None
        ]
        if len(cands) > 1:
            raise ConstructionRuleError("ambiguous re-anchoring of the exceptional value")
        if cands:
            i0 = cands[0]
            fixes[i0] = _reanchor(bp, betas, i0, e)
    beta_final = list(bp)
    for i, v in fixes.items():
        beta_final[i - 1] = v
    return fixes, tuple(beta_final)


@dataclass
class SliceConstruction:
    pair: object
    traversal: object
    turning: object
    sig: object
    ledger: ChangeLedger
    pi_star: tuple  # the signed values after the rules, before any repair
    pi_final: tuple  # after the repair step (equal to pi_star without one)
    order: tuple  # path order of pi_final
    used_exceptional_fix: bool
    checks: dict

    # the only construction path; kept for the v1 report field
    construction_mode = "rule-based"

    @property
    def changed(self):
        return self.checks["changed"]


def construct(pair):
    """Full pipeline for one coprime pair: the rule engine, the checker,
    and the repair step when only condition (c) fails.

    Raises ConstructionFailed, carrying the checker's witness, when the
    result is not certified; a ConstructionRuleError from the rule engine
    or the repair step is a ConstructionFailed too.  Both messages name
    the pair.
    """
    tr = traversal(pair)
    td = turning_data(tr)
    sig = signature(td)
    prefix = "no certified construction for (%d,%d): " % (pair.p, pair.q)
    try:
        ledger = build_pi_star(td, sig)
        ledger.beta_final = ledger.beta_prime
        checks = check_conditions(td, ledger.beta_prime)
        used_fix = checks["a"] and checks["b"] and checks["d"] and not checks["c"]
        if used_fix:
            ledger.fix_entries, ledger.beta_final = exceptional_fix(td, ledger)
            checks = check_conditions(td, ledger.beta_final)
    except ConstructionRuleError as ex:
        raise ConstructionRuleError(prefix + str(ex)) from ex
    if not checks["ok"]:
        raise ConstructionFailed(prefix + str(checks["witness"]))
    n = pair.n
    pi_star = tuple(
        rootlab.scale(td.eps[i], ledger.beta_prime[i]) for i in range(n - 1)
    )
    pi_final = tuple(
        rootlab.scale(td.eps[i], ledger.beta_final[i]) for i in range(n - 1)
    )
    return SliceConstruction(
        pair=pair,
        traversal=tr,
        turning=td,
        sig=sig,
        ledger=ledger,
        pi_star=pi_star,
        pi_final=pi_final,
        order=checks["order"],
        used_exceptional_fix=used_fix,
        checks=checks,
    )


def triangularity_order(sc):
    """Total order on 1..n-1 making the rule changes unitriangular.

    Verified on the pre-repair values, each read as one interval of the
    walk: its endpoints sit at positions lo < hi on phi, and it is sign
    times the chain values beta_lo..beta_{hi-1}.  Each must have unit
    diagonal over the signed chain, lo <= i < hi and sign == eps_i, or
    ConstructionRuleError is raised.  A value of length 1 is its own chain
    value; these come first, in index order.  A longer value is a change of
    level 2 (simple interval) or 3 (compound) and waits for the longer
    values whose index lies in its interval; each step takes the smallest
    (level, index) among those ready, so within a level an index can wait
    for a larger one: (8,11) places its level-2 values as 2, 8, 10, 14, 12.
    No two levels interleave on any pair with n <= 200.  A cycle among the
    changes is a ConstructionRuleError.
    """
    td = sc.turning
    where = rootlab.path_positions(td.traversal.phi)
    order, spans = [], {}
    for i in range(1, td.pair.n):
        lo, hi, sign = rootlab.expand_in_path_system(sc.pi_star[i - 1], where)
        if not (lo <= i < hi and sign == td.eps[i - 1]):
            raise ConstructionRuleError("diagonal is not 1 at beta_%d" % i)
        if hi - lo == 1:
            order.append(i)
        else:
            spans[i] = (lo, hi)
    levels = {}
    for idx, entry in sc.ledger.entries.items():
        s, t = entry.span
        compound = entry.case in ("compound", "compound-short")
        levels[idx] = 3 if compound or td.label_of[t] - td.label_of[s] > 1 else 2
    deps = {i: {j for j in spans if j != i and lo <= j < hi} for i, (lo, hi) in spans.items()}
    heap = [(levels.get(i, 0), i) for i, js in deps.items() if not js]
    heapq.heapify(heap)
    while heap:
        _, i = heapq.heappop(heap)
        order.append(i)
        for u, js in deps.items():
            if i in js:
                js.remove(i)
                if not js:
                    heapq.heappush(heap, (levels.get(u, 0), u))
    if len(order) != td.pair.n - 1:
        raise ConstructionRuleError("cycle detected among the changed values")
    return tuple(order)
