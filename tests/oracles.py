"""Slow independent oracles for the tests.

`exhaustive_solutions` enumerates every admissible assignment of changes
and certifies each one; it is exponential in p and meant for n <= 12,
where it cross-checks the rule engine of `slicebuild.construct`.
`support_matrix` turns a support of roots back into the dense 0/1 matrix
for the dense rank oracles.
"""

from itertools import product

from meanderslice import linalg, rootlab
from meanderslice.meander import beta_sequence
from meanderslice.slicebuild import (
    ChangeEntry,
    ChangeLedger,
    ConstructionRuleError,
    check_conditions,
    exceptional_fix,
    interval_value,
)


def _change_options(td, t):
    """Admissible single changes at the internal turning position t.

    Either boundary value (never a nil one) may change, by adding an
    interval value reaching an odd number of turning steps away on the
    opposite side, provided the signed result is elementary with p-th
    coefficient -1.  Sorted for deterministic enumeration.
    """
    p = td.pair.p
    betas = beta_sequence(td.traversal)
    ti = td.positions.index(t)
    opts = []
    for idx in (t - 1, t):
        if not 1 <= idx <= td.pair.n - 1 or td.nil[idx - 1]:
            continue
        if idx == t - 1:
            spans = [(t, f) for f in td.positions[ti + 1 :: 2]]
        else:
            spans = [(f, t) for f in td.positions[ti - 1 :: -2]]
        for span in spans:
            iv = interval_value(td, *span)
            newv = rootlab.add(betas[idx - 1], iv.value)
            signed = rootlab.scale(td.eps[idx - 1], newv)
            if rootlab.is_elementary(signed) and rootlab.alpha_p_coefficient(signed, p) == -1:
                opts.append((idx, span))
    opts.sort()
    return opts


def exhaustive_solutions(td):
    """Every certified assignment of one admissible change per internal
    turning point, with the repair step applied when only condition (c)
    fails.  Returns a list of ChangeLedger objects, each with
    `beta_final` set, in deterministic order."""
    betas = beta_sequence(td.traversal)
    internal = list(td.positions[1:-1])
    options = [_change_options(td, t) for t in internal]
    out = []
    for combo in product(*options):
        idxs = [idx for idx, _ in combo]
        if len(set(idxs)) != len(idxs):
            continue
        entries = {}
        beta_prime = list(betas)
        for idx, span in combo:
            iv = interval_value(td, *span)
            beta_prime[idx - 1] = rootlab.add(betas[idx - 1], iv.value)
            entries[idx] = ChangeEntry(index=idx, span=span, case="search", added=iv.value)
        ledger = ChangeLedger(
            entries=entries,
            chi={},
            undecided=(None, "search"),
            beta_prime=tuple(beta_prime),
        )
        res = check_conditions(td, ledger.beta_prime)
        if res["a"] and res["b"] and res["d"] and not res["c"]:
            try:
                fixes, beta_final = exceptional_fix(td, ledger)
            except ConstructionRuleError:
                continue
            res2 = check_conditions(td, beta_final)
            if res2["ok"]:
                ledger.fix_entries = fixes
                ledger.beta_final = beta_final
                out.append(ledger)
        elif res["ok"]:
            ledger.beta_final = ledger.beta_prime
            out.append(ledger)
    return out


def support_matrix(support, n):
    """The n x n integer matrix with a 1 at (a, b) for every root
    e_a - e_b of `support`."""
    m = linalg.zeros(n, n)
    for r in support:
        a, b = rootlab.elementary_support(r)
        m[a - 1][b - 1] += 1
    return m
