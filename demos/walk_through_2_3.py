"""Narrative walkthrough of the (2, 3) pair, the smallest with a change.

Run: python3 demos/walk_through_2_3.py
Exits 1, naming the fact, when a step does not give what the text says.
"""

import sys

from meanderslice import rootlab
from meanderslice.diagram import ascii_diagram
from meanderslice.meander import CoprimePair, beta_sequence, signature, traversal, turning_data
from meanderslice.slicebuild import construct


def check(ok, fact):
    if not ok:
        sys.exit("walk-through of (2,3) failed: " + fact)


pair = CoprimePair(2, 3)
tr = traversal(pair)
print("walk phi:", tr.phi)
check(tr.phi == (4, 2, 1, 5, 3), "the walk is 4, 2, 1, 5, 3")

td = turning_data(tr)
print("turning positions:", td.positions, "tags:", tuple(td.tag_at(t) for t in td.positions))
print("nil flags:", td.nil, "exceptional index e =", td.e)

sig = signature(td)
print("signature:", repr(sig.as_string()))
check(sig.sg == (-1,), "the signature is -")

# the signed chain values are the two cascades glued together
betas = beta_sequence(tr)
signed = sorted(rootlab.scale(td.eps[i], betas[i]) for i in range(pair.n - 1))
check(
    signed == sorted(rootlab.kostant_cascade(5) | rootlab.levi_cascade(2, 3)),
    "the signed chain values are the two cascades",
)

sc = construct(pair)
print("changed indices:", sc.changed)
print("chain order c =", sc.order)
for i, entry in sorted(sc.ledger.entries.items()):
    a, b = entry.added  # the root e_a - e_b
    print(f"  change at beta_{i}: {entry.case}, added e{a}-e{b}")

print()
print(ascii_diagram(sc))
