"""Narrative walkthrough of the (2, 3) pair, the smallest with a change.

Run: python3 demos/walk_through_2_3.py
"""

from meanderslice import rootlab
from meanderslice.diagram import ascii_diagram
from meanderslice.meander import CoprimePair, beta_sequence, signature, traversal, turning_data
from meanderslice.slicebuild import construct

pair = CoprimePair(2, 3)
tr = traversal(pair)
print("walk phi:", tr.phi)
assert tr.phi == (4, 2, 1, 5, 3)

td = turning_data(tr)
print("turning positions:", td.positions, "tags:", td.tags)
print("nil flags:", td.nil, "exceptional index e =", td.e)

sig = signature(td)
print("signature:", repr(sig.as_string()))
assert sig.sg == (-1,)

# the signed chain values are the two cascades glued together
betas = beta_sequence(tr)
signed = sorted(rootlab.scale(td.eps[i], betas[i]) for i in range(pair.n - 1))
assert signed == sorted(rootlab.kostant_cascade(5) | rootlab.levi_cascade(2, 3))

sc = construct(pair)
print("changed indices:", sc.changed)
print("chain order c =", sc.order)
for i, entry in sorted(sc.ledger.entries.items()):
    a, b = entry.added  # the root e_a - e_b
    print(f"  change at beta_{i}: {entry.case}, added e{a}-e{b}")

print()
print(ascii_diagram(sc))
