"""Certify every coprime pair up to n = 20 and print a summary table.

Run: python3 demos/certify_sweep.py
Exits 1, naming the pairs, when any pair is not certified.
"""

import sys

from meanderslice.meander import coprime_pairs
from meanderslice.verify import full_report

print(f"{'pair':>8} {'sig':>6} {'fix':>4} {'m':>4} {'stab':>5}  ok")
failed = []
for pair in coprime_pairs(20):
    rep = full_report(pair)
    print(
        f"({pair.p:>2},{pair.q:>2}) {rep['signature']:>6} {str(rep['used_exceptional_fix'])[0]:>4}"
        f" {rep['m']:>4} {rep['stabiliser_dim']:>5}  {rep['all_ok']}"
    )
    if not rep["all_ok"]:
        failed.append((pair.p, pair.q))

if failed:
    sys.exit("not certified: %s" % failed)
print("all pairs certified")
