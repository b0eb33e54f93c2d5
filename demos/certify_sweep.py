"""Certify every coprime pair up to n = 20 and print a summary table.

Run: python3 demos/certify_sweep.py
"""

from meanderslice.meander import coprime_pairs
from meanderslice.verify import full_report

print(f"{'pair':>8} {'sig':>6} {'fix':>4} {'m':>4} {'stab':>5}  ok")
for pair in coprime_pairs(20):
    rep = full_report(pair)
    print(
        f"({pair.p:>2},{pair.q:>2}) {rep['signature']:>6} {str(rep['used_exceptional_fix'])[0]:>4}"
        f" {rep['m']:>4} {rep['stabiliser_dim']:>5}  {rep['all_ok']}"
    )
    assert rep["all_ok"]

print("all pairs certified")
