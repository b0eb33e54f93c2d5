"""End-to-end acceptance gate.

Each test checks one headline guarantee of the package at the published
scale and time budget, sharing the expensive constructions through
module-level caches.
"""

import hashlib
import json
import math
import subprocess
import sys
import time

import pytest

from meanderslice import linalg, rootlab
from meanderslice.meander import (
    CoprimePair,
    beta_sequence,
    coprime_pairs,
    sigma,
    tau,
    traversal,
    turning_data,
)
from meanderslice.slicebuild import check_conditions, construct
from meanderslice.verify import (
    adapted_pair,
    check_regular_nilpotent,
    check_restriction,
    complement_check,
    completed_element,
    eta_regularity,
    full_report,
    graded_skew_form,
    h_eigenvalue,
    path_order_regular,
)
from oracles import exhaustive_solutions, support_matrix

PAIRS_30 = coprime_pairs(30)


def timed(limit):
    start = time.perf_counter()

    def done():
        elapsed = time.perf_counter() - start
        assert elapsed < limit, f"took {elapsed:.2f}s, budget {limit}s"

    return done


@pytest.fixture(scope="module")
def constructions():
    return {(pair.p, pair.q): construct(pair) for pair in PAIRS_30}


# 1. single-cycle meander and turning-point counts
def test_acceptance_orbit_and_turning_counts():
    done = timed(1.0)
    for n in range(3, 31):
        for p in range(1, n // 2 + 1):
            q = n - p
            left = set(range(1, n + 1))
            cycles = 0
            while left:
                v = start = min(left)
                while v in left:
                    left.remove(v)
                    v = tau(sigma(v, n), p, n)
                cycles += 1
            assert (cycles == 1) == (math.gcd(p, q) == 1)
    for pair in PAIRS_30:
        td = turning_data(traversal(pair))
        assert len(td.positions) == pair.p + 1
        assert len(td.positions[1:-1]) == pair.p - 1
    done()


# 2. the signed chain values equal the union of the two cascades
def test_acceptance_cascade_identity():
    done = timed(1.0)
    for pair in PAIRS_30:
        td = turning_data(traversal(pair))
        betas = beta_sequence(td.traversal)
        signed = sorted(rootlab.scale(td.eps[i], betas[i]) for i in range(pair.n - 1))
        union = sorted(rootlab.kostant_cascade(pair.n) | rootlab.levi_cascade(pair.p, pair.q))
        assert signed == union
    done()


# 3. the construction satisfies conditions a-d everywhere, rule-based
def test_acceptance_construction_conditions(constructions):
    done = timed(10.0)
    fallbacks = [key for key, sc in constructions.items() if sc.construction_mode != "rule-based"]
    print(f"fallback count: {len(fallbacks)} {fallbacks}")
    for sc in constructions.values():
        checks = sc.checks
        assert checks["a"] and checks["b"] and checks["c"] and checks["d"]
        assert checks["ok"]
    assert fallbacks == []  # logged above; currently zero observed
    done()


# 4. the completed element is regular nilpotent and restricts correctly
def test_acceptance_completed_element(constructions):
    done = timed(30.0)
    for pair in PAIRS_30:
        sc = constructions[(pair.p, pair.q)]
        support = completed_element(sc)
        regular = check_regular_nilpotent(support_matrix(support, pair.n))
        assert regular
        # the O(n) path-order certificate agrees with the dense power ranks
        assert path_order_regular(support, sc.order) == regular
        res = check_restriction(support, adapted_pair(pair))
        assert res["matches_eta"] and res["rest_in_nilradical"]
    done()


def test_acceptance_power_ranks_exact(constructions):
    # rank(y''^k) = n - k for every k, exact integer arithmetic
    done = timed(30.0)
    for pair in PAIRS_30:
        y2 = support_matrix(completed_element(constructions[(pair.p, pair.q)]), pair.n)
        power = [row[:] for row in y2]
        for k in range(1, pair.n + 1):
            assert linalg.rank_int(power) == pair.n - k
            power = linalg.mat_mul(power, y2)
    done()


# 5. the eigenvalue system for h is uniquely solvable with the closed form m
def test_acceptance_adapted_pair():
    done = timed(1.0)
    for pair in PAIRS_30:
        ap = adapted_pair(pair)
        p, q = pair.p, pair.q
        assert 2 * (ap.m + 1) == p * p + q * q + p * q - 1
        for beta in ap.eta_support:
            assert h_eigenvalue(ap.h, beta) == -1
    assert adapted_pair(CoprimePair(1, 2)).h == (0, -1, 1)
    assert adapted_pair(CoprimePair(1, 2)).m == 2
    assert adapted_pair(CoprimePair(2, 3)).h == (-4, 4, -2, 5, -3)
    assert adapted_pair(CoprimePair(2, 3)).m == 8
    done()


# 6. the stabiliser of the linear functional is exactly one-dimensional,
#    and x_alpha closes the coadjoint orbit directions to the whole dual
def test_acceptance_stabiliser_dimension():
    done = timed(120.0)
    for pair in PAIRS_30:
        ap = adapted_pair(pair)
        form = graded_skew_form(ap)
        reg = eta_regularity(form)
        assert reg["stabiliser_dim"] == 1
        assert reg["regular"]
        assert complement_check(form, ap.alpha)
    done()


# 7. regression facts about end values and the p=1 exceptional anchor
def test_acceptance_regressions():
    td = turning_data(traversal(CoprimePair(2, 3)))
    assert td.nil[0]  # the starting value is nil
    td = turning_data(traversal(CoprimePair(2, 5)))
    assert not td.nil[0] and not td.nil[td.pair.n - 2]  # both ends non-nil
    for q in range(2, 16):
        td = turning_data(traversal(CoprimePair(1, q)))
        ends = {1, td.pair.n}
        anchors = {td.e, td.e + 1} & set(td.positions)
        assert len(anchors) == 1
        (t0,) = anchors
        assert t0 in ends and td.tag_at(t0) == "B"


# 8. the rule-based answer lies in the exhaustive admissible-change set
def test_acceptance_rule_based_in_exhaustive_set(constructions):
    done = timed(60.0)
    for pair in coprime_pairs(12):
        sc = constructions[(pair.p, pair.q)]
        sols = exhaustive_solutions(sc.turning)
        finals = [s.beta_final for s in sols]
        assert sc.ledger.beta_final in finals
        for s in finals:
            assert check_conditions(sc.turning, s)["ok"]
    done()


# 9. the full verification sweep is byte-deterministic, also under
#    `python -O`: no certificate depends on `assert`
def test_acceptance_byte_determinism():
    args = ["-m", "meanderslice.cli", "verify", "--max-n", "30", "--format", "json"]
    a = subprocess.run([sys.executable] + args, capture_output=True)
    b = subprocess.run([sys.executable, "-O"] + args, capture_output=True)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
    # the v1 report bytes
    assert hashlib.md5(a.stdout).hexdigest() == "2117c94cca1e639a81b1272578ee28d5"


# 10. the stabiliser reports beyond the CLI's n <= 20 cap are pinned too:
#     one sorted-key JSON line of `full_report` per pair with 21 <= n <= 30
def test_acceptance_full_report_bytes_beyond_the_cli_cap():
    digest = hashlib.md5()
    pairs = [pair for pair in PAIRS_30 if pair.n >= 21]
    for pair in pairs:
        report = full_report(pair, True)
        assert report["all_ok"] and report["stabiliser_dim"] == 1
        digest.update(json.dumps(report, sort_keys=True).encode() + b"\n")
    assert len(pairs) == 75
    assert digest.hexdigest() == "d11436ea7911fbee784011a74a0df4bb"
