"""Each of the benchmark's checks accepts the program's real output and
rejects a tampered copy.

    python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import copy
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import checks
from worker import run_cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from meanderslice import cli, verify  # noqa: E402
from meanderslice.meander import CoprimePair  # noqa: E402


def dump(payload):
    return json.dumps(payload).encode()


@pytest.fixture(scope="module")
def sweep():
    # n <= 12 holds pairs with and without the stabiliser fields
    code, data = run_cli(cli, ["verify", "--max-n", "12", "--format", "json"])
    assert code == 0
    return json.loads(data)


def test_pair_enumeration_counts():
    assert len(checks.coprime_pairs(3, 30)) == 138
    assert len(checks.coprime_pairs(21, 22)) == 11
    assert len(checks.coprime_pairs(3, 22)) == 74
    assert len(checks.coprime_pairs(3, 80)) == 982


def test_sweep_accepted(sweep):
    checks.check_verify_sweep(dump(sweep), 12)


def test_sweep_flipped_h_entry(sweep):
    bad = copy.deepcopy(sweep)
    row = bad["rows"][5]
    i = next(i for i, v in enumerate(row["h"]) if Fraction(v))
    row["h"][i] = str(-Fraction(row["h"][i]))
    with pytest.raises(checks.CheckFailed, match="h"):
        checks.check_verify_sweep(dump(bad), 12)


def test_sweep_dropped_row(sweep):
    bad = copy.deepcopy(sweep)
    del bad["rows"][-1]
    with pytest.raises(checks.CheckFailed, match="rows"):
        checks.check_verify_sweep(dump(bad), 12)


def test_sweep_with_no_rows(sweep):
    bad = dict(sweep, rows=[])
    with pytest.raises(checks.CheckFailed):
        checks.check_verify_sweep(dump(bad), 12)


def test_sweep_wrong_m(sweep):
    bad = copy.deepcopy(sweep)
    bad["rows"][3]["m"] += 1
    with pytest.raises(checks.CheckFailed, match="m = "):
        checks.check_verify_sweep(dump(bad), 12)


def test_sweep_added_root_below_diagonal(sweep):
    bad = copy.deepcopy(sweep)
    row = next(r for r in bad["rows"] if r["added_roots"])
    row["added_roots"][0] = [-c for c in row["added_roots"][0]]
    with pytest.raises(checks.CheckFailed, match="below the diagonal"):
        checks.check_verify_sweep(dump(bad), 12)


@pytest.fixture(scope="module")
def construction():
    code, data = run_cli(cli, ["construct", "5", "8", "--format", "json"])
    assert code == 0
    return json.loads(data)


def test_construct_accepted(construction):
    checks.check_construct(dump(construction), 5, 8)


def test_construct_broken_path(construction):
    bad = copy.deepcopy(construction)
    bad["pi_final"][2] = [-c for c in bad["pi_final"][2]]
    with pytest.raises(checks.CheckFailed, match="path"):
        checks.check_construct(dump(bad), 5, 8)


def test_construct_wrong_m(construction):
    bad = dict(construction, m=construction["m"] - 1)
    with pytest.raises(checks.CheckFailed, match="m = "):
        checks.check_construct(dump(bad), 5, 8)


def test_construct_reversed_triangularity(construction):
    bad = dict(construction, triangularity_order=construction["triangularity_order"][::-1])
    with pytest.raises(checks.CheckFailed, match="later values"):
        checks.check_construct(dump(bad), 5, 8)


def test_sigmap_fibres():
    code, data = run_cli(cli, ["sigmap", "--max-n", "14", "--format", "json"])
    assert code == 0
    checks.check_sigmap(data, 14)
    bad = json.loads(data)
    sig, members = next((s, m) for s, m in bad["fibers"].items() if len(m) > 1)
    other = next(s for s in bad["fibers"] if s != sig)
    bad["fibers"][other].append(members.pop())
    with pytest.raises(checks.CheckFailed, match="fibre"):
        checks.check_sigmap(dump(bad), 14)


def test_stabiliser_certificate():
    p, q = 3, 5
    report = verify.full_report(CoprimePair(p, q), with_stabiliser=True)
    checks.check_stabiliser_report(report, p, q)
    s = checks.skew_form(p, q)
    package_s, _ = verify.skew_form_matrix(CoprimePair(p, q))
    assert s.tolist() == package_s
    bad = s.copy()
    bad[0, 5] += 1
    with pytest.raises(checks.CheckFailed, match="alternating"):
        checks.check_skew_certificate(bad, p, q)


def test_stabiliser_certificate_rejects_low_rank():
    p, q = 3, 5
    s = checks.skew_form(p, q)
    s[0, :] = 0
    s[:, 0] = 0
    with pytest.raises(checks.CheckFailed, match="rank"):
        checks.check_skew_certificate(s, p, q)
