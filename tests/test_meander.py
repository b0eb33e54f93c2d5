import json
import math
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from meanderslice import cli, meander, rootlab
from meanderslice.meander import (
    CoprimePair,
    MeanderError,
    NotCoprimeError,
    beta_sequence,
    coprime_pairs,
    sigma,
    signature,
    tau,
    traversal,
    turning_data,
    turning_set_closed_form,
)
from oracles import turning_set_sign_flip

ALL_PAIRS = coprime_pairs(30)


def td_for(p, q):
    return turning_data(traversal(CoprimePair(p, q)))


# --- involutions ----------------------------------------------------------

def test_involution_tables():
    for p, q in [(2, 3), (3, 4), (4, 7), (1, 6)]:
        n = p + q
        for i in range(1, n + 1):
            assert sigma(sigma(i, n), n) == i
            assert tau(tau(i, p, n), p, n) == i
            # tau flips within each block
            assert (tau(i, p, n) <= p) == (i <= p)


def test_tau_sigma_is_translation():
    for p, q in [(2, 3), (3, 5), (4, 9), (5, 6)]:
        n = p + q
        for k in range(1, n + 1):
            want = (p + k - 1) % n + 1
            assert tau(sigma(k, n), p, n) == want


def test_fixed_points():
    assert tau(4, 2, 5) == 4
    for n in (3, 5, 7, 9):
        assert sigma((n + 1) // 2, n) == (n + 1) // 2


def test_involution_index_errors():
    with pytest.raises(MeanderError):
        sigma(0, 5)
    with pytest.raises(MeanderError):
        tau(6, 2, 5)


# --- pairs and traversal --------------------------------------------------

def test_pair_validation():
    with pytest.raises(NotCoprimeError):
        CoprimePair(2, 4)
    with pytest.raises(MeanderError):
        CoprimePair(3, 2)  # p must not exceed q
    with pytest.raises(MeanderError):
        CoprimePair(1, 1)  # degenerate n = 2
    with pytest.raises(MeanderError):
        CoprimePair(0, 5)


def test_traversal_witnesses():
    tr = traversal(CoprimePair(1, 2))
    assert (tr.a, tr.b) == (1, 2)
    assert tr.phi == (1, 3, 2)
    tr = traversal(CoprimePair(2, 3))
    assert (tr.a, tr.b) == (4, 3)
    assert tr.phi == (4, 2, 1, 5, 3)


@pytest.mark.parametrize(
    "pair, error, message",
    [
        # (3, 6) is not coprime: the orbit of a is one of three cycles
        (SimpleNamespace(p=3, q=6, n=9), NotCoprimeError, "orbit is not a single cycle"),
        # n = 4 is not p + q: the walk closes one step early
        (SimpleNamespace(p=2, q=3, n=4), MeanderError, "the walk ends at 3, not at 2"),
    ],
)
def test_traversal_rejects_a_forged_pair(pair, error, message):
    # CoprimePair refuses both; a forged pair reaches the walk's own checks
    with pytest.raises(error, match=message):
        traversal(pair)


def test_traversal_is_bijection_everywhere():
    for pair in coprime_pairs(140):
        tr = traversal(pair)
        # no value repeats, so the walk never stalls
        assert sorted(tr.phi) == list(range(1, pair.n + 1))
        # alternation: sigma on odd steps, tau on even steps
        for i in range(1, pair.n):
            f = sigma(tr.phi[i - 1], pair.n) if i % 2 == 1 else tau(tr.phi[i - 1], pair.p, pair.n)
            assert f == tr.phi[i]


def test_orbit_simulation_oracle():
    # independent oracle: the meander decomposes into the cycles of tau.sigma,
    # and there are exactly gcd(p,q) of them
    for n in range(3, 21):
        for p in range(1, n // 2 + 1):
            q = n - p
            left = set(range(1, n + 1))
            cycles = 0
            while left:
                v = start = min(left)
                while v in left:
                    left.remove(v)
                    v = tau(sigma(v, n), p, n)
                assert v == start
                cycles += 1
            assert cycles == math.gcd(p, q)
            if math.gcd(p, q) > 1:
                with pytest.raises(NotCoprimeError):
                    CoprimePair(p, q)


def test_beta_sequence_witnesses():
    assert beta_sequence(traversal(CoprimePair(1, 2))) == (
        rootlab.eps_diff(1, 3, 3),
        rootlab.eps_diff(3, 2, 3),
    )
    assert beta_sequence(traversal(CoprimePair(2, 3))) == (
        rootlab.eps_diff(4, 2, 5),
        rootlab.eps_diff(2, 1, 5),
        rootlab.eps_diff(1, 5, 5),
        rootlab.eps_diff(5, 3, 5),
    )


def test_beta_sequence_is_path_in_phi_order():
    for pair in ALL_PAIRS:
        tr = traversal(pair)
        assert rootlab.validate_path_system(beta_sequence(tr), pair.n) == tr.phi


# --- turning points -------------------------------------------------------

def test_turning_sets_agree():
    for pair in coprime_pairs(140):
        A, B = turning_set_closed_form(pair)
        assert turning_set_sign_flip(pair) == A | B
        assert not A & B


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda A, B: (A - {max(A)}, B),
        lambda A, B: (A, B - {max(B)}),
        lambda A, B: (A - {max(A)}, B | {max(A)}),
        lambda A, B: (A | {min(B)}, B - {min(B)}),
    ],
    ids=["drop-max-A", "drop-max-B", "max-A-to-B", "min-B-to-A"],
)
def test_turning_data_rejects_a_wrong_turning_set(corrupt, monkeypatch):
    # the closed form is trusted at run time; a wrong set must still fail
    # the count or alternation checks of turning_data
    closed_form = meander.turning_set_closed_form
    monkeypatch.setattr(
        meander, "turning_set_closed_form", lambda pair: corrupt(*closed_form(pair))
    )
    for pair in coprime_pairs(40):
        tr = traversal(pair)
        with pytest.raises(
            MeanderError, match="turning points, expected|must alternate"
        ):
            turning_data(tr)


def test_turning_data_2_3():
    td = td_for(2, 3)
    assert td.positions == (1, 2, 5)
    assert [td.tag_at(t) for t in td.positions] == ["B", "A", "B"]
    assert td.label_of == {1: 0, 2: 1, 5: 2}
    assert td.eps == (-1, 1, 1, 1)
    assert td.nil == (True, False, True, False)
    assert td.isolated == (True, False, False, False)
    assert td.boundary == (True, True, False, True)
    assert td.e == 2
    assert td.m == 2


def test_turning_counts_and_alternation():
    for pair in coprime_pairs(140):
        td = turning_data(traversal(pair))
        assert len(td.positions) == pair.p + 1
        assert len(td.positions[1:-1]) == pair.p - 1
        # the side of each turning value, read off the turning sets
        a_side, _ = turning_set_closed_form(pair)
        tags = ["A" if td.traversal.phi[t - 1] in a_side else "B" for t in td.positions]
        # tag_at reads the label's parity: each label is odd exactly on the A side
        assert tags == [td.tag_at(t) for t in td.positions]
        for x, y in zip(tags, tags[1:]):
            assert {x, y} == {"A", "B"}
        first = 1 if pair.p % 2 == 1 else 0
        labels = [td.label_of[t] for t in td.positions]
        assert labels == list(range(first, first + pair.p + 1))


def test_every_value_has_a_sign():
    for pair in coprime_pairs(140):
        eps = turning_data(traversal(pair)).eps
        assert len(eps) == pair.n - 1
        assert set(eps) <= {1, -1}


def test_cascade_union_identity_everywhere():
    # multiset {eps_i beta_i} equals the union of the two cascades
    for pair in ALL_PAIRS:
        td = turning_data(traversal(pair))
        betas = beta_sequence(td.traversal)
        signed = sorted(rootlab.scale(td.eps[i], betas[i]) for i in range(pair.n - 1))
        union = sorted(rootlab.kostant_cascade(pair.n) | rootlab.levi_cascade(pair.p, pair.q))
        assert signed == union


def test_nil_structure_at_turning_points():
    for pair in ALL_PAIRS:
        td = turning_data(traversal(pair))
        n = pair.n
        for t in td.positions[1:-1]:
            above, below = td.nil[t - 2], td.nil[t - 1]
            if td.tag_at(t) == "A":
                # exactly one nil neighbour at internal A points
                assert above != below
            else:
                assert not (above and below)
        for i in range(1, n):
            if td.isolated[i - 1]:
                assert td.nil[i - 1]
        assert not td.nil[td.e - 1]


def test_end_value_regressions():
    td = td_for(2, 3)
    assert td.nil[0]  # starting value nil
    td = td_for(2, 5)
    assert not td.nil[0] and not td.nil[td.pair.n - 2]  # both ends non-nil


def test_exceptional_value_shape():
    for pair in ALL_PAIRS:
        td = turning_data(traversal(pair))
        betas = beta_sequence(td.traversal)
        a, b = betas[td.e - 1]
        assert abs(a - b) == 1
        assert min(a, b) == td.m // 2
        assert td.m % 2 == 0 and td.m in (pair.p, 2 * pair.p + pair.q, pair.n)
        assert td.m // 2 != pair.p  # the exceptional simple root is never alpha_p
        assert not td.nil[td.e - 1]


# --- signature ------------------------------------------------------------

def test_signature_witnesses():
    sig = signature(td_for(2, 3))
    assert sig.sg == (-1,)
    assert sig.full[0] == -1
    for q in (2, 4, 6, 8):
        assert signature(td_for(1, q)).sg == ()
    assert signature(td_for(3, 4)).sg[0] == 1


def test_signature_rules():
    for pair in ALL_PAIRS:
        td = turning_data(traversal(pair))
        sig = signature(td)
        assert len(sig.full) == (pair.p + 1) // 2
        assert sig.sg == sig.full[: pair.p // 2]
        if pair.p % 2 == 1:
            assert sig.full[0] == 1
        # run starts decompose full into maximal constant runs
        runs = sig.changes
        assert runs[0] == 1
        for a, b in zip(runs, runs[1:]):
            assert a < b
        for j in range(1, len(sig.full)):
            flip = sig.full[j] != sig.full[j - 1]
            assert flip == ((j + 1) in runs)


def test_signature_reads_nil_side():
    for pair in ALL_PAIRS:
        td = turning_data(traversal(pair))
        sig = signature(td)
        a_positions = [t for t in td.positions if td.tag_at(t) == "A"]
        for s, t in zip(sig.full, a_positions):
            if s == -1:
                assert td.nil[t - 2]
            else:
                assert td.nil[t - 1]


# --- atlas ----------------------------------------------------------------

def sigmap_bytes(capsysbinary, max_n):
    """The `slice sigmap --max-n N --format json` bytes and exit code."""
    code = cli.main(["sigmap", "--max-n", str(max_n), "--format", "json"])
    return code, capsysbinary.readouterr().out


def test_atlas_contents(capsysbinary):
    code, out = sigmap_bytes(capsysbinary, 5)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [(r["p"], r["q"]) for r in rows] == [(1, 2), (1, 3), (1, 4), (2, 3)]
    sigs = {(r["p"], r["q"]): r["signature"] for r in rows}
    assert sigs[(2, 3)] == "-"


def test_atlas_deterministic(capsysbinary):
    first = sigmap_bytes(capsysbinary, 14)
    assert sigmap_bytes(capsysbinary, 14) == first
    shared = json.loads(first[1])["shared"]
    assert shared
    for s, ps in shared.items():
        assert len(ps) > 1


def test_walk_certificates_raise_typed_errors(capsysbinary):
    # these checks used to be asserts, which python -O strips
    tr = traversal(CoprimePair(2, 3))
    td = turning_data(tr)
    with pytest.raises(MeanderError, match="alternate"):
        turning_data(replace(tr, phi=tr.phi[1:] + tr.phi[:1]))
    with pytest.raises(MeanderError, match="start and end at turning points"):
        turning_data(replace(tr, pair=CoprimePair(1, 4)))
    with pytest.raises(MeanderError, match="exactly one boundary value"):
        signature(replace(td, nil=(True,) * len(td.nil)))
    assert cli.main(["sigmap", "--max-n", "2"]) == 2
    assert capsysbinary.readouterr().out == b""


def test_turning_data_rejects_forged_walks(monkeypatch):
    # (2,3) walks 4, 2, 1, 5, 3: beta_2 = (2, 1) is the one simple root,
    # and 1, 5 are the only values that do not turn
    tr = traversal(CoprimePair(2, 3))
    with pytest.raises(MeanderError, match="found 0"):
        turning_data(replace(tr, phi=(4, 2, 5, 1, 3)))
    # (2,5) walks 5, 3, 7, 1, 2, 6, 4, whose simple root (1, 2) is a_{m/2}
    # for m = 2; the forged walk keeps its turning points but meets a_2
    tr = traversal(CoprimePair(2, 5))
    with pytest.raises(MeanderError, match=r"must be \+- a_\{m/2\}"):
        turning_data(replace(tr, phi=(5, 7, 1, 3, 2, 6, 4)))
    # beta_1 = (4, 2) of (2,3) is isolated; with no a_p anywhere it is not nil
    monkeypatch.setattr(rootlab, "alpha_p_coefficient", lambda r, p: 0)
    with pytest.raises(MeanderError, match="an isolated value must be nil"):
        td_for(2, 3)


@given(st.integers(3, 25))
def test_pair_enumeration(max_n):
    pairs = coprime_pairs(max_n)
    assert len(pairs) == len(set(pairs))
    for pp in pairs:
        assert pp.p <= pp.q and pp.n <= max_n and math.gcd(pp.p, pp.q) == 1
    assert [(pp.n, pp.p) for pp in pairs] == sorted((pp.n, pp.p) for pp in pairs)
