import hashlib
from dataclasses import replace

import pytest

from meanderslice import rootlab, slicebuild
from meanderslice.meander import (
    CoprimePair,
    beta_sequence,
    coprime_pairs,
    signature,
    traversal,
    turning_data,
)
from meanderslice.slicebuild import (
    ConstructionFailed,
    ConstructionRuleError,
    check_conditions,
    construct,
    exceptional_fix,
    interval_value,
    triangularity_order,
)
from oracles import (
    dense,
    dense_add,
    dense_scale,
    exhaustive_candidates,
    exhaustive_solutions,
    to_simple_coords,
)

SWEEP = [construct(pair) for pair in coprime_pairs(20)]


def sc_for(p, q):
    return construct(CoprimePair(p, q))


# --- interval values ------------------------------------------------------

def test_interval_value_witnesses():
    td = sc_for(2, 3).turning
    assert interval_value(td, 1, 2) == rootlab.eps_diff(4, 2, 5)
    # consecutive turning points, the first one on the B side
    assert td.positions.index(2) == td.positions.index(1) + 1 and td.tag_at(1) == "B"
    td12 = sc_for(1, 2).turning
    assert interval_value(td12, 1, 3) == rootlab.eps_diff(1, 2, 3)
    assert td12.positions.index(3) == td12.positions.index(1) + 1


def test_interval_value_requires_turning_positions():
    td = sc_for(2, 3).turning
    with pytest.raises(ValueError):
        interval_value(td, 1, 3)
    with pytest.raises(ValueError):
        interval_value(td, 2, 2)
    with pytest.raises(ValueError):
        interval_value(td, 2, 1)  # a span is given in walk order


def test_interval_value_properties():
    # value = sum of the chain over [s,t); values between consecutive
    # turning points have exactly one nil index and p-th coefficient +1
    # when s is on the A side, -1 otherwise
    for sc in SWEEP:
        td = sc.turning
        n = td.pair.n
        betas = beta_sequence(td.traversal)
        pos = td.positions
        for ai in range(len(pos)):
            for bi in range(ai + 1, len(pos)):
                s, t = pos[ai], pos[bi]
                iv = interval_value(td, s, t)
                acc = (0,) * n
                for i in range(s, t):
                    acc = dense_add(acc, dense(betas[i - 1], n))
                assert acc == dense(iv, n)
                if bi == ai + 1:
                    nils = [i for i in range(s, t) if td.nil[i - 1]]
                    assert len(nils) == 1
                    sign = 1 if td.tag_at(s) == "A" else -1
                    assert rootlab.alpha_p_coefficient(iv, td.pair.p) == sign


# --- construction witnesses -----------------------------------------------

def test_construct_2_3():
    sc = sc_for(2, 3)
    assert sc.construction_mode == "rule-based"
    assert not sc.used_exceptional_fix
    assert sc.pi_final == (
        rootlab.eps_diff(2, 4, 5),
        rootlab.eps_diff(4, 1, 5),
        rootlab.eps_diff(1, 5, 5),
        rootlab.eps_diff(5, 3, 5),
    )
    assert sc.order == (2, 4, 1, 5, 3)
    assert sc.changed == (2,)
    entry = sc.ledger.entries[2]
    assert entry.added == rootlab.eps_diff(4, 2, 5)  # iota_{1,2}
    assert sc.ledger.undecided[0] == 5  # finishing end point carries d


def test_construct_1_2():
    sc = sc_for(1, 2)
    assert sc.used_exceptional_fix
    assert sc.construction_mode == "rule-based"
    assert sc.ledger.entries == {}  # no internal turning points
    assert sc.pi_final == (rootlab.eps_diff(1, 3, 3), rootlab.eps_diff(2, 1, 3))
    assert sc.order == (2, 1, 3)
    # the fix replaced the exceptional value by minus an interval value
    assert sc.ledger.fix_entries == {2: rootlab.eps_diff(2, 1, 3)}


def test_p_equals_one_always_fixes():
    for q in (2, 3, 4, 5, 6, 7, 8, 9):
        sc = sc_for(1, q)
        assert sc.ledger.entries == {}
        assert sc.used_exceptional_fix
        assert sc.checks["ok"]


# --- the change rules as predicates --------------------------------------

def test_rules_one_and_two():
    for sc in SWEEP:
        td = sc.turning
        entries = sc.ledger.entries
        # rule 1: only non-nil boundary values change
        for i in entries:
            assert td.boundary[i - 1] and not td.nil[i - 1]
        # rule 2: exactly one change per internal turning point
        assert len(entries) == td.pair.p - 1
        for t in td.positions[1:-1]:
            adjacent = [i for i in (t - 1, t) if i in entries]
            assert len(adjacent) >= 1
        # every entry is adjacent to exactly one internal turning point
        internal = set(td.positions[1:-1])
        for i in entries:
            assert len({i, i + 1} & internal) >= 1


def test_rule_three_odd_opposite_side():
    # each added interval value spans an odd number of simple intervals and
    # sits on the opposite side of the turning point it serves
    for sc in SWEEP:
        td = sc.turning
        for i, entry in sc.ledger.entries.items():
            s, t = entry.span
            gap = td.label_of[t] - td.label_of[s]
            assert gap % 2 == 1
            assert entry.added == interval_value(td, s, t)
            assert i in (s - 1, t)  # above the upper end or below the lower end


def test_changed_values_have_coefficient_minus_one():
    for sc in SWEEP:
        td = sc.turning
        p = td.pair.p
        betas = beta_sequence(td.traversal)
        for i in sc.changed:
            signed = sc.pi_final[i - 1]
            assert rootlab.is_root(signed, td.pair.n)
            if i != td.e or not sc.used_exceptional_fix:
                assert rootlab.alpha_p_coefficient(signed, p) == -1
        # condition b applies to the fixed exceptional value too
        if sc.used_exceptional_fix:
            assert rootlab.alpha_p_coefficient(sc.pi_final[td.e - 1], p) == -1


def test_chi_injective_with_singleton_cokernel():
    for sc in SWEEP:
        td = sc.turning
        chi = sc.ledger.chi
        d = sc.ledger.undecided[0]
        b_positions = {t for t in td.positions if td.tag_at(t) == "B"}
        values = list(chi.values())
        assert len(values) == len(set(values))
        assert d not in values
        assert set(values) | {d} >= b_positions
        for t in chi:
            assert td.tag_at(t) == "A" and t in td.positions[1:-1]


def test_conditions_hold_everywhere():
    for sc in SWEEP:
        assert sc.checks["a"] and sc.checks["b"] and sc.checks["c"] and sc.checks["d"]
        assert sc.construction_mode == "rule-based"


def test_positivity_strong_form_and_fix_effect():
    # before any fix the original signed values are all positive; after a
    # fix positivity fails exactly at the exceptional index
    for sc in SWEEP:
        td = sc.turning
        betas = beta_sequence(td.traversal)

        def all_positive(order):
            pos = rootlab.path_positions(order)
            signed = (rootlab.scale(td.eps[i], betas[i]) for i in range(td.pair.n - 1))
            return all(rootlab.positive_wrt(r, pos) for r in signed)

        pre = check_conditions(td, sc.ledger.beta_prime)
        if not sc.used_exceptional_fix:
            assert all_positive(pre["order"])
        else:
            old_e = rootlab.scale(td.eps[td.e - 1], betas[td.e - 1])
            assert not rootlab.positive_wrt(old_e, rootlab.path_positions(sc.order))
            assert sc.checks["d"] and not all_positive(sc.order)


def negative_original_values(td, order):
    """The O(n) condition (d): every original signed value except beta_e,
    each checked for positivity on the path `order`; returns the indices
    of the negative ones."""
    pos = rootlab.path_positions(order)
    return [
        i
        for i in range(1, td.pair.n)
        if i != td.e
        and not rootlab.positive_wrt(rootlab.scale(td.eps[i - 1], td.betas[i - 1]), pos)
    ]


def test_full_condition_d_to_n_140():
    for pair in coprime_pairs(140):
        sc = construct(pair)
        assert negative_original_values(sc.turning, sc.order) == []


def test_condition_d_on_changed_values_matches_the_full_check():
    # every exhaustive candidate, and its repair where only (c) fails.  No
    # candidate with n <= 10 fails (d); with n <= 20, 23 do, 13 of them
    # with (d) as the first failing condition
    failed = witnessed = 0
    for pair in coprime_pairs(20):
        td = turning_data(traversal(pair))
        for ledger in exhaustive_candidates(td):
            lists = [ledger.beta_prime]
            res = check_conditions(td, ledger.beta_prime)
            if res["a"] and res["b"] and res["d"] and not res["c"]:
                try:
                    lists.append(exceptional_fix(td, ledger)[1])
                except ConstructionRuleError:
                    pass
            for beta_now in lists:
                res = check_conditions(td, beta_now)
                if not res["a"]:
                    continue
                bad = negative_original_values(td, res["order"])
                assert res["d"] == (not bad)
                failed += bool(bad)
                if res["b"] and res["c"]:
                    # (d) is the first condition to fail, so it names the witness
                    want = "negative original values %r" % bad if bad else None
                    assert res["witness"] == want
                    witnessed += bool(bad)
    assert failed > 0 and witnessed > 0


def test_fix_changes_at_most_three_entries():
    for sc in SWEEP:
        if sc.used_exceptional_fix:
            assert 1 <= len(sc.ledger.fix_entries) <= 3
            assert sc.turning.e in sc.ledger.fix_entries


def test_rule_engine_rejects_a_sum_that_is_not_a_root(monkeypatch):
    # beta_2 = e_2 - e_1 of (2, 3) plus e_3 - e_5 is not a root
    def off_chain(td, s, t):
        return rootlab.eps_diff(3, 5, 5)

    monkeypatch.setattr(slicebuild, "interval_value", off_chain)
    with pytest.raises(ConstructionRuleError, match=r"\(2,3\): changed beta_2 is not elementary"):
        construct(CoprimePair(2, 3))


def test_signature_starting_minus_ends_minus():
    # the rule engine has no case for a - start with a + end
    for pair in coprime_pairs(200):
        full = signature(turning_data(traversal(pair))).full
        if pair.p % 2 == 1:
            assert full[0] == 1
        if full[0] == -1:
            assert full[-1] == -1


def test_rule_engine_rejects_a_minus_start_with_a_plus_end(monkeypatch):
    def minus_plus(td):
        return replace(signature(td), full=(-1, 1), changes=(1, 2))

    monkeypatch.setattr(slicebuild, "signature", minus_plus)
    with pytest.raises(
        ConstructionRuleError, match=r"\(2,3\): the signature starts with - and ends with \+"
    ):
        construct(CoprimePair(2, 3))


def test_end_anchor_needs_p_equal_to_one():
    # (2,3) has turning positions 1, 2, 5; beta_4 is anchored at the end point 5
    sc = sc_for(2, 3)
    td = replace(sc.turning, e=4)
    assert td.positions == (1, 2, 5) and td.tag_at(5) == "B"
    with pytest.raises(ConstructionRuleError, match="anchor at the end point 5 with p = 2"):
        exceptional_fix(td, sc.ledger)


@pytest.mark.parametrize("e", [1, 3])
def test_anchor_needs_exactly_one_turning_point(e):
    # (2,3) turns at 1, 2, 5: both of 1, 2 are turning points, neither of 3, 4
    sc = sc_for(2, 3)
    td = replace(sc.turning, e=e)
    assert td.positions == (1, 2, 5)
    with pytest.raises(ConstructionRuleError, match="without a unique turning point"):
        exceptional_fix(td, sc.ledger)


def test_anchor_must_be_on_the_b_side():
    # (2,3) needs no repair: its beta_2 is anchored at the A point 2
    sc = sc_for(2, 3)
    assert not sc.used_exceptional_fix
    assert sc.turning.e == 2 and sc.turning.tag_at(2) == "A"
    with pytest.raises(ConstructionRuleError, match="not on the B side"):
        exceptional_fix(sc.turning, sc.ledger)


def test_anchor_needs_its_second_boundary_changed():
    # (5,7) repairs beta_7 at the B point 8 and reverts the changed beta_8
    sc = sc_for(5, 7)
    assert sc.used_exceptional_fix and sc.turning.e == 7 and 8 in sc.ledger.entries
    entries = {i: v for i, v in sc.ledger.entries.items() if i != 8}
    message = "second boundary of the anchor was not changed"
    with pytest.raises(ConstructionRuleError, match=message):
        exceptional_fix(sc.turning, replace(sc.ledger, entries=entries))


def test_two_re_anchoring_candidates_are_a_rule_error():
    # beta_7 of (5,7) is e_6 - e_7; changed values ending at e_7 could both be re-anchored
    sc = sc_for(5, 7)
    assert sc.turning.betas[6] == rootlab.eps_diff(6, 7, 12)
    assert {2, 4} <= set(sc.ledger.entries)
    bp = list(sc.ledger.beta_prime)
    bp[1] = rootlab.eps_diff(10, 7, 12)
    bp[3] = rootlab.eps_diff(8, 7, 12)
    with pytest.raises(ConstructionRuleError, match="ambiguous re-anchoring"):
        exceptional_fix(sc.turning, replace(sc.ledger, beta_prime=tuple(bp)))


def test_reanchoring_off_a_non_root_is_a_rule_error():
    # e_1 - e_2 minus e_3 - e_4 is not a root
    with pytest.raises(ConstructionRuleError, match="re-anchored beta_1 is not a root"):
        slicebuild._reanchor(((1, 2),), ((3, 4),), 1, 1)


def test_ledger_bytes_pinned_to_n_140():
    # every ledger field, dicts in insertion order, one repr line per pair
    digest = hashlib.md5()
    pairs = coprime_pairs(140)
    for pair in pairs:
        ledger = construct(pair).ledger
        row = (
            (pair.p, pair.q),
            [(i, e.span, e.case, e.added) for i, e in ledger.entries.items()],
            list(ledger.chi.items()),
            ledger.undecided,
            list(ledger.fix_entries.items()),
            ledger.beta_final,
        )
        digest.update(repr(row).encode() + b"\n")
    assert len(pairs) == 2999
    assert digest.hexdigest() == "fc9f1eb1f0d3691aeeb0d4a55f28a646"


# --- triangularity --------------------------------------------------------

def expansion_matrix(sc):
    from meanderslice import linalg

    td = sc.turning
    n = td.pair.n
    betas = beta_sequence(td.traversal)
    basis = [to_simple_coords(dense_scale(td.eps[i], dense(betas[i], n))) for i in range(n - 1)]
    cols = [list(row) for row in zip(*basis)]
    rows = []
    for i in range(n - 1):
        sol = linalg.solve_unique(cols, list(to_simple_coords(dense(sc.pi_star[i], n))))
        rows.append([int(x) for x in sol])
    return rows


def test_triangularity_2_3():
    sc = sc_for(2, 3)
    order = triangularity_order(sc)
    assert set(order) == {1, 2, 3, 4}
    assert order[-1] == 2  # the only change comes last
    m = expansion_matrix(sc)
    pos = {i + 1: order.index(i + 1) for i in range(4)}
    for i in range(4):
        assert m[i][i] == 1
        for j in range(4):
            if m[i][j] and pos[j + 1] > pos[i + 1]:
                raise AssertionError("not triangular")


def test_triangularity_everywhere():
    for sc in SWEEP:
        order = triangularity_order(sc)
        assert sorted(order) == list(range(1, sc.pair.n))
        m = expansion_matrix(sc)
        pos = {v: k for k, v in enumerate(order)}
        for i in range(sc.pair.n - 1):
            assert m[i][i] == 1
            for j in range(sc.pair.n - 1):
                assert not (m[i][j] and pos[j + 1] > pos[i + 1])


def test_triangularity_bytes_pinned():
    # one line repr((p, q, triangularity_order)) per pair with n <= 140
    digest = hashlib.md5()
    pairs = coprime_pairs(140)
    assert len(pairs) == 2999
    for pair in pairs:
        line = repr((pair.p, pair.q, triangularity_order(construct(pair)))) + "\n"
        digest.update(line.encode())
    assert digest.hexdigest() == "b43aa53b74ce001851d247fcd404007f"


def test_triangularity_rejects_non_unit_diagonal():
    sc = sc_for(2, 3)
    pi_star = (rootlab.neg(sc.pi_star[0]),) + sc.pi_star[1:]
    with pytest.raises(ConstructionRuleError, match="diagonal is not 1 at beta_1"):
        triangularity_order(replace(sc, pi_star=pi_star))
    # the changed beta_2, with its sign flipped
    pi_star = sc.pi_star[:1] + (rootlab.neg(sc.pi_star[1]),) + sc.pi_star[2:]
    with pytest.raises(ConstructionRuleError, match="diagonal is not 1 at beta_2"):
        triangularity_order(replace(sc, pi_star=pi_star))
    # beta_1 replaced by -eps_3 beta_3: the sign of eps_1, but off index 1
    assert sc.turning.eps[0] == -sc.turning.eps[2]
    pi_star = (rootlab.neg(sc.pi_star[2]),) + sc.pi_star[1:]
    with pytest.raises(ConstructionRuleError, match="diagonal is not 1 at beta_1"):
        triangularity_order(replace(sc, pi_star=pi_star))


def test_triangularity_rejects_a_cycle():
    # (3,4) changes beta_2 and beta_4; give both the interval of chain
    # values 2..4, signed by their own eps, so each waits for the other
    sc = sc_for(3, 4)
    assert sorted(sc.ledger.entries) == [2, 4]
    td = sc.turning
    span = (td.traversal.phi[1], td.traversal.phi[4])
    pi_star = list(sc.pi_star)
    for i in (2, 4):
        pi_star[i - 1] = rootlab.scale(td.eps[i - 1], span)
    with pytest.raises(ConstructionRuleError, match="cycle detected among the changed values"):
        triangularity_order(replace(sc, pi_star=tuple(pi_star)))


def test_construct_fails_with_the_checker_witness(monkeypatch):
    build = slicebuild.build_pi_star

    def reversed_first_value(td, sig):
        ledger = build(td, sig)
        ledger.beta_prime = (rootlab.neg(ledger.beta_prime[0]),) + ledger.beta_prime[1:]
        return ledger

    monkeypatch.setattr(slicebuild, "build_pi_star", reversed_first_value)
    with pytest.raises(ConstructionFailed, match=r"for \(2,3\): path: .*\(branching\)"):
        construct(CoprimePair(2, 3))
    # (1, 2) needs the repair step; one that changes nothing leaves (c) failing
    monkeypatch.undo()
    monkeypatch.setattr(slicebuild, "exceptional_fix", lambda td, ledger: ({}, ledger.beta_prime))
    with pytest.raises(ConstructionFailed, match=r"for \(1,2\): exceptional value beta_2 unchanged"):
        construct(CoprimePair(1, 2))


def test_construct_surfaces_rule_errors_as_failures(monkeypatch):
    def rule_error(td, sig):
        raise ConstructionRuleError("forced")

    monkeypatch.setattr(slicebuild, "build_pi_star", rule_error)
    with pytest.raises(ConstructionFailed, match="forced"):
        construct(CoprimePair(2, 3))


def test_identity_for_unchanged_ledger():
    sc = sc_for(1, 4)
    assert expansion_matrix(sc) == [
        [1 if i == j else 0 for j in range(4)] for i in range(4)
    ]


# --- exhaustive search ----------------------------------------------------

def test_exhaustive_matches_rule_based_small():
    for pair in coprime_pairs(10):
        sc = construct(pair)
        sols = exhaustive_solutions(sc.turning)
        finals = [s.beta_final for s in sols]
        assert sc.ledger.beta_final in finals
        for s in finals:
            assert check_conditions(sc.turning, s)["ok"]


def test_exhaustive_deterministic():
    td = sc_for(3, 5).turning
    a = [s.beta_final for s in exhaustive_solutions(td)]
    b = [s.beta_final for s in exhaustive_solutions(td)]
    assert a == b and len(a) >= 1
