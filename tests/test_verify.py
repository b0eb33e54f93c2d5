import hashlib
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from meanderslice import linalg, rootlab, verify
from meanderslice.meander import CoprimePair, coprime_pairs
from meanderslice.slicebuild import construct
from meanderslice.verify import (
    AdaptedPairError,
    adapted_pair,
    alpha_eigenvalue,
    check_regular_nilpotent,
    check_restriction,
    complement_check,
    completed_element,
    eta_regularity,
    full_report,
    graded_skew_form,
    h_eigenvalue,
    parabolic_basis,
    path_order_regular,
    skew_form_matrix,
    weyl_permutation,
)
from oracles import (
    PRIME,
    block_complement_check,
    component,
    component_census,
    dense,
    dense_block_rank,
    dict_graded_form,
    dict_parabolic_basis,
    dot,
    form_blocks,
    mutate,
    position_id,
    run_test,
    walk,
)


# --- exact linear algebra -------------------------------------------------

def rank_fraction_oracle(rows):
    m = [[Fraction(x) for x in r] for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    r = 0
    for c in range(nc):
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pc = m[r][c]
        m[r] = [x / pc for x in m[r]]
        for i in range(r + 1, nr):
            f = m[i][c]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def test_rank_int_against_fraction_oracle():
    rng = random.Random(7)
    for _ in range(200):
        nr = rng.randint(1, 7)
        nc = rng.randint(1, 7)
        rk = rng.randint(0, min(nr, nc))
        gen = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(rk)]
        rows = [
            [sum(rng.randint(-3, 3) * gen[k][j] for k in range(rk)) for j in range(nc)]
            for _ in range(nr)
        ]
        want = rank_fraction_oracle(rows)
        assert linalg.rank_int(rows) == want
        assert linalg.rank_mod_prime([dict(enumerate(r)) for r in rows], 32749) <= want


small_matrices = st.integers(1, 6).flatmap(
    lambda nc: st.lists(st.lists(st.integers(-4, 4), min_size=nc, max_size=nc), min_size=1, max_size=6)
)


@given(small_matrices, st.sampled_from((2, 3, 5, 7, PRIME)))
def test_rank_mod_prime_is_a_lower_bound(rows, prime):
    exact = linalg.rank_int(rows)
    rank = linalg.rank_mod_prime([dict(enumerate(r)) for r in rows], prime)
    assert rank <= exact
    if prime == PRIME:
        # every minor is below (4 * sqrt(6))^6 < 2^31 - 1 in absolute value
        assert rank == exact


@given(small_matrices, st.permutations(range(6)))
def test_rank_mod_2_is_the_rank_mod_prime_2(rows, columns):
    # sparse rows over arbitrary column ids, zeros stored as well
    sparse = [{columns[j]: v for j, v in enumerate(r)} for r in rows]
    rank = linalg.rank_mod_2(sparse)
    assert rank == linalg.rank_mod_prime(sparse, 2)
    assert rank <= linalg.rank_int(rows)


def test_solve_unique():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 6)
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if rank_fraction_oracle(a) < n:
            assert linalg.solve_unique(a, [0] * n) is None
            continue
        b = [sum(a[i][j] * x[j] for j in range(n)) for i in range(n)]
        assert linalg.solve_unique(a, b) == x


def test_power_ranks_non_increasing():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(2, 6)
        m = [[rng.randint(-2, 2) if j > i else 0 for j in range(n)] for i in range(n)]
        prev = n
        power = [row[:] for row in m]
        for _ in range(n):
            r = linalg.rank_int(power)
            assert r <= prev
            prev = r
            power = linalg.mat_mul(power, m)


# --- adapted pair ---------------------------------------------------------

def test_adapted_pair_1_2():
    ap = adapted_pair(walk(CoprimePair(1, 2)))
    assert set(ap.eta_support) == {rootlab.eps_diff(1, 3, 3)}
    assert ap.alpha == rootlab.eps_diff(3, 2, 3)  # minus the second simple root
    assert ap.h == (0, -1, 1)
    assert ap.m == 2


def test_adapted_pair_2_3():
    ap = adapted_pair(walk(CoprimePair(2, 3)))
    assert ap.h == (-4, 4, -2, 5, -3)
    assert ap.alpha == rootlab.eps_diff(2, 1, 5)
    assert ap.m == 8


def test_adapted_pair_structure_everywhere():
    for pair in coprime_pairs(140):
        ap = adapted_pair(walk(pair))
        p, q, n = pair.p, pair.q, pair.n
        assert len(ap.eta_support) == n - 2
        assert sum(ap.h[:p]) == 0 and sum(ap.h[p:]) == 0
        for beta in ap.eta_support:
            assert h_eigenvalue(ap.h, beta) == -1
        assert 2 * (ap.m + 1) == p * p + q * q + p * q - 1
        assert alpha_eigenvalue(pair) == ap.m


def test_adapted_pair_bytes_pinned():
    # one line repr((p, q, h, m, alpha, eta_support)) per pair with n <= 140
    digest = hashlib.md5()
    pairs = coprime_pairs(140)
    assert len(pairs) == 2999
    for pair in pairs:
        ap = adapted_pair(walk(pair))
        line = repr((pair.p, pair.q, ap.h, ap.m, ap.alpha, ap.eta_support)) + "\n"
        digest.update(line.encode())
    assert digest.hexdigest() == "03a490f6a043428f763547821da0ed32"


def dense_h_oracle(pair, support):
    """h from the full n x n system: h(beta) = -1 on the support plus the
    two block traces, solved by Gauss-Jordan elimination."""
    p, q = pair.p, pair.q
    rows = [list(dense(r, pair.n)) for r in support]
    rows.append([1] * p + [0] * q)
    rows.append([0] * p + [1] * q)
    rhs = [-1] * len(support) + [0, 0]
    return linalg.solve_unique(rows, rhs)


def test_adapted_pair_against_dense_solve():
    for pair in coprime_pairs(30):
        ap = adapted_pair(walk(pair))
        want = dense_h_oracle(pair, ap.eta_support)
        assert want is not None
        assert len(ap.h) == len(want) == pair.n
        for got, exp in zip(ap.h, want):
            assert type(got) is int and got == exp
        assert ap.m == dot(want, dense(ap.alpha, pair.n))


def fake_walk(p, q, phi, eps, e):
    return SimpleNamespace(
        pair=SimpleNamespace(p=p, q=q), traversal=SimpleNamespace(phi=phi), eps=eps, e=e
    )


def test_path_solve_rejects_degenerate_support():
    # the sides {1, 3} and {2, 4} of e meet both blocks of (2, 2) equally
    with pytest.raises(AdaptedPairError, match="singular"):
        verify._solve_h_on_walk(fake_walk(2, 2, (1, 3, 2, 4), (1, 1, 1), 2))
    assert issubclass(AdaptedPairError, ValueError)


def test_path_solve_rejects_non_integral_h():
    # sides {1} and {2, 3}: the block traces give h = (0, -1/2, 1/2)
    with pytest.raises(AdaptedPairError, match="not integral"):
        verify._solve_h_on_walk(fake_walk(1, 2, (1, 2, 3), (1, 1), 1))


def test_adapted_pair_rejects_a_flipped_sign():
    td = walk(CoprimePair(2, 5))
    for i in range(len(td.eps)):
        eps = td.eps[:i] + (-td.eps[i],) + td.eps[i + 1 :]
        with pytest.raises(AdaptedPairError, match=r"\(2,5\): .* not the signed meander chain"):
            adapted_pair(replace(td, eps=eps))


def test_adapted_pair_rejects_malformed_union(monkeypatch):
    monkeypatch.setattr(verify.rootlab, "levi_cascade", lambda p, q: frozenset())
    with pytest.raises(AdaptedPairError, match="expected 4"):
        adapted_pair(walk(CoprimePair(2, 3)))


def test_adapted_pair_rejects_an_m_off_the_closed_form(monkeypatch):
    monkeypatch.setattr(verify, "alpha_eigenvalue", lambda pair: 0)
    with pytest.raises(AdaptedPairError) as info:
        adapted_pair(walk(CoprimePair(2, 3)))
    assert str(info.value) == (
        "no certified adapted pair for (2,3): "
        "the eigenvalue m = 8 on x_alpha breaks the closed form"
    )


# --- regularity of eta ----------------------------------------------------

def test_eta_regularity_witnesses():
    reg = eta_regularity(graded_skew_form(adapted_pair(walk(CoprimePair(1, 2)))))
    assert reg == {"dim_p": 5, "rank": 4, "stabiliser_dim": 1, "regular": True}
    reg = eta_regularity(graded_skew_form(adapted_pair(walk(CoprimePair(2, 3)))))
    assert reg["dim_p"] == 17 and reg["rank"] == 16 and reg["stabiliser_dim"] == 1


def test_zero_functional_degenerate():
    pair = CoprimePair(2, 3)
    s, basis = skew_form_matrix(pair, eta={})
    assert linalg.rank_int(s) == 0
    assert len(basis) == 17  # stabiliser of zero is everything


def test_parabolic_basis_dimension():
    # d and m are one count: d = 2m + 1
    for pair in coprime_pairs(30):
        d = len(parabolic_basis(pair))
        form = graded_skew_form(adapted_pair(walk(pair)))
        assert d == form.dim == 2 * alpha_eigenvalue(pair) + 1
        assert d == pair.p ** 2 + pair.q ** 2 + pair.p * pair.q - 2
        assert d % 2 == 1


def basis_ids(pair):
    """The position ids of the basis of `parabolic_basis`, in its order."""
    return [position_id(b, pair.n + 1) for b in parabolic_basis(pair)]


def test_position_ids_name_the_parabolic_basis():
    for pair in coprime_pairs(20):
        p, n = pair.p, pair.n
        w = n + 1
        basis = parabolic_basis(pair)
        assert basis == dict_parabolic_basis(pair)
        ap = adapted_pair(walk(pair))
        form = graded_skew_form(ap)
        assert len(form.weights) == len(form.rows) == w * w
        ids = basis_ids(pair)
        assert len(ids) == len(basis) == form.dim
        for k, b in zip(ids, basis):
            x, y = divmod(k, w)
            if x != y:
                assert b == {(x, y): 1}
                assert form.weights[k] == h_eigenvalue(ap.h, (x, y))
            else:
                assert b == {(x, x): 1, (x + 1, x + 1): -1}
                assert form.weights[k] == 0
        # the ids are distinct, and they are the slots of the parabolic:
        # E_xy for x != y and not x <= p < y, and H_x for 0 < x < n, x != p
        members = [x * w + y for x in range(1, w) for y in range(1, w) if x != y and not x <= p < y]
        members += [x * w + x for x in range(1, n) if x != p]
        assert sorted(ids) == sorted(members) and len(set(ids)) == len(ids)
        # every other slot has an empty row
        assert all(not form.rows[k] for k in set(range(w * w)) - set(ids))
        assert {0, p * w + p, n * w + n}.isdisjoint(ids)


def dense_complement_oracle(s, basis, root):
    """complement_check on the dense form: append the functional row of
    x_root and rank with the modular oracle."""
    top = {root: 1}
    extra = [verify._sparse_trace_product(top, b) for b in basis]
    return verify.certified_rank(s + [extra], len(basis)) == len(basis)


def test_graded_form_against_dense_oracle():
    for pair in coprime_pairs(20):
        ap = adapted_pair(walk(pair))
        form = graded_skew_form(ap)
        s, basis = skew_form_matrix(pair, ap)
        d = len(basis)
        # every non-zero dense entry sits in the block of its row weight,
        # at the position ids of its basis elements
        ids = basis_ids(pair)
        blocks = form_blocks(form)
        nonzero = 0
        for j, row in enumerate(s):
            for k, v in enumerate(row):
                if v:
                    nonzero += 1
                    assert blocks[form.weights[ids[j]]][ids[j]][ids[k]] == v
        assert nonzero == sum(len(r) for rows in blocks.values() for r in rows.values())
        reg = eta_regularity(form)
        assert reg["stabiliser_dim"] == d - verify.certified_rank(s, d - 1) == 1
        assert complement_check(form, ap.alpha) == dense_complement_oracle(
            s, basis, ap.alpha
        )
        if pair.n <= 12:
            for beta in ap.eta_support:
                assert not complement_check(form, beta)
                assert not dense_complement_oracle(s, basis, beta)


def test_graded_form_ranks_pinned():
    # one line repr((p, q, sorted ranks by weight)) per pair with n <= 60
    digest = hashlib.md5()
    pairs = coprime_pairs(60)
    assert len(pairs) == 550
    for pair in pairs:
        form = graded_skew_form(adapted_pair(walk(pair)))
        line = repr((pair.p, pair.q, sorted(form.ranks.items()))) + "\n"
        digest.update(line.encode())
    assert digest.hexdigest() == "3cc1a6c7e033ec9f162d6e5c94df05d0"


class RankSpy:
    """Counts the calls of `linalg.rank_int`, the Bareiss fallback, or of
    another rank function of `linalg` named by `name`."""

    def __init__(self, monkeypatch, name="rank_int"):
        self.calls = 0
        original = getattr(linalg, name)

        def spy(*args):
            self.calls += 1
            return original(*args)

        monkeypatch.setattr(linalg, name, spy)


def dict_oracle_errors(module, pairs):
    """The pairs whose graded form by `module.graded_skew_form` is not the
    one of `dict_graded_form`, in the weights of its basis ids, its blocks or
    its ranks.  The oracle builds every row from its own side, per basis
    element, so this compares each entry written root by root, and its
    mirror, with the entry derived another way."""
    errors = []
    for pair in pairs:
        ap = adapted_pair(walk(pair))
        form = module.graded_skew_form(ap)
        weights, blocks, ranks = dict_graded_form(ap)
        basis_weights = {k: form.weights[k] for k in weights}
        if (basis_weights, form_blocks(form), form.ranks) != (weights, blocks, ranks):
            errors.append(pair)
    return errors


def test_graded_form_against_dict_oracle():
    assert dict_oracle_errors(verify, coprime_pairs(40)) == []


def test_form_entries_are_units_across_weights_summing_to_1():
    # what `_form_rows` proves for every pair, checked for n <= 60: each
    # stored entry is +-1 and joins two ids whose weights sum to 1
    for pair in coprime_pairs(60):
        form = graded_skew_form(adapted_pair(walk(pair)))
        for j, row in enumerate(form.rows):
            for k, v in row.items():
                assert v in (1, -1) and form.weights[j] + form.weights[k] == 1


def complement_rows(form, root):
    """The rows that `complement_check` ranks for x_root = E_ab: the block
    {j: row} of the lines of E_ba's component, by the walk of `component`,
    whose weight is not that of E_ba, and the functional row of x_root."""
    a, b = root
    k = b * (form.pair.n + 1) + a
    block = {j: form.rows[j] for j in component(form.rows, k) if form.weights[j] != form.weights[k]}
    return block, {k: 1}


def dimension_bound(rows):
    return min(len(rows), len({k for row in rows for k in row}))


def test_block_ranks_against_bareiss(monkeypatch):
    spy = RankSpy(monkeypatch)
    forms = []
    for pair in coprime_pairs(30):
        ap = adapted_pair(walk(pair))
        form = graded_skew_form(ap)
        forms.append(form)
        assert complement_check(form, ap.alpha)
        # each ranked block, and the component block x_alpha joins, meets
        # its bound
        for lam, rows in form_blocks(form).items():
            if lam >= 1:
                assert form.ranks[lam] == dimension_bound(rows.values())
        block, functional = complement_rows(form, ap.alpha)
        assert len(block) + 1 == dimension_bound([*block.values(), functional])
    # the certificate needed no Bareiss rank
    assert spy.calls == 0
    for form in forms:
        blocks = form_blocks(form)
        for lam, rows in blocks.items():
            exact = dense_block_rank(rows.values())
            assert linalg.rank_mod_prime(rows.values(), PRIME) == exact
            assert form.ranks[lam] == exact
            if lam < 1:
                partner = blocks[1 - lam]
                assert form.ranks[1 - lam] == exact
                assert {(j, k): v for j, row in rows.items() for k, v in row.items()} == {
                    (j, k): -v for k, row in partner.items() for j, v in row.items()
                }


# `_block_rank` itself, for the whole-block oracle, whatever a test patches
whole_block_rank = verify._block_rank


def peel_errors(form):
    """The weights lam >= 1 whose peeled rank in `form` is not the rank of
    the whole block by `_block_rank`, or is not copied to block 1 - lam."""
    return [
        lam
        for lam, rows in form_blocks(form).items()
        if lam >= 1 and not form.ranks[lam] == form.ranks[1 - lam] == whole_block_rank(rows.values())
    ]


def peel_cores(monkeypatch, ap):
    """The graded form of `ap`, and the cores that its leaf-peel hands to
    `_block_rank`."""
    cores = []

    def record(rows):
        cores.append(list(rows))
        return whole_block_rank(cores[-1])

    monkeypatch.setattr(verify, "_block_rank", record)
    form = graded_skew_form(ap)
    monkeypatch.setattr(verify, "_block_rank", whole_block_rank)
    return form, cores


def test_peel_ranks_against_whole_block_ranks(monkeypatch):
    for pair in coprime_pairs(60):
        form, cores = peel_cores(monkeypatch, adapted_pair(walk(pair)))
        assert peel_errors(form) == []
        # the peel leaves one square core of n - 2 rows, and none when p = 1
        shapes = [(len(core), len({k for row in core for k in row})) for core in cores]
        assert shapes == ([] if pair.p == 1 else [(pair.n - 2, pair.n - 2)])


def test_component_census():
    for pair in coprime_pairs(30):
        ap = adapted_pair(walk(pair))
        form = graded_skew_form(ap)
        census = component_census(form.rows, sorted(basis_ids(pair)))
        assert sum(rank for _, _, rank, _, _ in census) == form.dim - 1  # so every rank is exact
        cyclic = [c for c in census if c[1] >= c[0]]
        acyclic = [c for c in census if c[1] < c[0]]
        # one component has a cycle, except at (1,2) and (1,3), and it is
        # non-singular; for p >= 2 it holds the whole core of the peel
        if (pair.p, pair.q) in ((1, 2), (1, 3)):
            assert cyclic == []
        else:
            ((size, _, rank, core, _),) = cyclic
            assert rank == size
            assert core == sum(c[3] for c in census) == (2 * (pair.n - 2) if pair.p >= 2 else 0)
        # one component is singular, with kernel dimension 1, and it is
        # acyclic: a tree, or a single isolated basis element
        ((size, edges, rank, _, members),) = [c for c in census if c[2] < c[0]]
        assert size - rank == 1 and edges == size - 1
        # it holds E_ba, the one basis element that the functional of
        # x_alpha = E_ab reads, and has one more line of E_ba's weight (the
        # columns of its block) than of the other; it is E_ba alone when p = 1
        a, b = ap.alpha
        k = b * (pair.n + 1) + a
        columns = sum(form.weights[j] == form.weights[k] for j in members)
        assert k in members and columns == size - columns + 1
        if pair.p == 1:
            assert members == [k]
        # the leaf-peel removes every acyclic component completely
        assert all(core == 0 for _, _, _, core, _ in acyclic)


def test_gf2_ranks_need_no_bareiss(monkeypatch):
    # every core of the peel, and every block x_alpha joins, meets its
    # dimension bound over GF(2)
    spy = RankSpy(monkeypatch)
    for pair in coprime_pairs(60):
        ap = adapted_pair(walk(pair))
        form = graded_skew_form(ap)
        assert eta_regularity(form)["stabiliser_dim"] == 1
        assert complement_check(form, ap.alpha)
    assert spy.calls == 0


PEEL_MUTANTS = {
    # a column-side leaf is removed with its partner but not counted
    "drop_column_leaf": (
        "ranks[lam] = ranks.get(lam, 0) + 1",
        "ranks[lam] = ranks.get(lam, 0) + (weights[j] >= 1)",
    ),
    # a leaf queued again after its removal is counted again
    "count_leaf_twice": (
        "        if live[j] != 1:  # removed, or left isolated, since it was queued\n"
        "            continue\n",
        "",
    ),
}


@pytest.mark.parametrize("mutation", sorted(PEEL_MUTANTS))
def test_peel_mutants_fail_the_whole_block_oracle(monkeypatch, mutation):
    mutant = mutate(monkeypatch, verify, *PEEL_MUTANTS[mutation])
    forms = [mutant.graded_skew_form(mutant.adapted_pair(walk(pair))) for pair in coprime_pairs(20)]
    assert any(peel_errors(form) for form in forms)
    assert any(eta_regularity(form)["stabiliser_dim"] != 1 for form in forms)


PEEL_EDITS = {
    # name: (a source edit of `_peel_ranks`, the test that must fail once it
    # is made); the test passes before the edit.  A removed line loses a
    # live degree again each time its partner's neighbour is peeled
    "decrement_removed_lines": (
        "if live[i]:",
        "if True:",
        test_peel_ranks_against_whole_block_ranks,
    ),
    # nothing is peeled, so the cores are the whole blocks: the ranks stay
    # exact, and the whole-block oracle of PEEL_MUTANTS misses it
    "no_leaf_queued": (
        "leaves = [j for j, degree in enumerate(live) if degree == 1]",
        "leaves = []",
        test_peel_ranks_against_whole_block_ranks,
    ),
}


@pytest.mark.parametrize("mutation", sorted(PEEL_EDITS))
def test_peel_edits_fail_their_tests(monkeypatch, mutation):
    old, new, test = PEEL_EDITS[mutation]
    run_test(test, ())
    mutate(monkeypatch, verify, old, new)
    with pytest.raises((Exception, pytest.fail.Exception)):
        run_test(test, ())


FORM_MUTANTS = {
    # one sign flipped at each write of `_form_rows`: term 1 and term 2 are
    # the terms eta_fc and -eta_de of trace(eta [E_cd, E_ef]) in its
    # docstring, and the unit mirror S(E_xa, E_bx) is term 2 of its pair
    "term_1_unit": ("rows[j][k] = 1\n", "rows[j][k] = -1\n"),
    "term_2_unit": ("rows[k][j] = -1\n", "rows[k][j] = 1\n"),
    "term_1_cartan": ("(b - 1, -1), (b, 1)", "(b - 1, 1), (b, -1)"),
    "term_2_cartan": ("(a - 1, 1), (a, -1)", "(a - 1, -1), (a, 1)"),
    # the mirror write of the Cartan entries
    "mirror": ("rows[k][i] = -v", "rows[k][i] = v"),
}


@pytest.mark.parametrize("mutation", sorted(FORM_MUTANTS))
def test_form_mutants_fail_the_dict_oracle(monkeypatch, mutation):
    # the oracle of test_graded_form_against_dict_oracle builds each row
    # from its own side: it must see each flipped sign
    mutant = mutate(monkeypatch, verify, *FORM_MUTANTS[mutation])
    pairs = coprime_pairs(20)
    assert len(dict_oracle_errors(mutant, pairs)) >= len(pairs) - 1


def certificate(pair):
    """The graded ranks of `pair`, its stabiliser dimension and its
    complement check for x_alpha."""
    ap = adapted_pair(walk(pair))
    form = graded_skew_form(ap)
    return form.ranks, eta_regularity(form)["stabiliser_dim"], complement_check(form, ap.alpha)


@pytest.mark.parametrize("mutation", sorted(FORM_MUTANTS))
def test_form_mutants_leave_the_certificate_unchanged(monkeypatch, mutation):
    # the certified ranks ignore the signs of the entries (`_block_rank`):
    # a flipped sign leaves the whole certificate as it was, with no
    # Bareiss call, and only the dict oracle above sees it
    spy = RankSpy(monkeypatch)
    pairs = coprime_pairs(20)
    assert len(pairs) == 63
    want = [certificate(pair) for pair in pairs]
    mutate(monkeypatch, verify, *FORM_MUTANTS[mutation])
    assert [certificate(pair) for pair in pairs] == want
    assert spy.calls == 0


def mutated_form(monkeypatch, ap, mutate):
    """graded_skew_form with `mutate(j, row)` applied to the built row of
    every basis id j, before the form is ranked."""
    build = verify._form_rows

    def form_rows(*args):
        rows = build(*args)
        for j, row in enumerate(rows):
            mutate(j, row)
        return rows

    monkeypatch.setattr(verify, "_form_rows", form_rows)
    form = graded_skew_form(ap)
    monkeypatch.setattr(verify, "_form_rows", build)
    return form


def scaled_entry(j0, k0):
    """A `mutated_form` mutation: S_j0k0 and S_k0j0 times 2.  On an entry
    alone in its row, or in its column, of a block, this scales that line
    of the block, so its rank over Q is unchanged, while its rank over
    GF(2) can drop by 1."""

    def scale_entry(j, row):
        for a, b in ((j0, k0), (k0, j0)):
            if j == a:
                row[b] *= 2

    return scale_entry


def scaled_line(i0):
    """A `mutated_form` mutation: every entry S_i0k and S_ki0 times 2.  In
    the block of i0 this scales one row or column, so the rank over Q is
    unchanged, while over GF(2) that line vanishes."""

    def scale_line(j, row):
        for k in row:
            if i0 in (j, k):
                row[k] *= 2

    return scale_line


def leaf_entry(form):
    """An entry (j, k) of a ranked block, lam >= 1, alone in its row and in
    its column: a pivot of the leaf-peel."""
    blocks = form_blocks(form)
    column_counts = Counter(k for rows in blocks.values() for row in rows.values() for k in row)
    return next(
        (j, k)
        for lam, rows in sorted(blocks.items())
        if lam >= 1
        for j, row in rows.items()
        for k in row
        if len(row) == 1 and column_counts[k] == 1
    )


def test_scaled_entry_reaches_the_bareiss_fallback(monkeypatch):
    pair = CoprimePair(3, 4)
    ap = adapted_pair(walk(pair))
    _, cores = peel_cores(monkeypatch, ap)
    # the one core that the peel leaves is square and of full rank, so any
    # of its columns vanishing over GF(2) drops its GF(2) rank
    (core,) = cores
    k0 = min(k for row in core for k in row)

    spy = RankSpy(monkeypatch)
    mutated = mutated_form(monkeypatch, ap, scaled_line(k0))
    gf2 = sum(linalg.rank_mod_2(rows.values()) for rows in form_blocks(mutated).values())
    assert gf2 < mutated.dim - 1
    # only the tampered core falls short of its bound
    assert spy.calls == 1
    assert eta_regularity(mutated)["stabiliser_dim"] == 1


def test_scaled_leaf_needs_no_arithmetic(monkeypatch):
    pair = CoprimePair(3, 4)
    ap = adapted_pair(walk(pair))
    (j0, k0) = leaf_entry(graded_skew_form(ap))
    spy = RankSpy(monkeypatch)
    mutated = mutated_form(monkeypatch, ap, scaled_entry(j0, k0))
    assert abs(mutated.rows[j0][k0]) == 2
    # the peel counts the leaf whatever its value: no Bareiss rank
    assert spy.calls == 0
    assert eta_regularity(mutated)["stabiliser_dim"] == 1


def zeroed_row_form(monkeypatch):
    """The adapted pair of (3,4) and its form with the row and the column of
    one id j0 cleared, j0 a row in a pair of square blocks of full rank:
    the kernel of S misses it."""
    pair = CoprimePair(3, 4)
    ap = adapted_pair(walk(pair))
    form = graded_skew_form(ap)
    sizes = Counter(form.weights[k] for k in basis_ids(pair))
    j0 = next(
        j
        for lam, rows in sorted(form_blocks(form).items())
        if sizes[lam] == sizes[1 - lam] == form.ranks[lam]
        for j in rows
    )

    def zero_row_and_column(j, row):
        if j == j0:
            row.clear()
        row.pop(j0, None)

    return ap, mutated_form(monkeypatch, ap, zero_row_and_column)


def test_zeroed_row_drops_the_rank_within_the_bound(monkeypatch):
    spy = RankSpy(monkeypatch)
    _, mutated = zeroed_row_form(monkeypatch)
    # the lost row or column lowers the bound with the rank: no Bareiss
    assert spy.calls == 0
    assert eta_regularity(mutated)["stabiliser_dim"] == 3


def test_graded_form_rejects_entries_off_their_block():
    pair = CoprimePair(2, 3)
    ap = adapted_pair(walk(pair))
    tampered_h = (ap.h[0] + 1,) + ap.h[1:]
    with pytest.raises(ValueError, match="not 1"):
        graded_skew_form(replace(ap, h=tampered_h))
    # x_alpha has weight m = 8, not -1
    with pytest.raises(ValueError, match="not 1"):
        graded_skew_form(replace(ap, eta_support=ap.eta_support + (ap.alpha,)))


def test_complement_check(monkeypatch):
    spy = RankSpy(monkeypatch)
    for pq in [(1, 2), (2, 3)]:
        pair = CoprimePair(*pq)
        ap = adapted_pair(walk(pair))
        form = graded_skew_form(ap)
        before = spy.calls
        assert complement_check(form, ap.alpha)
        assert spy.calls == before  # a GF(2) gain is exact
        # any eta-support root lies in the coadjoint image: rank cannot close
        for beta in ap.eta_support:
            assert not complement_check(form, beta)
        # each False is certified by the block's bound too
        assert spy.calls == before


def scaled_complement_form(monkeypatch):
    """The adapted pair of (3,7) and its form with one entry scaled by 2:
    in the block that `complement_check` ranks for x_alpha, the entry alone
    in its column, other than E_ba's.  No entry of E_ba's component is
    alone in both its row and its column: the component is connected, so
    that entry would be a component of its own."""
    ap = adapted_pair(walk(CoprimePair(3, 7)))
    block, functional = complement_rows(graded_skew_form(ap), ap.alpha)
    column_counts = Counter(c for row in [*block.values(), functional] for c in row)
    (j0, k0) = next((j, c) for j, row in block.items() for c in row if column_counts[c] == 1)
    return ap, mutated_form(monkeypatch, ap, scaled_entry(j0, k0))


def test_scaled_entry_reaches_the_complement_fallback(monkeypatch):
    ap, mutated = scaled_complement_form(monkeypatch)
    spy = RankSpy(monkeypatch)
    # the scaled column vanishes over GF(2), so only Bareiss reaches the
    # rank that the functional row adds
    assert complement_check(mutated, ap.alpha)
    assert spy.calls == 1


def test_complement_check_against_the_whole_block_rule(monkeypatch):
    # the forged forms first: on them the rank of S, or the GF(2) rank of
    # the block x_alpha joins, falls short
    forged = [zeroed_row_form(monkeypatch), scaled_complement_form(monkeypatch)]
    forged += [(ap, graded_skew_form(ap)) for ap in map(adapted_pair, map(walk, coprime_pairs(40)))]
    for ap, form in forged:
        roots = (ap.alpha, *ap.eta_support) if ap.pair.n <= 12 else (ap.alpha,)
        for root in roots:
            assert complement_check(form, root) == block_complement_check(form, root)


class UnreadRow:
    """A row that fails the test that reads it."""

    def read(self, *args):
        raise AssertionError("a row outside the component of E_ba was read")

    __iter__ = __len__ = __bool__ = __contains__ = __getitem__ = read

    def __getattr__(self, name):
        self.read()


def test_complement_check_reads_only_its_component():
    for pair in coprime_pairs(20):
        ap = adapted_pair(walk(pair))
        form = graded_skew_form(ap)
        for a, b in (ap.alpha, *ap.eta_support):
            members = set(component(form.rows, b * (pair.n + 1) + a))
            rows = [row if j in members else UnreadRow() for j, row in enumerate(form.rows)]
            guarded = replace(form, rows=rows)
            assert complement_check(guarded, (a, b)) == complement_check(form, (a, b))


COMPLEMENT_EDITS = {
    # name: a source edit of `complement_check`, which
    # test_complement_check_against_the_whole_block_rule must catch.  A
    # component block of full rank reads as raised by the functional row
    "rank_not_raised": ("== len(rows) + 1", ">= len(rows)"),
    # a form of rank below d - 1 is read as if E_ba's component decided it
    "no_rank_test": (" or form.rank != form.dim - 1", ""),
}


@pytest.mark.parametrize("mutation", sorted(COMPLEMENT_EDITS))
def test_complement_edits_fail_the_whole_block_rule(monkeypatch, mutation):
    test = test_complement_check_against_the_whole_block_rule
    run_test(test, ())
    mutate(monkeypatch, verify, *COMPLEMENT_EDITS[mutation])
    with pytest.raises(AssertionError):
        run_test(test, ())


def test_complement_check_of_a_root_outside_the_dual(monkeypatch):
    # (p + 1, 1) lies in the lower-left corner, so its transpose E_{1,p+1}
    # is not in p: its functional is zero and nothing is ranked
    forms = [(pair, graded_skew_form(adapted_pair(walk(pair)))) for pair in coprime_pairs(14)]
    bareiss = RankSpy(monkeypatch)
    gf2 = RankSpy(monkeypatch, "rank_mod_2")
    for pair, form in forms:
        assert {(1, pair.p + 1): 1} not in parabolic_basis(pair)
        assert not form.rows[1 * (pair.n + 1) + pair.p + 1]
        assert not complement_check(form, (pair.p + 1, 1))
    assert bareiss.calls == gf2.calls == 0


# --- completed element ----------------------------------------------------

def unit(a, b, n):
    m = [[0] * n for _ in range(n)]
    m[a - 1][b - 1] = 1
    return m


def addm(*ms):
    n = len(ms[0])
    return [[sum(m[i][j] for m in ms) for j in range(n)] for i in range(n)]


def test_completed_element_witnesses():
    sc = construct(CoprimePair(2, 3))
    assert completed_element(sc) == tuple(
        sorted(rootlab.eps_diff(a, b, 5) for a, b in ((2, 4), (4, 1), (1, 5), (5, 3)))
    )
    sc = construct(CoprimePair(1, 2))
    assert completed_element(sc) == tuple(
        sorted(rootlab.eps_diff(a, b, 3) for a, b in ((2, 1), (1, 3)))
    )


def test_completed_element_rejects_repeated_root():
    sc = construct(CoprimePair(2, 3))
    with pytest.raises(ValueError, match="repeats a root"):
        completed_element(replace(sc, pi_final=sc.pi_final + sc.pi_final[:1]))


def test_path_order_regular_rejects_broken_supports():
    sc = construct(CoprimePair(3, 4))  # the smallest pair with an added root
    support = completed_element(sc)
    assert path_order_regular(support, sc.order)
    (added,) = [r for r in support if r not in sc.pi_final]
    # every path edge is still there, but one root points backwards
    reversed_one = [rootlab.neg(r) if r == added else r for r in support]
    assert not path_order_regular(reversed_one, sc.order)
    for edge in sc.pi_final:
        missing_edge = [r for r in support if r != edge]
        assert not path_order_regular(missing_edge, sc.order)


def test_check_regular_nilpotent_basics():
    jordan = [[1 if j == i + 1 else 0 for j in range(5)] for i in range(5)]
    assert check_regular_nilpotent(jordan)
    two_blocks = addm(unit(1, 2, 4), unit(3, 4, 4))
    assert not check_regular_nilpotent(two_blocks)
    assert not check_regular_nilpotent([[0] * 3 for _ in range(3)])


def test_regular_nilpotent_against_kernel_oracle():
    # on nilpotent matrices, regular <=> one-dimensional kernel
    rng = random.Random(5)
    for _ in range(120):
        n = rng.randint(2, 6)
        m = [[rng.randint(-2, 2) if j > i else 0 for j in range(n)] for i in range(n)]
        perm = list(range(n))
        rng.shuffle(perm)
        conj = [[m[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        want = (n - linalg.rank_int(conj)) == 1
        assert check_regular_nilpotent(conj) == want


def test_restriction_witnesses():
    pair = CoprimePair(2, 3)
    sc = construct(pair)
    ap = adapted_pair(walk(pair))
    res = check_restriction(completed_element(sc), ap)
    assert res["matches_eta"] and res["rest_in_nilradical"]
    assert res["minus"] == (rootlab.eps_diff(4, 1, 5),)  # -(a_1+a_2+a_3)
    pair = CoprimePair(1, 2)
    res = check_restriction(completed_element(construct(pair)), adapted_pair(walk(pair)))
    assert set(res["zero_one"]) == {rootlab.eps_diff(1, 3, 3)}
    assert set(res["minus"]) == {rootlab.eps_diff(2, 1, 3)}


def test_weyl_permutation():
    assert weyl_permutation(construct(CoprimePair(2, 3))) == (2, 4, 1, 5, 3)
    sc = construct(CoprimePair(1, 2))
    assert weyl_permutation(sc) == (2, 1, 3)
    with pytest.raises(ValueError, match="does not conjugate"):
        weyl_permutation(replace(sc, order=(1, 2, 3)))


def test_full_report_witness_pairs():
    rep = full_report(CoprimePair(2, 3))
    assert rep["all_ok"] and not rep["used_exceptional_fix"]
    assert rep["stabiliser_dim"] == 1 and rep["complement_ok"]
    rep = full_report(CoprimePair(1, 2))
    assert rep["all_ok"] and rep["used_exceptional_fix"]
