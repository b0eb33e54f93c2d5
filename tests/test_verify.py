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
from oracles import dense, dense_block_rank, dict_graded_form, dict_parabolic_basis, dot


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


@given(small_matrices, st.sampled_from((2, 3, 5, 7, verify._PRIME)))
def test_rank_mod_prime_is_a_lower_bound(rows, prime):
    exact = linalg.rank_int(rows)
    rank = linalg.rank_mod_prime([dict(enumerate(r)) for r in rows], prime)
    assert rank <= exact
    if prime == verify._PRIME:
        # every minor is below (4 * sqrt(6))^6 < 2^31 - 1 in absolute value
        assert rank == exact


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
    ap = adapted_pair(CoprimePair(1, 2))
    assert set(ap.eta_support) == {rootlab.eps_diff(1, 3, 3)}
    assert ap.alpha == rootlab.eps_diff(3, 2, 3)  # minus the second simple root
    assert ap.h == (0, -1, 1)
    assert ap.m == 2


def test_adapted_pair_2_3():
    ap = adapted_pair(CoprimePair(2, 3))
    assert ap.h == (-4, 4, -2, 5, -3)
    assert ap.alpha == rootlab.eps_diff(2, 1, 5)
    assert ap.m == 8


def test_adapted_pair_structure_everywhere():
    for pair in coprime_pairs(30):
        ap = adapted_pair(pair)
        p, q, n = pair.p, pair.q, pair.n
        assert len(ap.eta_support) == n - 2
        assert sum(ap.h[:p]) == 0 and sum(ap.h[p:]) == 0
        for beta in ap.eta_support:
            assert h_eigenvalue(ap.h, beta) == -1
        assert 2 * (ap.m + 1) == p * p + q * q + p * q - 1
        assert alpha_eigenvalue(pair) == ap.m


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
        ap = adapted_pair(pair)
        want = dense_h_oracle(pair, ap.eta_support)
        assert want is not None
        assert len(ap.h) == len(want) == pair.n
        for got, exp in zip(ap.h, want):
            assert type(got) is int and got == exp
        assert ap.m == dot(want, dense(ap.alpha, pair.n))


def test_path_solve_rejects_degenerate_support():
    e = rootlab.eps_diff
    # two edges on five vertices: three components
    with pytest.raises(AdaptedPairError, match="3 components"):
        verify._solve_h_on_paths([e(1, 2, 5), e(3, 4, 5)], 2, 3)
    # components {1,3} and {2,4} meet both blocks of (2, 2) equally
    with pytest.raises(AdaptedPairError, match="singular"):
        verify._solve_h_on_paths([e(1, 3, 4), e(2, 4, 4)], 2, 2)
    # a cycle whose eigenvalue conditions contradict each other
    with pytest.raises(AdaptedPairError, match="inconsistent"):
        verify._solve_h_on_paths([e(1, 2, 3), e(2, 3, 3), e(1, 3, 3)], 1, 2)
    assert issubclass(AdaptedPairError, ValueError)


def test_path_solve_rejects_non_integral_h():
    # components {1} and {2, 3}: the block traces give h = (0, -1/2, 1/2)
    with pytest.raises(AdaptedPairError, match="not integral"):
        verify._solve_h_on_paths([rootlab.eps_diff(2, 3, 3)], 1, 2)


def test_adapted_pair_rejects_malformed_union(monkeypatch):
    monkeypatch.setattr(verify.rootlab, "levi_cascade", lambda p, q: frozenset())
    with pytest.raises(AdaptedPairError, match="expected 4"):
        adapted_pair(CoprimePair(2, 3))


# --- regularity of eta ----------------------------------------------------

def test_eta_regularity_witnesses():
    reg = eta_regularity(graded_skew_form(adapted_pair(CoprimePair(1, 2))))
    assert reg == {"dim_p": 5, "rank": 4, "stabiliser_dim": 1, "regular": True}
    reg = eta_regularity(graded_skew_form(adapted_pair(CoprimePair(2, 3))))
    assert reg["dim_p"] == 17 and reg["rank"] == 16 and reg["stabiliser_dim"] == 1


def test_zero_functional_degenerate():
    pair = CoprimePair(2, 3)
    s, basis = skew_form_matrix(pair, eta={})
    assert linalg.rank_int(s) == 0
    assert len(basis) == 17  # stabiliser of zero is everything


def test_parabolic_basis_dimension():
    for pair in coprime_pairs(14):
        d = len(parabolic_basis(pair))
        assert d == pair.p ** 2 + pair.q ** 2 + pair.p * pair.q - 2
        assert d % 2 == 1


def test_parabolic_basis_rejects_inconsistent_pair():
    # n is not p + q, so the blocks do not fit the dimension formula
    with pytest.raises(ValueError, match="expected 5"):
        parabolic_basis(SimpleNamespace(p=1, q=2, n=4))


def test_basis_layout_names_the_parabolic_basis():
    for pair in coprime_pairs(20):
        elements, position, diagonal = verify.basis_layout(pair)
        basis = parabolic_basis(pair)
        assert basis == dict_parabolic_basis(pair)
        ap = adapted_pair(pair)
        form = graded_skew_form(ap)
        w = pair.n + 1
        assert form.position == position and form.stride == len(diagonal) == w
        assert len(elements) == len(basis) == form.dim
        for k, b in enumerate(basis):
            x, y = elements[k]
            if x != y:
                assert b == {(x, y): 1} and position[x * w + y] == k
                assert form.weights[k] == h_eigenvalue(ap.h, (x, y))
            else:
                assert b == {(x, x): 1, (x + 1, x + 1): -1} and diagonal[x] == k
                assert form.weights[k] == 0
        # every id sits in exactly one slot; every other slot holds -1
        assert sorted(k for k in position + diagonal if k >= 0) == list(range(len(basis)))
        assert diagonal[0] == diagonal[pair.p] == diagonal[pair.n] == -1


def test_eta_regularity_rejects_even_dimension():
    pair = SimpleNamespace(p=2, q=2, n=4)  # not coprime: dim p = 10
    zero = SimpleNamespace(pair=pair, h=(0, 0, 0, 0), eta_support=())
    form = graded_skew_form(zero)
    with pytest.raises(ValueError, match="even dimension 10"):
        eta_regularity(form)


def dense_complement_oracle(s, basis, root):
    """complement_check on the dense form: append the functional row of
    x_root and rank with the modular oracle."""
    top = {root: 1}
    extra = [verify._sparse_trace_product(top, b) for b in basis]
    return verify.certified_rank(s + [extra], len(basis)) == len(basis)


def test_graded_form_against_dense_oracle():
    for pair in coprime_pairs(20):
        ap = adapted_pair(pair)
        form = graded_skew_form(ap)
        s, basis = skew_form_matrix(pair, ap)
        d = len(basis)
        # every non-zero dense entry sits in the block of its row weight
        nonzero = 0
        for j, row in enumerate(s):
            for k, v in enumerate(row):
                if v:
                    nonzero += 1
                    assert form.blocks[form.weights[j]][j][k] == v
        assert nonzero == sum(len(r) for rows in form.blocks.values() for r in rows.values())
        reg = eta_regularity(form)
        assert reg["stabiliser_dim"] == d - verify.certified_rank(s, d - 1) == 1
        assert complement_check(form, ap.alpha) == dense_complement_oracle(
            s, basis, ap.alpha
        )
        if pair.n <= 12:
            for beta in ap.eta_support:
                assert not complement_check(form, beta)
                assert not dense_complement_oracle(s, basis, beta)


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


def test_graded_form_against_dict_oracle():
    for pair in coprime_pairs(40):
        ap = adapted_pair(pair)
        form = graded_skew_form(ap)
        weights, blocks, ranks = dict_graded_form(ap)
        assert form.weights == weights
        assert form.blocks == blocks
        assert form.ranks == ranks


def complement_rows(form, root):
    """The rows that `complement_check` ranks for x_root: the block whose
    columns have the weight of E_ba, plus the functional row of x_root."""
    a, b = root
    k = form.position[b * form.stride + a]
    lam = 1 - form.weights[k]
    return lam, list(form.blocks.get(lam, {}).values()) + [{k: 1}]


def dimension_bound(rows):
    return min(len(rows), len({k for row in rows for k in row}))


def test_block_ranks_against_bareiss(monkeypatch):
    spy = RankSpy(monkeypatch)
    forms = []
    for pair in coprime_pairs(30):
        ap = adapted_pair(pair)
        form = graded_skew_form(ap)
        forms.append(form)
        assert complement_check(form, ap.alpha)
        # each ranked block, and the block x_alpha joins, meets its bound
        for lam, rows in form.blocks.items():
            if lam >= 1:
                assert form.ranks[lam] == dimension_bound(rows.values())
        lam, rows = complement_rows(form, ap.alpha)
        assert form.ranks.get(lam, 0) + 1 == dimension_bound(rows)
    # the certificate needed no Bareiss rank
    assert spy.calls == 0
    for form in forms:
        for lam, rows in form.blocks.items():
            exact = dense_block_rank(rows.values())
            assert linalg.rank_mod_prime(rows.values(), verify._PRIME) == exact
            assert form.ranks[lam] == exact
            if lam < 1:
                partner = form.blocks[1 - lam]
                assert form.ranks[1 - lam] == exact
                assert {(j, k): v for j, row in rows.items() for k, v in row.items()} == {
                    (j, k): -v for k, row in partner.items() for j, v in row.items()
                }


def mutated_form(monkeypatch, ap, mutate):
    """graded_skew_form with `mutate(j, row)` applied to the built row of
    each basis id j."""
    build = verify._form_row

    def form_row(j, *args):
        row = build(j, *args)
        mutate(j, row)
        return row

    monkeypatch.setattr(verify, "_form_row", form_row)
    return graded_skew_form(ap)


def scaled_by_prime(j0, k0):
    """A `mutated_form` mutation: S_j0k0 and S_k0j0 times `_PRIME`.  On an
    entry alone in its row and in its column this scales a row, so the
    rank over Q is unchanged, while the rank modulo the prime drops by 1."""

    def scale_entry(j, row):
        for a, b in ((j0, k0), (k0, j0)):
            if j == a:
                row[b] *= verify._PRIME

    return scale_entry


def test_scaled_entry_reaches_the_bareiss_fallback(monkeypatch):
    pair = CoprimePair(3, 4)
    ap = adapted_pair(pair)
    form = graded_skew_form(ap)
    # an entry alone in its row and in its column, in a ranked block
    column_counts = Counter(k for rows in form.blocks.values() for row in rows.values() for k in row)
    (j0, k0) = next(
        (j, k)
        for lam, rows in sorted(form.blocks.items())
        if lam >= 1
        for j, row in rows.items()
        for k in row
        if len(row) == 1 and column_counts[k] == 1
    )

    spy = RankSpy(monkeypatch)
    mutated = mutated_form(monkeypatch, ap, scaled_by_prime(j0, k0))
    modular = sum(
        linalg.rank_mod_prime(rows.values(), verify._PRIME) for rows in mutated.blocks.values()
    )
    assert modular < form.dim - 1
    # only the tampered block falls short of its bound
    assert spy.calls == 1
    assert eta_regularity(mutated)["stabiliser_dim"] == 1


def test_zeroed_row_drops_the_rank_within_the_bound(monkeypatch):
    pair = CoprimePair(3, 4)
    ap = adapted_pair(pair)
    form = graded_skew_form(ap)
    sizes = Counter(form.weights)
    # a row in a pair of square blocks of full rank: the kernel of S misses it
    j0 = next(
        j
        for lam, rows in sorted(form.blocks.items())
        if sizes[lam] == sizes[1 - lam] == form.ranks[lam]
        for j in rows
    )

    def zero_row_and_column(j, row):
        if j == j0:
            row.clear()
        row.pop(j0, None)

    spy = RankSpy(monkeypatch)
    mutated = mutated_form(monkeypatch, ap, zero_row_and_column)
    # the lost row or column lowers the bound with the rank: no Bareiss
    assert spy.calls == 0
    assert eta_regularity(mutated)["stabiliser_dim"] == 3


def test_graded_form_rejects_entries_that_do_not_alternate(monkeypatch):
    pair = CoprimePair(2, 3)
    ap = adapted_pair(pair)
    form = graded_skew_form(ap)
    j0, row0 = next(iter(form.blocks[max(form.blocks)].items()))
    k0 = next(iter(row0))

    def tamper(j, row):  # S_jk + 1 stays in its block, but S_kj = -S_jk breaks
        if j == j0:
            row[k0] += 1

    with pytest.raises(ValueError, match="do not alternate") as info:
        mutated_form(monkeypatch, ap, tamper)
    # the first entry checked may be either of the two
    assert str(info.value) in {
        "skew-form entries (%d, %d) and (%d, %d) do not alternate" % (a, b, b, a)
        for a, b in ((j0, k0), (k0, j0))
    }


def test_graded_form_rejects_entries_off_their_block():
    pair = CoprimePair(2, 3)
    ap = adapted_pair(pair)
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
        ap = adapted_pair(pair)
        form = graded_skew_form(ap)
        before = spy.calls
        assert complement_check(form, ap.alpha)
        assert spy.calls == before  # a modular gain is exact
        # any eta-support root lies in the coadjoint image: rank cannot close
        for beta in ap.eta_support:
            assert not complement_check(form, beta)
        # each False is certified by the block's bound too
        assert spy.calls == before


def test_scaled_entry_reaches_the_complement_fallback(monkeypatch):
    pair = CoprimePair(3, 7)
    ap = adapted_pair(pair)
    form = graded_skew_form(ap)
    lam, rows = complement_rows(form, ap.alpha)
    column_counts = Counter(c for row in rows for c in row)
    # an entry alone in its row and in its column of the block x_alpha joins
    (j0, k0) = next(
        (j, c)
        for j, row in form.blocks[lam].items()
        for c in row
        if len(row) == 1 and column_counts[c] == 1
    )

    mutated = mutated_form(monkeypatch, ap, scaled_by_prime(j0, k0))
    spy = RankSpy(monkeypatch)
    assert complement_check(mutated, ap.alpha)
    assert spy.calls == 1


def test_complement_check_of_a_root_outside_the_dual(monkeypatch):
    # (p + 1, 1) lies in the lower-left corner, so its transpose E_{1,p+1}
    # is not in p: its functional is zero and nothing is ranked
    forms = [(pair, graded_skew_form(adapted_pair(pair))) for pair in coprime_pairs(14)]
    bareiss = RankSpy(monkeypatch)
    modular = RankSpy(monkeypatch, "rank_mod_prime")
    for pair, form in forms:
        assert form.position[1 * form.stride + pair.p + 1] == -1
        assert not complement_check(form, (pair.p + 1, 1))
    assert bareiss.calls == modular.calls == 0


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
    ap = adapted_pair(pair)
    res = check_restriction(completed_element(sc), ap)
    assert res["matches_eta"] and res["rest_in_nilradical"]
    assert res["minus"] == (rootlab.eps_diff(4, 1, 5),)  # -(a_1+a_2+a_3)
    pair = CoprimePair(1, 2)
    res = check_restriction(completed_element(construct(pair)), adapted_pair(pair))
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
