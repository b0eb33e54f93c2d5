import math
import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanderslice import rootlab
from meanderslice.rootlab import (
    PathSystemError,
    RootError,
    alpha_p_coefficient,
    eps_diff,
    kostant_cascade,
    levi_cascade,
    path_positions,
    positive_wrt,
    validate_path_system,
)
from oracles import (
    dense,
    dense_add,
    dense_expansion,
    dense_root,
    dense_scale,
    dot,
    from_simple_coords,
    to_simple_coords,
)


def simple_root(i, n):
    return eps_diff(i, i + 1, n)


def interval_coefficients(r, pos, n):
    """The coefficients of r over the path roots, read off its interval."""
    lo, hi, sign = rootlab.expand_in_path_system(r, pos)
    return tuple(sign if lo <= i < hi else 0 for i in range(1, n))


def coprime_pairs_upto(max_n):
    return [
        (p, n - p)
        for n in range(3, max_n + 1)
        for p in range(1, n // 2 + 1)
        if math.gcd(p, n - p) == 1
    ]


# --- eps_diff -------------------------------------------------------------

def test_eps_diff_examples():
    assert eps_diff(1, 3, 3) == (1, 3)
    assert dense(eps_diff(1, 3, 3), 3) == (1, 0, -1)
    assert dense(eps_diff(4, 2, 5), 5) == (0, -1, 0, 1, 0)
    assert rootlab.dense(eps_diff(4, 2, 5), 5) == (0, -1, 0, 1, 0)
    for n in range(2, 8):
        for i in range(1, n):
            k = to_simple_coords(dense(eps_diff(i, i + 1, n), n))
            assert k == tuple(1 if j == i else 0 for j in range(1, n))


def test_eps_diff_errors():
    with pytest.raises(RootError):
        eps_diff(2, 2, 5)
    with pytest.raises(RootError):
        eps_diff(0, 1, 5)
    with pytest.raises(RootError):
        eps_diff(1, 6, 5)


# --- coordinate conversions ----------------------------------------------

def test_simple_coords_examples():
    assert to_simple_coords(dense(eps_diff(1, 3, 3), 3)) == (1, 1)
    assert to_simple_coords(dense(eps_diff(5, 3, 5), 5)) == (0, 0, -1, -1)


@given(st.lists(st.integers(-10, 10), min_size=1, max_size=9))
def test_simple_coords_round_trip(k):
    k = tuple(k)
    r = from_simple_coords(k)
    assert sum(r) == 0
    assert to_simple_coords(r) == k


def test_alpha_p_coefficient_examples():
    assert alpha_p_coefficient(eps_diff(4, 2, 5), 2) == -1
    assert alpha_p_coefficient(eps_diff(2, 1, 5), 2) == 0
    # Levi roots of sl(p) x sl(q) have zero p-th coefficient
    for p, q in coprime_pairs_upto(12):
        for r in levi_cascade(p, q):
            assert alpha_p_coefficient(r, p) == 0


def test_alpha_p_coefficient_range_on_elementary():
    for n in range(2, 9):
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                if a == b:
                    continue
                for p in range(1, n):
                    assert alpha_p_coefficient(eps_diff(a, b, n), p) in (-1, 0, 1)


def test_coordinate_helpers_raise_typed_errors():
    with pytest.raises(ValueError, match="root lattice"):
        to_simple_coords((1, 1, 0))
    with pytest.raises(RootError, match="no simple root a_0"):
        alpha_p_coefficient(eps_diff(1, 2, 3), 0)
    with pytest.raises(RootError, match="not a root"):
        rootlab.scale(2, eps_diff(1, 2, 3))
    with pytest.raises(RootError, match="no roots"):
        kostant_cascade(1)


# --- cascades -------------------------------------------------------------

def test_kostant_cascade_small():
    assert kostant_cascade(2) == {simple_root(1, 2)}
    assert kostant_cascade(3) == {eps_diff(1, 3, 3)}
    assert kostant_cascade(5) == {eps_diff(1, 5, 5), eps_diff(2, 4, 5)}


def test_kostant_cascade_even_meets_simple_roots():
    for n in range(2, 13, 2):
        simples = {simple_root(i, n) for i in range(1, n)}
        assert kostant_cascade(n) & simples == {simple_root(n // 2, n)}
    for n in range(3, 13, 2):
        simples = {simple_root(i, n) for i in range(1, n)}
        assert not kostant_cascade(n) & simples


def test_kostant_cascade_strong_orthogonality():
    for n in range(2, 12):
        roots = sorted(kostant_cascade(n))
        for i, r in enumerate(roots):
            for s in roots[i + 1 :]:
                assert dot(dense(r, n), dense(s, n)) == 0
                assert rootlab.add(r, s) is None
                assert rootlab.sub(r, s) is None


def test_levi_cascade_examples():
    assert levi_cascade(1, 2) == {eps_diff(3, 2, 3)}
    assert levi_cascade(2, 3) == {eps_diff(2, 1, 5), eps_diff(5, 3, 5)}


def test_levi_cascade_is_per_block_negated_cascade():
    # oracle: cascade per block, embedded, negated
    for p, q in coprime_pairs_upto(14):
        n = p + q
        want = set()
        if p >= 2:
            for a, b in kostant_cascade(p):
                want.add(eps_diff(b, a, n))
        for a, b in kostant_cascade(q):
            want.add(eps_diff(p + b, p + a, n))
        assert levi_cascade(p, q) == want


def test_union_size_and_independence():
    for p, q in coprime_pairs_upto(30):
        n = p + q
        union = kostant_cascade(n) | levi_cascade(p, q)
        assert len(union) == n - 1
        # independence: the simple-coordinate matrix has full rank
        from meanderslice import linalg

        rows = [list(to_simple_coords(dense(r, n))) for r in sorted(union)]
        assert linalg.rank_int(rows) == n - 1


# --- path systems ---------------------------------------------------------

def test_validate_path_system_examples():
    roots = [eps_diff(2, 4, 5), eps_diff(4, 1, 5), eps_diff(1, 5, 5), eps_diff(5, 3, 5)]
    assert validate_path_system(roots, 5) == (2, 4, 1, 5, 3)
    for n in range(2, 8):
        base = [simple_root(i, n) for i in range(1, n)]
        assert validate_path_system(base, n) == tuple(range(1, n + 1))


def test_validate_path_system_order_independent():
    roots = [eps_diff(1, 5, 5), eps_diff(5, 3, 5), eps_diff(2, 4, 5), eps_diff(4, 1, 5)]
    assert validate_path_system(roots, 5) == (2, 4, 1, 5, 3)


def test_validate_path_system_error_kinds():
    with pytest.raises(PathSystemError) as ex:
        validate_path_system([], 1)
    assert ex.value.kind == "count"
    with pytest.raises(PathSystemError) as ex:
        validate_path_system([eps_diff(1, 2, 3)], 3)
    assert ex.value.kind == "count"
    with pytest.raises(PathSystemError) as ex:
        validate_path_system([eps_diff(1, 2, 3), eps_diff(2, 3, 3)], 4)
    assert ex.value.kind == "count"
    # the sum is 2 e_1 - e_2 - e_3, not a root
    not_a_root = rootlab.add(eps_diff(1, 3, 3), eps_diff(1, 2, 3))
    for bad in (not_a_root, (2, 2), (1, 4), (0, 2)):
        with pytest.raises(PathSystemError) as ex:
            validate_path_system([eps_diff(1, 3, 3), bad], 3)
        assert ex.value.kind == "non-elementary"
    with pytest.raises(PathSystemError) as ex:
        validate_path_system(
            [eps_diff(1, 5, 5), eps_diff(3, 5, 5), eps_diff(2, 3, 5), eps_diff(5, 4, 5)], 5
        )
    assert ex.value.kind == "branching"
    with pytest.raises(PathSystemError) as ex:
        validate_path_system([eps_diff(1, 2, 3), eps_diff(2, 1, 3)], 3)
    assert ex.value.kind in ("cycle", "branching")
    with pytest.raises(PathSystemError) as ex:
        validate_path_system(
            [eps_diff(1, 2, 4), eps_diff(2, 1, 4), eps_diff(3, 4, 4)], 4
        )
    assert ex.value.kind in ("cycle", "disconnected")


def cartan_matrix(n):
    m = [[0] * (n - 1) for _ in range(n - 1)]
    for i in range(n - 1):
        m[i][i] = 2
        if i:
            m[i][i - 1] = -1
            m[i - 1][i] = -1
    return m


@settings(max_examples=60)
@given(st.permutations(list(range(1, 7))))
def test_path_system_gram_matrix_is_cartan(order):
    # any Hamiltonian path gives the type A Cartan matrix as Gram matrix
    n = len(order)
    roots = [eps_diff(order[i], order[i + 1], n) for i in range(n - 1)]
    assert validate_path_system(roots, n) == tuple(order)
    gram = [[dot(dense(r, n), dense(s, n)) for s in roots] for r in roots]
    assert gram == cartan_matrix(n)


def test_non_path_gram_is_not_cartan():
    # branching star: Gram differs from Cartan in the off-diagonal pattern
    roots = [eps_diff(1, 4, 4), eps_diff(2, 4, 4), eps_diff(3, 4, 4)]
    gram = [[dot(dense(r, 4), dense(s, 4)) for s in roots] for r in roots]
    assert gram != cartan_matrix(4)
    with pytest.raises(PathSystemError):
        validate_path_system(roots, 4)


# --- positivity -----------------------------------------------------------

def test_positive_wrt_examples():
    pos = path_positions((2, 4, 1, 5, 3))
    assert pos == {2: 1, 4: 2, 1: 3, 5: 4, 3: 5}
    assert positive_wrt(eps_diff(2, 4, 5), pos)
    assert not positive_wrt(eps_diff(3, 2, 5), pos)


def test_positive_wrt_matches_expansion_exhaustively():
    # n <= 8: positivity iff all expansion coefficients >= 0
    for n in range(2, 7):
        for order in permutations(range(1, n + 1)):
            if order[0] != 1:
                continue  # enough variety; keeps the loop fast
            pos = path_positions(order)
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    if a == b:
                        continue
                    r = eps_diff(a, b, n)
                    coeffs = dense_expansion(dense(r, n), order)
                    assert positive_wrt(r, pos) == all(c >= 0 for c in coeffs)


def test_expand_in_path_system_errors():
    # the sum e_1 - e_3 + e_2 - e_3 is not a root, so it has no expansion
    not_a_root = rootlab.add(eps_diff(1, 3, 3), eps_diff(2, 3, 3))
    with pytest.raises(RootError, match="not a root"):
        rootlab.expand_in_path_system(not_a_root, path_positions((1, 2, 3)))
    # an order that repeats 1 and misses 3 cannot expand e_1 - e_3
    with pytest.raises(RootError, match="does not cover"):
        rootlab.expand_in_path_system(eps_diff(1, 3, 3), path_positions((1, 1, 2)))


@settings(max_examples=80)
@given(st.data())
def test_positive_wrt_matches_expansion_random(data):
    n = data.draw(st.integers(2, 8))
    order = tuple(data.draw(st.permutations(list(range(1, n + 1)))))
    a = data.draw(st.integers(1, n))
    b = data.draw(st.integers(1, n))
    if a == b:
        return
    r = eps_diff(a, b, n)
    pos = path_positions(order)
    coeffs = interval_coefficients(r, pos, n)
    assert positive_wrt(r, pos) == all(c >= 0 for c in coeffs)
    # expansion really reconstructs r
    acc = (0,) * n
    for i, c in enumerate(coeffs, 1):
        acc = dense_add(acc, dense_scale(c, dense((order[i - 1], order[i]), n)))
    assert acc == dense(r, n)


# --- pairs against the dense oracle ---------------------------------------

def test_pair_arithmetic_against_dense_oracle():
    # every root and every pair of roots of sl(n), n <= 7: the pair
    # arithmetic equals the coordinate arithmetic, None exactly where the
    # dense sum or difference is not a root
    rng = random.Random(11)
    for n in range(2, 8):
        roots = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
        orders = [tuple(range(1, n + 1)), tuple(range(n, 0, -1))]
        for _ in range(4):
            orders.append(tuple(rng.sample(range(1, n + 1), n)))
        misses = 0
        for r in roots:
            x = dense(r, n)
            assert rootlab.is_root(r, n)
            assert dense_root(x) == r
            assert rootlab.dense(r, n) == x
            assert dense(rootlab.neg(r), n) == dense_scale(-1, x)
            for k in (1, -1):
                assert dense(rootlab.scale(k, r), n) == dense_scale(k, x)
            simple = to_simple_coords(x)
            for p in range(1, n):
                assert alpha_p_coefficient(r, p) == simple[p - 1]
            for order in orders:
                pos = path_positions(order)
                want = dense_expansion(x, order)
                assert interval_coefficients(r, pos, n) == want
                assert positive_wrt(r, pos) == all(c >= 0 for c in want)
            for s in roots:
                y = dense(s, n)
                for op, want in (
                    (rootlab.add, dense_root(dense_add(x, y))),
                    (rootlab.sub, dense_root(dense_add(x, dense_scale(-1, y)))),
                ):
                    assert op(r, s) == want
                    misses += want is None
        assert misses > 0
