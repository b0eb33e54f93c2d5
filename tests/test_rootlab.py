import math
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
    from_simple_coords,
    kostant_cascade,
    levi_cascade,
    positive_wrt,
    to_simple_coords,
    validate_path_system,
)


def simple_root(i, n):
    return eps_diff(i, i + 1, n)


def coprime_pairs_upto(max_n):
    return [
        (p, n - p)
        for n in range(3, max_n + 1)
        for p in range(1, n // 2 + 1)
        if math.gcd(p, n - p) == 1
    ]


# --- eps_diff -------------------------------------------------------------

def test_eps_diff_examples():
    assert eps_diff(1, 3, 3) == (1, 0, -1)
    assert eps_diff(4, 2, 5) == (0, -1, 0, 1, 0)
    for n in range(2, 8):
        for i in range(1, n):
            k = to_simple_coords(eps_diff(i, i + 1, n))
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
    assert to_simple_coords(eps_diff(1, 3, 3)) == (1, 1)
    assert to_simple_coords(eps_diff(5, 3, 5)) == (0, 0, -1, -1)


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
    with pytest.raises(RootError, match="root lattice"):
        to_simple_coords((1, 1, 0))
    with pytest.raises(RootError, match="no simple root a_3"):
        alpha_p_coefficient(eps_diff(1, 2, 3), 3)
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
                assert rootlab.dot(r, s) == 0
                assert not rootlab.is_elementary(rootlab.add(r, s))
                assert not rootlab.is_elementary(rootlab.sub(r, s))


def test_levi_cascade_examples():
    assert levi_cascade(1, 2) == {eps_diff(3, 2, 3)}
    assert levi_cascade(2, 3) == {eps_diff(2, 1, 5), eps_diff(5, 3, 5)}


def test_levi_cascade_is_per_block_negated_cascade():
    # oracle: cascade per block, embedded, negated
    for p, q in coprime_pairs_upto(14):
        n = p + q
        want = set()
        if p >= 2:
            for r in kostant_cascade(p):
                a, b = rootlab.elementary_support(r)
                want.add(eps_diff(b, a, n))
        for r in kostant_cascade(q):
            a, b = rootlab.elementary_support(r)
            want.add(eps_diff(p + b, p + a, n))
        assert levi_cascade(p, q) == want


def test_union_size_and_independence():
    for p, q in coprime_pairs_upto(30):
        n = p + q
        union = kostant_cascade(n) | levi_cascade(p, q)
        assert len(union) == n - 1
        # independence: the simple-coordinate matrix has full rank
        from meanderslice import linalg

        rows = [list(to_simple_coords(r)) for r in sorted(union)]
        assert linalg.rank_int(rows) == n - 1


# --- path systems ---------------------------------------------------------

def test_validate_path_system_examples():
    roots = [eps_diff(2, 4, 5), eps_diff(4, 1, 5), eps_diff(1, 5, 5), eps_diff(5, 3, 5)]
    assert validate_path_system(roots) == (2, 4, 1, 5, 3)
    for n in range(2, 8):
        base = [simple_root(i, n) for i in range(1, n)]
        assert validate_path_system(base) == tuple(range(1, n + 1))


def test_validate_path_system_order_independent():
    roots = [eps_diff(1, 5, 5), eps_diff(5, 3, 5), eps_diff(2, 4, 5), eps_diff(4, 1, 5)]
    assert validate_path_system(roots) == (2, 4, 1, 5, 3)


def test_validate_path_system_error_kinds():
    with pytest.raises(PathSystemError) as ex:
        validate_path_system([])
    assert ex.value.kind == "count"
    with pytest.raises(PathSystemError) as ex:
        validate_path_system([eps_diff(1, 2, 3)])
    assert ex.value.kind == "count"
    with pytest.raises(PathSystemError) as ex:
        validate_path_system([eps_diff(1, 3, 3), rootlab.add(eps_diff(1, 3, 3), eps_diff(2, 3, 3))])
    assert ex.value.kind == "non-elementary"
    with pytest.raises(PathSystemError) as ex:
        validate_path_system(
            [eps_diff(1, 5, 5), eps_diff(3, 5, 5), eps_diff(2, 3, 5), eps_diff(5, 4, 5)]
        )
    assert ex.value.kind == "branching"
    with pytest.raises(PathSystemError) as ex:
        validate_path_system([eps_diff(1, 2, 3), eps_diff(2, 1, 3)])
    assert ex.value.kind in ("cycle", "branching")
    with pytest.raises(PathSystemError) as ex:
        validate_path_system(
            [eps_diff(1, 2, 4), eps_diff(2, 1, 4), eps_diff(3, 4, 4)]
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
    assert validate_path_system(roots) == tuple(order)
    gram = [[rootlab.dot(r, s) for s in roots] for r in roots]
    assert gram == cartan_matrix(n)


def test_non_path_gram_is_not_cartan():
    # branching star: Gram differs from Cartan in the off-diagonal pattern
    roots = [eps_diff(1, 4, 4), eps_diff(2, 4, 4), eps_diff(3, 4, 4)]
    gram = [[rootlab.dot(r, s) for s in roots] for r in roots]
    assert gram != cartan_matrix(4)
    with pytest.raises(PathSystemError):
        validate_path_system(roots)


# --- positivity -----------------------------------------------------------

def test_positive_wrt_examples():
    order = (2, 4, 1, 5, 3)
    assert positive_wrt(eps_diff(2, 4, 5), order)
    assert not positive_wrt(eps_diff(3, 2, 5), order)


def test_positive_wrt_matches_expansion_exhaustively():
    # n <= 8: positivity iff all expansion coefficients >= 0
    for n in range(2, 7):
        for order in permutations(range(1, n + 1)):
            if order[0] != 1:
                continue  # enough variety; keeps the loop fast
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    if a == b:
                        continue
                    r = eps_diff(a, b, n)
                    coeffs = rootlab.expand_in_path_system(r, order)
                    assert positive_wrt(r, order) == all(c >= 0 for c in coeffs)


def test_expand_in_path_system_errors():
    with pytest.raises(RootError, match="root lattice"):
        rootlab.expand_in_path_system((1, 0, 0), (1, 2, 3))
    # an order that repeats 1 and misses 3 cannot expand e_1 - e_3
    with pytest.raises(RootError, match="does not cover"):
        rootlab.expand_in_path_system(eps_diff(1, 3, 3), (1, 1, 2))


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
    coeffs = rootlab.expand_in_path_system(r, order)
    assert positive_wrt(r, order) == all(c >= 0 for c in coeffs)
    # expansion really reconstructs r
    path = [eps_diff(order[i], order[i + 1], n) for i in range(n - 1)]
    acc = (0,) * n
    for c, e in zip(coeffs, path):
        acc = rootlab.add(acc, rootlab.scale(c, e))
    assert acc == r
