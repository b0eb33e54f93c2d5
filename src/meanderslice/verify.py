"""Exact certification of the adapted pair and its completed element.

Everything here works with integer matrices only: the nilpotent eta
supported on the cascades, the diagonal h with eta-eigenvalue -1 (the
adapted pair of arXiv 1011.0928), certified integral by its solve, the
regularity of eta in the truncated two-block parabolic, and the
completed regular nilpotent built from the modified simple root system.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from . import linalg, rootlab
from .meander import traversal, turning_data
from .slicebuild import construct

# small primes for the modular ranks of the dense oracle `certified_rank`
_PRIMES = (32749, 32719, 32717)


@dataclass(frozen=True)
class AdaptedPair:
    pair: object
    eta_support: tuple  # sorted roots beta with x_beta in eta
    alpha: tuple  # the one +- simple root dropped from the union
    h: tuple  # integral diagonal entries h_1..h_n
    m: int  # h-eigenvalue of x_alpha


def h_eigenvalue(h, r):
    """Eigenvalue of ad(diag h) on x_r for the root r = e_a - e_b: the
    difference h_a - h_b of two entries."""
    a, b = r
    return h[a - 1] - h[b - 1]


class AdaptedPairError(ValueError):
    """Raised when the adapted pair cannot be certified: the cascades are
    not the signed meander chain, or the eigenvalue system for h is not
    uniquely solvable, or its solution is not integral."""


def _solve_h_on_walk(td):
    """The unique diagonal h with h(eps_i beta_i) = -1 for i != e and zero
    trace on both diagonal blocks, for the walk `td` (`turning_data`).

    The paper (arXiv 1011.0928) asks only that h be ad-semisimple; here it
    is integral, and that is certified.  h(eps_i beta_i) = -1 reads
    h_phi(i+1) = h_phi(i) + eps_i, so along the walk h is the prefix sum of
    eps plus one constant on phi(1..e) and one on phi(e+1..n).  The two
    block traces fix the constants; AdaptedPairError when that 2x2 system
    is singular or its solution is not integral.
    """
    p = td.pair.p
    phi, e = td.traversal.phi, td.e
    offsets = (0, *accumulate(td.eps[: e - 1] + (0,) + td.eps[e:]))
    # block traces: sum over the block of (c_side + offset) = 0; side 0 is t < e
    counts = [[0, 0], [0, 0]]
    sums = [0, 0]
    for t, v in enumerate(phi):
        block = 0 if v <= p else 1
        counts[block][t >= e] += 1
        sums[block] += offsets[t]
    (a, b), (c, d) = counts
    det = a * d - b * c
    if det == 0:
        raise AdaptedPairError("the block-trace system for h is singular")
    # Cramer's rule for counts . (c0, c1) = (-sums[0], -sums[1]), in integers
    c0, r0 = divmod(-sums[0] * d + sums[1] * b, det)
    c1, r1 = divmod(-sums[1] * a + sums[0] * c, det)
    if r0 or r1:
        raise AdaptedPairError("the solution h of the block-trace system is not integral")
    h = [0] * len(phi)
    for t, v in enumerate(phi):
        h[v - 1] = (c1 if t >= e else c0) + offsets[t]
    return tuple(h)


def alpha_eigenvalue(pair):
    """The eigenvalue m of h on x_alpha in closed form: the integer with
    2(m + 1) = p^2 + q^2 + pq - 1 (p^2 + q^2 + pq is odd for coprime p, q)."""
    p, q = pair.p, pair.q
    return (p * p + q * q + p * q - 3) // 2


def adapted_pair(td):
    """The pair (h, eta) of the walk `td` (`meander.turning_data`): eta
    supported on the two cascades minus alpha, h the unique block-traceless
    diagonal with h(beta) = -1 on the support.

    Certified on every call: the union of the Kostant and Levi cascades is
    the signed meander chain {eps_i beta_i}, a path on 1..n; alpha is its
    exceptional value eps_e beta_e, its one +- simple root; h is integral
    and unique (`_solve_h_on_walk`), and its eigenvalue m on x_alpha is
    `alpha_eigenvalue(pair)`.  A failed check raises AdaptedPairError
    naming the pair.
    """
    pair = td.pair
    prefix = "no certified adapted pair for (%d,%d): " % (pair.p, pair.q)
    try:
        chain = [rootlab.scale(s, beta) for s, beta in zip(td.eps, td.betas)]
        union = rootlab.kostant_cascade(pair.n) | rootlab.levi_cascade(pair.p, pair.q)
        if union != set(chain):
            raise AdaptedPairError(
                "the cascade union is not the signed meander chain (%d roots, expected %d)"
                % (len(union), len(chain))
            )
        alpha = chain[td.e - 1]
        support = sorted(union - {alpha})
        h = _solve_h_on_walk(td)
        m = h_eigenvalue(h, alpha)
        if m != alpha_eigenvalue(pair):
            raise AdaptedPairError("the eigenvalue m = %d on x_alpha breaks the closed form" % m)
    except AdaptedPairError as ex:
        raise AdaptedPairError(prefix + str(ex)) from ex
    return AdaptedPair(pair=pair, eta_support=tuple(support), alpha=alpha, h=h, m=m)


def basis_layout(pair):
    """Integer ids for the basis of the truncated two-block parabolic: both
    traceless diagonal blocks plus the lower-left corner block.

    Returns (elements, position, diagonal).  Id k names elements[k] = (x, y),
    the unit E_xy when x != y and the Cartan element
    H_x = E_xx - E_{x+1,x+1} when x == y.  Each diagonal block lists its
    units row by row and then its H_x; the corner block comes last, row by
    row.  With w = n + 1, position[x * w + y] is the id of E_xy and
    diagonal[x] that of H_x; both hold -1 off the basis, so there is no H_0,
    H_p or H_n.
    """
    p, q, n = pair.p, pair.q, pair.n
    w = n + 1
    elements = []
    position = [-1] * (w * w)
    diagonal = [-1] * w
    for lo, hi in ((1, p), (p + 1, n)):
        for x in range(lo, hi + 1):
            for y in range(lo, hi + 1):
                if x != y:
                    position[x * w + y] = len(elements)
                    elements.append((x, y))
        for x in range(lo, hi):
            diagonal[x] = len(elements)
            elements.append((x, x))
    for x in range(p + 1, n + 1):
        for y in range(1, p + 1):
            position[x * w + y] = len(elements)
            elements.append((x, y))
    d = p * p + q * q + p * q - 2
    if len(elements) != d:
        raise ValueError("the parabolic basis has %d elements, expected %d" % (len(elements), d))
    return elements, position, diagonal


def parabolic_basis(pair):
    """The basis of `basis_layout` in the order of its ids, each element a
    sparse dict (row, col) -> coeff, 1-based (for the dense oracle
    `skew_form_matrix`)."""
    elements, _, _ = basis_layout(pair)
    return [{(x, y): 1} if x != y else {(x, x): 1, (x + 1, x + 1): -1} for x, y in elements]


def _sparse_from_roots(roots):
    out = {}
    for r in roots:
        out[r] = out.get(r, 0) + 1
    return out


def _sparse_commutator(x, y):
    out = {}
    for (a, b), xv in x.items():
        for (c, d), yv in y.items():
            if b == c:
                out[(a, d)] = out.get((a, d), 0) + xv * yv
            if d == a:
                out[(c, b)] = out.get((c, b), 0) - xv * yv
    return {k: v for k, v in out.items() if v}


def _sparse_trace_product(x, y):
    """trace(x y) for sparse matrices."""
    return sum(v * y.get((b, a), 0) for (a, b), v in x.items())


def skew_form_matrix(pair, ap=None, eta=None):
    """S_{jk} = trace(eta [b_j, b_k]) over the fixed basis of the
    truncated parabolic, as a dense d x d matrix (test oracle for
    `graded_skew_form`); alternating and integral."""
    if eta is None:
        ap = ap or adapted_pair(turning_data(traversal(pair)))
        eta = _sparse_from_roots(ap.eta_support)
    basis = parabolic_basis(pair)
    d = len(basis)
    # trace(eta [b_j, b_k]) = trace([eta, b_j] b_k)
    derived = [_sparse_commutator(eta, b) for b in basis]
    s = linalg.zeros(d, d)
    for j in range(d):
        dj = derived[j]
        row = s[j]
        for k in range(j + 1, d):
            v = _sparse_trace_product(dj, basis[k])
            if v:
                row[k] = v
                s[k][j] = -v
    return s, basis


def certified_rank(m, upper_bound):
    """Exact rank of a dense matrix (test oracle for the graded ranks): a
    modular rank reaching a known upper bound certifies the rational rank
    (a minor that is non-zero mod a prime is non-zero); otherwise fall
    back to fraction-free elimination."""
    rows = [dict(enumerate(row)) for row in m]
    for prime in _PRIMES:
        if linalg.rank_mod_prime(rows, prime) == upper_bound:
            return upper_bound
    return linalg.rank_int(m)


@dataclass(frozen=True)
class GradedForm:
    """The skew form S_{jk} = trace(eta [b_j, b_k]) split by ad h weight.

    j and k are the ids of `basis_layout`, and `weights[j]` is the integer
    ad h weight of b_j.  `position[x * stride + y]` is the id of E_xy, or -1
    off the truncated parabolic.  eta has weight -1, so `blocks` maps each
    row weight lam to the rows {j: {k: S_jk}} of weight lam, whose columns
    all have weight 1 - lam.  `ranks` maps lam to the exact rank of that
    block: the pivots that the leaf-peel of `_peel_ranks` removed from it,
    which need no arithmetic, plus the certified rank of the core that is
    left (`_block_rank`).  rank S is their sum.
    """

    weights: tuple
    position: list
    stride: int
    blocks: dict
    ranks: dict

    @property
    def dim(self):
        return len(self.weights)

    @property
    def rank(self):
        return sum(self.ranks.values())


# the prime of the modular block ranks
_PRIME = 2**31 - 1


def _block_rank(rows):
    """Exact rank of one block of sparse rows {column: value}: the core that
    the leaf-peel leaves of a skew-form block (`_peel_ranks`), or a whole
    block plus one row (`complement_check`).

    Its rank modulo `_PRIME` is a lower bound (a minor that is non-zero mod
    a prime is non-zero), and its numbers of rows and of distinct columns
    are upper bounds, so a modular rank that meets either count is exact
    for this block alone.  Any other block is ranked by Bareiss elimination.
    """
    rows = list(rows)
    rank = linalg.rank_mod_prime(rows, _PRIME)
    if rank < len(rows):
        cols = {k for row in rows for k in row}
        if rank < len(cols):
            return linalg.rank_int([[row.get(k, 0) for k in cols] for row in rows])
    return rank


def _eta_index(support, size):
    """eta = sum of x_beta over `support`, indexed both ways as lists of
    `size`: by_row[a] holds the columns b of the entries (a, b), and
    by_col[b] the rows a.  On the two paths of the support each list has
    at most two entries."""
    by_row = [[] for _ in range(size)]
    by_col = [[] for _ in range(size)]
    for a, b in support:
        by_row[a].append(b)
        by_col[b].append(a)
    return by_row, by_col


def _form_row(j, elements, index, position, diagonal):
    """Row {k: S_jk} of the skew form for the basis element of id j (the
    lists of `basis_layout`, `index` from `_eta_index`).

    S_jk = trace([eta, b_j] b_k).  [eta, E_cd] has +1 at (a, d) for each
    entry (a, c) of eta and -1 at (c, e) for each entry (d, e).  An
    off-diagonal entry (x, y) of the commutator pairs with E_yx, and a
    diagonal one (x, x) with H_x and, negated, with H_{x-1}.  b_j = H_c is
    E_cc - E_{c+1,c+1}; eta has no diagonal entry, so neither term of H_c
    lands on the diagonal.  Id -1 names no basis element and is skipped.  A
    row costs O(1), and no two of its terms cancel, so every stored entry
    is non-zero; `graded_skew_form` checks that.
    """
    by_row, by_col = index
    w = len(diagonal)
    c, d = elements[j]
    row = {}
    if c != d:
        for a in by_col[c]:
            if a != d:
                k = position[d * w + a]
                if k >= 0:
                    row[k] = row.get(k, 0) + 1
            else:
                for k, v in ((diagonal[a], 1), (diagonal[a - 1], -1)):
                    if k >= 0:
                        row[k] = row.get(k, 0) + v
        for e in by_row[d]:
            if e != c:
                k = position[e * w + c]
                if k >= 0:
                    row[k] = row.get(k, 0) - 1
            else:
                for k, v in ((diagonal[c], -1), (diagonal[c - 1], 1)):
                    if k >= 0:
                        row[k] = row.get(k, 0) + v
    else:
        for x, v in ((c, 1), (c + 1, -1)):
            for a in by_col[x]:
                k = position[x * w + a]
                if k >= 0:
                    row[k] = row.get(k, 0) + v
            for e in by_row[x]:
                k = position[e * w + x]
                if k >= 0:
                    row[k] = row.get(k, 0) - v
    return row


def _peel_ranks(rows, weights, lams):
    """The exact rank of each block lam in `lams` (all >= 1) of the
    alternating form with rows {k: S_jk}, by a leaf-peel and then
    `_block_rank` on the cores.

    `graded_skew_form` has checked that the form is alternating, so row j
    lists the partners of id j both as a row of block weights[j] and as a
    column of block 1 - weights[j], and no separate column index is needed;
    every id is a line of exactly one block lam >= 1.  A line with one live
    entry, whatever its value, is a pivot: removing it with the line of its
    partner lowers the rank of their block by exactly 1 and changes no other
    entry.  Peeling repeats until no such line is left; the cores, the live
    rows and columns that remain, are ranked by `_block_rank`, one call per
    block that has a core.  O(nnz) apart from the cores.
    """
    ranks = dict.fromkeys(lams, 0)
    live = [len(row) for row in rows]  # live degree; 0 once removed or isolated
    leaves = [j for j, degree in enumerate(live) if degree == 1]
    for j in leaves:  # grows while it is walked
        if live[j] != 1:  # removed, or left isolated, since it was queued
            continue
        for k in rows[j]:
            if live[k]:
                break
        live[j] = live[k] = 0
        ranks[max(weights[j], weights[k])] += 1  # the weights sum to 1
        for i in rows[k]:
            if live[i]:
                live[i] -= 1
                if live[i] == 1:
                    leaves.append(i)
    cores = {}
    for j, row in enumerate(rows):
        if live[j] and weights[j] >= 1:
            core_row = {k: v for k, v in row.items() if live[k]}
            cores.setdefault(weights[j], []).append(core_row)
    for lam, core in cores.items():
        ranks[lam] += _block_rank(core)
    return ranks


def graded_skew_form(ap):
    """The skew form of eta = sum of x_beta over the support of the adapted
    pair `ap`, built one row at a time (`_form_row`) over the integer ids of
    `basis_layout` and ranked by one leaf-peel of the whole form
    (`_peel_ranks`).

    The weights come from the integral h of `ap`.  Three checks run on
    every stored entry, so none is assumed: an entry outside its block
    V_lam x V_{1-lam} raises ValueError, and so do a stored 0 (the peel
    counts every stored entry as a pivot candidate) and an entry S_jk that
    is not minus S_kj.  Block 1 - lam is then minus the transpose of block
    lam, so only the blocks with lam >= 1 are ranked, and each rank is
    copied to block 1 - lam; no block pairs with itself, since 2 lam = 1
    has no integer solution.  Each rank is the number of pivots peeled in
    its block plus the certified rank of its core.
    """
    elements, position, diagonal = basis_layout(ap.pair)
    h = ap.h
    weights = [h[x - 1] - h[y - 1] for x, y in elements]  # 0 on each H_x
    index = _eta_index(ap.eta_support, len(diagonal))
    rows = [_form_row(j, elements, index, position, diagonal) for j in range(len(elements))]
    blocks = {}
    for j, row in enumerate(rows):
        if not row:
            continue
        lam = weights[j]
        for k, v in row.items():
            if weights[k] != 1 - lam or not v or rows[k].get(j) != -v:
                if weights[k] != 1 - lam:
                    raise ValueError(
                        "skew-form entry (%d, %d) has weights %d + %d, not 1"
                        % (j, k, lam, weights[k])
                    )
                if not v:
                    raise ValueError("skew-form entry (%d, %d) is stored as 0" % (j, k))
                raise ValueError(
                    "skew-form entries (%d, %d) and (%d, %d) do not alternate" % (j, k, k, j)
                )
        blocks.setdefault(lam, {})[j] = row
    ranks = _peel_ranks(rows, weights, [lam for lam in blocks if lam >= 1])
    for lam in list(ranks):
        ranks[1 - lam] = ranks[lam]
    return GradedForm(
        weights=tuple(weights),
        position=position,
        stride=len(diagonal),
        blocks=blocks,
        ranks=ranks,
    )


def eta_regularity(form):
    """Dimension of the centraliser of eta inside the truncated parabolic.

    The kernel of the skew form S, the `graded_skew_form` of the pair, is
    that centraliser; its rank is the sum of the exact ranks of the ad h
    weight blocks.  dim is always odd here.
    """
    d = form.dim
    if d % 2 != 1:
        raise ValueError("the truncated parabolic has even dimension %d" % d)
    rank = form.rank
    return {
        "dim_p": d,
        "rank": rank,
        "stabiliser_dim": d - rank,
        "regular": d - rank == 1,
    }


def complement_check(form, root):
    """Check that the coadjoint orbit directions of eta, read off its
    `graded_skew_form`, together with the functional of x_r (r = `root`,
    alpha for the certificate) span the dual of the truncated parabolic.

    The functional of x_r = E_ab is trace(E_ab b_k), non-zero only on
    b_k = E_ba, of weight -h(r), and zero on the whole basis when E_ba is
    not in it (id -1).  Its row joins the block whose columns have that
    weight, and only that block is ranked again (`_block_rank`).
    """
    a, b = root
    rank = form.rank
    k = form.position[b * form.stride + a]
    if k >= 0:
        lam = 1 - form.weights[k]
        rows = list(form.blocks.get(lam, {}).values()) + [{k: 1}]
        if _block_rank(rows) > form.ranks.get(lam, 0):
            rank += 1
    return rank == form.dim


def completed_element(sc):
    """Sorted support of y'': the modified system itself plus, for every
    changed non-exceptional index, the original signed value.  Each added
    root is positive for the path order by condition (d), which `construct`
    certifies on these changed values and this order.  None is simple for
    the path: a simple root is a path edge, so it is in pi_final and the
    support would repeat it.  `path_order_regular` certifies the result."""
    td = sc.turning
    support = list(sc.pi_final)
    for i in sc.changed:
        if i != td.e:
            support.append(rootlab.scale(td.eps[i - 1], td.betas[i - 1]))
    if len(set(support)) != len(support):
        raise ValueError("the support of y'' repeats a root")
    return tuple(sorted(support))


def path_order_regular(support, order):
    """True when every support root e_a - e_b has a before b in `order`
    and every path edge e_{c_i} - e_{c_{i+1}} is in the support.  The
    matrix is then strictly upper triangular in c with a non-zero
    superdiagonal, so its (n-1)-th power is non-zero: it is regular."""
    pos = rootlab.path_positions(order)
    edges = set()
    for a, b in support:
        if pos[a] >= pos[b]:
            return False
        edges.add((pos[a], pos[b]))
    return all((i, i + 1) in edges for i in range(1, len(order)))


def check_regular_nilpotent(mat):
    """A nilpotent n x n matrix is regular iff rank(M^k) = n - k (test
    oracle for `path_order_regular`)."""
    n = len(mat)
    power = [row[:] for row in mat]
    for k in range(1, n + 1):
        r = linalg.rank_int(power)
        if r != n - k:
            return False
        if r == 0:
            break
        power = linalg.mat_mul(power, mat)
    return True


def check_restriction(support, ap):
    """Split `support`, the `completed_element` of the pair of `ap`, by the
    coefficient of the p-th simple root: the 0/1 part must be exactly the
    eta support, the rest must have coefficient -1 (hence lie in the
    complementary nilradical)."""
    p = ap.pair.p
    coeff = {r: rootlab.alpha_p_coefficient(r, p) for r in support}
    zero_one = {r for r, c in coeff.items() if c in (0, 1)}
    minus = {r for r, c in coeff.items() if c == -1}
    return {
        "matches_eta": zero_one == set(ap.eta_support),
        "rest_in_nilradical": zero_one | minus == set(support),
        "zero_one": tuple(sorted(zero_one)),
        "minus": tuple(sorted(minus)),
    }


def weyl_permutation(sc):
    """The path order c as a permutation: conjugating the principal
    nilpotent chain E_{c_i, c_{i+1}} back to the standard Jordan chain
    (test oracle for `rootlab.validate_path_system`)."""
    n = sc.pair.n
    c = sc.order
    perm = linalg.zeros(n, n)
    for i, v in enumerate(c):
        perm[v - 1][i] = 1  # P e_i = e_{c_i}
    jordan = linalg.zeros(n, n)
    for i in range(n - 1):
        jordan[i][i + 1] = 1
    lhs = linalg.mat_mul(linalg.mat_mul(perm, jordan), linalg.transpose(perm))
    yprime = linalg.zeros(n, n)
    for a, b in sc.pi_final:
        yprime[a - 1][b - 1] = 1
    if lhs != yprime:
        raise ValueError("path order does not conjugate the Jordan chain to y'")
    return tuple(c)


def full_report(pair, with_stabiliser=True):
    """One pair end to end: construction, adapted pair, regularity of eta
    and of the completed element, restriction and complement checks.  The
    path order, certified during construction, is the Weyl permutation.

    `added_roots`, the roots of y'' outside the modified system, is the
    one dense field: n-tuples over e_1..e_n, sorted as such."""
    sc = construct(pair)
    ap = adapted_pair(sc.turning)
    support = completed_element(sc)
    modified = set(sc.pi_final)
    regular = path_order_regular(support, sc.order)
    restrict = check_restriction(support, ap)
    eigen_ok = all(h_eigenvalue(ap.h, r) == -1 for r in ap.eta_support)
    report = {
        "pair": (pair.p, pair.q),
        "n": pair.n,
        "signature": sc.sig.as_string(),
        "construction_mode": sc.construction_mode,
        "used_exceptional_fix": sc.used_exceptional_fix,
        "order": sc.order,
        "added_roots": tuple(
            sorted(rootlab.dense(r, pair.n) for r in support if r not in modified)
        ),
        "regular_nilpotent": regular,
        "restriction": restrict,
        "h": ap.h,
        "m": ap.m,
        "eta_eigenvalues_ok": eigen_ok,
        "conditions": {k: sc.checks[k] for k in ("a", "b", "c", "d", "ok")},
    }
    if with_stabiliser:
        form = graded_skew_form(ap)
        reg = eta_regularity(form)
        report["eta_regular"] = reg["regular"]
        report["stabiliser_dim"] = reg["stabiliser_dim"]
        report["complement_ok"] = complement_check(form, ap.alpha)
    ok = (
        report["conditions"]["ok"]
        and regular
        and restrict["matches_eta"]
        and restrict["rest_in_nilradical"]
        and eigen_ok
        and report.get("eta_regular", True)
        and report.get("complement_ok", True)
    )
    report["all_ok"] = ok
    return report
