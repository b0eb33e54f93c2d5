"""Exact certification of the adapted pair and its completed element.

Everything here works with integer matrices only: the nilpotent eta
supported on the cascades, the diagonal h with eta-eigenvalue -1 (the
adapted pair of arXiv 1011.0928), certified integral by its solve, the
regularity of eta in the truncated two-block parabolic, and the
completed regular nilpotent built from the modified simple root system.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, compress

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
    2(m + 1) = p^2 + q^2 + pq - 1 (p^2 + q^2 + pq is odd for coprime p, q).
    So m = (d - 1)/2, with d = p^2 + q^2 + pq - 2 the dimension of the
    truncated parabolic (`GradedForm.dim`)."""
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


def parabolic_basis(pair):
    """The basis of the truncated two-block parabolic, each element a sparse
    dict (row, col) -> coeff, 1-based (for the dense oracle
    `skew_form_matrix`): each diagonal block lists its units E_xy row by row
    and then its Cartan elements H_x = E_xx - E_{x+1,x+1}; the lower-left
    corner block comes last, row by row."""
    p, n = pair.p, pair.n
    basis = []
    for lo, hi in ((1, p), (p + 1, n)):
        block = range(lo, hi + 1)
        basis += [{(x, y): 1} for x in block for y in block if x != y]
        basis += [{(x, x): 1, (x + 1, x + 1): -1} for x in range(lo, hi)]
    basis += [{(x, y): 1} for x in range(p + 1, n + 1) for y in range(1, p + 1)]
    return basis


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

    j and k are matrix positions, with w = n + 1 for the n of `pair`: the
    unit E_xy has id x * w + y, and the Cartan element
    H_x = E_xx - E_{x+1,x+1} has id x * w + x.  E_xy is in the truncated
    parabolic iff x != y and not x <= p < y, and H_x iff 0 < x < n and
    x != p; every other id names no basis element, and its row is empty.
    `weights[x * w + y]` is h_x - h_y, the integer ad h weight of E_xy, and
    0 on each H_x.  `rows[j]` is the row {k: S_jk} of id j;
    eta has weight -1, so its columns all have weight 1 - weights[j], and
    the rows of weight lam form the block V_lam x V_{1-lam}.  The form is
    built one root of eta at a time, each entry written with its mirror, so
    it is alternating by construction and every stored entry is +1 or -1
    (`_form_rows`).  `ranks` maps each lam with a
    non-empty block to the exact rank of that block: the pivots that the
    leaf-peel of `_peel_ranks` removed from it, which need no arithmetic,
    plus the certified rank of the core that is left (`_block_rank`).
    rank S is their sum.
    """

    pair: object
    weights: list
    rows: list
    ranks: dict

    @property
    def dim(self):
        """The number of basis elements: both traceless diagonal blocks,
        p(p-1) + (p-1) and q(q-1) + (q-1), plus the pq units of the corner
        block, so p^2 + q^2 + pq - 2."""
        p, q = self.pair.p, self.pair.q
        return p * p + q * q + p * q - 2

    @property
    def rank(self):
        return sum(self.ranks.values())


def _block_rank(rows):
    """Exact rank of one block of sparse rows {column: value}: the core that
    the leaf-peel leaves of a skew-form block (`_peel_ranks`), or the block
    of one component plus one row (`complement_check`).

    Its rank over GF(2) (`linalg.rank_mod_2`) is a lower bound (a minor
    that is odd is non-zero), and its numbers of rows and of distinct
    columns are upper bounds, so a GF(2) rank that meets either count is
    exact for this block alone.  Any other block is ranked by Bareiss
    elimination.

    Without a Bareiss call the certified ranks do not depend on the signs
    of the entries.  A pivot of the leaf-peel needs only a non-zero entry,
    the GF(2) rank reads only which entries are odd, and the two counts
    only which are non-zero.  Every entry of the skew form, and of the row
    that `complement_check` adds, is +1 or -1, so a GF(2) rank that meets a
    count is the exact rank of every matrix with the same pattern of
    entries, whatever their signs.  Only Bareiss reads them.
    """
    rows = list(rows)
    rank = linalg.rank_mod_2(rows)
    if rank < len(rows):
        cols = {k for row in rows for k in row}
        if rank < len(cols):
            return linalg.rank_int([[row.get(k, 0) for k in cols] for row in rows])
    return rank


def _form_rows(support, p, n):
    """The rows {k: S_jk} of the skew form of eta = sum of x_beta over
    `support`, one per position id of `GradedForm` ((n + 1)^2 rows, empty
    off the truncated parabolic of (p, n - p)), built one root of eta at a
    time.

    S_jk = trace(eta [b_j, b_k]), and trace(eta [E_cd, E_ef]) is
    eta_fc when d = e, minus eta_de when f = c.  So a root (a, b) gives
    S(E_bx, E_xa) = 1 for every x other than a and b, and, through
    [H_x, E_ba], S(H_x, E_ba) = +1 at H_{a-1} and H_b and -1 at H_a and
    H_{b-1}.  Each entry is written with its mirror -S into the partner
    row, so the form is alternating by construction.  Only basis elements
    are written: E_bx and E_xa are both in the parabolic iff x is in lo..hi,
    with lo = p + 1 when a > p (else 1) and hi = p when b <= p (else n),
    and x is neither a nor b.  H_x is in it iff 0 < x < n and x != p.  E_ba
    always is: `adapted_pair` certifies that the support is the cascade
    union minus alpha, every Kostant root has a < b and every Levi root lies
    inside one block, so b <= p < a never holds.  No entry is written
    twice.  A unit pair of
    root (a, b) is a unit pair of (a', b') only for the same root, since
    (E_bx, E_xa) = (E_x'a', E_b'x') would need x' = b and x' = a.  The four
    H_x of one root are distinct unless it is +- simple, and
    `turning_data` certifies that alpha, which the support leaves out, is
    the only +- simple chain value.  So every stored entry is +1 or -1.
    """
    w = n + 1
    rows = [{} for _ in range(w * w)]
    for a, b in support:
        for x in range(p + 1 if a > p else 1, (p if b <= p else n) + 1):
            if x != a and x != b:
                j, k = b * w + x, x * w + a
                rows[j][k] = 1
                rows[k][j] = -1
        k = b * w + a
        for x, v in ((a - 1, 1), (a, -1), (b - 1, -1), (b, 1)):
            if 0 < x < n and x != p:
                i = x * w + x
                rows[i][k] = v
                rows[k][i] = -v
    return rows


def _peel_ranks(rows, weights):
    """The exact rank of each non-empty block lam >= 1 of the alternating
    form with rows {k: S_jk}, by a leaf-peel and then `_block_rank` on the
    cores.

    `graded_skew_form` built the form alternating, so row j lists the
    partners of id j both as a row of block weights[j] and as a column of
    block 1 - weights[j], and no separate column index is needed; every id
    is a line of exactly one block lam >= 1.  A line with one live
    entry, whatever its value, is a pivot: removing it with the line of its
    partner lowers the rank of their block by exactly 1 and changes no other
    entry.  Peeling repeats until no such line is left; the cores, the live
    rows and columns that remain, are ranked by `_block_rank`, one call per
    block that has a core.  Each pivot and each core is recorded under its
    block as it is met; a non-empty block has one or the other, since a line
    leaves its block's core only with a pivot of that block.  O(nnz) apart
    from the cores.
    """
    ranks = {}
    live = list(map(len, rows))  # live degree; 0 once removed or isolated
    leaves = [j for j, degree in enumerate(live) if degree == 1]
    for j in leaves:  # grows while it is walked
        if live[j] != 1:  # removed, or left isolated, since it was queued
            continue
        for k in rows[j]:
            if live[k]:
                break
        live[j] = live[k] = 0
        lam = max(weights[j], 1 - weights[j])  # the weights of j and k sum to 1
        ranks[lam] = ranks.get(lam, 0) + 1
        for i in rows[k]:
            if live[i]:
                live[i] -= 1
                if live[i] == 1:
                    leaves.append(i)
    cores = {}
    for j in compress(range(len(rows)), live):
        lam = weights[j]
        if lam >= 1:
            cores.setdefault(lam, []).append({k: v for k, v in rows[j].items() if live[k]})
    for lam, core in cores.items():
        ranks[lam] = ranks.get(lam, 0) + _block_rank(core)
    return ranks


def graded_skew_form(ap):
    """The skew form of eta = sum of x_beta over the support of the adapted
    pair `ap`, over the position ids of `GradedForm`, ranked by one
    leaf-peel of the whole form (`_peel_ranks`).

    The weights come from the integral h of `ap`.  Every root of the support
    must have weight -1, or ValueError.  The form is built one root at a
    time (`_form_rows`), and each entry of root (a, b) joins two ids whose
    weights sum to h_b - h_a = 1: E_bx and E_xa, or H_x (weight 0) and
    E_ba.  So every entry lies in its block V_lam x V_{1-lam}, exactly one
    of its ids has weight >= 1 (2 lam = 1 has no integer solution), and
    block 1 - lam is minus the transpose of block lam.  Only the blocks
    with lam >= 1 are ranked, and each rank is copied to block 1 - lam.
    Each rank is the number of pivots peeled in its block plus the
    certified rank of its core.
    """
    pair = ap.pair
    for r in ap.eta_support:
        lam = h_eigenvalue(ap.h, r)
        if lam != -1:
            raise ValueError(
                "eta root %r has weight %d: its skew-form entries have weights summing to %d, not 1"
                % (r, lam, -lam)
            )
    h = (0, *ap.h)  # 1-based
    weights = [hx - hy for hx in h for hy in h]  # of id x * (n + 1) + y; 0 on each H_x
    rows = _form_rows(ap.eta_support, pair.p, pair.n)
    ranks = _peel_ranks(rows, weights)
    for lam in list(ranks):
        ranks[1 - lam] = ranks[lam]
    return GradedForm(pair=pair, weights=weights, rows=rows, ranks=ranks)


def eta_regularity(form):
    """Dimension of the centraliser of eta inside the truncated parabolic.

    The kernel of the skew form S, the `graded_skew_form` of the pair, is
    that centraliser; its rank is the sum of the exact ranks of the ad h
    weight blocks.  dim = p^2 + q^2 + pq - 2 is odd, as p and q are coprime.
    """
    d = form.dim
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

    The functional of x_r = E_ab is trace(E_ab b_k), the unit row e_k of
    b_k = E_ba, and zero on the whole basis when E_ba is not in it, that is
    when b <= p < a: then the check is False, and so it is when rank S is
    not d - 1.  Otherwise only the component C of E_ba in the graph of the
    form's entries is read, walked breadth first over `form.rows`:

    - S is the direct sum of its components.  Each entry joins two weights
      that sum to 1, so a component holds at most two: its r lines of one
      weight are the rows, and its c lines of the other the columns, of its
      block B_C, and it has rank 2 rank(B_C).  The columns of C are its
      lines of weight mu = weights[k].
    - d - rank S is the sum over the components of r + c - 2 rank(B_C),
      each term at least |r - c| and of its parity.  If rank S = d - 1,
      exactly one term is 1 and the others 0, so every B_C has rank
      min(r, c).
    - e_k is in the row space of S iff it is in that of B_C.  When r <= c,
      B_C has rank r; when r > c, its rows span every column.  So e_k
      leaves the row space exactly when [B_C; e_k] has rank r + 1, which
      `_block_rank` certifies.

    So it answers as adding e_k to the whole block of its columns' weight
    and comparing that rank with `form.ranks`, on every form whose ranks
    are those of its alternating rows: rank S is even and d odd, and when
    rank S is below d - 1 both answers are False.
    """
    a, b = root
    if b <= form.pair.p < a or form.rank != form.dim - 1:
        return False
    k = b * (form.pair.n + 1) + a
    mu = form.weights[k]
    component, seen = [k], {k}
    for j in component:  # breadth first: grows while it is walked
        unseen = form.rows[j].keys() - seen
        seen |= unseen
        component += unseen
    rows = [form.rows[j] for j in component if form.weights[j] != mu]
    return _block_rank(rows + [{k: 1}]) == len(rows) + 1


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
