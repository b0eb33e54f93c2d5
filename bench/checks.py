"""Correctness checks on the benchmark's outputs that use none of the
meanderslice package.

Every expected value is recomputed here from the definitions: the pair
enumeration from `math.gcd`, the meander walk from the two involutions, the
cascades from their hooks, `m` from its closed form, and the stabiliser
certificate from a skew form built and ranked by this module.  A failed
check raises `CheckFailed`; nothing here relies on `assert`, so the checks
also hold under `python -O`.  No check compares against a stored copy of an
earlier output.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

# A prime the package's certified rank does not use (it tries 32749, 32719
# and 32717), so the stabiliser certificate below is a second, separate one.
CERTIFICATE_PRIME = 65521


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------- pairs


def coprime_pairs(n_lo, n_hi):
    """Every (p, q) with p <= q, gcd(p, q) = 1 and n_lo <= p + q <= n_hi,
    sorted by (n, p); n starts at 3."""
    return [
        (p, n - p)
        for n in range(max(3, n_lo), n_hi + 1)
        for p in range(1, n // 2 + 1)
        if math.gcd(p, n - p) == 1
    ]


def check_m(p, q, m):
    """The closed form 2(m + 1) = p^2 + q^2 + pq - 1."""
    require(
        isinstance(m, int) and 2 * (m + 1) == p * p + q * q + p * q - 1,
        "(%d,%d): m = %r breaks 2(m+1) = p^2+q^2+pq-1" % (p, q, m),
    )


# ---------------------------------------------------------------- roots


def root(a, b, n):
    """e_a - e_b as a length-n tuple, 1-based."""
    r = [0] * n
    r[a - 1] = 1
    r[b - 1] = -1
    return tuple(r)


def ends(r):
    """(a, b) with r = e_a - e_b; rejects anything else."""
    r = tuple(r)
    require(
        r.count(0) == len(r) - 2 and r.count(1) == 1 and r.count(-1) == 1,
        "not a root e_a - e_b: %r" % (r,),
    )
    return r.index(1) + 1, r.index(-1) + 1


def alpha_p_coefficient(r, p):
    """Coefficient of the p-th simple root when r is written over the
    simple roots: the sum of the first p coordinates."""
    return sum(r[:p])


def cascades(p, q):
    """The Kostant cascade of sl(n) (hooks e_i - e_{n+1-i}) and the negated
    cascades of the two diagonal blocks."""
    n = p + q
    kostant = {root(i, n + 1 - i, n) for i in range(1, n // 2 + 1)}
    levi = {root(p + 1 - i, i, n) for i in range(1, p // 2 + 1)}
    levi |= {root(p + q + 1 - i, p + i, n) for i in range(1, q // 2 + 1)}
    return kostant, levi


def eta_support(p, q):
    """(support, alpha): the union of the cascades minus its one +- simple
    root alpha."""
    n = p + q
    kostant, levi = cascades(p, q)
    union = kostant | levi
    require(len(union) == n - 1, "(%d,%d): the cascades share a root" % (p, q))
    simple = [r for r in union if abs(ends(r)[0] - ends(r)[1]) == 1]
    require(len(simple) == 1, "(%d,%d): %d +- simple roots in the union" % (p, q, len(simple)))
    alpha = simple[0]
    return sorted(union - {alpha}), alpha


def check_h(p, q, h, m):
    """h(beta) = -1 on the eta support, both block traces vanish, and the
    eigenvalue on the dropped root alpha is m."""
    n = p + q
    h = [Fraction(v) for v in h]
    require(len(h) == n, "(%d,%d): h has %d entries" % (p, q, len(h)))
    support, alpha = eta_support(p, q)
    for r in support:
        a, b = ends(r)
        require(h[a - 1] - h[b - 1] == -1, "(%d,%d): h(e_%d - e_%d) != -1" % (p, q, a, b))
    require(sum(h[:p]) == 0, "(%d,%d): the first block trace of h is not zero" % (p, q))
    require(sum(h[p:]) == 0, "(%d,%d): the second block trace of h is not zero" % (p, q))
    a, b = ends(alpha)
    require(h[a - 1] - h[b - 1] == m, "(%d,%d): h(alpha) != m" % (p, q))


# ---------------------------------------------------------------- the walk


def meander_chain(p, q):
    """(phi, eps, turning): the walk of 1..n from the least tau-fixed point,
    alternating sigma (global flip) and tau (per-block flip); the sign of
    each chain value beta_i = e_phi(i) - e_phi(i+1); and the turning
    positions with their side ("A" in the first block, "B" in the second).

    A value v turns where v - sigma(v) and v - tau(v) have opposite signs or
    one of them is zero.  eps is constant between consecutive turning
    positions: +1 after an A point, -1 after a B point.
    """
    n = p + q

    def sigma(v):
        return n + 1 - v

    def tau(v):
        return p + 1 - v if v <= p else n + p + 1 - v

    start = min(v for v in range(1, n + 1) if tau(v) == v)
    phi = [start]
    for i in range(1, n):
        phi.append(sigma(phi[-1]) if i % 2 == 1 else tau(phi[-1]))
    require(sorted(phi) == list(range(1, n + 1)), "(%d,%d): the orbit is not one cycle" % (p, q))

    def turns(v):
        ds, dt = v - sigma(v), v - tau(v)
        return ds == 0 or dt == 0 or (ds > 0) != (dt > 0)

    turning = [(t, "A" if phi[t - 1] <= p else "B") for t in range(1, n + 1) if turns(phi[t - 1])]
    require(
        len(turning) == p + 1 and turning[0][0] == 1 and turning[-1][0] == n,
        "(%d,%d): unexpected turning positions" % (p, q),
    )
    eps = [0] * (n - 1)
    for (t0, tag), (t1, _) in zip(turning, turning[1:]):
        for i in range(t0, t1):
            eps[i - 1] = 1 if tag == "A" else -1
    return phi, eps, turning


def signed_chain(p, q):
    """The signed original chain eps_i * beta_i, i = 1..n-1, and phi."""
    n = p + q
    phi, eps, _ = meander_chain(p, q)
    chain = [
        tuple(eps[i] * c for c in root(phi[i], phi[i + 1], n)) for i in range(n - 1)
    ]
    return chain, phi, eps


def signature(p, q):
    """One sign per A turning point in orbit order: +1 when the nil value
    (p-th simple root coefficient non-zero) lies below it on the chain, -1
    when it lies above; the published signature keeps the first p // 2."""
    n = p + q
    phi, _, turning = meander_chain(p, q)
    nil = [alpha_p_coefficient(root(phi[i], phi[i + 1], n), p) != 0 for i in range(n - 1)]
    full = []
    for t, tag in turning:
        if tag != "A":
            continue
        above = nil[t - 2] if t >= 2 else False
        below = nil[t - 1] if t <= n - 1 else False
        require(above != below, "(%d,%d): A point %d has no single nil neighbour" % (p, q, t))
        full.append("+" if below else "-")
    return "".join(full[: p // 2])


# ---------------------------------------------------------------- paths


def check_path(roots, order, n, what):
    """`roots` are exactly the edges e_c(i) - e_c(i+1) of the directed
    Hamiltonian path with vertex order `order`."""
    require(sorted(order) == list(range(1, n + 1)), "%s: order is not a permutation" % what)
    chain = {root(order[i], order[i + 1], n) for i in range(n - 1)}
    roots = [tuple(r) for r in roots]
    for r in roots:
        ends(r)
    require(
        len(roots) == n - 1 and set(roots) == chain,
        "%s: the roots are not the path with vertex order %s" % (what, list(order)),
    )


def check_regular_nilpotent(n, order, added_roots, what):
    """The chain E_{c_i, c_{i+1}} plus the added roots is strictly upper
    triangular in the order c, with a unit superdiagonal; its (n-1)-th
    power is then non-zero, so it is regular nilpotent."""
    require(sorted(order) == list(range(1, n + 1)), "%s: order is not a permutation" % what)
    pos = {v: i for i, v in enumerate(order)}
    for r in added_roots:
        a, b = ends(r)
        require(pos[a] < pos[b], "%s: added root e_%d - e_%d is below the diagonal" % (what, a, b))
        require(
            pos[b] - pos[a] >= 2,
            "%s: added root e_%d - e_%d lands on the superdiagonal" % (what, a, b),
        )


def expansion(r, phi, eps):
    """Coefficients of r over the signed chain eps_j * beta_j: prefix sums
    of r along phi, times eps_j."""
    out = []
    run = 0
    for j in range(len(phi) - 1):
        run += r[phi[j] - 1]
        out.append(eps[j] * run)
    require(run + r[phi[-1] - 1] == 0, "not in the root lattice: %r" % (r,))
    return out


# ---------------------------------------------------------------- outputs


def parse_json(data, what):
    try:
        return json.loads(data)
    except ValueError as ex:
        raise CheckFailed("%s: output is not JSON (%s)" % (what, ex)) from None


def check_pairs(rows, expected, what):
    got = [(r["p"], r["q"]) for r in rows]
    require(len(expected) > 0, "%s: no pairs to check" % what)
    require(got == expected, "%s: %d rows for %d expected pairs" % (what, len(got), len(expected)))
    for r in rows:
        require(r["n"] == r["p"] + r["q"], "%s: n != p + q at (%d,%d)" % (what, r["p"], r["q"]))


def check_verify_sweep(data, max_n):
    """`slice verify --max-n N --format json`."""
    payload = parse_json(data, "verify")
    require(payload.get("command") == "verify", "verify: wrong command field")
    require(payload.get("max_n") == max_n, "verify: wrong max_n")
    rows = payload["rows"]
    check_pairs(rows, coprime_pairs(3, max_n), "verify")
    for row in rows:
        p, q, n = row["p"], row["q"], row["n"]
        what = "verify (%d,%d)" % (p, q)
        check_m(p, q, row["m"])
        check_h(p, q, row["h"], row["m"])
        check_regular_nilpotent(n, row["order"], row["added_roots"], what)
        require(row["regular_nilpotent"] is True, "%s: not reported regular" % what)
        if "stabiliser_dim" in row:
            require(row["stabiliser_dim"] == 1, "%s: stabiliser dimension %r" % (what, row["stabiliser_dim"]))
    require(payload["all_ok"] == all(r["all_ok"] for r in rows), "verify: all_ok disagrees with the rows")


def check_construct(data, p, q):
    """`slice construct p q --format json`."""
    payload = parse_json(data, "construct")
    n = p + q
    what = "construct (%d,%d)" % (p, q)
    require((payload["p"], payload["q"], payload["n"]) == (p, q, n), "%s: wrong pair" % what)
    check_m(p, q, payload["m"])
    require(payload["signature"] == signature(p, q), "%s: wrong signature" % what)
    chain, phi, eps = signed_chain(p, q)
    pi_star = [tuple(r) for r in payload["pi_star"]]
    pi_final = [tuple(r) for r in payload["pi_final"]]
    order = payload["order"]
    check_path(pi_final, order, n, what)
    for name, values in (("pi_star", pi_star), ("pi_final", pi_final)):
        require(len(values) == n - 1, "%s: %s has %d values" % (what, name, len(values)))
        for i, (new, old) in enumerate(zip(values, chain), start=1):
            if new != old:
                require(
                    alpha_p_coefficient(new, p) == -1,
                    "%s: changed %s value %d lacks coefficient -1" % (what, name, i),
                )
    exceptional = [i for i, r in enumerate(chain) if abs(ends(r)[0] - ends(r)[1]) == 1]
    require(
        len(exceptional) == 1 and pi_final[exceptional[0]] != chain[exceptional[0]],
        "%s: the exceptional value did not change" % what,
    )
    tri = payload["triangularity_order"]
    require(sorted(tri) == list(range(1, n)), "%s: triangularity order is not a permutation" % what)
    rank = {i: k for k, i in enumerate(tri)}
    for i, r in enumerate(pi_star, start=1):
        coeffs = expansion(r, phi, eps)
        require(coeffs[i - 1] == 1, "%s: pi_star value %d has diagonal %d" % (what, i, coeffs[i - 1]))
        late = [j for j, c in enumerate(coeffs, start=1) if c and j != i and rank[j] > rank[i]]
        require(not late, "%s: pi_star value %d uses later values %s" % (what, i, late))


def check_sigmap(data, max_n):
    """`slice sigmap --max-n N --format json`: rows, signatures and fibres."""
    payload = parse_json(data, "sigmap")
    rows = payload["rows"]
    check_pairs(rows, coprime_pairs(3, max_n), "sigmap")
    sig_of = {}
    for row in rows:
        p, q = row["p"], row["q"]
        check_m(p, q, row["m"])
        require(row["signature"] == signature(p, q), "sigmap (%d,%d): wrong signature" % (p, q))
        sig_of[(p, q)] = row["signature"]
    fibers = payload["fibers"]
    seen = set()
    for s, members in fibers.items():
        for p, q in members:
            require((p, q) not in seen, "sigmap: (%d,%d) in two fibres" % (p, q))
            require(sig_of.get((p, q)) == s, "sigmap: (%d,%d) in the wrong fibre" % (p, q))
            seen.add((p, q))
    require(seen == set(sig_of), "sigmap: the fibres do not cover the rows")
    require(payload["image"] == sorted(fibers), "sigmap: image is not the fibre signatures")
    shared = {s: m for s, m in fibers.items() if len(m) > 1}
    require(payload["shared"] == shared, "sigmap: shared fibres disagree with the fibres")


# ---------------------------------------------------------------- stabiliser


def parabolic_dim(p, q):
    return p * p + q * q + p * q - 2


def skew_form(p, q):
    """S_jk = trace(eta [b_j, b_k]) over a basis of the truncated two-block
    parabolic: the off-diagonal units and the differences E_ii - E_(i+1)(i+1)
    of both diagonal blocks, and the lower-left corner units.

    Built as trace([eta, b_j] b_k): the commutator of eta with a basis
    element has at most a few entries, and each entry (a, b) meets only the
    basis elements with an entry at (b, a).
    """
    import numpy as np

    n = p + q
    basis = []
    for lo, hi in ((1, p), (p + 1, n)):
        basis += [{(i, j): 1} for i in range(lo, hi + 1) for j in range(lo, hi + 1) if i != j]
        basis += [{(i, i): 1, (i + 1, i + 1): -1} for i in range(lo, hi)]
    basis += [{(i, j): 1} for i in range(p + 1, n + 1) for j in range(1, p + 1)]
    d = len(basis)
    require(d == parabolic_dim(p, q), "(%d,%d): basis of size %d" % (p, q, d))
    at = {}  # matrix position -> [(basis index, coefficient)]
    for k, b in enumerate(basis):
        for pos, c in b.items():
            at.setdefault(pos, []).append((k, c))
    eta_out = {}  # a -> [b] for each x_{e_a - e_b} in eta
    eta_in = {}  # b -> [a]
    support, _ = eta_support(p, q)
    for r in support:
        a, b = ends(r)
        eta_out.setdefault(a, []).append(b)
        eta_in.setdefault(b, []).append(a)
    s = np.zeros((d, d), dtype=np.int64)
    for j, b in enumerate(basis):
        comm = {}  # eta b - b eta
        for (i, k), c in b.items():
            for x in eta_in.get(i, ()):
                comm[(x, k)] = comm.get((x, k), 0) + c
            for y in eta_out.get(k, ()):
                comm[(i, y)] = comm.get((i, y), 0) - c
        for (a, b2), c in comm.items():
            for k, ck in at.get((b2, a), ()):
                s[j, k] += c * ck
    return s


def rank_mod(s, prime):
    """Rank of an integer matrix over GF(prime), by row elimination."""
    import numpy as np

    m = np.array(s, dtype=np.int64) % prime
    rows, cols = m.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        m[r] = m[r] * pow(int(m[r, c]), prime - 2, prime) % prime
        m[r + 1:] = (m[r + 1:] - np.outer(m[r + 1:, c], m[r])) % prime
        r += 1
    return r


def check_skew_certificate(s, p, q):
    """The stabiliser of eta is one-dimensional.  S is alternating and
    d = p^2 + q^2 + pq - 2 is odd, so its rank is at most d - 1; a rank of
    d - 1 modulo a prime is a lower bound over the rationals, so the kernel,
    which is the stabiliser, has dimension exactly 1."""
    import numpy as np

    d = parabolic_dim(p, q)
    require(d % 2 == 1, "(%d,%d): the parabolic has even dimension %d" % (p, q, d))
    require(s.shape == (d, d), "(%d,%d): skew form of shape %s" % (p, q, s.shape))
    require(
        not (s + s.T).any() and not np.diagonal(s).any(),
        "(%d,%d): the skew form is not alternating" % (p, q),
    )
    r = rank_mod(s, CERTIFICATE_PRIME)
    require(r == d - 1, "(%d,%d): skew form rank %d mod %d, need %d" % (p, q, r, CERTIFICATE_PRIME, d - 1))


def check_stabiliser_report(report, p, q):
    """One `verify.full_report(pair, with_stabiliser=True)` result."""
    what = "full_report (%d,%d)" % (p, q)
    require(tuple(report["pair"]) == (p, q), "%s: wrong pair" % what)
    check_m(p, q, report["m"])
    check_h(p, q, report["h"], report["m"])
    added = report["added_roots"]
    check_regular_nilpotent(p + q, report["order"], added, what)
    require(report["stabiliser_dim"] == 1, "%s: stabiliser dimension %r" % (what, report["stabiliser_dim"]))
    check_skew_certificate(skew_form(p, q), p, q)
