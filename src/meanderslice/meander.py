"""Meander combinatorics for a coprime pair (p, q).

The orbit of {1..n}, n = p+q, under the two involutions sigma (global
flip) and tau (per-block flip) is a single cycle exactly when p and q are
coprime.  Walking it from the tau-fixed starting point gives a traversal
phi, a chain of roots beta_i = e_{phi(i)} - e_{phi(i+1)}, turning points,
a sign vector and finally the signature invariant of the pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import rootlab


class MeanderError(ValueError):
    pass


class NotCoprimeError(MeanderError):
    pass


@dataclass(frozen=True)
class CoprimePair:
    p: int
    q: int

    def __post_init__(self):
        if not (1 <= self.p <= self.q):
            raise MeanderError("need 1 <= p <= q, got (%d,%d)" % (self.p, self.q))
        if self.p + self.q <= 2:
            raise MeanderError("degenerate: p + q must exceed 2")
        if math.gcd(self.p, self.q) != 1:
            raise NotCoprimeError(
                "gcd(%d,%d)=%d: the orbit splits" % (self.p, self.q, math.gcd(self.p, self.q))
            )
        # coprimality forces exactly one of p, q, n to be even
        if (self.p % 2 == 0) + (self.q % 2 == 0) + ((self.p + self.q) % 2 == 0) != 1:
            raise MeanderError("exactly one of p, q, p + q must be even")

    @property
    def n(self):
        return self.p + self.q


def sigma(i, n):
    if not 1 <= i <= n:
        raise MeanderError("index %d out of 1..%d" % (i, n))
    return n + 1 - i


def tau(i, p, n):
    if not 1 <= i <= n:
        raise MeanderError("index %d out of 1..%d" % (i, n))
    if i <= p:
        return p + 1 - i
    return n + p + 1 - i


@dataclass(frozen=True)
class Traversal:
    pair: CoprimePair
    phi: tuple  # phi[i-1] is the i-th visited element
    a: int  # starting point, tau-fixed
    b: int  # finishing point


def traversal(pair):
    """Walk the orbit from a, alternating sigma and tau."""
    p, q, n = pair.p, pair.q, pair.n
    if p % 2 == 1:
        a = (p + 1) // 2
        b = (n + 1) // 2 if n % 2 == 1 else p + (q + 1) // 2
    else:
        b = (n + 1) // 2
        a = p + (q + 1) // 2
    if tau(a, p, n) != a:
        raise MeanderError("the starting point %d is not fixed by tau" % a)
    phi = [a]
    for i in range(1, n):
        prev = phi[-1]
        phi.append(sigma(prev, n) if i % 2 == 1 else tau(prev, p, n))
    if len(set(phi)) != n:
        raise NotCoprimeError("orbit is not a single cycle")
    if phi[-1] != b:
        raise MeanderError("the walk ends at %d, not at %d" % (phi[-1], b))
    # the walk must terminate at b: the pending involution fixes it
    pending = sigma(b, n) if n % 2 == 1 else tau(b, p, n)
    if pending != b:
        raise MeanderError("the pending involution moves the end point %d" % b)
    return Traversal(pair=pair, phi=tuple(phi), a=a, b=b)


def beta_sequence(tr):
    """The chain beta_i = e_{phi(i)} - e_{phi(i+1)}, a simple root system."""
    phi = tr.phi
    return tuple(zip(phi, phi[1:]))


def turning_set_closed_form(pair):
    """(A, B) as integer ranges."""
    p, q, n = pair.p, pair.q, pair.n
    A = frozenset(range(p // 2 + 1, p + 1))
    B = frozenset(range(n // 2 + 1, p + (q + 1) // 2 + 1))
    return A, B


@dataclass(frozen=True)
class TurningData:
    pair: CoprimePair
    traversal: Traversal
    betas: tuple  # the chain beta_1..beta_{n-1} of the traversal
    positions: tuple  # strictly increasing positions t with phi(t) turning
    label_of: dict  # turning position -> its label; consecutive in walk order, odd on the A side
    eps: tuple  # eps[i-1] in {+1,-1} for i in 1..n-1
    nil: tuple  # nil[i-1]: a_p shows up in beta_i
    boundary: tuple
    isolated: tuple
    e: int  # exceptional index: beta_e is +- a simple root
    m: int  # the even member of {p, 2p+q, n}

    def tag_at(self, t):
        return "A" if self.label_of[t] % 2 else "B"


def turning_data(tr):
    """Turning points, labels, signs and nil values of the walk `tr`.

    Certifies the walk lemmas, raising MeanderError otherwise: p + 1
    turning points, the first and last at the ends of the walk, alternate
    between the A and B sides; isolated values are nil; exactly one value,
    beta_e = +- a_{m/2}, is +- a simple root, and it is not nil."""
    pair = tr.pair
    p, q, n = pair.p, pair.q, pair.n
    A, B = turning_set_closed_form(pair)
    turning_values = A | B
    positions = tuple(t for t in range(1, n + 1) if tr.phi[t - 1] in turning_values)
    tags = tuple("A" if tr.phi[t - 1] in A else "B" for t in positions)
    if len(positions) != p + 1:
        raise MeanderError("%d turning points, expected %d" % (len(positions), p + 1))
    if positions[0] != 1 or positions[-1] != n:
        raise MeanderError("the walk must start and end at turning points")
    for x, y in zip(tags, tags[1:]):
        if x == y:
            raise MeanderError("turning tags must alternate along the orbit")
    first_label = 1 if tags[0] == "A" else 0
    label_of = dict(zip(positions, range(first_label, first_label + p + 1)))

    betas = beta_sequence(tr)
    eps = []  # the turning intervals tile 1..n-1 between the checked end points
    for k in range(p):
        sign = 1 if tags[k] == "A" else -1
        eps.extend([sign] * (positions[k + 1] - positions[k]))

    nil = tuple(rootlab.alpha_p_coefficient(b, p) != 0 for b in betas)
    boundary = tuple(i in label_of or i + 1 in label_of for i in range(1, n))
    isolated = tuple(i in label_of and i + 1 in label_of for i in range(1, n))
    for i in range(n - 1):
        if isolated[i] and not nil[i]:
            raise MeanderError("an isolated value must be nil")

    exc = [i for i in range(1, n) if abs(tr.phi[i - 1] - tr.phi[i]) == 1]
    if len(exc) != 1:
        raise MeanderError("exactly one chain value is +- a simple root, found %d" % len(exc))
    e = exc[0]
    m = next(x for x in (p, 2 * p + q, n) if x % 2 == 0)
    alpha_idx = min(tr.phi[e - 1], tr.phi[e])
    if alpha_idx != m // 2:
        raise MeanderError("exceptional value must be +- a_{m/2}")
    if nil[e - 1]:
        raise MeanderError("the exceptional value is never nil")

    return TurningData(
        pair=pair,
        traversal=tr,
        betas=betas,
        positions=positions,
        label_of=label_of,
        eps=tuple(eps),
        nil=nil,
        boundary=boundary,
        isolated=isolated,
        e=e,
        m=m,
    )


@dataclass(frozen=True)
class Signature:
    sg: tuple  # published signature, length p // 2
    full: tuple  # one sign per A turning point, in orbit order
    changes: tuple  # run starts j_1=1 < j_2 < ... over `full` (1-based)

    def as_string(self):
        return "".join("+" if s > 0 else "-" for s in self.sg)


def signature(td):
    """Per A turning point: -1 if the nil boundary value is above it,
    +1 if below.  The published signature keeps the first floor(p/2)
    entries; run starts are recorded over the full vector."""
    p = td.pair.p
    full = []
    for t in td.positions:
        if td.tag_at(t) != "A":
            continue
        above = td.nil[t - 2] if t >= 2 else False
        below = td.nil[t - 1] if t <= td.pair.n - 1 else False
        if above == below:
            raise MeanderError("exactly one boundary value of an A point is nil")
        full.append(1 if below else -1)
    full = tuple(full)
    if p % 2 == 1 and full[0] != 1:
        raise MeanderError("odd p forces a nil value below the first A point")
    changes = [1]
    for j in range(1, len(full)):
        if full[j] != full[j - 1]:
            changes.append(j + 1)
    return Signature(
        sg=full[: p // 2],
        full=full,
        changes=tuple(changes),
    )


def coprime_pairs(max_n):
    """All (p,q), p <= q, p+q <= max_n, gcd 1, sorted by (n, p)."""
    out = []
    for n in range(3, max_n + 1):
        for p in range(1, n // 2 + 1):
            q = n - p
            if p <= q and math.gcd(p, q) == 1:
                out.append(CoprimePair(p, q))
    return out

