"""Multivariate polynomials over Q, and Groebner bases of binomial ideals.

Monomials are plain exponent tuples; polynomials are mappings from monomial
to nonzero Fraction.  That sparse term-map core (construction, +, -, scale,
equality, hashing and the sign/coefficient rendering of `pretty`) is
`TermMap`, shared with `weyl.WeylElement`.  The Groebner engine takes only
monomials and pure-difference binomials d^u - d^v, which generate every
ideal the toric layer builds, and whose reduced bases keep that form
(Eisenbud and Sturmfels, Binomial ideals, 1996, Prop. 1.1).  It stores an
element as an exponent pair (lead, tail): d^lead - d^tail with lead > tail,
or d^lead when tail is None.  An S-pair of two is one or 0, and a monomial
reduces to one monomial or to 0, so no coefficient is stored and the normal
form of d^l - d^t is NF(l) - NF(t).  Buchberger selects S-pairs from a heap
by the smallest lcm of leading monomials (normal selection), prunes them
with the Gebauer-Moller criteria and can extend a reduced basis, pairing
only the new generators.  Quotients and saturations of a homogeneous ideal
by monomials come from weighted-revlex bases with one variable last.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import chain, count, product
from operator import add, le, sub
from typing import Callable, Iterable, Optional, Sequence

from .errors import ParseError, VariableMismatch
from .intlinalg import format_fraction

Monomial = tuple[int, ...]
OrderKey = Callable[[Monomial], tuple]
Binomial = tuple[Monomial, Optional[Monomial]]  # (lead, tail); tail None for a monomial


class TermOrder:
    """A monomial order given by a sort key (larger key = larger monomial)."""

    def __init__(self, name: str, key: OrderKey):
        self.name = name
        self.key = key

    def __repr__(self):
        return f"TermOrder({self.name})"


def degrevlex() -> TermOrder:
    return TermOrder("degrevlex", lambda u: (sum(u), tuple(-x for x in reversed(u))))


def lex() -> TermOrder:
    return TermOrder("lex", lambda u: u)


def deglex() -> TermOrder:
    return TermOrder("deglex", lambda u: (sum(u), u))


def weighted_revlex(weights: Sequence[int], last: int) -> TermOrder:
    """Order by weight w.u, ties broken by revlex with variable `last` last.

    Within one weight, the monomial with the smaller exponent of x_last is the
    larger, so x_last divides a w-homogeneous polynomial whenever it divides
    its leading monomial.
    """
    weights = tuple(weights)
    rest = [k for k in reversed(range(len(weights))) if k != last]

    def key(u: Monomial):
        return (
            sum(w * x for w, x in zip(weights, u)),
            -u[last],
            tuple(-u[k] for k in rest),
        )

    return TermOrder(f"wrevlex{last}", key)


_ORDERS = {"degrevlex": degrevlex, "lex": lex, "deglex": deglex}


def order_by_name(name: str) -> TermOrder:
    if name not in _ORDERS:
        raise ParseError(f"unknown term order {name!r} (choose from {sorted(_ORDERS)})")
    return _ORDERS[name]()


class TermMap:
    """Sparse map from term keys to nonzero Fractions in nvars variables.

    The base of Polynomial and WeylElement; the map is never mutated after
    construction.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Optional[dict] = None):
        self.nvars = nvars
        clean: dict = {}
        if terms:
            for m, c in terms.items():
                if type(c) is not Fraction:
                    c = Fraction(c)
                if c != 0:
                    clean[tuple(m)] = c
        self.terms = clean

    @classmethod
    def zero(cls, nvars: int):
        return cls(nvars)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def _check(self, other: "TermMap") -> None:
        if self.nvars != other.nvars:
            raise VariableMismatch(f"{self.nvars} vs {other.nvars} variables")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return type(self)(self.nvars, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        return type(self)(self.nvars, {m: c * v for m, v in self.terms.items()})

    @staticmethod
    def _power_product(names: Sequence[str], expo: Sequence[int]) -> str:
        """'x1^2*x3' for exponent vector (2, 0, 1); the empty string for 0."""
        return "*".join(
            f"{name}^{e}" if e > 1 else name for name, e in zip(names, expo) if e
        )

    @staticmethod
    def _render(terms: Iterable[tuple[str, Fraction]]) -> str:
        """Join (power product, coefficient) pairs as in '-x1^2 + 3/2*x2 - 1'."""
        text = ""
        for body, c in terms:
            mag = format_fraction(abs(c))
            if not body:
                piece = mag
            elif mag == "1":
                piece = body
            else:
                piece = f"{mag}*{body}"
            if not text:
                text = "-" + piece if c < 0 else piece
            else:
                text += f" {'-' if c < 0 else '+'} {piece}"
        return text or "0"


class Polynomial(TermMap):
    """Sparse polynomial in nvars variables, keyed by exponent tuples."""

    __slots__ = ()

    @classmethod
    def one(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: Fraction(1)})

    @classmethod
    def monomial(cls, expo: Monomial, coeff=1) -> "Polynomial":
        return cls(len(expo), {tuple(expo): Fraction(coeff)})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = monomial_mul(m1, m2)
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return Polynomial(self.nvars, out)

    def leading(self, order: TermOrder) -> tuple[Monomial, Fraction]:
        m = max(self.terms, key=order.key)
        return m, self.terms[m]

    def sorted_terms(self, order: TermOrder) -> list[tuple[Monomial, Fraction]]:
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]), reverse=True)

    def pretty(self, names: Optional[Sequence[str]] = None, order: Optional[TermOrder] = None) -> str:
        names = names or [f"x{i+1}" for i in range(self.nvars)]
        order = order or degrevlex()
        terms = self.sorted_terms(order)
        return self._render((self._power_product(names, m), c) for m, c in terms)

    def __repr__(self):
        return f"Polynomial({self.pretty()})"


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    return all(map(le, a, b))


def standard_pairs(leads: Sequence[Monomial], n: int) -> list[tuple[Monomial, tuple[int, ...]]]:
    """The standard pairs (m, sigma) of M = <d^l : l in leads> in n variables.

    m is 0 on sigma, d^m k[d_sigma] misses M, and no other such set holds
    it; the monomials outside M are the union of the sets m + N^sigma
    (Sturmfels, Trung and Vogel 1995).  M : d_sigma^inf is generated by the
    leads set to 0 on sigma, and is the unit ideal exactly when d_sigma lies
    in rad(M); such a sigma and every larger one is skipped.  m is maximal
    exactly when d^m lies in M : d_(sigma + i)^inf for each i off sigma.  So
    m_i is below the largest d_i exponent E_i of M : d_sigma^inf: where
    m_i >= E_i, raising m_i never makes a generator divide d^m.
    """
    pairs = []
    sigmas: list[tuple[int, ...]] = [()]
    for sigma in sigmas:  # grows below, each sigma + i with i past max(sigma)
        sat = [tuple(0 if i in sigma else x for i, x in enumerate(l)) for l in leads]
        if not all(map(any, sat)):
            continue
        sigmas.extend(sigma + (i,) for i in range(sigma[-1] + 1 if sigma else 0, n))
        off = [i for i in range(n) if i not in sigma]
        box = [range(max((g[i] for g in sat), default=0)) if i in off else range(1) for i in range(n)]
        for m in product(*box):
            if not any(monomial_divides(g, m) for g in sat) and all(
                any(monomial_divides(g[:i] + (0,) + g[i + 1 :], m) for g in sat) for i in off
            ):
                pairs.append((m, sigma))
    return pairs


def monomial_div(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(sub, a, b))


def monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def normal_form(
    p: Polynomial,
    basis: Sequence[Polynomial],
    order: TermOrder,
    leads: Optional[Sequence[tuple[Monomial, Fraction]]] = None,
) -> Polynomial:
    """Remainder of p under full division by basis (every term reduced).

    `leads`, when given, holds the leading (monomial, coefficient) of each
    basis element, so that a caller that keeps them need not recompute them.
    """
    if not basis:
        return p
    if leads is None:
        leads = [g.leading(order) for g in basis]
    remainder: dict[Monomial, Fraction] = {}
    work = dict(p.terms)
    while work:
        m = max(work, key=order.key)
        c = work[m]
        if c == 0:
            del work[m]
            continue
        for g, (lm, lc) in zip(basis, leads):
            if monomial_divides(lm, m):
                # The leading term cancels exactly; only the others move.
                q = monomial_div(m, lm)
                f = c if lc == 1 else c / lc
                del work[m]
                for gm, gc in g.terms.items():
                    if gm != lm:
                        key = monomial_mul(gm, q)
                        work[key] = work.get(key, Fraction(0)) - f * gc
                break
        else:
            remainder[m] = c
            del work[m]
    return Polynomial(p.nvars, remainder)


def binomial(p: Polynomial) -> Binomial:
    """p as a pair: c*d^u is (u, None), and c*(d^u - d^v) with c > 0 is (u, v).

    So a monic basis element comes back as (lead, tail).  Any other p, the
    zero polynomial too, has no pair and raises ValueError.
    """
    terms = list(p.terms.items())
    if len(terms) == 1:
        return terms[0][0], None
    if len(terms) == 2:
        (u, c), (v, e) = terms
        if c + e == 0:
            return (u, v) if c > 0 else (v, u)
    raise ValueError(f"{p!r} is neither a monomial nor a pure-difference binomial")


def binomial_polynomial(b: Binomial) -> Polynomial:
    """The monic polynomial d^lead - d^tail, or d^lead, of a pair."""
    lead, tail = b
    return Polynomial(len(lead), {lead: 1} if tail is None else {lead: 1, tail: -1})


def reduce_monomial(m: Monomial, basis: Sequence[Binomial]) -> Optional[Monomial]:
    """The normal form of d^m under basis: d^r as r, or None when it is 0.

    d^l - d^t rewrites a multiple d^m of d^l to d^(m - l + t), and a monomial
    d^l sends it to 0, so every step keeps one term with coefficient 1.
    """
    while True:
        for lead, tail in basis:
            if all(map(le, lead, m)):  # monomial_divides, inlined in the innermost loop
                if tail is None:
                    return None
                m = tuple([x - y + z for x, y, z in zip(m, lead, tail)])
                break
        else:
            return m


def _oriented(u: Optional[Monomial], v: Optional[Monomial], key: OrderKey) -> Optional[Binomial]:
    """The pair of d^u - d^v, None standing for 0, or None when it is 0."""
    if u == v:
        return None
    if u is None or v is None:
        return (v if u is None else u), None
    return (u, v) if key(u) > key(v) else (v, u)


def groebner_basis(
    gens: Iterable[Binomial],
    order: TermOrder,
    known: Sequence[Binomial] = (),
) -> list[Binomial]:
    """The reduced Groebner basis, as pairs, of the ideal of known + gens.

    A generator (u, v) is d^u - d^v in either orientation, or d^u when v is
    None.  Pending S-pairs sit in a heap keyed by the order key of the lcm of
    their leading monomials (normal selection), ties going to the pair
    queued first.  Each new element prunes the pairs with the Gebauer-Moller
    criteria (Gebauer and Moller 1988; Becker and Weispfenning, UPDATE):
    coprime leading monomials, and lcms made redundant by a chain through
    another element.  Two monomials, whose S-polynomial is 0, are never
    queued.  Order keys are computed per element and queued pair, never per
    reduction step.

    `known`, when given, must be a reduced Groebner basis in `order`, as
    this function returns.  Its elements start the basis as they are, with
    no pairs among them (their S-polynomials already reduce to 0), and only
    gens are inserted, so extending a basis by a few generators costs only
    the pairs they make; the answer is exactly `groebner_basis(known + gens)`.
    """
    key = order.key
    new = [b for b in (_oriented(u, v, key) for u, v in gens) if b is not None]
    if not new:
        return list(known)
    basis: list[Binomial] = list(known)
    # Elements no later leading monomial divides; in a reduced basis, all.
    active: list[int] = list(range(len(basis)))
    pairs: list = []  # heap of (order key of lcm, sequence number, lcm, i, j)
    queued = count()

    def insert(b: Binomial) -> None:
        nonlocal pairs, active
        t = len(basis)
        basis.append(b)
        mt = b[0]
        lcms = [(monomial_lcm(basis[i][0], mt), i) for i in active]
        # Keep (i, t) unless the lcm of a later new pair, or of one kept
        # already, divides its lcm; keep coprime pairs so they can prune.
        kept = []
        for k, (l, i) in enumerate(lcms):
            if l == monomial_mul(basis[i][0], mt) or not any(
                monomial_divides(l2, l) for l2, _ in chain(lcms[k + 1 :], kept)
            ):
                kept.append((l, i))
        # Drop an old pair whose lcm mt divides strictly through both ends.
        old = [
            p
            for p in pairs
            if not monomial_divides(mt, p[2])
            or monomial_lcm(basis[p[3]][0], mt) == p[2]
            or monomial_lcm(basis[p[4]][0], mt) == p[2]
        ]
        if len(old) < len(pairs):
            heapq.heapify(old)
            pairs = old
        for l, i in kept:
            if l != monomial_mul(basis[i][0], mt) and (b[1] is not None or basis[i][1] is not None):
                heapq.heappush(pairs, (key(l), next(queued), l, i, t))
        active = [i for i in active if not monomial_divides(mt, basis[i][0])]
        active.append(t)

    def shifted(l: Monomial, b: Binomial) -> Optional[Monomial]:
        lead, tail = b
        if tail is None:
            return None
        return reduce_monomial(tuple([x - y + z for x, y, z in zip(l, lead, tail)]), basis)

    for b in new:
        insert(b)
    while pairs:
        _, _, l, i, j = heapq.heappop(pairs)
        # S(b_i, b_j) = (l / lead_j) tail_j - (l / lead_i) tail_i.
        s = _oriented(shifted(l, basis[i]), shifted(l, basis[j]), key)
        if s is not None:
            insert(s)
    # Keep the leads no smaller lead divides, then reduce each tail.  A lead
    # divides no monomial below it, so an element never reduces its own tail.
    minimal: list[Binomial] = []
    for b in sorted(basis, key=lambda b: key(b[0])):
        if not any(monomial_divides(h, b[0]) for h, _ in minimal):
            minimal.append(b)
    return [
        (lead, None if tail is None else reduce_monomial(tail, minimal))
        for lead, tail in minimal
    ]


def quotient_generators(
    gens: Sequence[Binomial], u: Sequence[float], weights: Sequence[int]
) -> list[Binomial]:
    """Generators, as pairs, of (gens : x^u), for gens homogeneous in `weights`.

    Every weight must be a positive integer.  An exponent u_i may be
    `math.inf`, which saturates: I : x_i^inf.  For such an ideal I, x_i
    divides a homogeneous polynomial exactly when it divides its leading
    monomial in `weighted_revlex(weights, i)`, so dividing every element of a
    Groebner basis in that order by x_i^min(u_i, k), x_i^k the power of x_i
    it holds, gives a Groebner basis of I : x_i^u_i (Bayer-Stillman;
    Sturmfels, Groebner Bases and Convex Polytopes, Lemma 12.1).  That is
    one basis per variable with u_i > 0, however large u_i is.
    """
    current = list(gens)
    for i, e in enumerate(u):
        if e:
            basis = groebner_basis(current, weighted_revlex(weights, i))
            current = []
            for b in basis:
                k = min(e, *(m[i] for m in b if m is not None))
                current.append(
                    tuple(None if m is None else m[:i] + (m[i] - k,) + m[i + 1 :] for m in b)
                )
    return current


def ideal_quotient(
    gens: Sequence[Binomial],
    u: Sequence[float],
    weights: Sequence[int],
    order: TermOrder,
) -> list[Binomial]:
    """Reduced GB (in `order`) of (gens : x^u), from `quotient_generators`."""
    return groebner_basis(quotient_generators(gens, u, weights), order)
