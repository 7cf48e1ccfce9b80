"""Multivariate polynomials over Q with exact Groebner machinery.

Monomials are plain exponent tuples; polynomials are mappings from monomial
to nonzero Fraction.  That sparse term-map core (construction, +, -, scale,
equality, hashing and the sign/coefficient rendering of `pretty`) is
`TermMap`, shared with `weyl.WeylElement`.  Buchberger keeps the leading term of each basis element
next to it, selects S-pairs from a heap by the smallest lcm of leading
monomials (normal selection) and prunes them with the Gebauer-Moller
criteria; it can extend a reduced basis, pairing only the new generators.
Quotients and saturations of a homogeneous ideal by monomials
come from weighted-revlex bases with one variable last, with no elimination
variable.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import chain, count
from operator import add, le, sub
from typing import Callable, Iterable, Optional, Sequence

from .errors import ParseError, VariableMismatch
from .intlinalg import format_fraction

Monomial = tuple[int, ...]
OrderKey = Callable[[Monomial], tuple]


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
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) - c
        return type(self)(self.nvars, out)

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

    def monic(self, order: TermOrder) -> "Polynomial":
        if self.is_zero():
            return self
        _, c = self.leading(order)
        return self.scale(Fraction(1) / c)

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


def s_polynomial(
    f: Polynomial,
    g: Polynomial,
    order: TermOrder,
    leads: Optional[tuple[tuple[Monomial, Fraction], tuple[Monomial, Fraction]]] = None,
) -> Polynomial:
    """lcm/lt(f) * f - lcm/lt(g) * g; `leads` may hold the two leading terms."""
    (fm, fc), (gm, gc) = leads or (f.leading(order), g.leading(order))
    l = monomial_lcm(fm, gm)
    qf, qg = monomial_div(l, fm), monomial_div(l, gm)
    # The leading terms cancel exactly, so they are left out.
    out = {monomial_mul(m, qf): c / fc for m, c in f.terms.items() if m != fm}
    for m, c in g.terms.items():
        if m != gm:
            key = monomial_mul(m, qg)
            out[key] = out.get(key, Fraction(0)) - c / gc
    return Polynomial(f.nvars, out)


def buchberger(
    gens: Iterable[Polynomial],
    order: TermOrder,
    known: Sequence[Polynomial] = (),
) -> list[Polynomial]:
    """A Groebner basis of known + gens (not reduced), by Buchberger's algorithm.

    Leading terms are computed once per basis element.  Pending pairs sit in
    a heap keyed by the order key of the lcm of their leading monomials
    (normal selection), ties going to the pair queued first.  Each new
    element prunes the pairs with the Gebauer-Moller criteria (Gebauer and
    Moller 1988; Becker and Weispfenning, UPDATE): coprime leading monomials,
    and lcms made redundant by a chain through another element.

    `known`, when given, must be a reduced Groebner basis in `order`.  Its
    elements start the basis as they are, with no pairs among them (their
    S-polynomials already reduce to 0), and only gens are inserted, so
    extending a basis by a few generators costs only the pairs they make.
    """
    basis: list[Polynomial] = list(known)
    leads: list[tuple[Monomial, Fraction]] = [g.leading(order) for g in basis]
    # Elements no later leading monomial divides; in a reduced basis, all.
    active: list[int] = list(range(len(basis)))
    pairs: list = []  # heap of (order key of lcm, sequence number, lcm, i, j)
    queued = count()

    def insert(h: Polynomial) -> None:
        nonlocal pairs, active
        t = len(basis)
        basis.append(h)
        leads.append(h.leading(order))
        mt = leads[t][0]
        lcms = [(monomial_lcm(leads[i][0], mt), i) for i in active]
        # Keep (i, t) unless the lcm of a later new pair, or of one kept
        # already, divides its lcm; keep coprime pairs so they can prune.
        kept = []
        for k, (l, i) in enumerate(lcms):
            if l == monomial_mul(leads[i][0], mt) or not any(
                monomial_divides(l2, l) for l2, _ in chain(lcms[k + 1 :], kept)
            ):
                kept.append((l, i))
        # Drop an old pair whose lcm mt divides strictly through both ends.
        old = [
            p
            for p in pairs
            if not monomial_divides(mt, p[2])
            or monomial_lcm(leads[p[3]][0], mt) == p[2]
            or monomial_lcm(leads[p[4]][0], mt) == p[2]
        ]
        if len(old) < len(pairs):
            heapq.heapify(old)
            pairs = old
        for l, i in kept:
            if l != monomial_mul(leads[i][0], mt):
                heapq.heappush(pairs, (order.key(l), next(queued), l, i, t))
        active = [i for i in active if not monomial_divides(mt, leads[i][0])]
        active.append(t)

    for g in gens:
        if not g.is_zero():
            insert(g)
    while pairs:
        _, _, _, i, j = heapq.heappop(pairs)
        s = s_polynomial(basis[i], basis[j], order, (leads[i], leads[j]))
        s = normal_form(s, basis, order, leads)
        if not s.is_zero():
            insert(s)
    return basis


def reduce_basis(basis: Sequence[Polynomial], order: TermOrder) -> list[Polynomial]:
    """Minimal, interreduced, monic basis sorted by leading monomial."""
    leading = []
    for g in basis:
        if not g.is_zero():
            lm, lc = g.leading(order)
            leading.append((order.key(lm), lm, g if lc == 1 else g.scale(Fraction(1) / lc)))
    leading.sort(key=lambda t: t[0])
    minimal: list[tuple[Monomial, Polynomial]] = []
    for _, lm, g in leading:
        if not any(monomial_divides(h, lm) for h, _ in minimal):
            minimal.append((lm, g))
    # No other leading monomial divides lm, so each remainder keeps lm with
    # coefficient 1 and the list stays sorted.
    polys = [g for _, g in minimal]
    leads = [(lm, Fraction(1)) for lm, _ in minimal]
    return [
        normal_form(g, polys[:i] + polys[i + 1 :], order, leads[:i] + leads[i + 1 :])
        for i, g in enumerate(polys)
    ]


def groebner_basis(
    gens: Iterable[Polynomial],
    order: TermOrder,
    known: Sequence[Polynomial] = (),
) -> list[Polynomial]:
    """The reduced Groebner basis of the ideal generated by known + gens.

    `known`, when given, must be a reduced Groebner basis in `order` (as this
    function returns); `buchberger` then starts from it and adds only the
    pairs of gens, and the answer is exactly `groebner_basis(known + gens)`.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return list(known)
    return reduce_basis(buchberger(gens, order, known), order)


def passes_buchberger_criterion(basis: Sequence[Polynomial], order: TermOrder) -> bool:
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            s = s_polynomial(basis[i], basis[j], order)
            if not normal_form(s, basis, order).is_zero():
                return False
    return True


def ideal_is_unit(gb: Sequence[Polynomial]) -> bool:
    return any(set(g.terms) == {(0,) * g.nvars} for g in gb)


def ideal_quotient(
    gens: Sequence[Polynomial],
    u: Sequence[float],
    weights: Sequence[int],
    order: TermOrder,
) -> list[Polynomial]:
    """Reduced GB (in `order`) of (gens : x^u), for gens homogeneous in `weights`.

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
            current = [_divide_variable(g, i, min(e, *(m[i] for m in g.terms))) for g in basis]
    return groebner_basis(current, order)


def _divide_variable(p: Polynomial, var: int, power: int) -> Polynomial:
    return Polynomial(
        p.nvars,
        {m[:var] + (m[var] - power,) + m[var + 1 :]: c for m, c in p.terms.items()},
    )
