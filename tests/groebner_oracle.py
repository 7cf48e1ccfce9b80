"""The general Groebner engine over Q, kept as the reference for the binomial one.

`polynomials.groebner_basis` and `polynomials.ideal_quotient` handle only
monomials and pure-difference binomials.  This is the engine they replaced,
moved here verbatim: Buchberger's algorithm on `Fraction` term maps, with
the same heap selection, Gebauer-Moller pruning, `known=` extension and
weighted-revlex variable division.  It takes any polynomial, so the
elimination oracles and the tests that feed general polynomials build their
bases with it, and the binomial engine is checked against it.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import chain, count
from typing import Iterable, Optional, Sequence

from gkzkit.polynomials import (
    Monomial,
    Polynomial,
    TermOrder,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    normal_form,
    weighted_revlex,
)


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
