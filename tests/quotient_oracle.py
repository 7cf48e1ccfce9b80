"""The elimination route to ideal quotients, kept as an independent oracle.

(I : g) = (I intersect <g>) / g, where the intersection comes from eliminating
t from t*I + (1 - t)*<g>.  It works for any ideal and any g, so it checks the
grading-based `polynomials.ideal_quotient` without sharing its method.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from gkzkit.polynomials import (
    Monomial,
    Polynomial,
    TermOrder,
    elimination_order,
    groebner_basis,
    monomial_div,
    monomial_divides,
)


def _lift(p: Polynomial) -> Polynomial:
    return Polynomial(p.nvars + 1, {(0,) + m: c for m, c in p.terms.items()})


def intersect_with_principal(
    gens: Sequence[Polynomial], g: Polynomial, order: TermOrder
) -> list[Polynomial]:
    """Reduced GB of (gens) intersect (g), via t*J + (1-t)*g and elimination of t."""
    nvars = g.nvars
    t = Polynomial.monomial((1,) + (0,) * nvars)
    one = Polynomial.one(nvars + 1)
    lifted = [_lift(f) * t for f in gens]
    lifted.append((one - t) * _lift(g))
    gb = groebner_basis(lifted, elimination_order(1, nvars + 1))
    kept = [
        Polynomial(nvars, {m[1:]: c for m, c in p.terms.items()})
        for p in gb
        if all(m[0] == 0 for m in p.terms)
    ]
    return groebner_basis(kept, order) if kept else []


def divide_exact(p: Polynomial, g: Polynomial, order: TermOrder) -> Polynomial:
    """q with p = q*g; raises if g does not divide p."""
    q: dict[Monomial, Fraction] = {}
    rest = p
    gm, gc = g.leading(order)
    while not rest.is_zero():
        m, c = rest.leading(order)
        if not monomial_divides(gm, m):
            raise ArithmeticError("division is not exact")
        mono = monomial_div(m, gm)
        coeff = c / gc
        q[mono] = coeff
        rest = rest - g * Polynomial.monomial(mono, coeff)
    return Polynomial(p.nvars, q)


def ideal_quotient_by_elimination(
    gens: Sequence[Polynomial], g: Polynomial, order: TermOrder
) -> list[Polynomial]:
    """Reduced GB of (gens : g)."""
    inter = intersect_with_principal(gens, g, order)
    quotients = [divide_exact(p, g, order) for p in inter]
    return groebner_basis(quotients, order) if quotients else []
