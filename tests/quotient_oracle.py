"""The elimination route to ideal quotients and saturations, kept as an oracle.

(I : g) = (I intersect <g>) / g, where the intersection comes from eliminating
t from t*I + (1 - t)*<g>, and (I : x_i^inf) eliminates t from I + <t*x_i - 1>.
Both work for any ideal, graded or not, so they check the grading-based
`polynomials.ideal_quotient` and `toric.toric_ideal` without sharing their
method.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from groebner_oracle import groebner_basis

from gkzkit.polynomials import (
    Monomial,
    Polynomial,
    TermOrder,
    monomial_div,
    monomial_divides,
)


def elimination_order(front: int, total: int) -> TermOrder:
    """Block order eliminating the first `front` variables, degrevlex in each block."""

    def key(u: Monomial):
        head, tail = u[:front], u[front:]
        return (
            (sum(head), tuple(-x for x in reversed(head))),
            (sum(tail), tuple(-x for x in reversed(tail))),
        )

    return TermOrder(f"elim{front}", key)


def _lift(p: Polynomial) -> Polynomial:
    return Polynomial(p.nvars + 1, {(0,) + m: c for m, c in p.terms.items()})


def _drop_front_var(p: Polynomial) -> Polynomial:
    return Polynomial(p.nvars - 1, {m[1:]: c for m, c in p.terms.items()})


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
    kept = [_drop_front_var(p) for p in gb if all(m[0] == 0 for m in p.terms)]
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


def saturate_variable(
    gens: Sequence[Polynomial], var: int, order: TermOrder
) -> list[Polynomial]:
    """Reduced GB of (gens : x_var^infinity), by inverting the variable."""
    nvars = gens[0].nvars if gens else 0
    if not gens:
        return []
    t_x = Polynomial.monomial(
        (1,) + tuple(1 if i == var else 0 for i in range(nvars))
    )
    one = Polynomial.one(nvars + 1)
    lifted = [_lift(f) for f in gens]
    lifted.append(t_x - one)
    elim = elimination_order(1, nvars + 1)
    gb = groebner_basis(lifted, elim)
    kept = [_drop_front_var(p) for p in gb if all(m[0] == 0 for m in p.terms)]
    return groebner_basis(kept, order) if kept else []


def saturate_all_variables(
    gens: Sequence[Polynomial], order: TermOrder
) -> list[Polynomial]:
    """Reduced GB of (gens : (x_1 ... x_n)^infinity), one variable at a time."""
    current = groebner_basis(gens, order)
    if not current:
        return []
    nvars = current[0].nvars
    for var in range(nvars):
        current = saturate_variable(current, var, order)
        if not current:
            return []
    return current
