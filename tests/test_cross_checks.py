"""Dual-route checks against independent engines and closed-form sets.

sympy only ever appears here, as a second opinion; the library itself is
pure stdlib.
"""

import random
from fractions import Fraction as F
from itertools import product

import pytest

import groebner_oracle

from gkzkit import (
    IntMatrix,
    WeylElement,
    dsres_contains,
    parse_matrix,
    sres_contains,
)
from gkzkit.errors import RankDeficient
from gkzkit.intlinalg import elementary_divisors
from gkzkit.polynomials import Polynomial, degrevlex, lex
from gkzkit.weyl import weyl_mul

sympy = pytest.importorskip("sympy")


def to_sympy(p, gens):
    expr = 0
    for mono, coeff in p.terms.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for g, e in zip(gens, mono):
            term *= g**e
        expr += term
    return expr


def from_sympy(expr, gens, nvars):
    poly = sympy.Poly(expr, *gens)
    terms = {}
    for mono, coeff in poly.terms():
        terms[tuple(int(e) for e in mono)] = F(int(coeff.p), int(coeff.q))
    return Polynomial(nvars, terms)


@pytest.mark.parametrize("order_name", ["grevlex", "lex"])
def test_groebner_matches_sympy(order_name):
    rng = random.Random(20240202 + len(order_name))
    gens = sympy.symbols("x1 x2 x3")
    order = degrevlex() if order_name == "grevlex" else lex()
    for _ in range(12):
        polys = []
        for _ in range(2):
            terms = {}
            for _ in range(3):
                mono = tuple(rng.randint(0, 2) for _ in range(3))
                terms[mono] = F(rng.randint(-3, 3))
            poly = Polynomial(3, terms)
            if not poly.is_zero():
                polys.append(poly)
        if not polys:
            continue
        mine = groebner_oracle.groebner_basis(polys, order)
        theirs = sympy.groebner(
            [to_sympy(p, gens) for p in polys], *gens, order=order_name
        )
        converted = sorted(
            sorted(p.scale(1 / p.leading(order)[1]).terms.items())
            for p in (from_sympy(e, gens, 3) for e in theirs.exprs)
        )
        ours = sorted(sorted(g.terms.items()) for g in mine)
        assert ours == converted


def test_smith_divisors_match_sympy():
    from sympy.matrices.normalforms import smith_normal_form

    rng = random.Random(5150)
    checked = 0
    while checked < 40:
        d = rng.randint(1, 3)
        n = rng.randint(1, 4)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(d)]
        m = IntMatrix.from_rows(rows)
        snf = smith_normal_form(sympy.Matrix(rows))
        theirs = sorted(
            abs(int(snf[i, i])) for i in range(min(d, n)) if snf[i, i] != 0
        )
        ours = sorted(elementary_divisors(m))
        assert list(ours) == theirs
        checked += 1


def apply_weyl(w, poly_terms, nvars):
    """Act on a polynomial via lambda_i -> x_i, d_i -> d/dx_i (a faithful action)."""
    out = {}
    for (u, v), c in w.terms.items():
        for mono, pc in poly_terms.items():
            coeff = F(pc) * c
            derived = list(mono)
            ok = True
            for i in range(nvars):
                for _ in range(v[i]):
                    if derived[i] == 0:
                        ok = False
                        break
                    coeff *= derived[i]
                    derived[i] -= 1
                if not ok:
                    break
            if not ok or coeff == 0:
                continue
            key = tuple(e + u[i] for i, e in enumerate(derived))
            out[key] = out.get(key, F(0)) + coeff
    return {k: v for k, v in out.items() if v != 0}


def test_weyl_product_matches_polynomial_action():
    rng = random.Random(909)
    for _ in range(60):
        nvars = rng.randint(1, 3)
        def rand_w():
            terms = {}
            for _ in range(2):
                u = tuple(rng.randint(0, 2) for _ in range(nvars))
                v = tuple(rng.randint(0, 2) for _ in range(nvars))
                terms[(u, v)] = F(rng.randint(-3, 3))
            return WeylElement(nvars, terms)

        a, b = rand_w(), rand_w()
        test_poly = {
            tuple(rng.randint(0, 3) for _ in range(nvars)): rng.randint(-2, 2)
            for _ in range(3)
        }
        composed = apply_weyl(a, apply_weyl(b, test_poly, nvars), nvars)
        direct = apply_weyl(weyl_mul(a, b), test_poly, nvars)
        assert composed == direct


STAIRCASE = parse_matrix("3 2 0; 1 1 1")


def _grid(step=F(1, 3), lo=-4, hi=4):
    ticks = []
    x = F(lo)
    while x <= hi:
        ticks.append(x)
        x += step
    return ticks


def test_sres_staircase_closed_form():
    """sRes of the running example is {x in Z, x <= 1, x != 0} union
    {x - 3y a positive integer}, worked out from the three column components."""
    for x, y in product(_grid(F(1, 2), -3, 3), repeat=2):
        vertical = x.denominator == 1 and x <= 1 and x != 0
        slanted = (x - 3 * y).denominator == 1 and (x - 3 * y) >= 1
        assert sres_contains(STAIRCASE, (x, y)) == (vertical or slanted)


def test_dsres_staircase_closed_form():
    """DsRes of the running example is {x a nonnegative integer} union
    {x - 3y a nonpositive integer} union the integral cone points."""
    for x, y in product(_grid(F(1, 2), -3, 3), repeat=2):
        vertical = x.denominator == 1 and x >= 0
        slanted = (x - 3 * y).denominator == 1 and (x - 3 * y) <= 0
        cone_point = (
            x.denominator == 1
            and y.denominator == 1
            and 0 <= x <= 3 * y
        )
        expected = vertical or slanted or cone_point
        assert dsres_contains(STAIRCASE, (x, y)) == expected
