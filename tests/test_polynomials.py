import random
from fractions import Fraction
from itertools import product

import groebner_oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st
from quotient_oracle import (
    elimination_order,
    saturate_all_variables,
    saturate_variable,
)

from gkzkit.polynomials import (
    Polynomial,
    binomial,
    binomial_polynomial,
    degrevlex,
    deglex,
    groebner_basis,
    ideal_quotient,
    lex,
    monomial_divides,
    normal_form,
    standard_pairs,
)


def rand_poly(rng, nvars, nterms=3, maxexp=3):
    terms = {}
    for _ in range(nterms):
        m = tuple(rng.randint(0, maxexp) for _ in range(nvars))
        terms[m] = Fraction(rng.randint(-5, 5))
    return Polynomial(nvars, terms)


def test_degrevlex_tie_break():
    o = degrevlex()
    # equal total degree: the smaller last-variable exponent wins
    assert o.key((0, 3, 0)) > o.key((2, 0, 1))
    assert o.key((1, 0, 0)) > o.key((0, 1, 0))
    assert o.key((2, 0, 0)) > o.key((0, 1, 1))


def test_lex_vs_deglex():
    assert lex().key((1, 0, 0)) > lex().key((0, 5, 5))
    assert deglex().key((0, 5, 5)) > deglex().key((1, 0, 0))


def test_elimination_order_blocks():
    o = elimination_order(1, 3)
    # anything containing the eliminated variable beats anything without it
    assert o.key((1, 0, 0)) > o.key((0, 7, 7))


def test_arithmetic_ring_axioms():
    rng = random.Random(5)
    for _ in range(30):
        f, g, h = (rand_poly(rng, 3) for _ in range(3))
        assert (f + g) - g == f
        assert f * (g + h) == f * g + f * h
        assert (f * g) * h == f * (g * h)


def test_normal_form_is_idempotent_and_minimal():
    o = degrevlex()
    g = Polynomial(3, {(2, 0, 0): 1, (0, 1, 1): -1})
    basis = [binomial_polynomial(b) for b in groebner_basis([binomial(g)], o)]
    p = Polynomial.monomial((2, 0, 0))
    r = normal_form(p, basis, o)
    assert r == Polynomial(3, {(0, 1, 1): 1})
    assert normal_form(r, basis, o) == r
    lead = basis[0].leading(o)[0]
    assert all(not monomial_divides(lead, m) for m in r.terms)


def test_groebner_is_groebner():
    o = degrevlex()
    gens = [
        Polynomial(2, {(2, 0): 1, (0, 1): 1}),
        Polynomial(2, {(1, 1): 1, (1, 0): 1}),
    ]
    gb = groebner_oracle.groebner_basis(gens, o)
    assert groebner_oracle.passes_buchberger_criterion(gb, o)
    for g in gens:
        assert normal_form(g, gb, o).is_zero()


def test_groebner_reduced_and_deterministic():
    o = degrevlex()
    rng = random.Random(11)
    for _ in range(10):
        gens = [rand_poly(rng, 2, nterms=2, maxexp=2) for _ in range(2)]
        gb1 = groebner_oracle.groebner_basis(gens, o)
        gb2 = groebner_oracle.groebner_basis(list(reversed(gens)), o)
        assert gb1 == gb2  # reduced GB is unique for the ideal and order
        for g in gb1:
            assert g.leading(o)[1] == 1


def test_ideal_quotient_monomials():
    o = degrevlex()
    gb = groebner_basis([((2, 0), None), ((1, 1), None)], o)
    q = ideal_quotient(gb, (1, 0), (1, 1), o)
    assert set(q) == {((0, 1), None), ((1, 0), None)}


def test_saturation_strips_variable_factor():
    o = degrevlex()
    g = Polynomial(2, {(2, 1): 1, (1, 0): -1})  # x^2 y - x = x (x y - 1)
    sat = saturate_all_variables([g], o)
    assert sat == [Polynomial(2, {(1, 1): 1, (0, 0): -1})]


def test_saturation_of_saturated_binomial_is_identity():
    o = degrevlex()
    g = Polynomial(3, {(0, 3, 0): 1, (2, 0, 1): -1})
    assert saturate_all_variables([g], o) == groebner_oracle.groebner_basis([g], o)


def test_saturate_single_variable():
    o = degrevlex()
    g = Polynomial(2, {(1, 1): 1})  # <xy> : x^inf = <y>
    sat = saturate_variable(groebner_oracle.groebner_basis([g], o), 0, o)
    assert sat == [Polynomial(2, {(0, 1): 1})]


def test_unit_ideal_detection():
    o = degrevlex()
    gb = groebner_oracle.groebner_basis(
        [Polynomial(1, {(1,): 1}), Polynomial(1, {(1,): 1, (0,): 1})], o
    )
    assert groebner_oracle.ideal_is_unit(gb)
    assert groebner_basis([((1,), None), ((1,), (0,))], o) == [((0,), None)]


@st.composite
def monomial_ideals(draw):
    """Up to 5 generators in n <= 4 variables, exponents <= 3 (the zero one too)."""
    n = draw(st.integers(1, 4))
    leads = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=5))
    return leads, n


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(monomial_ideals())
@example(([], 3))
@example(([(2, 0, 0), (0, 3, 0), (0, 0, 1)], 3))  # pure powers: one pair per standard monomial
@example(([(3, 0), (0, 1)], 2))
def test_standard_pairs_match_brute_force(case):
    leads, n = case
    pairs = standard_pairs(leads, n)
    for m, sigma in pairs:
        assert all(m[i] == 0 for i in sigma)

    def covers(pair, u):
        m, sigma = pair
        return all(x == y if i not in sigma else x >= y for i, (x, y) in enumerate(zip(u, m)))

    for u in product(range(5), repeat=n):
        outside = not any(monomial_divides(l, u) for l in leads)
        assert outside == any(covers(pair, u) for pair in pairs), u
    # (m, sigma) lies in (m', sigma') when sigma is in sigma' and m - m'
    # is >= 0 and supported on sigma'; no pair lies in another.
    for p, q in product(pairs, repeat=2):
        if p != q:
            assert not (set(p[1]) <= set(q[1]) and covers(q, p[0])), (p, q)
