"""Differential tests of the Groebner engines.

`ideal_quotient` divides variables out of weighted-revlex bases, and
`toric_ideal` saturates with it; both are checked against the elimination
route in `quotient_oracle`.  The binomial engine of `polynomials` is checked
against the general one in `groebner_oracle` on monomials and pure-difference
binomials.  The general engine's heap-driven `buchberger` output is checked
against Buchberger's criterion in several orders, and a basis extended from
a reduced one against the basis rebuilt from scratch.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import groebner_oracle
from quotient_oracle import (
    elimination_order,
    ideal_quotient_by_elimination,
    saturate_all_variables,
)

from gkzkit import IntMatrix, parse_matrix
from gkzkit.cones import _semigroup
from gkzkit.intlinalg import lattice_kernel
from gkzkit.polynomials import (
    Polynomial,
    binomial,
    binomial_polynomial,
    deglex,
    degrevlex,
    groebner_basis,
    ideal_quotient,
    lex,
    normal_form,
    weighted_revlex,
)
from gkzkit.toric import box_binomial, toric_ideal

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def pointed_matrices(draw):
    """2 x n matrices with first row in 1..2, so phi = (1, 0) is positive."""
    n = draw(st.integers(2, 4))
    cols = [(draw(st.integers(1, 2)), draw(st.integers(-2, 2))) for _ in range(n)]
    return IntMatrix.from_rows([[c[0] for c in cols], [c[1] for c in cols]])


def exponents(n, top=2):
    return st.tuples(*[st.integers(0, top)] * n)


@st.composite
def monomial_quotient_cases(draw):
    a = draw(pointed_matrices())
    n = a.n
    phi = _semigroup(a).phi
    weights = [sum(p * c for p, c in zip(phi, a.column(i))) for i in range(n)]
    extra = draw(st.lists(exponents(n), max_size=2))
    gens = list(toric_ideal(a).generators)
    gens += [Polynomial.monomial(m) for m in extra if any(m)]
    u = draw(exponents(n).filter(lambda m: 0 < sum(m) <= 3))
    order = draw(st.sampled_from([degrevlex(), lex()]))
    return gens, u, weights, order


@SETTINGS
@given(monomial_quotient_cases())
def test_ideal_quotient_matches_elimination_oracle(case):
    gens, u, weights, order = case
    expected = ideal_quotient_by_elimination(gens, Polynomial.monomial(u), order)
    quotient = ideal_quotient([binomial(g) for g in gens], u, weights, order)
    assert [binomial_polynomial(b) for b in quotient] == expected


@st.composite
def small_matrices(draw):
    """d in 1..3, n in d+1..d+3, entries in [-2, 2]: often not pointed or with a zero column."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(d + 1, d + 3))
    rows = [draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)) for _ in range(d)]
    return IntMatrix.from_rows(rows)


@SETTINGS
@given(small_matrices())
@example(parse_matrix("0 2 3"))
@example(parse_matrix("2 0 3; 0 0 1"))
@example(parse_matrix("1 -1"))
@example(parse_matrix("2 -2 1 0 -2; 0 1 0 1 -2"))
@example(parse_matrix("0 2 3 -2 -2; 2 -2 3 1 0; 2 -3 2 3 -3"))
@example(parse_matrix("1 -2 -2 -2 -1 -1; -2 1 -2 -2 1 2; 2 0 1 1 2 -1"))  # needs phi.a_i
def test_toric_ideal_matches_elimination_saturation(a):
    binomials = [binomial_polynomial(box_binomial(l)) for l in lattice_kernel(a)]
    for name, order in (("degrevlex", degrevlex()), ("lex", lex())):
        expected = saturate_all_variables(binomials, order) if binomials else []
        assert list(toric_ideal(a, name).generators) == expected


def polynomials(nvars):
    terms = st.dictionaries(exponents(nvars), st.integers(-3, 3), min_size=1, max_size=3)
    return terms.map(lambda t: Polynomial(nvars, t))


ORDERS = {
    "degrevlex": degrevlex(),
    "lex": lex(),
    "elimination": elimination_order(1, 3),
    "weighted_revlex": weighted_revlex((2, 1, 3), 1),
}


@SETTINGS
@given(
    st.lists(polynomials(3), min_size=1, max_size=3),
    st.sampled_from(sorted(ORDERS)),
)
def test_heap_buchberger_passes_criterion(gens, order_name):
    order = ORDERS[order_name]
    basis = groebner_oracle.buchberger(gens, order)
    assert groebner_oracle.passes_buchberger_criterion(basis, order)
    for g in gens:
        assert normal_form(g, basis, order).is_zero()
    reduced = groebner_oracle.groebner_basis(gens, order)
    assert groebner_oracle.passes_buchberger_criterion(reduced, order)
    assert groebner_oracle.groebner_basis(list(reversed(gens)), order) == reduced


@st.composite
def extension_cases(draw):
    """A reduced basis of I_A in some order, and monomials and binomials to add."""
    a = draw(pointed_matrices())
    n = a.n
    order_name = draw(st.sampled_from(["degrevlex", "lex", "weighted_revlex"]))
    if order_name == "weighted_revlex":
        phi = _semigroup(a).phi
        weights = [sum(p * c for p, c in zip(phi, a.column(i))) for i in range(n)]
        order = weighted_revlex(weights, draw(st.integers(0, n - 1)))
        known = groebner_oracle.groebner_basis(toric_ideal(a).generators, order)
    else:
        order = ORDERS[order_name]
        known = list(toric_ideal(a, order_name).generators)
    monomials = st.builds(Polynomial.monomial, exponents(n))
    binomials = st.builds(
        lambda u, v, c: Polynomial(n, {u: 1, v: c}) if u != v else Polynomial.monomial(u),
        exponents(n),
        exponents(n),
        st.sampled_from([-1, 1, 2]),
    )
    extra = draw(st.lists(st.one_of(monomials, binomials), min_size=1, max_size=3))
    return known, extra, order


@SETTINGS
@given(extension_cases())
def test_extending_a_reduced_basis_matches_rebuilding(case):
    """The general engine on every case; the binomial one when c = -1 throughout."""
    known, extra, order = case
    rebuilt = groebner_oracle.groebner_basis(known + extra, order)
    assert groebner_oracle.groebner_basis(extra, order, known=known) == rebuilt
    if all(len(g.terms) == 1 or sum(g.terms.values()) == 0 for g in extra):
        pairs = [binomial(g) for g in extra]
        extended = groebner_basis(pairs, order, known=[binomial(g) for g in known])
        assert [binomial_polynomial(b) for b in extended] == rebuilt


def test_weighted_revlex_puts_last_variable_last():
    o = weighted_revlex((1, 2, 1), 0)
    # higher weight wins; within a weight, less of x_0 wins
    assert o.key((0, 1, 0)) > o.key((1, 0, 0))
    assert o.key((0, 0, 2)) > o.key((1, 0, 1)) > o.key((2, 0, 0))


# Weights with x_1 of weight 1, so any pair of monomials can be padded to one weight.
WEIGHTS = [(1, 1, 1), (2, 1, 3), (1, 1, 2)]


@st.composite
def binomial_cases(draw):
    """Monomials and pure-difference binomials in 3 variables, homogeneous in
    `weights`, a second such set to extend a reduced basis of the first by,
    and an order."""
    weights = draw(st.sampled_from(WEIGHTS))

    def homogeneous(u, v):
        gap = sum(w * (y - x) for w, x, y in zip(weights, u, v))
        pad = lambda m, k: m[:1] + (m[1] + k,) + m[2:]
        return (pad(u, gap), v) if gap > 0 else (u, pad(v, -gap))

    monomials = exponents(3).map(lambda u: (u, None))
    binomials = st.builds(homogeneous, exponents(3), exponents(3))
    sets = st.lists(st.one_of(monomials, binomials), min_size=1, max_size=3)
    orders = {
        "degrevlex": degrevlex(),
        "lex": lex(),
        "deglex": deglex(),
        "weighted_revlex": weighted_revlex(weights, draw(st.integers(0, 2))),
    }
    order = orders[draw(st.sampled_from(sorted(orders)))]
    u = draw(exponents(3).filter(lambda m: 0 < sum(m) <= 3))
    return draw(sets), draw(sets), weights, order, u


def _polynomials(pairs):
    return [binomial_polynomial(b) for b in pairs if b[0] != b[1]]


@SETTINGS
@given(binomial_cases())
@example(([((0, 0, 0), None)], [((1, 0, 0), (0, 1, 0))], (1, 1, 1), lex(), (1, 0, 0)))
def test_binomial_engine_matches_general_engine(case):
    first, second, weights, order, u = case
    gens = _polynomials(first)
    expected = groebner_oracle.groebner_basis(gens, order)
    assert _polynomials(groebner_basis(first, order)) == expected
    known = groebner_basis(first, order)
    rebuilt = groebner_oracle.groebner_basis(gens + _polynomials(second), order)
    assert _polynomials(groebner_basis(second, order, known=known)) == rebuilt
    quotient = groebner_oracle.ideal_quotient(gens, u, weights, order)
    assert _polynomials(ideal_quotient(first, u, weights, order)) == quotient


@pytest.mark.parametrize(
    "terms",
    [
        {},
        {(1, 0): 1, (0, 1): 1},
        {(1, 0): 1, (0, 1): -2},
        {(2, 0): 1, (1, 1): -1, (0, 2): 1},
    ],
)
def test_binomial_rejects_other_polynomials(terms):
    with pytest.raises(ValueError):
        binomial(Polynomial(2, terms))


def test_binomial_reads_pairs_off_scaled_polynomials():
    assert binomial(Polynomial(2, {(0, 1): -3, (1, 0): 3})) == ((1, 0), (0, 1))
    assert binomial(Polynomial(2, {(1, 1): 5})) == ((1, 1), None)
