"""Differential tests of the Groebner engine.

`ideal_quotient` divides variables out of weighted-revlex bases, and
`toric_ideal` saturates with it; both are checked against the elimination
route in `quotient_oracle`.  Heap-driven `buchberger` output is checked
against Buchberger's criterion in several orders, and a basis extended
from a reduced one against the basis rebuilt from scratch.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from quotient_oracle import (
    elimination_order,
    ideal_quotient_by_elimination,
    saturate_all_variables,
)

from gkzkit import IntMatrix, parse_matrix
from gkzkit.cones import positive_functional
from gkzkit.intlinalg import lattice_kernel
from gkzkit.polynomials import (
    Polynomial,
    buchberger,
    degrevlex,
    groebner_basis,
    ideal_quotient,
    lex,
    normal_form,
    passes_buchberger_criterion,
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
    phi = positive_functional(a)
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
    assert ideal_quotient(gens, u, weights, order) == expected


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
    binomials = [box_binomial(l, a.n) for l in lattice_kernel(a)]
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
    basis = buchberger(gens, order)
    assert passes_buchberger_criterion(basis, order)
    for g in gens:
        assert normal_form(g, basis, order).is_zero()
    reduced = groebner_basis(gens, order)
    assert passes_buchberger_criterion(reduced, order)
    assert groebner_basis(list(reversed(gens)), order) == reduced


@st.composite
def extension_cases(draw):
    """A reduced basis of I_A in some order, and monomials and binomials to add."""
    a = draw(pointed_matrices())
    n = a.n
    order_name = draw(st.sampled_from(["degrevlex", "lex", "weighted_revlex"]))
    if order_name == "weighted_revlex":
        phi = positive_functional(a)
        weights = [sum(p * c for p, c in zip(phi, a.column(i))) for i in range(n)]
        order = weighted_revlex(weights, draw(st.integers(0, n - 1)))
        known = groebner_basis(toric_ideal(a).generators, order)
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
    known, extra, order = case
    assert groebner_basis(extra, order, known=known) == groebner_basis(known + extra, order)


def test_weighted_revlex_puts_last_variable_last():
    o = weighted_revlex((1, 2, 1), 0)
    # higher weight wins; within a weight, less of x_0 wins
    assert o.key((0, 1, 0)) > o.key((1, 0, 0))
    assert o.key((0, 0, 2)) > o.key((1, 0, 1)) > o.key((2, 0, 0))
