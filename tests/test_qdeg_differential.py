"""Differential tests of the quasi-degree filtration.

`toric.quasi_degrees` computes the quotient `I : d^u` only for a candidate
whose products d^u d_i already lie in I exactly off some face F, accepts it
when every generator of the quotient passes the coefficient-sum test
for P_F = I_A + <d_i : i not in F> (in pair form: a monomial uses some d_i
off F, a binomial's two terms both do or neither does), and extends each
Groebner basis instead of rebuilding it.  `qdeg_oracle` keeps the filtration it replaces: a full
quotient for every candidate, compared with a basis of every face prime,
and every basis from scratch.  Both must return the same components, offset
and face, in the same order.  The generators are those of
`polynomials.quotient_generators`, with no reduced basis in the report's
order; the test must read the same on them, on `ideal_quotient`'s reduced
basis and on the elimination route of `quotient_oracle`.

The union of the components' degree sets is the degree set of S_A / <d_j>,
{u in NA : u - a_j not in NA}, which `toric.true_degree_contains` tests;
`qdeg_oracle.degree_set_contains` tests the union itself, each offset + NF
in the semigroup of the face's own columns.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import qdeg_oracle
from quotient_oracle import ideal_quotient_by_elimination

from gkzkit import IntMatrix, parse_matrix
from gkzkit.cones import face_lattice, positive_grading
from gkzkit.intlinalg import homogenize, vec_add
from gkzkit.polynomials import (
    Polynomial,
    binomial,
    ideal_quotient,
    order_by_name,
    quotient_generators,
)
from gkzkit.toric import _in_face_prime, quasi_degrees, toric_ideal, true_degree_contains

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def _usable(a: IntMatrix) -> bool:
    return all(any(col) for col in a.columns()) and face_lattice(a).pointed


@st.composite
def pointed_matrices(draw):
    """d <= 3, n <= 5, entries in [-1, 2] ([-1, 1] when d = 3).

    Three rows with entries up to 2 give weights whose filtrations take the
    oracle minutes, so d = 3 draws smaller entries.
    """
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    top = 1 if d == 3 else 2
    rows = [draw(st.lists(st.integers(-1, top), min_size=n, max_size=n)) for _ in range(d)]
    return IntMatrix.from_rows(rows)


def assert_same_filtration(a):
    """The fast filtration, which takes no order, equals the oracle's in each order."""
    for m in (a, homogenize(a)):
        for j in range(1, m.n + 1):
            fast = quasi_degrees(m, j).components
            for order_name in ("degrevlex", "lex", "deglex"):
                expected = qdeg_oracle.quasi_degrees(m, j, order_name).components
                assert fast == expected, (m, j, order_name)


@SETTINGS
@given(pointed_matrices().filter(_usable))
@example(parse_matrix("1 1 1 1 1 1; 0 1 2 3 4 5"))
@example(parse_matrix("1 1 1 1 1 1; 0 1 0 1 2 0; 0 0 1 1 0 2"))
# In these a candidate passes the face prefilter but its quotient is not P_F.
@example(parse_matrix("0 1 1 2 1; 2 2 -1 -1 1"))
@example(parse_matrix("0 0 1 1 -1; 1 0 0 -1 -1; 1 1 0 1 0"))
def test_quasi_degrees_match_full_quotient_oracle(a):
    assert_same_filtration(a)


# These filtrations scan past weight 64, where the scan stopped before the
# lemma of `quasi_degrees` ended it.  The oracle takes minutes on the
# homogenization of the second, so only A itself is compared, in degrevlex.
@pytest.mark.parametrize("text", ["2 3 4; 4 4 -1", "-1 3 2 4 4; 3 4 -2 4 4"])
def test_former_bound_exceeded_filtrations_match_the_oracle(text):
    a = parse_matrix(text)
    for j in range(1, a.n + 1):
        assert quasi_degrees(a, j).components == qdeg_oracle.quasi_degrees(a, j).components, j


@SETTINGS
@given(pointed_matrices().filter(_usable), st.sampled_from(["degrevlex", "lex"]))
@example(parse_matrix("0 1 1 2 1; 2 2 -1 -1 1"), "degrevlex")
@example(parse_matrix("0 0 1 1 -1; 1 0 0 -1 -1; 1 1 0 1 0"), "lex")
def test_coefficient_sum_test_recognizes_face_primes(a, order_name):
    """Every basis element of P_F passes; d_i passes exactly when i is off F."""
    for face, basis in qdeg_oracle.face_primes(a, order_name):
        assert all(_in_face_prime(binomial(g), face.columns) for g in basis), (a, face)
        for i in range(1, a.n + 1):
            d_i = tuple(1 if k == i - 1 else 0 for k in range(a.n))
            assert _in_face_prime((d_i, None), face.columns) == (i not in face.columns)


def _exponents(n):
    return st.tuples(*[st.integers(0, 2)] * n)


@st.composite
def face_prime_quotients(draw):
    """I = I_A + <d_j> + 0-2 monomials, and u in the box [0, 2]^n."""
    a = draw(pointed_matrices().filter(_usable))
    j = draw(st.integers(1, a.n))
    d_j = tuple(1 if k == j - 1 else 0 for k in range(a.n))
    extra = draw(st.lists(_exponents(a.n).filter(any), max_size=2))
    u = draw(_exponents(a.n))
    return a, j, [d_j, *extra], u


@settings(SETTINGS, max_examples=150)
@given(face_prime_quotients(), st.sampled_from(["degrevlex", "lex"]))
@example((parse_matrix("1 1 1 1; 0 1 2 3"), 1, [(1, 0, 0, 0)], (0, 1, 0, 0)), "degrevlex")
def test_face_prime_test_reads_generators_as_the_reduced_basis(case, order_name):
    """I : d^u lies in P_F exactly when every generator does, for each face F without j."""
    a, j, monomials, u = case
    order = order_by_name(order_name)
    weights = positive_grading(a)
    ideal = [*toric_ideal(a, order_name).generators, *map(Polynomial.monomial, monomials)]
    pairs = [binomial(g) for g in ideal]
    routes = (
        quotient_generators(pairs, u, weights),
        ideal_quotient(pairs, u, weights, order),
        [binomial(g) for g in ideal_quotient_by_elimination(ideal, Polynomial.monomial(u), order)],
    )
    for face in face_lattice(a).proper_faces:
        if j not in face.columns:
            answers = {all(_in_face_prime(g, face.columns) for g in route) for route in routes}
            assert len(answers) == 1, (a, j, monomials, u, face.columns)


@st.composite
def degree_probes(draw):
    """A matrix, a column j, exponent vectors x and small shifts of degrees."""
    a = draw(pointed_matrices().filter(_usable))
    j = draw(st.integers(1, a.n))
    xs = draw(st.lists(st.tuples(*[st.integers(0, 3)] * a.n), min_size=1, max_size=4))
    shifts = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * a.d), min_size=1, max_size=4))
    return a, j, xs, shifts


@settings(SETTINGS, max_examples=80)
@given(degree_probes())
@example((parse_matrix("1 1 1 1; 0 1 2 3"), 1, [(1, 2, 0, 3)], [(0, 0), (1, -1), (-1, 0)]))
@example((parse_matrix("3 2 0; 1 1 1"), 2, [(0, 1, 2), (2, 0, 1)], [(0, 0), (0, 1), (-3, -1)]))
@example((parse_matrix("1 1 1 1 1; 0 1 0 1 2; 0 0 1 1 0"), 3, [(1, 1, 0, 2, 1)], [(0, 0, 0), (0, 1, -1)]))
def test_degree_set_contains_matches_face_semigroups(case):
    """For each component: points of offset + NF, their shifts, and offset + A x off the face."""
    a, j, xs, shifts = case
    qd = quasi_degrees(a, j)
    for comp in qd.components:
        for x in xs:
            on_face = tuple(k if i + 1 in comp.face.columns else 0 for i, k in enumerate(x))
            member = vec_add(comp.offset, a.mul_vec(on_face))
            assert true_degree_contains(a, j, member)
            for point in (vec_add(comp.offset, a.mul_vec(x)), *(vec_add(member, s) for s in shifts)):
                assert true_degree_contains(a, j, point) == qdeg_oracle.degree_set_contains(qd, point), (
                    a, j, comp, point,
                )
    half = (Fraction(1, 2),) * a.d
    assert not true_degree_contains(a, j, half) and not qdeg_oracle.degree_set_contains(qd, half)
