"""Differential tests of the Weyl product and the bounded membership search.

`weyl.weyl_mul` expands d^v1 lambda^u2 only over the variables where both
exponents are positive, multiplies the commutation weights of a pick as
integers and scales the coefficient once; `weyl.ideal_member_bounded` reads
each generator's cofactor monomials from a degree-keyed cache, builds its
columns on integer term maps (each generator cleared of its denominators),
reads their pair expansions and the grading from caches keyed by exponents
alone, and sorts the rows of its system sparse first.  `weyl_oracle` keeps
the routes they replace: every variable expanded with a Fraction per
weight, a graded list filtered once per generator, Fraction columns from the
generators as given, an uncached grading, and rows sorted by key.  Products
must be equal term for term, in the same insertion order, and certificates
identical, cofactor for cofactor.  The shapes cover the `weyl` benchmark
workload: the hat and the homogenized staircase (3 and 4 variable pairs)
at bounds 3-5, products in 4-5 variable pairs with several variables to
commute at once, and generators whose non-constant terms carry
denominators.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import weyl_oracle

from gkzkit import WeylElement, gkz_presentation, homogenize, parse_matrix, weyl
from gkzkit.intlinalg import vec_add
from gkzkit.weyl import _monomials_up_to, ideal_member_bounded, parse_weyl, weyl_mul

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=4)

MATRICES = {
    "hat": parse_matrix("1 1 1; 0 1 -1"),
    "staircase_h": homogenize(parse_matrix("3 2 0; 1 1 1")),
    "two_five": parse_matrix("2 5"),
}


def weyl_elements(nvars):
    """Exponents up to 3, or up to 2 in 4-5 pairs, where a term pair then has
    about two variables to commute and its expansion stays small."""
    top = 3 if nvars <= 3 else 2
    keys = st.tuples(*[st.integers(0, top)] * (2 * nvars)).map(lambda e: (e[:nvars], e[nvars:]))
    return st.dictionaries(keys, COEFFS, max_size=4).map(lambda t: WeylElement(nvars, t))


def _same_terms(got, want):
    """Equal, and with the same terms in the same insertion order."""
    return got == want and list(got.terms.items()) == list(want.terms.items())


@SETTINGS
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(weyl_elements(n), weyl_elements(n))))
@example((WeylElement.monomial((1, 0, 2, 0), (2, 2, 1, 3), 3), WeylElement.monomial((2, 1, 1, 0), (0, 1, 0, 1), -2)))
@example((
    WeylElement(5, {((0,) * 5, (2, 1, 2, 0, 1)): 1, ((1, 0, 0, 0, 0), (1, 2, 0, 2, 2)): Fraction(-1, 2)}),
    WeylElement(5, {((1, 2, 2, 1, 1), (0,) * 5): 2, ((2, 0, 1, 2, 2), (1, 0, 0, 0, 1)): 1}),
))
def test_weyl_mul_matches_oracle(pair):
    x, y = pair
    assert _same_terms(weyl_mul(x, y), weyl_oracle.weyl_mul(x, y))


def _monomial(nvars, letters):
    """The (lambda, d) exponents of a word in the 2 nvars letters."""
    e = [0] * (2 * nvars)
    for k in letters:
        e[k % (2 * nvars)] += 1
    return tuple(e[:nvars]), tuple(e[nvars:])


def _word(mono):
    """A word whose `_monomial` is mono."""
    return [k for k, e in enumerate(mono[0] + mono[1]) for _ in range(e)]


@st.composite
def membership_cases(draw):
    """(matrix, beta, bound, picks, extra): picks (generator, word, coefficient)
    seed a member whose cofactor words have length <= bound; a word in extra,
    added as one more term, usually makes a non-member."""
    name = draw(st.sampled_from(sorted(MATRICES)))
    a = MATRICES[name]
    beta = tuple(draw(COEFFS) for _ in range(a.d))
    bound = draw(st.integers(0, 5))
    ngens = len(gkz_presentation(a, beta).generators())
    word = st.lists(st.integers(0, 2 * a.n - 1), max_size=bound)
    picks = draw(st.lists(st.tuples(st.integers(0, ngens - 1), word, COEFFS), max_size=3))
    extra = draw(st.none() | st.lists(st.integers(0, 2 * a.n - 1), max_size=2))
    return name, beta, bound, picks, extra


@st.composite
def workload_cases(draw, name, bound):
    """Cases shaped like the `weyl` workload's ops, in the same format: either
    a one-term non-member such as 1 or l0 (no picks, extra a word), or a
    member whose first pick has a word of length bound and whose other picks
    share its A-degree, so the target is homogeneous and the grading prunes
    the cofactors as it does there."""
    a = MATRICES[name]
    beta = tuple(draw(COEFFS) for _ in range(a.d))
    if draw(st.booleans()):
        return name, beta, bound, [], draw(st.lists(st.integers(0, 2 * a.n - 1), max_size=1))
    gens = gkz_presentation(a, beta).generators()
    letters = st.lists(st.integers(0, 2 * a.n - 1), min_size=bound, max_size=bound)
    first = draw(st.tuples(st.integers(0, len(gens) - 1), letters, COEFFS))

    def degree(gi, mono):
        return vec_add(WeylElement.monomial(*mono).a_degree(a), gens[gi].a_degree(a))

    want = degree(first[0], _monomial(a.n, first[1]))
    same = [
        (gi, mono)
        for gi in range(len(gens))
        for mono in _monomials_up_to(a.n, bound)
        if degree(gi, mono) == want
    ]
    more = draw(st.lists(st.tuples(st.sampled_from(same), COEFFS), max_size=2))
    words = [(gi, _word(mono), c) for (gi, mono), c in more]
    return name, beta, bound, [first, *words], None


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(membership_cases())
@example(("hat", (Fraction(0), Fraction(0)), 2, [], []))  # the unit
@example(("staircase_h", (Fraction(1, 2), Fraction(0), Fraction(1)), 4, [(0, [5, 1, 6], Fraction(2))], None))
@example(("two_five", (Fraction(1, 3),), 0, [(1, [], Fraction(-1))], [0]))
@example(("hat", (Fraction(1, 2), Fraction(-1)), 5, [(0, [3, 4, 1, 5, 0], Fraction(1)), (2, [4, 0], Fraction(-2))], None))
@example(("staircase_h", (Fraction(2), Fraction(-1, 3), Fraction(1)), 5, [(1, [4, 6, 7, 0, 3], Fraction(3, 2))], None))
@example(("staircase_h", (Fraction(0), Fraction(1), Fraction(0)), 5, [], []))  # the unit
def test_membership_certificate_matches_oracle(case):
    _check_membership_case(case)


@pytest.mark.parametrize("bound", [3, 4, 5])
@pytest.mark.parametrize("name", ["hat", "staircase_h"])
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_membership_certificate_matches_oracle_on_workload_shapes(name, bound, data):
    _check_membership_case(data.draw(workload_cases(name, bound)))


def _check_membership_case(case):
    name, beta, bound, picks, extra = case
    a = MATRICES[name]
    gens = gkz_presentation(a, beta).generators()
    _check_combination(gens, bound, picks, extra)


def _check_combination(gens, bound, picks, extra):
    """The target sum c * m * gens[gi] over picks (plus the monomial extra,
    if any) gets the oracle's certificate, cofactor for cofactor and in the
    same term order; without extra it is a member."""
    nvars = gens[0].nvars
    target = WeylElement.zero(nvars)
    for gi, letters, c in picks:
        target = target + weyl_mul(WeylElement.monomial(*_monomial(nvars, letters), c), gens[gi])
    if extra is not None:
        target = target + WeylElement.monomial(*_monomial(nvars, extra))
    expected = weyl_oracle.ideal_member_bounded(target, gens, bound)
    got = ideal_member_bounded(target, gens, bound)
    assert got == expected
    if extra is None:
        assert expected is not None
    if expected is not None:
        assert all(map(_same_terms, got.cofactors, expected.cofactors))


PRIMES = (5, 7, 11, 13)


@st.composite
def rational_generator_cases(draw):
    """(gens, bound, picks, extra) on `weyl_elements` generators whose
    non-constant coefficients c become c + 1/p, with a prime p of its own
    for each generator.  The coefficients of `COEFFS` have denominators
    below 5, so p divides the least common denominator q_g, and q_g > 1
    away from the constant term, which is left as drawn."""
    nvars = draw(st.integers(1, 3))
    primes = draw(st.permutations(PRIMES))[: draw(st.integers(1, 3))]
    zero = ((0,) * nvars, (0,) * nvars)
    gens = [
        WeylElement(nvars, {k: c if k == zero else c + Fraction(1, p) for k, c in g.terms.items()})
        for p, g in zip(primes, (draw(weyl_elements(nvars)) for _ in primes))
    ]
    bound = draw(st.integers(0, 3 if nvars < 3 else 2))
    word = st.lists(st.integers(0, 2 * nvars - 1), max_size=bound)
    picks = draw(st.lists(st.tuples(st.integers(0, len(gens) - 1), word, COEFFS), max_size=3))
    extra = draw(st.none() | st.lists(st.integers(0, 2 * nvars - 1), max_size=2))
    return gens, bound, picks, extra


def _parsed(texts, nvars=2):
    return [parse_weyl(t, nvars) for t in texts]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(rational_generator_cases())
# 2*d1 * (1/2*l0*d0 - 1/3) + 8/9 * 3/4*d1 = d1*l0*d0, the README example.
@example((_parsed(["1/2*l0*d0 - 1/3", "3/4*d1"]), 2, [(0, [3], Fraction(2)), (1, [], Fraction(8, 9))], None))
@example((_parsed(["0", "1/2*l0*d0 - 1/3", "3/4*d1"]), 2, [(1, [3], Fraction(1)), (2, [0], Fraction(2, 3))], None))
@example((_parsed(["0", "1/2*l0*d0 - 1/3"]), 1, [], [0, 2]))
def test_rational_generators_get_the_oracle_certificate(case):
    """Each generator is cleared of its denominators before its columns are
    built; the certificate must not change."""
    _check_combination(*case)


def test_multi_degree_target_matches_oracle_and_re_expands(monkeypatch):
    """A member of four A-degrees on the homogenized staircase at beta = 0:
    l1 d2 g0 + d0 g3 + l3 g1 + d1^2 g2.  The oracle grades by the target
    too, which leaves it no grading and a column for every monomial of
    degree <= bound; the fast route grades by the generators alone and takes
    one block of columns per degree of the target.  The certificates agree
    up to bound 3, and at bound 4 (where only the fast route is cheap) the
    certificate re-expands to the target."""
    a = MATRICES["staircase_h"]
    gens = gkz_presentation(a, (0,) * a.d).generators()
    words = [([1, a.n + 2], 0), ([a.n], 3), ([3], 1), ([a.n + 1] * 2, 2)]
    target = WeylElement.zero(a.n)
    for letters, gi in words:
        target = target + weyl_mul(WeylElement.monomial(*_monomial(a.n, letters)), gens[gi])
    assert len({WeylElement.monomial(u, v).a_degree(a) for u, v in target.terms}) == 4
    for bound in range(4):
        expected = weyl_oracle.ideal_member_bounded(target, gens, bound)
        got = ideal_member_bounded(target, gens, bound)
        assert got == expected and (got is not None) == (bound >= 2)
    products = []
    mul_terms = weyl._mul_terms
    monkeypatch.setattr(weyl, "_mul_terms", lambda x, y, *expand: products.append(x) or mul_terms(x, y, *expand))
    cert = ideal_member_bounded(target, gens, 4)
    columns = len(products) - len(gens)  # the re-expansion takes one product per generator
    assert cert.combine(gens) == target
    assert max(c.total_degree() for c in cert.cofactors) <= 4
    # Fewer column products than monomials of degree <= 4: no generator gets them all.
    assert columns < len(list(_monomials_up_to(a.n, 4))) == 495
