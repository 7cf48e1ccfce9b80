"""Differential tests of the Weyl product and the bounded membership search.

`weyl.weyl_mul` multiplies the commutation weights of a pick as integers and
scales the coefficient once; `weyl.ideal_member_bounded` reads each
generator's cofactor monomials from a degree-keyed cache.  `weyl_oracle`
keeps the routes they replace: a Fraction per weight, and a graded list
filtered once per generator.  Products must be equal, and certificates
identical, cofactor for cofactor.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import weyl_oracle

from gkzkit import WeylElement, gkz_presentation, homogenize, parse_matrix
from gkzkit.weyl import ideal_member_bounded, weyl_mul

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=4)

MATRICES = {
    "hat": parse_matrix("1 1 1; 0 1 -1"),
    "staircase_h": homogenize(parse_matrix("3 2 0; 1 1 1")),
    "two_five": parse_matrix("2 5"),
}


def weyl_elements(nvars):
    keys = st.tuples(*[st.integers(0, 3)] * (2 * nvars)).map(lambda e: (e[:nvars], e[nvars:]))
    return st.dictionaries(keys, COEFFS, max_size=4).map(lambda t: WeylElement(nvars, t))


@SETTINGS
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(weyl_elements(n), weyl_elements(n))))
def test_weyl_mul_matches_oracle(pair):
    x, y = pair
    assert weyl_mul(x, y) == weyl_oracle.weyl_mul(x, y)


def _monomial(nvars, letters):
    """The (lambda, d) exponents of a word in the 2 nvars letters."""
    e = [0] * (2 * nvars)
    for k in letters:
        e[k % (2 * nvars)] += 1
    return tuple(e[:nvars]), tuple(e[nvars:])


@st.composite
def membership_cases(draw):
    """(matrix, beta, bound, picks, extra): picks (generator, word, coefficient)
    seed a member whose cofactor words have length <= bound; a word in extra,
    added as one more term, usually makes a non-member."""
    name = draw(st.sampled_from(sorted(MATRICES)))
    a = MATRICES[name]
    beta = tuple(draw(COEFFS) for _ in range(a.d))
    bound = draw(st.integers(0, 4))
    ngens = len(gkz_presentation(a, beta).generators())
    word = st.lists(st.integers(0, 2 * a.n - 1), max_size=bound)
    picks = draw(st.lists(st.tuples(st.integers(0, ngens - 1), word, COEFFS), max_size=3))
    extra = draw(st.none() | st.lists(st.integers(0, 2 * a.n - 1), max_size=2))
    return name, beta, bound, picks, extra


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(membership_cases())
@example(("hat", (Fraction(0), Fraction(0)), 2, [], []))  # the unit
@example(("staircase_h", (Fraction(1, 2), Fraction(0), Fraction(1)), 4, [(0, [5, 1, 6], Fraction(2))], None))
@example(("two_five", (Fraction(1, 3),), 0, [(1, [], Fraction(-1))], [0]))
def test_membership_certificate_matches_oracle(case):
    name, beta, bound, picks, extra = case
    a = MATRICES[name]
    gens = gkz_presentation(a, beta).generators()
    target = WeylElement.zero(a.n)
    for gi, letters, c in picks:
        target = target + weyl_mul(WeylElement.monomial(*_monomial(a.n, letters), c), gens[gi])
    if extra is not None:
        target = target + WeylElement.monomial(*_monomial(a.n, extra))
    expected = weyl_oracle.ideal_member_bounded(target, gens, bound)
    assert ideal_member_bounded(target, gens, bound) == expected
    if extra is None:
        assert expected is not None
