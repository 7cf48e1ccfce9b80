"""Differential tests of the resonance answers.

`gkzkit.resonance` answers every component question with dot products
against the face functionals or one cone-plus-span test, by the lemmas of
its module docstring.
`resonance_oracle` keeps the routes those lemmas replaced: the "free" and
"unique" multiplier tags, n_beta's own line solve, the HNF-reduction
lattice test, the t >= 1 LP of `delta_valid` and the DsRes test in the
interior pass of `dual_parameter`.  Both must return the same answers and
raise the same exceptions with the same messages, on pointed and
non-pointed matrices.

The cone-plus-span test, `interior_contains` and the `delta_A` walk now
read integer facet inequalities instead of solving LPs; each is compared
with the LP or `support_functions` route it replaced, on rank-deficient,
non-pointed and repeated-column matrices too.

`n_beta` reads the standard pairs of A's own in(I_A) (lemmas 2 and 7);
on homogeneous and non-homogeneous pointed matrices, rank-deficient ones
included, it is compared with the oracle's built route, which checks its
bound against every component of sRes(homogenize(A)).
`dual_parameter` reads `DUAL_SEARCH_RADIUS` when called, so the tests set
a smaller radius by patching it.  Where neither radius scan answers, both
walk the column sum to an interior point (lemma 10), so a small radius
compares the walks too.

The multiplier of a component is read off the functionals psi of QF
(lemma 1); it is compared with the `gauss_solve` route the oracle keeps, on
every component of sRes(A) and of sRes(homogenize(A)).
"""

from fractions import Fraction
from itertools import combinations
from unittest.mock import patch

import pytest

from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

import resonance_oracle

from gkzkit import IntMatrix, cones, parse_matrix, resonance
from gkzkit.intlinalg import homogenize
from gkzkit.resonance import ResonanceComponent

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

FIXED = [
    "3 2 0; 1 1 1",
    "1 1 1; 0 1 -1",
    "2 5",
    "1",
    "1 1; 0 1",
    "1 1 1 1; 0 1 2 3",
    "1 1 1; 0 1 2",
    "1 1 1; 0 2 1",
    "1 1; 0 2",  # homogeneous, does not span Z^2
    "1 2 0; 0 0 1",  # two columns on one ray
    "1 1 1; 0 1 -1; 0 0 0",  # not full-dimensional
    "1 -1 0; 0 0 1",  # not pointed
]


@st.composite
def matrices(draw):
    """A fixed matrix, or a random one with d <= 2, n <= 4.

    Half the random draws get a first row of ones, so that dual_parameter
    and n_beta see homogeneous matrices; none is forced to be pointed.
    """
    if draw(st.booleans()):
        return parse_matrix(draw(st.sampled_from(FIXED)))
    d = draw(st.integers(1, 2))
    n = draw(st.integers(1, 4))
    rows = [draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n)) for _ in range(d)]
    if d == 2 and draw(st.booleans()):
        rows[0] = [1] * n
    return IntMatrix.from_rows(rows)


def rationals():
    return st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 1, 2, 3]))


@st.composite
def cases(draw):
    a = draw(matrices())
    beta = tuple(draw(st.lists(rationals(), min_size=a.d, max_size=a.d)))
    delta = tuple(draw(st.lists(st.integers(-3, 10), min_size=a.d, max_size=a.d)))
    radius = draw(st.sampled_from([0, 1, 2, resonance.DUAL_SEARCH_RADIUS]))
    return a, beta, delta, radius


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the exception itself is part of the answer
        return "raised", type(exc), str(exc)


def assert_same(name, *args):
    assert outcome(getattr(resonance, name), *args) == outcome(getattr(resonance_oracle, name), *args), name


@SETTINGS
@given(cases())
@example((parse_matrix("1 1 1 1 1; 0 1 0 1 2; 0 0 1 1 0"), (Fraction(0),) * 3, (3, 4, 2), 8))
@example((parse_matrix("1 1 1 1 1; 0 1 0 1 2; 0 0 1 1 0"), (-1, -1, 0), (1, 1, 1), 1))
@example((parse_matrix("1 1 1 1 1; 0 1 0 1 2; 0 0 1 1 0"), (-2, -1, Fraction(-1, 2)), (2, 2, 1), 0))
@example((parse_matrix("3 2 0; 1 1 1"), (-1, 0), (2, 2), 8))
@example((parse_matrix("3 2 0; 1 1 1"), (Fraction(1, 2), 0), (4, 2), 0))
@example((parse_matrix("2 5"), (Fraction(1, 3),), (7,), 8))
@example((parse_matrix("2 5"), (3,), (4,), 8))
@example((parse_matrix("1 1 1; 0 1 -1"), (Fraction(-1, 2), Fraction(1, 2)), (2, 0), 0))
@example((parse_matrix("1 1; 0 2"), (Fraction(1, 3), 0), (1, 0), 8))
@example((parse_matrix("1 2 0; 0 0 1"), (-1, 0), (2, 1), 8))
@example((parse_matrix("1"), (0,), (0,), 8))  # -beta = 0 is on the cone and in DsRes
def test_resonance_matches_oracle(case):
    a, beta, delta, radius = case
    assert_same("sres_witness", a, beta)
    assert_same("dsres_witness", a, beta)
    assert_same("n_beta", a, beta)
    assert_same("delta_valid", a, delta)
    with patch.object(resonance, "DUAL_SEARCH_RADIUS", radius):
        got = outcome(resonance.dual_parameter, a, beta)
    assert got == outcome(resonance_oracle.dual_parameter, a, beta, radius)


def test_delta_A_passes_both_verifiers():
    for text in ("3 2 0; 1 1 1", "2 5", "1 1 1 1; 0 1 2 3", "1 2 0; 0 0 1"):
        a = parse_matrix(text)
        delta = resonance.delta_A(a)
        assert resonance.delta_valid(a, delta) and resonance_oracle.delta_valid(a, delta)
        for j in range(a.n):
            below = tuple(x - y for x, y in zip(delta, a.column(j)))
            assert resonance.delta_valid(a, below) == resonance_oracle.delta_valid(a, below)


CONE_FIXED = [
    "0; 1",  # rank 1 in Q^2: membership needs the equation of span(A)
    "1 1 1; 0 1 -1; 0 0 0",
    "1 1; 2 2; 3 3",
    "1 -1",  # the cone is a line
    "1 -1 0; 0 0 1",  # a half-plane
    "1 0 -1 0; 0 1 0 -1",  # the cone is Q^2
    "1 1 0; 0 0 1",  # a repeated column
    "1 2 0; 0 0 1",  # two columns on one ray
    "0 1; 0 1",  # a zero column
    "1 0 0 1; 0 1 0 1; 0 0 1 1",
    "1 1 1 1; 0 1 0 -1; 0 0 1 0",
]


@st.composite
def cone_cases(draw):
    """A matrix with d <= 3, n <= 5, and a point that is often on its boundary.

    Random matrices may be rank-deficient, non-pointed or hold a repeated
    column; the point is a rational vector or a small column combination,
    halved or not, whose negative coefficients often put it just off the cone.
    """
    if draw(st.booleans()):
        a = parse_matrix(draw(st.sampled_from(CONE_FIXED)))
    else:
        d = draw(st.integers(1, 3))
        n = draw(st.integers(1, 5))
        rows = [draw(st.lists(st.integers(-2, 3), min_size=n, max_size=n)) for _ in range(d)]
        if n > 1 and draw(st.booleans()):
            k = draw(st.integers(1, n - 1))
            rows = [row[:k] + [row[k - 1]] + row[k + 1 :] for row in rows]
        a = IntMatrix.from_rows(rows)
    if draw(st.booleans()):
        point = tuple(draw(st.lists(rationals(), min_size=a.d, max_size=a.d)))
    else:
        coeffs = draw(st.lists(st.integers(-1, 3), min_size=a.n, max_size=a.n))
        den = draw(st.sampled_from([1, 2]))
        point = tuple(Fraction(x, den) for x in a.mul_vec(coeffs))
    return a, point


@SETTINGS
@given(cone_cases())
@example((parse_matrix("0; 1"), (Fraction(0), Fraction(0))))
@example((parse_matrix("0; 1"), (Fraction(1), Fraction(2))))
@example((parse_matrix("1 1 1; 0 1 -1; 0 0 0"), (Fraction(2), Fraction(1), Fraction(1))))
def test_cone_plus_span_matches_lp(case):
    """Every column subset, so every face and the empty set, against the LP."""
    a, point = case
    for k in range(a.n + 1):
        for cols in combinations(range(1, a.n + 1), k):
            got = cones.cone_contains(a, point, cols)
            assert got == resonance_oracle._beta_in_cone_plus_span(a, list(cols), point), cols


@SETTINGS
@given(cone_cases())
@example((parse_matrix("1 1 1; 0 1 -1"), (Fraction(1), Fraction(1))))
@example((parse_matrix("1 -1"), (Fraction(0),)))
@example((parse_matrix("1 1; 0 2"), (Fraction(1), Fraction(1))))
def test_interior_contains_matches_support_functions(case):
    a, point = case
    assert outcome(cones.interior_contains, a, point) == outcome(resonance_oracle.interior_contains, a, point)


CORPUS = [
    "3 2 0; 1 1 1",
    "1 1 1; 0 1 -1",
    "2 5",
    "3 5 7",
    "1 1 1 1; 0 1 2 3",
    "1 1 1 1 1; 0 1 2 3 4",
    "1 1 1 1 1; 0 1 0 1 2; 0 0 1 1 0",
    "2 2 2; 0 3 -3",  # does not span Z^2
]


NON_SATURATED = ["4 6 9", "5 7", "1 1 1; 0 3 4", "1 1 1; 0 2 5", "1 1 1 1; 0 1 3 4"]


def test_delta_A_matches_semigroup_first_walk():
    """Asking the facet verifier before NA membership leaves delta unchanged."""
    for text in dict.fromkeys(FIXED + CORPUS + NON_SATURATED):
        a = parse_matrix(text)
        assert outcome(resonance.delta_A, a) == outcome(resonance_oracle.delta_A, a), text


@st.composite
def homogeneous_cases(draw):
    """A homogeneous 3-row matrix with n <= 5 and a beta often off its span.

    The rows are ones and two random rows; the third is sometimes a
    multiple of the second (rank 2), and sometimes a multiple of the second
    row is added to the first, so that h is not e_1.  beta is a rational
    vector, or a column combination over 1, 2 or 3.
    """
    n = draw(st.integers(2, 5))
    second = draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n))
    third = draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n))
    if draw(st.booleans()):
        third = [draw(st.integers(-2, 2)) * x for x in second]
    c = draw(st.sampled_from([0, 0, 1, -2]))
    a = IntMatrix.from_rows([[1 + c * x for x in second], second, third])
    if draw(st.booleans()):
        beta = tuple(draw(st.lists(rationals(), min_size=3, max_size=3)))
    else:
        coeffs = draw(st.lists(st.integers(-2, 3), min_size=n, max_size=n))
        den = draw(st.sampled_from([1, 2, 3]))
        beta = tuple(Fraction(x, den) for x in a.mul_vec(coeffs))
    return a, beta


def sevenths():
    return st.builds(Fraction, st.integers(-8, 8), st.integers(1, 7))


@st.composite
def pointed_matrices(draw):
    """A corpus matrix, or a random one with d <= 3 and n <= d + 2 (n <= 4
    when d = 3), pointed by a positive row at a random position.  Half the
    positive rows are ones, so that some matrices are homogeneous, and some
    matrices repeat a row up to a factor, so that span(A) has an equation.
    Larger entries give filtrations of homogenize(A) that take minutes."""
    if draw(st.booleans()):
        return parse_matrix(draw(st.sampled_from(CORPUS)))
    d = draw(st.integers(1, 3))
    n = draw(st.integers(d, min(d + 2, 4)))
    positive = [1] * n if draw(st.booleans()) else draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
    rows = [draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n)) for _ in range(d - 1)]
    if rows and draw(st.booleans()):
        rows[-1] = [draw(st.integers(-1, 2)) * x for x in draw(st.sampled_from([positive, *rows]))]
    rows.insert(draw(st.integers(0, d - 1)), positive)
    return IntMatrix.from_rows(rows)


@st.composite
def n_beta_cases(draw):
    """A homogeneous 3-row case, or a pointed matrix (half of them with a row
    of ones) at a parameter over 1..7."""
    if draw(st.booleans()):
        return draw(homogeneous_cases())
    a = draw(pointed_matrices())
    return a, tuple(draw(st.lists(sevenths(), min_size=a.d, max_size=a.d)))


# A derandomized test seeds from a hash of its own source.  Pinning the seed
# keeps the drawn examples, and so the run time, when the body is reworded;
# a few draws whose homogenize(A) has 5 or 6 columns take most of that time.
LIFTED_SEED = (
    22837320567251009302309474292804412198583158554669923218985045968024028299405808644745749868956116566333366032480381
)


@SETTINGS
@seed(LIFTED_SEED)
@given(n_beta_cases())
@example((parse_matrix("1 1 1; 0 1 2; 0 2 4"), (Fraction(1, 2), Fraction(1), Fraction(3))))
@example((parse_matrix("1 1 1; 0 1 2; 0 2 4"), (Fraction(1, 2), Fraction(1), Fraction(2))))
@example((parse_matrix("3 2 0; 1 1 1; 0 0 0"), (Fraction(5, 2), Fraction(-2, 5), Fraction(0))))
def test_n_beta_matches_the_built_route(case):
    a, beta = case
    assert outcome(resonance.n_beta, a, beta) == outcome(resonance_oracle.n_beta, a, beta)


def component_sources(a):
    """(matrix, components) for sRes(A) and sRes(homogenize(A)), each left
    out where building it raises (a precondition, such as a zero column)."""
    sources = []
    for m in (a, homogenize(a)):
        got = outcome(lambda: resonance.resonance_set(m).components)
        if got[0] == "ok" and got[1]:
            sources.append((m, got[1]))
    return sources


@SETTINGS
@given(pointed_matrices(), st.data())
def test_multiplier_matches_the_gauss_solve_route(a, data):
    """Dot products with the face functionals give the multiplier that the
    kept `gauss_solve` route gives, on random parameters over 1..7 and on
    points offset - m*shift + QF of the components, m rational; the route
    never finds the multiplier free (lemma 1)."""
    for m, components in component_sources(a):
        points = [tuple(data.draw(st.lists(sevenths(), min_size=m.d, max_size=m.d)))]
        for comp in data.draw(st.lists(st.sampled_from(components), min_size=1, max_size=3)):
            point = [o - data.draw(sevenths()) * s for o, s in zip(comp.offset, comp.shift)]
            for k in comp.face_columns:
                c = data.draw(sevenths())
                point = [p + c * x for p, x in zip(point, m.column(k - 1))]
            points.append(tuple(point))
        for beta in points:
            for comp in components:
                want = resonance_oracle._component_multiplier(m, comp, beta)
                assert want is None or want[0] == "unique", (comp, beta)
                assert resonance._component_multiplier(m, comp, beta) == (None if want is None else want[1]), (comp, beta)


def test_multiplier_rejects_a_shift_in_its_face_span():
    # Lemma 1 rules this out for the components of sRes(A); a component
    # built by hand can break it, and then no psi fixes m.  beta lies in
    # offset + QF, so no psi answers None first.
    comp = ResonanceComponent(j=1, offset=(0, 0), face_columns=(1,), shift=(2, 0))
    with pytest.raises(AssertionError, match="the shift lies in the span of its face"):
        resonance._component_multiplier(parse_matrix("1 0; 0 1"), comp, (Fraction(1), Fraction(0)))
