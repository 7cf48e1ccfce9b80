from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lp_oracle import gauss_solve

from gkzkit import (
    IntMatrix,
    face_lattice,
    is_saturated,
    parse_matrix,
    saturation_contains,
    semigroup_contains,
    semigroup_witness,
    support_functions,
)
from gkzkit.cones import cone_contains, cone_witness, extreme_rays, face_functionals, interior_contains
from gkzkit.errors import ColumnIndexOutOfRange, NotPointed, ParseError
from gkzkit.lp import feasible_point


def brute_force_faces(a):
    """Independent face enumeration from hyperplane normals of column subsets.

    Every proper face is cut out by a functional orthogonal to some subset of
    columns, so rational kernels of all subsets (plus the zero functional)
    exhaust the candidates; sign filtering and zero-set extraction do the rest.
    """
    cols = a.columns()
    candidates = [[Fraction(0)] * a.d]
    for i in range(a.d):
        unit = [Fraction(1) if k == i else Fraction(0) for k in range(a.d)]
        candidates.append(unit)
        candidates.append([-x for x in unit])
    for size in range(1, a.n + 1):
        for combo in combinations(range(a.n), size):
            rows = [[Fraction(x) for x in cols[j]] for j in combo]
            sol = gauss_solve(rows, [Fraction(0)] * len(combo))
            if sol is None:
                continue
            for vec in sol[1]:
                candidates.append(vec)
                candidates.append([-x for x in vec])
    faces = set()
    for phi in candidates:
        values = [sum(p * Fraction(x) for p, x in zip(phi, col)) for col in cols]
        if all(v >= 0 for v in values):
            faces.add(frozenset(j + 1 for j, v in enumerate(values) if v == 0))
    closed = set(faces)
    while True:
        extra = {f & g for f in closed for g in closed} - closed
        if not extra:
            return closed
        closed |= extra


MATRICES = [
    "1",
    "2 5",
    "1 -1",
    "3 2 0; 1 1 1",
    "1 1; 0 1",
    "1 1 1; 0 1 -1",
    "1 0 1; 0 1 1",
    "2 0; 0 3",
    "1 0 -1; 0 1 1",
    # full-dimensional d = 3 cones (the oracle's candidate functionals are
    # complete precisely when every facet's columns span its hyperplane)
    "1 0 0; 0 1 0; 0 0 1",
    "2 0 0; 0 3 0; 0 0 1",
    "1 0 0 1; 0 1 0 1; 0 0 1 1",
    "1 1 0 0; 0 1 1 0; 0 0 1 1",
]


@pytest.mark.parametrize("text", MATRICES)
def test_face_lattice_matches_brute_force(text):
    a = parse_matrix(text)
    lat = face_lattice(a)
    assert {f.columns for f in lat.faces} == brute_force_faces(a)


@pytest.mark.parametrize("text", MATRICES)
def test_face_certificates_revalidate(text):
    a = parse_matrix(text)
    for f in face_lattice(a).faces:
        for j in range(1, a.n + 1):
            value = sum(
                p * Fraction(x) for p, x in zip(f.certificate, a.column(j - 1))
            )
            if j in f.columns:
                assert value == 0
            else:
                assert value > 0


def test_face_lattice_closed_under_intersection(staircase):
    lat = face_lattice(staircase)
    sets = {f.columns for f in lat.faces}
    for f in sets:
        for g in sets:
            assert (f & g) in sets


def test_staircase_faces(staircase):
    lat = face_lattice(staircase)
    proper = {f.columns: f.dim for f in lat.proper_faces}
    assert proper == {frozenset(): 0, frozenset({1}): 1, frozenset({3}): 1}
    assert lat.pointed


def test_hat_faces(hat):
    lat = face_lattice(hat)
    proper = {f.columns for f in lat.proper_faces}
    assert proper == {frozenset(), frozenset({2}), frozenset({3})}
    assert lat.pointed


def test_line_faces(line):
    lat = face_lattice(line)
    assert {f.columns for f in lat.proper_faces} == {frozenset()}
    assert lat.pointed


def test_nonpointed_face_lattice():
    lat = face_lattice(parse_matrix("1 -1"))
    assert not lat.pointed
    assert lat.minimal.columns == frozenset({1, 2})


def test_face_enumeration_cap():
    # Any column count: one row of 13 ones has the faces {} and the full set.
    lat = face_lattice(IntMatrix.from_rows([[1] * 13]))
    assert [f.columns for f in lat.faces] == [frozenset(), frozenset(range(1, 14))]
    assert lat.pointed


@pytest.mark.parametrize("j", [0, 4, -1, 99])
def test_cone_helpers_reject_out_of_range_columns(hat, j):
    # No facet holds an index outside 1..n, so unchecked it would drop every
    # inequality, and Python would read 0 or -1 as a column from the end.
    with pytest.raises(ColumnIndexOutOfRange, match=f"column index {j} is not in 1..3"):
        cone_contains(hat, (-5, 7), (j,))
    with pytest.raises(ColumnIndexOutOfRange):
        cone_contains(hat, (-5, 7), (1, j))
    with pytest.raises(ColumnIndexOutOfRange):
        face_functionals(hat, (j,))


def test_support_functions_examples(staircase, hat, line):
    assert [s.functional for s in support_functions(line)] == [(1,)]
    assert sorted(s.functional for s in support_functions(hat)) == [(1, -1), (1, 1)]
    assert sorted(s.functional for s in support_functions(staircase)) == [
        (-1, 3),
        (1, 0),
    ]


@pytest.mark.parametrize("text", ["1", "3 2 0; 1 1 1", "1 1; 0 1", "1 1 1; 0 1 -1"])
def test_support_function_properties(text):
    a = parse_matrix(text)
    for s in support_functions(a):
        values = [s(col) for col in a.columns()]
        # zero exactly on the facet columns; a column-free facet (the origin,
        # d = 1) leaves every value strictly positive
        if s.facet.columns:
            assert min(values) == 0
        else:
            assert min(values) > 0
        for j in range(1, a.n + 1):
            assert (s(a.column(j - 1)) == 0) == (j in s.facet.columns)
        from math import gcd

        g = 0
        for x in s.functional:
            g = gcd(g, abs(x))
        assert g == 1


def enumerate_semigroup(a, cap):
    """All N-combinations of columns with coordinates within [-cap, cap]."""
    points = {(0,) * a.d}
    frontier = {(0,) * a.d}
    while frontier:
        new = set()
        for p in frontier:
            for col in a.columns():
                q = tuple(x + y for x, y in zip(p, col))
                if q not in points and all(abs(x) <= cap for x in q):
                    new.add(q)
        points |= new
        frontier = new
    return points


@pytest.mark.parametrize("text", ["1", "2 5", "3 2 0; 1 1 1", "1 1; 0 1", "1 1 1; 0 1 -1"])
def test_semigroup_membership_against_enumeration(text):
    a = parse_matrix(text)
    cap = 9
    box = 6
    table = enumerate_semigroup(a, cap)
    for point in product(range(-box, box + 1), repeat=a.d):
        assert semigroup_contains(a, point) == (point in table)


def test_membership_examples(staircase):
    assert semigroup_contains(staircase, (2, 1))
    assert not semigroup_contains(staircase, (1, 1))
    assert semigroup_contains(staircase, (5, 2))


def test_membership_witness(staircase):
    wit = semigroup_witness(staircase, (5, 2))
    assert wit is not None
    assert staircase.mul_vec(wit) == (5, 2)
    assert all(x >= 0 for x in wit)


def test_membership_rejects_non_integral_point():
    a = parse_matrix("3 2 0; 1 1 1")
    assert semigroup_contains(a, (0, 1))
    assert not semigroup_contains(a, (Fraction(1, 2), 1))
    assert semigroup_witness(a, (Fraction(1, 2), 1)) is None


def test_membership_skips_zero_column():
    # a zero column has weight 0 and used to be subtracted forever
    a = parse_matrix("0 2")
    assert not semigroup_contains(a, (1,))
    assert semigroup_witness(a, (4,)) == (0, 2)


def test_deep_membership_witness():
    # 5000 column steps, deeper than the interpreter's recursion limit
    assert semigroup_witness(parse_matrix("1"), (5000,)) == (5000,)


def test_membership_not_pointed():
    with pytest.raises(NotPointed):
        semigroup_contains(parse_matrix("1 -1"), (0,))


def test_saturation_examples(staircase):
    assert saturation_contains(staircase, (1, 1))
    assert not saturation_contains(staircase, (-1, 0))
    assert saturation_contains(staircase, (1, 100))


@st.composite
def cone_probes(draw):
    """A d x n matrix (d <= 3, n <= 5, entries -2..2: zero columns, rank
    deficiency and lines all occur) and a rational point, half the time a
    nonnegative half-integer combination of the columns."""
    d, n = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    a = IntMatrix.from_rows([draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)) for _ in range(d)])
    if draw(st.booleans()):
        x = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        point = tuple(sum(Fraction(k, 2) * c[i] for k, c in zip(x, a.columns())) for i in range(d))
    else:
        point = tuple(Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3))) for _ in range(d))
    return a, point


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cone_probes())
@example((parse_matrix("1 2; 2 4"), (1, 2)))  # rank deficient
@example((parse_matrix("1 2; 2 4"), (1, 1)))
@example((parse_matrix("1 -1"), (-3,)))  # not pointed
@example((parse_matrix("1 -1 0; 0 0 1"), (-3, -1)))
@example((parse_matrix("0 0; 0 0"), (0, 0)))  # zero columns only
@example((parse_matrix("0 0; 0 0"), (1, 0)))
@example((parse_matrix("1 0; 0 0"), (Fraction(1, 2), 0)))
def test_saturation_contains_matches_the_lp(case):
    """Facet signs answer cone membership as the phase-I LP of `cone_witness` does."""
    a, point = case
    assert saturation_contains(a, point) == (cone_witness(a, point) is not None), case


def test_saturation_witness_is_rational(staircase):
    eq = [[Fraction(staircase.entry(i, j)) for j in range(3)] for i in range(2)]
    sol = feasible_point(eq, [Fraction(1), Fraction(1)], [True] * 3)
    assert sol is not None
    recombined = [
        sum(c * x for c, x in zip(row, sol)) for row in eq
    ]
    assert recombined == [Fraction(1), Fraction(1)]


def test_membership_implies_cone(staircase):
    for point in product(range(-2, 8), range(-2, 5)):
        if semigroup_contains(staircase, point):
            assert saturation_contains(staircase, point)


def test_is_saturated(staircase, hat, line, wedge):
    assert not is_saturated(staircase)
    assert is_saturated(line)
    assert is_saturated(hat)
    assert is_saturated(wedge)
    assert is_saturated(parse_matrix("2 5")) is False


def test_extreme_ray_skips_zero_column():
    assert extreme_rays(parse_matrix("0 2")) == [(1,)]


def test_zero_column_not_saturated():
    # NA = 2N, but the ray was once read off the zero column
    assert is_saturated(parse_matrix("0 2")) is False


def test_saturation_with_zero_column_terminates():
    # (1, 0) is in the cone but not in NA
    assert is_saturated(parse_matrix("2 0 3; 0 0 1")) is False


def test_saturation_gap_matches_staircase_figure(staircase):
    # gap points inside the box [-1,9] x [-1,5] sit exactly on the column x = 1
    gap = set()
    for point in product(range(-1, 10), range(-1, 6)):
        if saturation_contains(staircase, point) and not semigroup_contains(
            staircase, point
        ):
            gap.add(point)
    assert gap == {(1, y) for y in range(1, 6)}


def test_interior_membership(hat):
    assert interior_contains(hat, (1, 0))
    assert not interior_contains(hat, (1, 1))
    assert not interior_contains(hat, (-1, 0))


@pytest.mark.parametrize("point", [(5,), (5, 1, 7)], ids=["short", "long"])
@pytest.mark.parametrize("contains", [cone_contains, interior_contains], ids=["cone", "interior"])
def test_cone_tests_reject_a_point_of_the_wrong_length(staircase, contains, point):
    with pytest.raises(ParseError, match=f"point has length {len(point)}, but the matrix has 2 rows"):
        contains(staircase, point)


@pytest.mark.parametrize("point", [(1,), (1, 0, 99)], ids=["short", "long"])
def test_support_function_rejects_a_point_of_the_wrong_length(hat, point):
    s = support_functions(hat)[0]
    assert s((1, 0)) == 1
    with pytest.raises(ParseError, match=f"point has length {len(point)}, but the matrix has 2 rows"):
        s(point)
