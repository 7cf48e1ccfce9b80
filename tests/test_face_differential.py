"""Differential tests of the facet-built cone layer.

`face_lattice` finds faces as intersections of sign-checked facets and
`is_saturated` tests only the Hilbert-basis candidates among the box points
for NA membership; both are checked against the per-subset LP route in
`face_oracle`, and the membership tests are counted.  The integer facet scan,
which skips subsets inside a facet already found, is checked against the
`Fraction` scan it replaced, and its solved subsets are counted.  The
certificates `face_lattice` sets without an LP (the improper face, and the
facets of a full-dimensional cone) are checked against `_face_certificate`'s
LP, and every dim, read off the Smith diagonal and the grading of the
lattice, against the oracle's `Fraction` rank (`span_dim`).
`positive_grading` skips the lattice and is checked against the phi of the
NA search (`_semigroup(a).phi`, the minimal face's certificate cleared of
denominators); on one nonzero row it reads the empty
face's forced certificate off `_facets` and is checked against the LP.
`face_functionals` is checked for what lemma 3 of `resonance` needs: it
vanishes on the columns, has d - rank vectors and spans a saturated lattice.
"""

from itertools import combinations
from operator import mul

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import face_oracle
from face_oracle import face_lattice_by_fraction_scan, face_lattice_by_subsets, is_saturated_by_lp, span_dim

from gkzkit import IntMatrix, cones, parse_matrix
from gkzkit.intlinalg import elementary_divisors, hermite_normal_form
from gkzkit.lp import _cleared
from gkzkit.cones import (
    _face_certificate,
    _semigroup,
    face_lattice,
    is_saturated,
    positive_grading,
)

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
SCAN_SETTINGS = settings(SETTINGS, max_examples=400)
GRID_3X10 = parse_matrix("1 1 1 1 1 1 1 1 1 1; 0 1 2 3 0 1 2 3 0 1; 0 0 0 0 1 1 1 1 2 2")
CUBE_4D = parse_matrix("1 1 1 1 1 1 1 1; 0 1 0 0 1 1 0 1; 0 0 1 0 1 0 1 1; 0 0 0 1 0 1 1 1")
# More than 12 columns: a 3 x 13 grid, and the cube with every column twice.
GRID_3X13 = parse_matrix("1 1 1 1 1 1 1 1 1 1 1 1 1; 0 1 2 3 0 1 2 3 0 1 2 3 0; 0 0 0 0 1 1 1 1 2 2 2 2 3")
CUBE_TWICE = IntMatrix.from_rows([row + row for row in CUBE_4D.rows])


@st.composite
def matrices(draw):
    """d <= 4, n <= 7, entries in [-3, 3], often with a zero column or a repeated row."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 7))
    rows = [draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)) for _ in range(d)]
    zero = draw(st.none() | st.integers(0, n - 1))
    if zero is not None:
        for row in rows:
            row[zero] = 0
    if d > 1 and draw(st.booleans()):
        rows[-1] = [2 * x for x in rows[0]]  # rank-deficient
    return IntMatrix.from_rows(rows)


@st.composite
def pointed_matrices(draw):
    """d <= 3, n <= 5, first row in 1..2 (so the cone is pointed), others in [-2, 2]."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    rows = [draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))]
    rows += [draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)) for _ in range(d - 1)]
    return IntMatrix.from_rows(rows)


@st.composite
def scan_matrices(draw):
    """d <= 4, n <= 9, entries in [-3, 3], with the cases the facet scan must survive:
    rank 1, a rank-deficient last row, a negated column (so not pointed), and a
    zero or repeated column."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 9))
    rows = [draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)) for _ in range(d)]
    shape = draw(st.sampled_from(("generic", "generic", "generic", "rank1", "deficient")))
    if shape == "rank1":
        scales = draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
        rows = [[k * x for x in rows[0]] for k in scales]
    elif shape == "deficient" and d > 1:
        rows[-1] = [x + y for x, y in zip(rows[0], rows[1 % (d - 1)])]
    for edit in draw(st.lists(st.sampled_from(("negate", "zero", "repeat")), max_size=2)):
        if n < 2:
            break
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        for row in rows:
            row[j] = {"negate": -row[i], "zero": 0, "repeat": row[i]}[edit]
    return IntMatrix.from_rows(rows)


def solved_subsets(module, scan, a, rank):
    """The facets scan returns, and each column subset it solved, in order, with
    whether its columns were independent.  A scan solves subsets in
    combinations order, so each solve is matched to the next subset with its
    columns.  `cones._facets` solves by `signed_minors`, on the nonzero HNF
    rows of A when rank < d; the Fraction scan of `face_oracle` solves by
    `gauss_solve` on A itself."""
    if module is cones:
        name, independent = "signed_minors", lambda rows, out: any(out)
        cols = (a if rank == a.d else hermite_normal_form(a)).columns()
    else:
        name, independent = "gauss_solve", lambda rows, out: len(out[1]) == a.d - len(rows)
        cols = a.columns()
    pending = combinations(range(1, a.n + 1), rank - 1)
    solve = getattr(module, name)
    solved = []

    def recording(rows, *args):
        subset = next(s for s in pending if [cols[j - 1] for j in s] == list(rows))
        out = solve(rows, *args)
        solved.append((frozenset(subset), independent(rows, out)))
        return out

    with pytest.MonkeyPatch.context() as m:
        m.setattr(module, name, recording)
        return scan(a, rank), solved


@SCAN_SETTINGS
@given(scan_matrices())
@example(parse_matrix("1 -1"))
@example(parse_matrix("0 0 0"))
@example(parse_matrix("1 2 -1; 2 4 -2"))
@example(parse_matrix("1 1 1 1; 0 1 1 0; 0 0 1 1; 0 0 0 0"))
@example(parse_matrix("1 1 1 1 1 1; 0 1 0 1 0 -1; 0 0 1 1 0 0; 0 0 0 0 1 0"))
@example(GRID_3X10)
@example(GRID_3X13)
@example(CUBE_TWICE)
def test_face_lattice_matches_fraction_scan(a):
    # columns, order, certificates, dims and pointedness of every face
    assert face_lattice(a) == face_lattice_by_fraction_scan(a)


@SCAN_SETTINGS
@given(scan_matrices())
@example(GRID_3X10)
def test_facet_scan_solves_no_subset_inside_a_facet_found_before(a):
    rank = span_dim(a, range(1, a.n + 1))
    if not rank:
        return
    facets, solved = solved_subsets(cones, cones._facets, a, rank)
    assert facets == face_oracle.facets_by_fraction_scan(a, rank)
    for k, (subset, _) in enumerate(solved):
        # an independent solved subset inside a facet spans its hyperplane, so found it
        found = [f for f in facets if any(ind and s <= f for s, ind in solved[:k])]
        assert not any(subset <= f for f in found)


@SCAN_SETTINGS
@given(scan_matrices())
@example(parse_matrix("2 5"))  # rank 1: the empty face is the facet
@example(parse_matrix("1 2 -1; 2 4 -2"))  # rank-deficient: facets keep the LP
@example(parse_matrix("0 0; 0 0"))  # rank 0: only the improper face
@example(parse_matrix("1 -1"))  # a line: only the improper face
@example(GRID_3X10)
def test_forced_certificates_match_the_lp(a):
    for face in face_lattice(a).faces:
        assert face.certificate == _face_certificate(a, face.columns)
        assert face.dim == span_dim(a, sorted(face.columns))


def test_grid_3x10_lattice_runs_6_lps_for_12_faces(monkeypatch):
    calls = []
    solve = cones.feasible_point
    monkeypatch.setattr(cones, "feasible_point", lambda *args: calls.append(args) or solve(*args))
    face_lattice.cache_clear()
    _face_certificate.cache_clear()
    lat = face_lattice(GRID_3X10)
    # the improper face and the 5 facets of the pentagon take no LP
    assert (len(lat.faces), len(calls)) == (12, 6)


def test_grid_3x10_facet_scan_solves_38_subsets_not_45():
    facets, solved = solved_subsets(cones, cones._facets, GRID_3X10, 3)
    old, old_solved = solved_subsets(face_oracle, face_oracle.facets_by_fraction_scan, GRID_3X10, 3)
    assert facets == old and len(facets) == 5  # the grid hull is a pentagon
    assert (len(solved), len(old_solved)) == (38, 45)


@st.composite
def column_sets(draw):
    """A matrix of `matrices` and a sorted tuple of its 1-based columns."""
    a = draw(matrices())
    return a, tuple(sorted(draw(st.sets(st.integers(1, a.n)))))


@SETTINGS
@given(column_sets())
@example((parse_matrix("1 1 1; 0 1 -1; 0 0 0"), ()))  # the vertex: the zero row alone
@example((parse_matrix("1 1 1; 0 1 -1; 0 0 0"), (1, 2, 3)))  # rank 2 < d: span(A)'s equation
@example((parse_matrix("2 4; 0 6"), (1,)))  # (0, 1), primitive though the column is (2, 0)
@example((CUBE_4D, (1, 2, 5)))
def test_face_functionals_are_a_saturated_annihilator(case):
    """The basis vanishes on the columns, has d - rank vectors, rank the
    Fraction elimination (`span_dim`) that gives `face_oracle` its dims, and
    spans a saturated lattice: its elementary divisors are all 1, so it
    extends to a basis of (Z^d)*, as lemma 3 of `resonance` needs."""
    a, cols = case
    basis = cones.face_functionals(a, cols)
    assert all(sum(map(mul, psi, a.column(j - 1))) == 0 for psi in basis for j in cols)
    assert len(basis) == a.d - span_dim(a, cols)
    if basis:
        assert elementary_divisors(IntMatrix.from_rows(basis)) == (1,) * len(basis)


@SETTINGS
@given(matrices())
@example(parse_matrix("1 -1"))
@example(parse_matrix("0 0"))
@example(parse_matrix("1 0 -1; 0 0 0"))
@example(parse_matrix("1 0 2; 2 0 4; 0 0 0"))
def test_face_lattice_matches_subset_oracle(a):
    # whole objects: face sets, order, certificates, dims, pointedness
    assert face_lattice(a) == face_lattice_by_subsets(a)


def test_13_column_lattice_matches_subset_oracle():
    # 2^13 certificate LPs, about 4 s
    assert face_lattice(GRID_3X13) == face_lattice_by_subsets(GRID_3X13)


@SETTINGS
@given(pointed_matrices())
@example(parse_matrix("3 2 0; 1 1 1"))
@example(parse_matrix("2 5"))
@example(parse_matrix("1 1 1; 0 1 2; 0 2 4"))
@example(parse_matrix("2 0; 0 1"))  # the ray (1, 0) is outside NA
@example(parse_matrix("1 1 2; 0 1 0"))  # a column twice a ray
@example(parse_matrix("1 0 2; 0 0 1"))  # a zero column
@example(CUBE_4D)
def test_is_saturated_matches_lp_oracle(a):
    assert is_saturated(a) == is_saturated_by_lp(a)


def semigroup_tests(module, check, a):
    """check(a), and how many NA membership tests it made through module."""
    calls = []
    contains = module.semigroup_contains
    with pytest.MonkeyPatch.context() as m:
        m.setattr(module, "semigroup_contains", lambda *args: calls.append(args) or contains(*args))
        return check(a), len(calls)


@pytest.mark.parametrize(("a", "most", "box"), [(GRID_3X10, 10, 182), (CUBE_4D, 8, 725)], ids=["grid", "cube"])
def test_is_saturated_tests_only_hilbert_basis_candidates(a, most, box):
    saturated, tests = semigroup_tests(cones, is_saturated, a)
    want, box_tests = semigroup_tests(face_oracle, is_saturated_by_lp, a)
    assert saturated is want is True
    assert tests <= most and box_tests == box  # the oracle tests every box point of the cone


@SETTINGS
@given(matrices())
@example(parse_matrix("1 -1"))  # not pointed: None
@example(parse_matrix("0 2 3"))  # zero column: None
@example(parse_matrix("3 2 0; 1 1 1"))
def test_positive_grading_matches_positive_functional(a):
    # The weights fix quasi_degrees' filtration order, so the reports rest on this.
    weights = positive_grading(a)
    if not face_lattice(a).pointed or not all(any(col) for col in a.columns()):
        assert weights is None
    else:
        phi = _semigroup(a).phi
        assert weights == tuple(sum(p * x for p, x in zip(phi, col)) for col in a.columns())
        assert min(weights) >= 1


@SETTINGS
@given(st.lists(st.integers(-4, 6), min_size=1, max_size=6))
@example([2, 5])
@example([-3, -5, -7])
@example([0, 2, 3])  # zero column: None
@example([2, -1])  # mixed signs: None
@example([0, 0])  # zero row, rank 0: None, by the LP
def test_one_row_positive_grading_matches_the_lp(row):
    a = IntMatrix.from_rows([row])
    positive_grading.cache_clear()
    _face_certificate.cache_clear()
    weights = positive_grading(a)
    assert _face_certificate.cache_info().misses == (0 if any(row) else 1)
    cert = _face_certificate(a, frozenset())
    if cert is None:
        assert weights is None
    else:
        assert weights == tuple(_cleared(cert)[0][0] * x for x in row)
