"""Differential tests of the facet-built cone layer.

`face_lattice` finds faces as intersections of sign-checked facets and
`is_saturated` tests box points against facet certificates; both are checked
against the per-subset LP route in `face_oracle`.  `positive_grading` skips
the lattice and is checked against the face lattice's `positive_functional`.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from face_oracle import face_lattice_by_subsets, is_saturated_by_lp

from gkzkit import IntMatrix, parse_matrix
from gkzkit.cones import face_lattice, is_saturated, positive_functional, positive_grading

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


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


@SETTINGS
@given(matrices())
@example(parse_matrix("1 -1"))
@example(parse_matrix("0 0"))
@example(parse_matrix("1 0 -1; 0 0 0"))
@example(parse_matrix("1 0 2; 2 0 4; 0 0 0"))
def test_face_lattice_matches_subset_oracle(a):
    # whole objects: face sets, order, certificates, dims, pointedness
    assert face_lattice(a) == face_lattice_by_subsets(a)


@SETTINGS
@given(pointed_matrices())
@example(parse_matrix("3 2 0; 1 1 1"))
@example(parse_matrix("2 5"))
@example(parse_matrix("1 1 1; 0 1 2; 0 2 4"))
def test_is_saturated_matches_lp_oracle(a):
    assert is_saturated(a) == is_saturated_by_lp(a)


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
        phi = positive_functional(a)
        assert weights == tuple(sum(p * x for p, x in zip(phi, col)) for col in a.columns())
        assert min(weights) >= 1
