"""Every sRes and DsRes witness re-verifies by a route of its own.

An sRes witness names a component (j, offset, F) and a multiplier m: m must
be an integer >= 1, j must lie off F, and beta + m*a_j - offset must lie in
QF, which one `gauss_solve` on the columns of F decides.  A DsRes witness
names a proper face F: beta must lie in Z^d + QF by the HNF-reduction
route and in R+A + QF by the LP, both kept in `resonance_oracle`.  Half the
parameters are planted on a component or a face, so that witnesses occur;
a planted parameter must get one.
"""

from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import resonance_oracle
from lp_oracle import gauss_solve
from test_resonance_differential import FIXED, rationals

from gkzkit import IntMatrix, parse_matrix, resonance
from gkzkit.cones import face_lattice

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def matrices(draw):
    """A fixed matrix, or a random one with d <= 2, n <= 4 and nonzero columns."""
    if draw(st.booleans()):
        return parse_matrix(draw(st.sampled_from(FIXED)))
    d = draw(st.integers(1, 2))
    n = draw(st.integers(1, 4))
    rows = [draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n)) for _ in range(d)]
    if d == 2 and draw(st.booleans()):
        rows[0] = [1] * n
    return IntMatrix.from_rows(rows)


def face_combination(draw, a, cols):
    """A rational point of QF."""
    coeffs = draw(st.lists(rationals(), min_size=len(cols), max_size=len(cols)))
    return [sum(c * a.entry(i, j - 1) for c, j in zip(coeffs, cols)) for i in range(a.d)]


def components(a):
    try:
        return resonance.resonance_set(a).components
    except Exception:  # not pointed, or a zero column: no resonance set
        return ()


@st.composite
def sres_cases(draw):
    """A matrix and beta, planted as offset - m*a_j + QF half of the time."""
    a = draw(matrices())
    comps = components(a)
    if comps and draw(st.booleans()):
        comp = draw(st.sampled_from(comps))
        m = draw(st.integers(1, 3))
        span = face_combination(draw, a, comp.face_columns)
        beta = tuple(Fraction(o - m * s) + x for o, s, x in zip(comp.offset, comp.shift, span))
        return a, beta, True
    return a, tuple(draw(st.lists(rationals(), min_size=a.d, max_size=a.d))), False


@SETTINGS
@given(sres_cases())
def test_sres_witness_reverifies(case):
    a, beta, planted = case
    if not components(a):
        return
    w = resonance.sres_witness(a, beta)
    assert (w is not None) or not planted
    if w is None:
        return
    assert (w.j, w.offset, w.face_columns) in {(c.j, c.offset, c.face_columns) for c in components(a)}
    assert w.multiplier.denominator == 1 and w.multiplier >= 1
    assert w.j not in w.face_columns
    rest = [beta[i] + w.multiplier * a.entry(i, w.j - 1) - w.offset[i] for i in range(a.d)]
    rows = [[a.entry(i, j - 1) for j in w.face_columns] for i in range(a.d)]
    assert gauss_solve(rows, rest) is not None


@st.composite
def dsres_cases(draw):
    """A spanning matrix and beta, planted as (a point of NA) + QF half of the time."""
    a = draw(matrices())
    faces = face_lattice(a).proper_faces if a.spans_lattice else ()
    if faces and draw(st.booleans()):
        cols = draw(st.sampled_from(faces)).sorted_columns()
        point = a.mul_vec(draw(st.lists(st.integers(0, 2), min_size=a.n, max_size=a.n)))
        span = face_combination(draw, a, cols)
        return a, tuple(Fraction(p) + x for p, x in zip(point, span)), True
    return a, tuple(draw(st.lists(rationals(), min_size=a.d, max_size=a.d))), False


@SETTINGS
@given(dsres_cases())
def test_dsres_witness_reverifies(case):
    a, beta, planted = case
    if not a.spans_lattice:
        return
    cols = resonance.dsres_witness(a, beta)
    assert (cols is not None) or not planted
    if cols is None:
        return
    assert cols in {f.sorted_columns() for f in face_lattice(a).proper_faces}
    assert resonance_oracle._beta_in_lattice_plus_span(a, list(cols), beta)
    assert resonance_oracle._beta_in_cone_plus_span(a, list(cols), beta)
