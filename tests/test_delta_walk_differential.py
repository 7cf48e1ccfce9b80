"""Differential tests of the delta walk and of the residue index of NA.

`resonance.delta_valid` reads only the regions that no other component of
sRes(A) covers (lemma 8 of `gkzkit.resonance`), and `delta_A` walks each
column in turn as far as it goes, as a step that fails once fails for the
rest of the walk (lemma 9).  `resonance_oracle` keeps the facet-sign test
against every component and the walk that tries every column at every
step; both must give the same answers, exceptions included.  Deep NA points are answered from the standard pairs grouped by
sigma and by residue; `semigroup_oracle` keeps the scan of every pair and
the depth-first search, and all three must agree above phi-height n * min w.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import resonance_oracle
import semigroup_oracle

from gkzkit import IntMatrix, parse_matrix, resonance, semigroup_witness
from gkzkit.cones import _semigroup
from gkzkit.errors import NotPointed
from gkzkit.polynomials import binomial, reduce_monomial
from gkzkit.toric import DEFAULT_ORDER, toric_ideal

SETTINGS = settings(
    max_examples=120,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Matrices with many components, rank-deficient and non-spanning ones too.
FIXED = [
    "1 1 1 1 1; 0 1 2 3 4; 0 0 1 3 6",  # the twisted quartic: 50 components, 5 regions
    "-1 -1 0 0 -1; 2 -1 -2 -2 1; 1 -1 0 -1 -2",
    "1 1 1 1 1; 0 1 0 1 2; 0 0 1 1 0",
    "1 1 1 1 1; 0 1 2 3 4",
    "1 1 1 1; 0 1 2 3",
    "3 2 0; 1 1 1",
    "1 1 1; 0 1 -1",
    "3 5 7",
    "4 6 9",
    "1 1 1 1; 0 1 3 4",
    "1 1 1; 0 1 -1; 0 0 0",  # not full-dimensional
    "1 1; 0 2",  # does not span Z^2
    "1 2 0; 0 0 1",  # two columns on one ray
]


@st.composite
def matrices(draw):
    """A fixed matrix, or a random one with d <= 3 and d <= n <= d + 2 (d + 1
    when d = 3), often with a first row of ones, and not always pointed."""
    if draw(st.booleans()):
        return parse_matrix(draw(st.sampled_from(FIXED)))
    d = draw(st.integers(1, 3))
    n = draw(st.integers(d, d + 2 if d < 3 else d + 1))
    rows = [draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n)) for _ in range(d)]
    if d > 1 and draw(st.booleans()):
        rows[0] = [1] * n
    return IntMatrix.from_rows(rows)


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the exception itself is part of the answer
        return "raised", type(exc), str(exc)


@SETTINGS
@given(a=matrices(), data=st.data())
def test_pruned_delta_valid_matches_every_component(a, data):
    # delta near p = offset - shift of some component, where the regions'
    # boundaries are, or anywhere in a small box.
    got = outcome(resonance.resonance_set, a)
    if got[0] == "raised":
        return
    components = got[1].components
    for _ in range(8):
        if components and data.draw(st.booleans()):
            comp = data.draw(st.sampled_from(components))
            nudge = data.draw(st.lists(st.integers(-3, 3), min_size=a.d, max_size=a.d))
            delta = tuple(o - s + e for o, s, e in zip(comp.offset, comp.shift, nudge))
        else:
            delta = tuple(data.draw(st.lists(st.integers(-4, 12), min_size=a.d, max_size=a.d)))
        assert resonance.delta_valid(a, delta) == resonance_oracle.delta_valid_all_components(a, delta)


@SETTINGS
@given(matrices())
@example(parse_matrix("1 1 1; 0 1 -1; 0 0 0"))
def test_regions_are_covered_and_undominated(a):
    # Every component's region lies in a kept one, and no kept region lies
    # in another kept one.
    got = outcome(resonance.resonance_set, a)
    if got[0] == "raised":
        return
    kept = resonance._undominated_regions(a)

    def inside(inner, outer):
        (p, ineqs), (q, outer_ineqs) = inner, outer
        return set(outer_ineqs) <= set(ineqs) and all(
            sum(y * (s - t) for y, s, t in zip(row, q, p)) >= 0 for row in outer_ineqs
        )

    for comp in got[1].components:
        region = (tuple(o - s for o, s in zip(comp.offset, comp.shift)), resonance._cone_inequalities(a, comp.face_columns))
        assert any(inside(region, k) for k in kept)
    for i, k in enumerate(kept):
        assert not any(inside(k, other) for other in kept[:i] + kept[i + 1 :])


def test_regions_keep_the_first_of_equal_ones(monkeypatch):
    # Seven made-up components of the positive orthant, with shift 0, so
    # that p is the offset.  b equals a (they differ along the ray e_1 of
    # their face), d lies in a, e (on the vertex) lies in a, and no region
    # of c, c2 and f lies in another.  The cheap pass keeps a and b, as the
    # first with the largest y_1 . p on their face is c or c2, which covers
    # neither; the pairwise pass must then keep a and drop b.
    a = parse_matrix("1 0 0; 0 1 0; 0 0 1")
    ray, vertex = (1,), ()
    points = {
        "a": ((0, 0, 0), ray), "c": ((0, 1, -1), ray), "b": ((5, 0, 0), ray), "c2": ((0, -1, 1), ray),
        "d": ((0, -1, -1), ray), "e": ((-1, 0, 0), vertex), "f": ((0, 2, 2), vertex),
    }
    comps = tuple(resonance.ResonanceComponent(1, p, face, (0, 0, 0)) for p, face in points.values())
    monkeypatch.setattr(resonance, "resonance_set", lambda m: resonance.ResonanceSet(m, comps))
    resonance._undominated_regions.cache_clear()
    try:
        kept = [p for p, _ in resonance._undominated_regions(a)]
    finally:
        resonance._undominated_regions.cache_clear()
    assert kept == [points[k][0] for k in ("a", "c", "c2", "f")]


@st.composite
def walkable_matrices(draw):
    """A pointed matrix whose columns span Z^d, d in {2, 3}: the columns
    (1, 0, 0), (1, 1, 0), (1, 0, 1) cut to d rows, then one or two random
    columns with first entry 1 or 2, so that not every matrix is homogeneous."""
    d = draw(st.integers(2, 3))
    cols = [tuple(int(i == 0 or i == k) for i in range(d)) for k in range(d)]
    for _ in range(draw(st.integers(1, 2))):
        cols.append((draw(st.integers(1, 2)), *draw(st.lists(st.integers(-2, 4), min_size=d - 1, max_size=d - 1))))
    return IntMatrix.from_rows([list(row) for row in zip(*cols)])


@settings(SETTINGS, max_examples=60)
@given(walkable_matrices())
@example(parse_matrix(FIXED[0]))
@example(parse_matrix(FIXED[1]))
@example(parse_matrix("4 6 9"))  # not saturated
@example(parse_matrix("1 1; 0 2"))  # does not span Z^2
@example(parse_matrix("1 1 1; 0 1 -1; 0 0 0"))  # not full-dimensional
def test_delta_A_matches_the_every_column_walk(a):
    assert outcome(resonance.delta_A, a) == outcome(resonance_oracle.delta_A_every_column, a)


def height(a, point):
    return sum(p * x for p, x in zip(_semigroup(a).phi, point))


def deep_point(a, data, steps):
    """A column combination within about `steps` column steps, nudged by at
    most 1 per row, then pushed above phi-height n * min w by the heaviest column."""
    weights = [w for w in (height(a, col) for col in a.columns()) if w > 0]
    c = data.draw(st.lists(st.integers(0, steps // a.n), min_size=a.n, max_size=a.n))
    nudge = data.draw(st.lists(st.integers(-1, 1), min_size=a.d, max_size=a.d))
    point = tuple(x + e for x, e in zip(a.mul_vec(c), nudge))
    step = max(a.columns(), key=lambda col: height(a, col))
    while height(a, point) <= a.n * min(weights):
        point = tuple(x + y for x, y in zip(point, step))
    return point


@st.composite
def pointed_matrices(draw):
    """A random pointed matrix with d <= 2, n <= 4 and no zero column."""
    d = draw(st.integers(1, 2))
    n = draw(st.integers(1, 4))
    rows = [draw(st.lists(st.integers(-1, 4), min_size=n, max_size=n)) for _ in range(d)]
    a = IntMatrix.from_rows(rows)
    try:
        _semigroup(a)
    except NotPointed:
        return parse_matrix("1 1 1; 0 1 -1")
    return a if all(any(col) for col in a.columns()) else parse_matrix("2 5")


@settings(SETTINGS, max_examples=60)
@given(a=pointed_matrices(), data=st.data())
def test_sigma_indexed_witness_matches_the_oracles_above_the_search_height(a, data):
    point = deep_point(a, data, 40)
    new = semigroup_witness(a, point)
    assert new == semigroup_oracle.standard_pair_witness(a, point)
    old = semigroup_oracle.semigroup_witness(a, point)
    assert (old is None) == (new is None)
    if old is not None:
        basis = [binomial(g) for g in toric_ideal(a, DEFAULT_ORDER).generators]
        assert new == reduce_monomial(old, basis)


@settings(SETTINGS, max_examples=40)
@given(text=st.sampled_from(FIXED[:5]), data=st.data())
def test_sigma_indexed_witness_matches_the_pair_scan_far_out(text, data):
    # Too deep for the depth-first oracle: up to 400 column steps out.
    a = parse_matrix(text)
    point = deep_point(a, data, 400)
    assert semigroup_witness(a, point) == semigroup_oracle.standard_pair_witness(a, point)
