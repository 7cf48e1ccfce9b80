"""Differential tests of the NA-membership search.

`semigroup_witness` shares one memo per matrix for its depth-first search
and answers points above phi-height n * min w from the standard pairs of
in(I_A).  `semigroup_oracle` keeps the recursive search with a fresh memo
per call.  Both must agree on membership everywhere, and on the witness
itself wherever the point is shallow enough for the search (phi-height at
most n * min w).  Above that height the witness is the normal form of the
oracle's under the toric ideal, and always satisfies A x = b, x in N^n;
it is also the oracle's scan of every standard pair, which the library
replaced by pairs grouped by sigma and residue.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import semigroup_oracle

from gkzkit import parse_matrix, semigroup_witness
from gkzkit.cones import _semigroup
from gkzkit.polynomials import binomial, reduce_monomial
from gkzkit.toric import DEFAULT_ORDER, toric_ideal

SETTINGS = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

FIXED = [
    "1 1 1 1; 0 1 2 3",
    "1 1; 0 1",
    "2 5",
    "3 5 7",
    "1 1 1; 0 1 -1",
    "3 2 0; 1 1 1",
    "1 1 1 1 1; 0 1 0 1 2; 0 0 1 1 0",
    "0 2",
    "2 0 3; 0 0 1",
]


@st.composite
def matrices(draw):
    """A corpus matrix, or a random one with d <= 2, n <= 4 (not always pointed)."""
    if draw(st.booleans()):
        return parse_matrix(draw(st.sampled_from(FIXED)))
    d = draw(st.integers(1, 2))
    n = draw(st.integers(1, 4))
    rows = [draw(st.lists(st.integers(-1, 4), min_size=n, max_size=n)) for _ in range(d)]
    return parse_matrix("; ".join(" ".join(map(str, row)) for row in rows))


@st.composite
def cases(draw):
    """A matrix and a point: a column combination up to 60 steps out, nudged, or any small point."""
    a = draw(matrices())
    if draw(st.booleans()):
        c = draw(st.lists(st.integers(0, 15), min_size=a.n, max_size=a.n))
        nudge = draw(st.lists(st.integers(-1, 1), min_size=a.d, max_size=a.d))
        point = tuple(x + e for x, e in zip(a.mul_vec(c), nudge))
    else:
        point = tuple(draw(st.lists(st.integers(-3, 12), min_size=a.d, max_size=a.d)))
    return a, point


def height(a, point):
    return sum(p * x for p, x in zip(_semigroup(a).phi, point))


def min_weight(a):
    phi = _semigroup(a).phi
    return min((w for w in (sum(p * x for p, x in zip(phi, col)) for col in a.columns()) if w > 0), default=0)


def assert_valid(a, point, x):
    assert len(x) == a.n and all(isinstance(v, int) and v >= 0 for v in x)
    assert a.mul_vec(x) == tuple(point)


@SETTINGS
@given(cases())
@example((parse_matrix("0 2"), (6,)))
@example((parse_matrix("0 2"), (7,)))
@example((parse_matrix("0 2"), (0,)))
@example((parse_matrix("2 0 3; 0 0 1"), (5, 1)))
@example((parse_matrix("2 0 3; 0 0 1"), (1, 0)))
@example((parse_matrix("2 0 3; 0 0 1"), (301, 1)))
@example((parse_matrix("1 1; 0 1"), (Fraction(1, 2), 0)))
@example((parse_matrix("3 2 0; 1 1 1"), (Fraction(1, 2), 1)))
@example((parse_matrix("1 1; 0 1"), (40, 41)))  # outside the cone, deep enough for the LP
@example((parse_matrix("1 1; 0 1"), (-40, 0)))  # outside the cone, negative height
@example((parse_matrix("2 5"), (3,)))  # in the cone, not in NA
@example((parse_matrix("2 5"), (301,)))
def test_search_matches_oracle(case):
    a, point = case
    try:
        old = semigroup_oracle.semigroup_witness(a, point)
    except Exception as exc:
        with pytest.raises(type(exc)):
            semigroup_witness(a, point)
        return
    new = semigroup_witness(a, point)
    assert (old is None) == (new is None)
    if new is not None:
        assert_valid(a, point, new)
    if all(Fraction(x).denominator == 1 for x in point) and height(a, point) <= a.n * min_weight(a):
        assert new == old


DEEP = [
    "1 1 1 1 1; 0 1 2 3 4; 0 0 1 3 6",  # the twisted quartic
    "1 1 1 1 1 1 1 1 1; 0 1 2 0 1 2 0 1 2; 0 0 0 1 1 1 2 2 2",  # the 3x3 grid
    "-1 -1 0 0 -1; 2 -1 -2 -2 1; 1 -1 0 -1 -2",
    "1",
    "1 1; 0 1",
    "0 2",
    "2 0 3; 0 0 1",
    "2 5",
    "3 5 7",
    "2 2 2; 0 3 -3",
]


@pytest.mark.parametrize("text", DEEP)
@settings(SETTINGS, max_examples=10)  # the oracle takes up to 0.7 s a point on the larger matrices
@given(data=st.data())
def test_deep_witness_is_the_standard_monomial(text, data):
    # A point above n * min w, nudged, within about 60 column steps.  Its
    # witness is the unique standard monomial of its degree: the normal
    # form of any witness, the oracle's too.
    a = parse_matrix(text)
    c = data.draw(st.lists(st.integers(0, 60 // a.n), min_size=a.n, max_size=a.n))
    nudge = data.draw(st.lists(st.integers(-1, 1), min_size=a.d, max_size=a.d))
    point = tuple(x + e for x, e in zip(a.mul_vec(c), nudge))
    step = max(a.columns(), key=lambda col: height(a, col))
    while height(a, point) <= a.n * min_weight(a):
        point = tuple(x + y for x, y in zip(point, step))
    old = semigroup_oracle.semigroup_witness(a, point)
    new = semigroup_witness(a, point)
    assert new == semigroup_oracle.standard_pair_witness(a, point)
    assert (old is None) == (new is None)
    if old is not None:
        basis = [binomial(g) for g in toric_ideal(a, DEFAULT_ORDER).generators]
        assert new == reduce_monomial(old, basis)


def test_non_integral_and_outside_points_are_not_members():
    a = parse_matrix("1 1 1 1; 0 1 2 3")
    assert semigroup_witness(a, (Fraction(5, 2), 3)) is None
    assert semigroup_witness(a, (500, 1501)) is None  # beyond the ray (1, 3)
    assert semigroup_witness(a, (500, -1)) is None  # below the ray (1, 0)
    assert semigroup_witness(a, (-500, 0)) is None


def test_memo_stays_in_a_box_fixed_by_a():
    # 12 points 1,100-1,400 column steps out on the twisted cubic, and 200
    # shallow points far outside the cone.  The latter are not searched,
    # and the deep ones are answered by the standard pairs, so the search
    # only ever starts at phi-height <= n * min w and every memo key lies
    # at or below that height, in a box fixed by A alone.
    a = parse_matrix("1 1 1 1; 0 1 2 3")
    _semigroup.cache_clear()
    rng = random.Random(7)
    for _ in range(12):
        c = [0] * a.n
        for _ in range(rng.randint(1100, 1400)):
            c[rng.randrange(a.n)] += 1
        point = a.mul_vec(c)
        assert_valid(a, point, semigroup_witness(a, point))
    for _ in range(100):
        h = rng.randint(0, 4)
        assert semigroup_witness(a, (h, rng.randint(3 * h + 1, 10**6))) is None
        assert semigroup_witness(a, (h, -rng.randint(1, 10**6))) is None
    assert "pairs" in vars(_semigroup(a))
    assert all(0 <= height(a, key) <= a.n * min_weight(a) for key in _semigroup(a).memo)


def test_cache_clear_empties_memo():
    a = parse_matrix("1 1; 0 1")
    assert height(a, (2, 1)) <= a.n * min_weight(a)
    semigroup_witness(a, (2, 1))
    semigroup_witness(a, (50, 20))
    assert _semigroup(a).memo
    assert "pairs" in vars(_semigroup(a))
    _semigroup.cache_clear()
    assert not _semigroup(a).memo
    assert "pairs" not in vars(_semigroup(a))
