"""Differential tests of the fraction-free LP kernel.

`feasible_point` works on integer rows, each a positive multiple of the
rational row; it must return exactly what the `Fraction` route in
`lp_oracle` returns, vertex for vertex.  `_pivot`, which serves only the
LP, is also checked against the oracle's pivot for that invariant itself.

`gauss_solve` takes sparse rows (column -> entry) and eliminates forward on
them, then substitutes back.  Its pivot columns are the columns outside the
span of the columns before them, so it must return the particular solution
of the oracle's Gauss-Jordan route, free variables 0, and the same verdict.
That is checked on small dense systems and on Weyl-shaped ones: up to 14
rows and 18 columns, mostly zero, with zero rows, copied rows and
inconsistent copies.  The input rows must come back unchanged.

`weyl.ideal_member_bounded` orders its rows sparse first and relies on
`gauss_solve`'s answer not depending on the row order: the reduced row
echelon form of [M | b] is fixed by the row space.  That is checked on
permuted systems.
"""

from fractions import Fraction

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import lp_oracle

from gkzkit.lp import _cleared, _pivot, feasible_point, gauss_solve

SETTINGS = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from([2, 3, 5, 7])),
)


SPARSE = st.sampled_from([0, 0, 0, 0, 1, -1, 2, Fraction(1, 3)])


@st.composite
def systems(draw, max_rows=5, max_cols=8, entries=ENTRIES):
    """m <= max_rows rows, k <= max_cols columns, int and Fraction entries,
    free and nonneg columns.

    Later rows are often zero or a scaled copy of an earlier row, whose right
    side is sometimes shifted off the copy to make the system inconsistent.
    """
    m = draw(st.integers(0, max_rows))
    k = draw(st.integers(1, max_cols))
    rows = [draw(st.lists(entries, min_size=k, max_size=k)) for _ in range(m)]
    rhs = draw(st.lists(entries, min_size=m, max_size=m))
    for i in range(1, m):
        kind = draw(st.sampled_from(["plain", "plain", "zero", "copy"]))
        if kind == "zero":
            rows[i] = [0] * k
        elif kind == "copy":
            j = draw(st.integers(0, i - 1))
            f = draw(st.sampled_from([1, -2, Fraction(1, 3)]))
            rows[i] = [f * x for x in rows[j]]
            rhs[i] = f * rhs[j] + draw(st.sampled_from([0, 0, 1]))
    nonneg = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    return rows, rhs, nonneg


# The shape of `weyl.ideal_member_bounded`'s systems: about 7% of the
# entries are nonzero there, at a median of 28 rows by 32 columns.
WEYL_SHAPED = systems(max_rows=14, max_cols=18, entries=st.one_of(SPARSE, SPARSE, SPARSE, ENTRIES))


def sparse_rows(rows, keep_zeros):
    """Dense rows as the column -> entry maps `gauss_solve` takes."""
    return [{j: x for j, x in enumerate(row) if x or keep_zeros} for row in rows]


EXAMPLES = [
    ([], [], [True, False]),  # no rows
    ([[1, 1]], [-1], [True, True]),  # infeasible: x >= 0 cannot sum to -1
    ([[1, 2], [2, 4]], [1, 2], [True, True]),  # redundant row, artificial stays basic
    ([[0, 0], [1, -1]], [0, -2], [True, False]),  # zero row, negative right side
    ([[1, -1], [-1, 1]], [0, 0], [True, True]),
    (
        [[Fraction(1, 2), Fraction(1, 3), 1], [1, Fraction(-2, 7), Fraction(3, 5)]],
        [Fraction(5, 3), -1],
        [True, False, True],
    ),
    # Rows cleared by different L_i: any artificial entry but L_i changes the
    # objective row, hence the pivot path and the vertex returned.
    (
        [[0, 2, 0, 0], [1, 1, Fraction(1, 2), 1], [0, 0, -1, Fraction(1, 2)]],
        [0, 0, -1],
        [True, False, False, False],
    ),
]


def with_examples(test):
    for case in EXAMPLES:
        test = example(case)(test)
    return test


@SETTINGS
@given(st.one_of(systems(), WEYL_SHAPED))
@with_examples
def test_gauss_solve_matches_oracle(system):
    rows, rhs, nonneg = system
    k = len(nonneg)
    given_rows, given_rhs = sparse_rows(rows, keep_zeros=True), list(rhs)
    snapshot = [dict(row) for row in given_rows]
    got = gauss_solve(given_rows, given_rhs, k)
    assert given_rows == snapshot and given_rhs == rhs
    want = lp_oracle.gauss_solve(rows, rhs)
    # The oracle answers [] for a system with no rows.
    assert got == (None if want is None else want[0] or [0] * k)
    if got is not None:
        assert all(type(x) is Fraction for x in got)


@SETTINGS
@given(systems())
@with_examples
def test_feasible_point_matches_oracle(system):
    rows, rhs, nonneg = system
    got = feasible_point(rows, rhs, nonneg)
    assert got == lp_oracle.feasible_point(rows, rhs, nonneg)
    if got is not None:
        assert all(type(x) is Fraction for x in got)


@SETTINGS
@given(
    st.one_of(systems(max_rows=7), systems(max_rows=7, entries=SPARSE), WEYL_SHAPED)
    .flatmap(lambda s: st.tuples(st.just(s), st.permutations(range(len(s[0])))))
)
@example((([[1, 1, 0], [0, 1, 1], [1, 2, 1]], [1, 1, 3], [True] * 3), [2, 0, 1]))  # inconsistent, rank 2
@example((([[0, 2, 0], [0, 1, 1], [0, 3, 1]], [2, 1, 3], [True] * 3), [2, 1, 0]))  # rank 2, column 0 free
@example((([[0, 0], [1, 0], [0, 0]], [0, 1, 0], [True] * 2), [1, 2, 0]))  # zero rows around a pivot
def test_gauss_solve_does_not_depend_on_row_order(case):
    (rows, rhs, nonneg), perm = case
    rows = sparse_rows(rows, keep_zeros=False)
    want = gauss_solve(rows, rhs, len(nonneg))
    for order in (perm, perm[::-1]):
        assert gauss_solve([rows[i] for i in order], [rhs[i] for i in order], len(nonneg)) == want


@SETTINGS
@given(systems(), st.data())
def test_pivot_keeps_positive_multiples(system, data):
    rows, rhs, _ = system
    tableau = [[*row, b] for row, b in zip(rows, rhs)]
    spots = [(r, c) for r, row in enumerate(tableau) for c, x in enumerate(row[:-1]) if x]
    if not spots:
        return
    r, c = data.draw(st.sampled_from(spots))
    ints = [_cleared(row)[0] for row in tableau]
    _pivot(ints, r, c)
    rational = [[Fraction(x) for x in row] for row in tableau]
    lp_oracle._pivot(rational, [Fraction(0)] * len(tableau[0]), r, c)
    for got, want in zip(ints, rational):
        k = next((k for k, x in enumerate(want) if x), None)
        if k is None:
            assert not any(got)
            continue
        factor = got[k] / want[k]
        assert factor > 0
        assert got == [factor * x for x in want]
