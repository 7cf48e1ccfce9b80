"""Exact linear algebra and LP feasibility over the rationals, on integer rows.

The simplex here only ever answers feasibility questions (phase I with
Bland's rule), which is all the cone and resonance computations need, and
`gauss_solve` returns only the particular solution, free variables 0, which
is all Weyl membership and the semigroup search read.

Both solvers work fraction-free (Bareiss 1968, Edmonds 1967).  Each input
row is cleared by the least positive integer that makes it integral
(`_cleared`, which clears denominators for the whole package); each
elimination step `row <- p * row - f * pivot_row` then divides the row by
its content, and rationals appear only when an answer is read out.
Entries may be `int` or `Fraction`.

The simplex keeps dense rows, and `_pivot` serves only it.  It keeps every
working row a *positive* integer multiple of the rational row that textbook
Gauss-Jordan with divided pivot rows would hold: a pivot first negates its
row if the pivot entry is negative, so p > 0.  Positive multiples leave
every zero test, sign test, Bland choice and ratio tie as they are over Q,
so the pivot sequence, and with it the vertex returned, is that of the
rational algorithm, read out as `Fraction(b_i, row_i[basic])`.

`gauss_solve` takes sparse rows, eliminates forward on the nonzeros only and
substitutes back; its lemma says why that is the Gauss-Jordan answer.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Optional, Sequence

ZERO = Fraction(0)


def gauss_solve(
    rows: Sequence[Mapping[int, Fraction]], rhs: Sequence[Fraction], ncols: int
) -> Optional[list[Fraction]]:
    """The particular solution of rows @ x = rhs over Q, each free variable 0,
    or None if inconsistent.

    Row i maps a column in range(ncols) to its entry (zero entries are
    dropped; the rows are not changed).  Each row is cleared once, its right
    side under the key ncols.  Elimination runs forward: the pivot for
    column c is the first remaining row that holds c, and only the remaining
    rows that hold c become p·row - f·prow, less the entries that cancel,
    divided by the content.  Then the pivot rows are read back, last first.

    Lemma: the pivot columns are the columns of M outside the span of the
    columns before them, a property of M, not of the elimination (row
    operations keep every relation among the columns, and at column c the
    remaining rows vanish on the earlier ones).  With the free variables 0,
    the triangular pivot rows fix every pivot variable.  So the answer and
    the verdict are exactly those of the Gauss-Jordan route, in any row order.
    """
    rest: list[dict[int, int]] = []
    for row, b in zip(rows, rhs):
        work = {c: x for c, x in zip([*row, ncols], _cleared([*row.values(), b])[0]) if x}
        if work:
            rest.append(work)
    pivots: list[tuple[int, dict[int, int]]] = []
    for c in range(ncols):
        if not rest:
            break
        at = next((i for i, row in enumerate(rest) if c in row), None)
        if at is None:
            continue
        prow = rest.pop(at)
        pivots.append((c, prow))
        p = prow[c]
        kept = rest[:at]  # the rows above the pivot row do not hold c
        for row in rest[at:]:
            f = row.get(c)
            if f is not None:
                row = {j: p * x for j, x in row.items()}
                for j, y in prow.items():
                    x = row.get(j, 0) - f * y
                    if x:
                        row[j] = x
                    else:
                        del row[j]
                g = gcd(*row.values())
                if g > 1:
                    row = {j: x // g for j, x in row.items()}
            if row:
                kept.append(row)
        rest = kept
    if rest:
        return None  # every column is eliminated, so each row left is 0 = b != 0
    # The right side is the variable ncols, fixed at -1, so each pivot row
    # reads row[c]·x_c = -(the sum of its other terms).
    x = [ZERO] * ncols + [Fraction(-1)]
    for c, prow in reversed(pivots):
        p = prow.pop(c)
        live = [j for j in prow if x[j]]
        nums, den = _cleared([x[j] for j in live])
        x[c] = Fraction(-sum(prow[j] * v for j, v in zip(live, nums)), den * p)
    x.pop()
    return x


def feasible_point(
    eq_rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
    nonneg: Sequence[bool],
) -> Optional[list[Fraction]]:
    """A rational x with eq_rows @ x = rhs and x_i >= 0 where flagged, or None.

    Free variables are split into differences of nonnegative ones and the
    resulting standard-form system is handled by a phase-I simplex.
    """
    m = len(eq_rows)
    n = len(nonneg)
    cols: list[tuple[int, int]] = []  # (original var, sign)
    for j in range(n):
        cols.append((j, 1))
        if not nonneg[j]:
            cols.append((j, -1))
    tab = []
    for i in range(m):
        cleared, scale = _cleared([*(eq_rows[i][j] for j in range(n)), rhs[i]])
        sign = -1 if cleared[n] < 0 else 1
        row = [sign * s * cleared[j] for j, s in cols]
        # This row is `scale` times the rational row, whose artificial entry is 1.
        row += [scale if a == i else 0 for a in range(m)]
        tab.append(row + [sign * cleared[n]])
    sol = _phase_one(tab, len(cols))
    if sol is None:
        return None
    x = [ZERO] * n
    for (j, s), v in zip(cols, sol):
        x[j] += s * v
    return x


def _phase_one(rows: list[list[int]], n: int) -> Optional[list[Fraction]]:
    """Minimize the sum of artificials over integer rows [a_1..a_n | art | b], b >= 0.

    Row i is L_i times its rational row, so its artificial entry is L_i.  The
    objective -sum (lcm / L_i) * row_i is then lcm times the rational
    reduced-cost row; it rides along as the last row of the tableau.
    """
    m = len(rows)
    width = n + m + 1
    top = lcm(*(row[n + i] for i, row in enumerate(rows)))
    weights = [top // row[n + i] for i, row in enumerate(rows)]
    obj = [-sum(w * row[k] for w, row in zip(weights, rows)) for k in range(width)]
    obj[n : n + m] = [0] * m
    rows.append(obj)
    basis = [n + i for i in range(m)]
    while True:
        obj = rows[m]
        enter = next((j for j in range(n + m) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(m):
            a = rows[i][enter]
            if a > 0:
                b = rows[i][-1]
                # b / a < best_b / best_a, both denominators positive
                if leave is None or b * best_a < best_b * a or (
                    b * best_a == best_b * a and basis[i] < basis[leave]
                ):
                    best_a, best_b = a, b
                    leave = i
        if leave is None:
            # Unbounded phase-I objective cannot happen (bounded below by 0).
            return None
        _pivot(rows, leave, enter)
        basis[leave] = enter
    if rows[m][-1] != 0:
        return None
    # An artificial still basic holds 0; pivoting it out would read the same x.
    x = [ZERO] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = Fraction(rows[i][-1], rows[i][bi])
    return x


def _pivot(rows: list[list[int]], r: int, c: int) -> None:
    """Pivot on rows[r][c] != 0, keeping each row a positive multiple of its rational row."""
    prow = rows[r]
    if prow[c] < 0:
        prow = rows[r] = [-x for x in prow]
    p = prow[c]
    for i, row in enumerate(rows):
        f = row[c]
        if i == r or f == 0:
            continue
        new = [p * x - f * y for x, y in zip(row, prow)]
        g = gcd(*new)
        rows[i] = [x // g for x in new] if g > 1 else new


def _cleared(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """(L * values, L) for the least positive integer L that makes them integers."""
    scale = lcm(*(x.denominator for x in values))
    return [x.numerator * (scale // x.denominator) for x in values], scale
