"""Exact linear algebra and LP feasibility over the rationals, on integer rows.

The simplex here only ever answers feasibility questions (phase I with
Bland's rule), which is all the cone and resonance computations need, and
`gauss_solve` returns only the particular solution, free variables 0, which
is all Weyl membership and the semigroup search read.

Both solvers work fraction-free (Bareiss 1968, Edmonds 1967).  Each input
row is cleared by the least positive integer that makes it integral, and
then every working row is kept a *positive* integer multiple of the rational
row that textbook Gauss-Jordan with divided pivot rows would hold.  A pivot
first negates its row if the pivot entry is negative, eliminates with
`row <- p * row - row[c] * pivot_row` (p > 0), and divides each changed row
by its content.  Positive multiples leave every zero test, sign test, Bland
choice and ratio tie as they are over Q, so the pivot sequence, and with it
the vertex returned, is that of the rational algorithm.  Rationals appear
only when an answer is read out, as `Fraction(b_i, row_i[basic])`.
Entries may be `int` or `Fraction`.  `_cleared` clears denominators for
the whole package.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

ZERO = Fraction(0)


def gauss_solve(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Optional[list[Fraction]]:
    """The particular solution of rows @ x = rhs over Q, each free variable 0,
    or None if inconsistent.  With no rows it is [], whatever the columns."""
    m = len(rows)
    if m == 0:
        return []
    ncols = len(rows[0])
    aug = [_cleared([*row, rhs[i]])[0] for i, row in enumerate(rows)]
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        _pivot(aug, r, c)
        pivots.append((r, c))
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][ncols] != 0:
            return None
    particular = [ZERO] * ncols
    for pr, pc in pivots:
        particular[pc] = Fraction(aug[pr][ncols], aug[pr][pc])
    return particular


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
    if m == 0:
        return [ZERO] * n
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
    # Drive any artificial still in the basis out (its value is 0 here).
    for i in range(m):
        if basis[i] >= n:
            enter = next((j for j in range(n) if rows[i][j] != 0), None)
            if enter is not None:
                _pivot(rows, i, enter)
                basis[i] = enter
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
