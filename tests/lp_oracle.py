"""The `Fraction` simplex and Gauss-Jordan route, kept as an independent oracle.

These are `gauss_solve`, `feasible_point`, `_phase_one` and `_pivot` as they
were before `gkzkit.lp` moved to integer rows: every entry is a `Fraction`
and every pivot divides the pivot row.  The integer kernel must return
exactly what these return, since both make the same zero tests, sign tests,
Bland choices and ratio ties.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

Row = list[Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


def gauss_solve(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> Optional[tuple[list[Fraction], list[list[Fraction]]]]:
    """Solve rows @ x = rhs over Q.

    Returns (particular solution, nullspace basis) or None if inconsistent.
    A 0 x k system is consistent with particular solution 0.
    """
    m = len(rows)
    if m == 0:
        return [], []
    ncols = len(rows[0])
    aug = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        pv = aug[r][c]
        # 0 / pv and x - f * 0 need no new Fraction: zero entries are left alone.
        aug[r] = [x / pv if x else x for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y if y else x for x, y in zip(aug[i], aug[r])]
        pivots.append((r, c))
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][ncols] != 0:
            return None
    particular = [ZERO] * ncols
    for pr, pc in pivots:
        particular[pc] = aug[pr][ncols]
    pivot_cols = {pc for _, pc in pivots}
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec = [ZERO] * ncols
        vec[free] = ONE
        for pr, pc in pivots:
            vec[pc] = -aug[pr][free]
        basis.append(vec)
    return particular, basis


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
    cols: list[tuple[int, Fraction]] = []  # (original var, sign)
    for j in range(n):
        cols.append((j, ONE))
        if not nonneg[j]:
            cols.append((j, -ONE))
    tab = []
    for i in range(m):
        row = [Fraction(eq_rows[i][j]) * s for j, s in cols]
        b = Fraction(rhs[i])
        if b < 0:
            row = [-x for x in row]
            b = -b
        tab.append(row + [b])
    sol = _phase_one(tab, len(cols))
    if sol is None:
        return None
    x = [ZERO] * n
    for (j, s), v in zip(cols, sol):
        x[j] += s * v
    return x


def _phase_one(tab: list[Row], n: int) -> Optional[list[Fraction]]:
    """Minimize the sum of artificials for tab (rows [a_1..a_n | b], b >= 0)."""
    m = len(tab)
    width = n + m + 1
    rows = []
    for i, row in enumerate(tab):
        art = [ONE if k == i else ZERO for k in range(m)]
        rows.append(row[:n] + art + [row[n]])
    basis = [n + i for i in range(m)]
    # objective row: minimize sum of artificials, expressed in reduced costs
    obj = [ZERO] * width
    for row in rows:
        obj = [o - x for o, x in zip(obj, row)]
    for k in range(n, n + m):
        obj[k] = ZERO
    while True:
        enter = next((j for j in range(n + m) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            a = rows[i][enter]
            if a > 0:
                ratio = rows[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            # Unbounded phase-I objective cannot happen (bounded below by 0).
            return None
        _pivot(rows, obj, leave, enter)
        basis[leave] = enter
    if obj[-1] != 0:
        return None
    # Drive any artificial still in the basis out (its value is 0 here).
    for i in range(m):
        if basis[i] >= n:
            enter = next((j for j in range(n) if rows[i][j] != 0), None)
            if enter is not None:
                _pivot(rows, obj, i, enter)
                basis[i] = enter
    x = [ZERO] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = rows[i][-1]
    return x


def _pivot(rows: list[Row], obj: Row, r: int, c: int) -> None:
    pv = rows[r][c]
    rows[r] = [x / pv for x in rows[r]]
    for i in range(len(rows)):
        if i != r and rows[i][c] != 0:
            f = rows[i][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
    if obj[c] != 0:
        f = obj[c]
        for k in range(len(obj)):
            obj[k] -= f * rows[r][k]

