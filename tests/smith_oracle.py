"""The Smith form with a `_Tracked` accumulator class, kept as an oracle.

These are `_Tracked` and `_smith_tracked` of `gkzkit.intlinalg` as they were
before the accumulators became plain lists: each row or column operation on
the working matrix is paired with its inverse on C (kept as is) or on M.
The plain-list routine must return exactly the C, M, diagonal and rank that
these return, since it makes the same operations in the same order.
"""

from __future__ import annotations

from gkzkit.intlinalg import IntMatrix


class _Tracked:
    """Mutable matrix with unimodular accumulators: C @ work @ M == original."""

    def __init__(self, m: IntMatrix):
        self.work = [list(row) for row in m.rows]
        self.d = m.d
        self.n = m.n
        self.C = [[1 if i == j else 0 for j in range(m.d)] for i in range(m.d)]
        self.M = [[1 if i == j else 0 for j in range(m.n)] for i in range(m.n)]

    # Row operations act as work <- E @ work, so C <- C @ E^-1.
    def swap_rows(self, i, k):
        if i == k:
            return
        self.work[i], self.work[k] = self.work[k], self.work[i]
        for row in self.C:
            row[i], row[k] = row[k], row[i]

    def add_row(self, i, k, q):
        """row_i += q * row_k on the working matrix."""
        if q == 0:
            return
        wi, wk = self.work[i], self.work[k]
        for c in range(self.n):
            wi[c] += q * wk[c]
        for row in self.C:
            row[k] -= q * row[i]

    def negate_row(self, i):
        self.work[i] = [-x for x in self.work[i]]
        for row in self.C:
            row[i] = -row[i]

    # Column operations act as work <- work @ E, so M <- E^-1 @ M.
    def swap_cols(self, i, k):
        if i == k:
            return
        for row in self.work:
            row[i], row[k] = row[k], row[i]
        self.M[i], self.M[k] = self.M[k], self.M[i]

    def add_col(self, i, k, q):
        """col_i += q * col_k on the working matrix."""
        if q == 0:
            return
        for row in self.work:
            row[i] += q * row[k]
        mk, mi = self.M[k], self.M[i]
        for c in range(self.n):
            mk[c] -= q * mi[c]


def _smith_tracked(m: IntMatrix) -> tuple[_Tracked, list[int], int]:
    """Reduce to Smith form with accumulators; returns (tracker, diag, rank)."""
    t = _Tracked(m)
    d, n = t.d, t.n
    k = min(d, n)
    for p in range(k):
        while True:
            # Locate a pivot of minimal absolute value in the trailing block.
            best = None
            for i in range(p, d):
                for j in range(p, n):
                    x = t.work[i][j]
                    if x != 0 and (best is None or abs(x) < abs(best[2])):
                        best = (i, j, x)
            if best is None:
                break
            i, j, _ = best
            t.swap_rows(p, i)
            t.swap_cols(p, j)
            pivot = t.work[p][p]
            dirty = False
            for i in range(p + 1, d):
                q = t.work[i][p] // pivot
                t.add_row(i, p, -q)
                if t.work[i][p] != 0:
                    dirty = True
            for j in range(p + 1, n):
                q = t.work[p][j] // pivot
                t.add_col(j, p, -q)
                if t.work[p][j] != 0:
                    dirty = True
            if dirty:
                continue
            # Pivot must divide every remaining entry for the divisor chain.
            offender = None
            for i in range(p + 1, d):
                for j in range(p + 1, n):
                    if t.work[i][j] % pivot != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            t.add_row(p, offender, 1)
        if t.work[p][p] == 0:
            break
        if t.work[p][p] < 0:
            t.negate_row(p)
    diag = [t.work[p][p] for p in range(k)]
    rank = sum(1 for x in diag if x != 0)
    return t, diag, rank
