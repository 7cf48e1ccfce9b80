"""Exact integer linear algebra: matrices, Smith/Hermite forms, lattice kernels.

Everything works on arbitrary-precision Python ints.  Matrices are immutable
(tuples of row tuples) so they can be hashed and used as cache keys.

Each normal form has its own job.  The Hermite form answers the lattice
questions: ker_Z(m) is read off the HNF of [m^T | I_n] (`lattice_kernel`),
and the homogeneity vector off the HNF of the kernel of [-1 | A^T]
(`homogeneity_vector`).  A lattice has one HNF, so both answers are
canonical.  The Smith form gives the factorization B = C D A
(`smith_decompose`) and the elementary divisors, whose count is the rank
(`elementary_divisors`, the library's one rank).  Its reduction keeps M and
the transpose of C as plain lists, so both take only row operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import add, sub
from typing import Iterable, Optional, Sequence

from .errors import ParseError, RankDeficient


@dataclass(frozen=True)
class IntMatrix:
    """A d x n integer matrix whose columns are the generators a_1..a_n."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.rows or not self.rows[0]:
            raise ParseError("matrix must have at least one row and one column")
        width = len(self.rows[0])
        for row in self.rows:
            if len(row) != width:
                raise ParseError("ragged matrix rows")
            for x in row:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise ParseError("matrix entries must be integers")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "IntMatrix":
        return cls(tuple(tuple(int(x) for x in row) for row in rows))

    @classmethod
    def identity(cls, k: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k)))

    @property
    def d(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0])

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.rows)

    def columns(self) -> list[tuple[int, ...]]:
        return [self.column(j) for j in range(self.n)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.rows)))

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.n != other.d:
            raise ParseError("dimension mismatch in matrix product")
        cols = other.transpose().rows
        return IntMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.rows
            )
        )

    def mul_vec(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.n:
            raise ParseError("dimension mismatch in matrix-vector product")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.rows)

    def column_sum(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.rows)

    @property
    def spans_lattice(self) -> bool:
        """True iff the columns generate the full lattice Z^d."""
        return elementary_divisors(self) == (1,) * self.d

    def __str__(self) -> str:
        return "; ".join(" ".join(str(x) for x in row) for row in self.rows)


def parse_matrix(text: str) -> IntMatrix:
    """Parse '3 2 0; 1 1 1' or the same with newlines as row separators."""
    text = text.replace(";", "\n")
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            rows.append([int(tok) for tok in line.split()])
        except ValueError as exc:
            raise ParseError(f"bad matrix row {line!r}") from exc
    if not rows:
        raise ParseError("empty matrix")
    return IntMatrix.from_rows(rows)


def parse_fraction(tok: str) -> Fraction:
    try:
        return Fraction(tok.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {tok!r}") from exc


def parse_rational_vector(text: str) -> tuple[Fraction, ...]:
    toks = [t for t in text.replace(",", " ").split() if t]
    if not toks:
        raise ParseError("empty rational vector")
    return tuple(parse_fraction(t) for t in toks)


def parse_integer_vector(text: str) -> tuple[int, ...]:
    """An integer vector; a non-integer entry is a parse error, not truncated."""
    vec = parse_rational_vector(text)
    if any(x.denominator != 1 for x in vec):
        raise ParseError(f"non-integer entry in {text!r}")
    return tuple(int(x) for x in vec)


def checked_vector(values: Sequence, d: int, what: str) -> tuple[Fraction, ...]:
    """values as exact rationals; a float, a bad string or a length other than d is a parse error."""
    for x in values:
        if isinstance(x, float):
            raise ParseError(f"{what} entry {x!r} is a float; give an int, a Fraction or a string")
    vec = tuple(parse_fraction(x) if isinstance(x, str) else Fraction(x) for x in values)
    if len(vec) != d:
        raise ParseError(f"{what} has length {len(vec)}, but the matrix has {d} rows")
    return vec


def checked_integer_vector(values: Sequence, d: int, what: str) -> tuple[int, ...]:
    """`checked_vector` with every entry an integer; a non-integer entry is a parse error."""
    vec = checked_vector(values, d, what)
    for x in vec:
        if x.denominator != 1:
            raise ParseError(f"{what} entry {x} is not an integer")
    return tuple(int(x) for x in vec)


def format_fraction(q: Fraction) -> str:
    return str(Fraction(q))


def vec_add(a: Sequence, b: Sequence) -> tuple:
    return tuple(map(add, a, b))


def vec_sub(a: Sequence, b: Sequence) -> tuple:
    return tuple(map(sub, a, b))


def _add(rows: list[list[int]], i: int, k: int, q: int) -> None:
    """rows[i] += q * rows[k]."""
    ri, rk = rows[i], rows[k]
    for c in range(len(ri)):
        ri[c] += q * rk[c]


def _smith_tracked(m: IntMatrix) -> tuple[list[tuple[int, ...]], list[list[int]], list[int], int]:
    """Reduce m to Smith form; returns (C, M, diag, rank) with C diag M == m.

    Each step on work is undone on an accumulator: a row step row_i += q row_k
    (C <- C E^-1) as ct row_k -= q ct row_i, ct = C^T kept as rows, and a
    column step col_i += q col_k (M <- E^-1 M) as M row_k -= q M row_i."""
    d, n = m.d, m.n
    work = [list(row) for row in m.rows]
    ct = [[int(i == j) for j in range(d)] for i in range(d)]
    acc = [[int(i == j) for j in range(n)] for i in range(n)]
    k = min(d, n)
    for p in range(k):
        while True:
            # Locate a pivot of minimal absolute value in the trailing block.
            best = None
            for i in range(p, d):
                for j in range(p, n):
                    x = work[i][j]
                    if x != 0 and (best is None or abs(x) < abs(best[2])):
                        best = (i, j, x)
            if best is None:
                break
            i, j, _ = best
            work[p], work[i] = work[i], work[p]
            ct[p], ct[i] = ct[i], ct[p]
            for row in work:
                row[p], row[j] = row[j], row[p]
            acc[p], acc[j] = acc[j], acc[p]
            pivot = work[p][p]
            dirty = False
            for i in range(p + 1, d):
                q = work[i][p] // pivot
                if q != 0:
                    _add(work, i, p, -q)
                    _add(ct, p, i, q)
                if work[i][p] != 0:
                    dirty = True
            for j in range(p + 1, n):
                q = work[p][j] // pivot
                if q != 0:
                    for row in work:
                        row[j] -= q * row[p]
                    _add(acc, p, j, q)
                if work[p][j] != 0:
                    dirty = True
            if dirty:
                continue
            # Pivot must divide every remaining entry for the divisor chain.
            offender = None
            for i in range(p + 1, d):
                for j in range(p + 1, n):
                    if work[i][j] % pivot != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            _add(work, p, offender, 1)
            _add(ct, offender, p, -1)
        if work[p][p] == 0:
            break
        if work[p][p] < 0:
            work[p] = [-x for x in work[p]]
            ct[p] = [-x for x in ct[p]]
    diag = [work[p][p] for p in range(k)]
    rank = sum(1 for x in diag if x != 0)
    return list(zip(*ct)), acc, diag, rank


@dataclass(frozen=True)
class SmithDecomposition:
    """B = C @ D1 @ D2 @ M with C, M unimodular and D1 = diag(e)."""

    C: IntMatrix
    D1: IntMatrix
    D2: IntMatrix
    M: IntMatrix
    e: tuple[int, ...]

    def product(self) -> IntMatrix:
        return self.C.mul(self.D1).mul(self.D2).mul(self.M)

    @property
    def A(self) -> IntMatrix:
        """The lattice-spanning part D2 @ M of the factorization."""
        return self.D2.mul(self.M)


def smith_decompose(b: IntMatrix) -> SmithDecomposition:
    """Smith factorization of a matrix with full row rank over Q."""
    C, M, diag, rank = _smith_tracked(b)
    if rank < b.d:
        raise RankDeficient(f"rank {rank} < {b.d}: columns do not span Q^d")
    D1 = IntMatrix.from_rows(
        [[diag[i] if i == j else 0 for j in range(b.d)] for i in range(b.d)]
    )
    D2 = IntMatrix(IntMatrix.identity(b.n).rows[: b.d])
    return SmithDecomposition(C=IntMatrix.from_rows(C), D1=D1, D2=D2, M=IntMatrix.from_rows(M), e=tuple(diag))


@lru_cache(maxsize=None)
def elementary_divisors(m: IntMatrix) -> tuple[int, ...]:
    """Diagonal of the Smith form, zeros trimmed (length = rank)."""
    *_, diag, rank = _smith_tracked(m)
    return tuple(diag[:rank])


def hermite_normal_form(m: IntMatrix) -> IntMatrix:
    """Row-style HNF: positive pivots, entries above pivots reduced to [0, pivot)."""
    rows = [list(r) for r in m.rows]
    nrows, ncols = len(rows), len(rows[0])
    pivot_row = 0
    for col in range(ncols):
        # gcd out the column below pivot_row
        while True:
            nz = [i for i in range(pivot_row, nrows) if rows[i][col] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda i: abs(rows[i][col]))
            i0 = nz[0]
            for i in nz[1:]:
                q = rows[i][col] // rows[i0][col]
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[i0])]
        if not nz:  # the loop above leaves at most one row with a nonzero in col
            continue
        i0 = nz[0]
        rows[pivot_row], rows[i0] = rows[i0], rows[pivot_row]
        if rows[pivot_row][col] < 0:
            rows[pivot_row] = [-x for x in rows[pivot_row]]
        p = rows[pivot_row][col]
        for i in range(pivot_row):
            q = rows[i][col] // p
            rows[i] = [a - q * b for a, b in zip(rows[i], rows[pivot_row])]
        pivot_row += 1
        if pivot_row == nrows:
            break
    return IntMatrix.from_rows(rows[:pivot_row]) if pivot_row else IntMatrix.from_rows([[0] * ncols])


def _kernel_hnf(m: IntMatrix) -> list[tuple[int, ...]]:
    """The HNF of ker_Z(m) as rows; [] if the kernel is trivial.

    Row operations on [m^T | I_n] keep its row lattice {(x^T m^T, x^T)}, so
    the rows of its HNF whose m^T part is zero are a basis of the kernel, and
    their I_n part is echelon and reduced above its pivots: the kernel's HNF.
    """
    rows = tuple((*col, *(int(i == j) for j in range(m.n))) for i, col in enumerate(m.columns()))
    return [row[m.d :] for row in hermite_normal_form(IntMatrix(rows)).rows if not any(row[: m.d])]


def lattice_kernel(m: IntMatrix) -> list[tuple[int, ...]]:
    """Z-basis of ker_Z(m): its HNF, each row signed so its last nonzero entry
    is positive; [] if the kernel is trivial."""
    return [tuple(-x for x in row) if next(x for x in reversed(row) if x) < 0 else row for row in _kernel_hnf(m)]


def homogenize(a: IntMatrix) -> IntMatrix:
    """Prepend a row of ones and a column (1, 0, .., 0)."""
    top = (1,) * (a.n + 1)
    rows = [top]
    for row in a.rows:
        rows.append((0,) + row)
    return IntMatrix.from_rows(rows)


@lru_cache(maxsize=None)
def homogeneity_vector(a: IntMatrix) -> Optional[tuple[int, ...]]:
    """Integer h with h . a_i = 1 for every column, or None.

    The kernel of [-1 | A^T] is {(t, h) : A^T h = t 1}.  Its HNF starts with
    (1, h) exactly when some integer h has t = 1; the rows below are the HNF
    of the left kernel {(0, h) : A^T h = 0}, so h is the representative
    reduced to [0, pivot) at their pivots, whatever solution is found first.
    """
    kernel = _kernel_hnf(IntMatrix(tuple((-1, *col) for col in a.columns())))
    return kernel[0][1:] if kernel and kernel[0][0] == 1 else None


def signed_minors(rows: Sequence[Sequence[int]], width: int) -> tuple[int, ...]:
    """nu with nu_k = (-1)^k det(rows without column k), for width - 1 integer
    rows of length width: nu . x = det(x; rows), so nu spans the rows'
    orthogonal complement (Cramer's rule), or is 0 when they are dependent.

    Fraction-free Gauss-Jordan: each division by the last pivot is exact, and
    every pivot ends as D = s det(pivot columns), s the sign of the row swaps.
    With f the free column, x_f = D and x_c = -(row of c)_f span the kernel,
    and nu = (-1)^f s x.
    """
    m = [list(row) for row in rows]
    prev, sign, pivots, free = 1, 1, [], None
    for c in range(width):
        t = len(pivots)
        p = next((i for i in range(t, len(m)) if m[i][c]), None)
        if p is None:
            if free is not None:
                return (0,) * width  # a second free column: the rows are dependent
            free = c
            continue
        if p != t:
            m[t], m[p], sign = m[p], m[t], -sign
        pivot, row = m[t][c], m[t]
        for i in range(len(m)):
            if i != t:
                m[i] = [(pivot * x - m[i][c] * y) // prev for x, y in zip(m[i], row)]
        prev = pivot
        pivots.append(c)
    sign *= (-1) ** free
    nu = [0] * width
    nu[free] = sign * prev
    for i, c in enumerate(pivots):
        nu[c] = -sign * m[i][free]
    return tuple(nu)


def primitive_vector(v: Sequence[int]) -> tuple[int, ...]:
    """v divided by the gcd of its entries (zero vector is returned as-is)."""
    g = gcd(*v)
    return tuple(v) if g <= 1 else tuple(x // g for x in v)
