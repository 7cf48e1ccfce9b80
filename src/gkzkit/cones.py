"""Geometry of the cone R+A and the affine semigroup NA.

Column indices in faces and in the `j` arguments are 1-based, matching the
generator labels a_1..a_n.  The face lattice is found combinatorially: the
facets come from kernels of independent column subsets, checked by sign,
and the faces are their intersections.  One phase-I LP per face then finds
its supporting functional, so the LP count is the number of faces, not 2^n;
enumeration stays capped at n <= 12.  The dimension of a face is its column
count minus the nullity that `lp.gauss_solve` returns for those columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import lcm
from typing import Optional, Sequence

from .errors import NotFullDimensional, NotFullLattice, NotPointed, SearchBoundError, TooManyColumns
from .intlinalg import IntMatrix, checked_vector, primitive_vector, vec_sub
from .lp import feasible_point, gauss_solve

MAX_FACE_COLUMNS = 12


@dataclass(frozen=True)
class Face:
    """A face of R+A: the columns annihilated by a supporting functional.

    The certificate satisfies phi . a_i = 0 for i in the face and > 0 off it;
    dim is the rank of the linear span of the face columns.
    """

    columns: frozenset[int]
    certificate: tuple[Fraction, ...]
    dim: int

    def sorted_columns(self) -> tuple[int, ...]:
        return tuple(sorted(self.columns))


@dataclass(frozen=True)
class FaceLattice:
    faces: tuple[Face, ...]
    proper_faces: tuple[Face, ...]
    improper: Face
    minimal: Face
    pointed: bool


@dataclass(frozen=True)
class SupportFunction:
    """Primitive integral functional vanishing on a facet, >= 0 on all columns."""

    facet: Face
    functional: tuple[int, ...]

    def __call__(self, v: Sequence) -> Fraction:
        return sum(Fraction(a) * Fraction(x) for a, x in zip(self.functional, v))


def _face_certificate(a: IntMatrix, subset: frozenset[int]) -> Optional[tuple[Fraction, ...]]:
    """phi with phi.a_i = 0 on the subset, phi.a_j >= 1 off it (scale-invariant strictness)."""
    off = [j for j in range(1, a.n + 1) if j not in subset]
    eq = []
    rhs = []
    for j in range(1, a.n + 1):
        row = [*a.column(j - 1)] + [0] * len(off)  # phi free, then one slack per j off
        if j in subset:
            rhs.append(0)
        else:
            row[a.d + off.index(j)] = -1  # phi.a_j - s_j = 1
            rhs.append(1)
        eq.append(row)
    nonneg = [False] * a.d + [True] * len(off)
    sol = feasible_point(eq, rhs, nonneg)
    if sol is None:
        return None
    return tuple(sol[: a.d])


def _span_dim(a: IntMatrix, cols: Sequence[int]) -> int:
    """Dimension of the span of the given 1-based columns: count minus nullity."""
    rows = [[a.entry(i, j - 1) for j in cols] for i in range(a.d)]
    return len(cols) - len(gauss_solve(rows, [0] * a.d)[1])


def _facets(a: IntMatrix, rank: int) -> set[frozenset[int]]:
    """Column sets of the facets of R+A, for a cone of dimension rank >= 1.

    A facet spans a hyperplane of span(A), so it holds rank - 1 independent
    columns.  Their annihilator in span(A) is a line; it supports the cone
    exactly when its values on the columns all have one sign, and the facet
    is then the set of columns where it vanishes.
    """
    cols = a.columns()
    identity = [[int(i == k) for k in range(a.d)] for i in range(a.d)]
    facets = set()
    for subset in combinations(range(a.n), rank - 1):
        rows = [cols[j] for j in subset]
        kernel = gauss_solve(rows, [0] * len(rows))[1] if rows else identity
        if len(kernel) != a.d - len(rows):
            continue  # dependent columns span less than a hyperplane
        # The kernel is one dimension larger than the annihilator of span(A),
        # so some basis vector takes a nonzero value on a column.
        for phi in kernel:
            values = [sum(p * x for p, x in zip(phi, col)) for col in cols]
            if any(values):
                break
        if all(v >= 0 for v in values) or all(v <= 0 for v in values):
            facets.add(frozenset(j + 1 for j, v in enumerate(values) if v == 0))
    return facets


@lru_cache(maxsize=None)
def face_lattice(a: IntMatrix) -> FaceLattice:
    """All faces of R+A, each with a validated supporting functional.

    The faces are the full column set and every intersection of facets (a
    cone with no facets is a linear space, its only face the full set).  Each
    is certified by one LP, and they come ordered by (size, sorted columns).
    """
    if a.n > MAX_FACE_COLUMNS:
        raise TooManyColumns(f"face enumeration capped at {MAX_FACE_COLUMNS} columns")
    rank = _span_dim(a, range(1, a.n + 1))
    subsets = {frozenset(range(1, a.n + 1))}
    for facet in _facets(a, rank) if rank else ():
        subsets |= {facet & g for g in subsets}
    faces = []
    for subset in sorted(subsets, key=lambda s: (len(s), sorted(s))):
        cert = _face_certificate(a, subset)
        if cert is None:
            raise AssertionError(f"no supporting functional for face {sorted(subset)}")
        dim = _span_dim(a, sorted(subset))
        faces.append(Face(columns=subset, certificate=cert, dim=dim))
    return FaceLattice(
        faces=tuple(faces),
        proper_faces=tuple(faces[:-1]),
        improper=faces[-1],
        minimal=faces[0],
        pointed=(faces[0].dim == 0),
    )


def positive_functional(a: IntMatrix) -> tuple[int, ...]:
    """Integer phi with phi . a_j >= 1 for every nonzero column; requires a pointed cone."""
    lat = face_lattice(a)
    if not lat.pointed:
        raise NotPointed("cone has a nonzero lineality space")
    cert = lat.minimal.certificate
    den = lcm(*(q.denominator for q in cert))
    # Clearing denominators keeps phi . a_j >= 1 on every nonzero column.
    return tuple(int(q * den) for q in cert)


@lru_cache(maxsize=None)
def positive_grading(a: IntMatrix) -> Optional[tuple[int, ...]]:
    """Integer column weights w_i = phi . a_i >= 1, or None if there are none.

    phi is the certificate of the empty face, cleared of denominators: one
    phase-I LP, without the face lattice.  It is infeasible exactly when
    the cone is not pointed or a column is zero.
    """
    cert = _face_certificate(a, frozenset())
    if cert is None:
        return None
    den = lcm(*(q.denominator for q in cert))
    phi = [int(q * den) for q in cert]
    return tuple(sum(p * x for p, x in zip(phi, col)) for col in a.columns())


def support_functions(a: IntMatrix) -> list[SupportFunction]:
    """One primitive integral support function per facet of the cone."""
    if not a.spans_lattice:
        raise NotFullLattice("columns must generate the full lattice Z^d")
    lat = face_lattice(a)
    if lat.improper.dim < a.d:
        raise NotFullDimensional("cone is not full-dimensional")
    out = []
    for face in lat.proper_faces:
        if face.dim != a.d - 1:
            continue
        den = lcm(*(q.denominator for q in face.certificate))
        vec = primitive_vector(tuple(int(q * den) for q in face.certificate))
        out.append(SupportFunction(facet=face, functional=vec))
    out.sort(key=lambda s: s.functional)
    return out


def saturation_contains(a: IntMatrix, b: Sequence) -> bool:
    """Membership of a rational point b in the rational cone Q+A."""
    return cone_witness(a, b) is not None


def cone_witness(a: IntMatrix, b: Sequence) -> Optional[list[Fraction]]:
    """x >= 0 over Q with A x = b, or None."""
    rhs = checked_vector(b, a.d, "point")
    return feasible_point(a.rows, rhs, [True] * a.n)


def semigroup_contains(a: IntMatrix, b: Sequence[int]) -> bool:
    return semigroup_witness(a, b) is not None


def semigroup_witness(a: IntMatrix, b: Sequence[int]) -> Optional[tuple[int, ...]]:
    """x in N^n with A x = b, or None.  Requires NA pointed.

    A non-integral b is never in NA and gets None.  Depth-first search over
    column subtractions, memoized; the functional from the face lattice is
    positive on every nonzero column and bounds the recursion.  Zero columns
    (weight 0) never change the point, so the search skips them.  A point
    deeper than the interpreter's recursion limit raises SearchBoundError.
    """
    point = checked_vector(b, a.d, "point")
    phi = positive_functional(a)
    if any(x.denominator != 1 for x in point):
        return None
    target = tuple(int(x) for x in point)
    cols = a.columns()
    weights = [sum(p * c for p, c in zip(phi, col)) for col in cols]
    steps = [j for j in range(a.n) if weights[j] > 0]
    memo: dict[tuple[int, ...], Optional[tuple[int, ...]]] = {}

    def search(v: tuple[int, ...]) -> Optional[tuple[int, ...]]:
        if all(x == 0 for x in v):
            return (0,) * a.n
        if v in memo:
            return memo[v]
        height = sum(p * x for p, x in zip(phi, v))
        found = None
        for j in steps:
            if weights[j] > height:
                continue
            rest = search(vec_sub(v, cols[j]))
            if rest is not None:
                sol = list(rest)
                sol[j] += 1
                found = tuple(sol)
                break
        memo[v] = found
        return found

    try:
        return search(target)
    except RecursionError:
        raise SearchBoundError("membership search exceeded the recursion depth") from None


def extreme_rays(a: IntMatrix) -> list[tuple[int, ...]]:
    """Primitive generators of the one-dimensional faces of a pointed cone.

    For a one-dimensional cone the ray is the improper face, so the scan
    covers the whole lattice, not just the proper part.  Zero columns lie in
    every face, so each ray is read off the face's smallest nonzero column.
    """
    lat = face_lattice(a)
    if not lat.pointed:
        raise NotPointed("extreme rays are only computed for pointed cones")
    rays = set()
    for face in lat.faces:
        if face.dim != 1:
            continue
        j = min(j for j in face.columns if any(a.column(j - 1)))
        rays.add(primitive_vector(a.column(j - 1)))
    return sorted(rays)


def is_saturated(a: IntMatrix) -> bool:
    """Whether NA equals Q+A intersected with Z^d.

    Every Hilbert-basis element of the cone lies in the zonotope spanned by
    the primitive extreme rays, so checking all lattice points of the
    zonotope's bounding box that lie in the cone is conclusive.  A pointed
    cone is cut out of span(A) by its facet certificates, so a box point is
    tested by signs of dot products (and, when A spans less than Q^d, by the
    normals of span(A) from one `gauss_solve`), with no LP per point.
    """
    lat = face_lattice(a)
    if not lat.pointed:
        raise NotPointed("saturation test requires a pointed semigroup")
    rays = extreme_rays(a)
    if not rays:
        return True
    rank = lat.improper.dim
    facets = [f.certificate for f in lat.proper_faces if f.dim == rank - 1]
    normals = gauss_solve(a.columns(), [0] * a.n)[1] if rank < a.d else []
    lo = [sum(min(0, r[i]) for r in rays) for i in range(a.d)]
    hi = [sum(max(0, r[i]) for r in rays) for i in range(a.d)]
    for point in product(*(range(l, h + 1) for l, h in zip(lo, hi))):
        if any(sum(y * x for y, x in zip(normal, point)) != 0 for normal in normals):
            continue
        if any(sum(p * x for p, x in zip(phi, point)) < 0 for phi in facets):
            continue
        if not semigroup_contains(a, point):
            return False
    return True


def interior_contains(a: IntMatrix, b: Sequence) -> bool:
    """Membership of b in the interior of R+A (full-dimensional cones only).

    A full-dimensional cone is cut out by its facet inequalities, so strict
    positivity on every support function characterizes the interior; with no
    proper facets the cone is the whole space.
    """
    return all(s(b) > 0 for s in support_functions(a))

