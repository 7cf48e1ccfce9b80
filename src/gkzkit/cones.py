"""Geometry of the cone R+A and the affine semigroup NA.

Column indices in faces and in the `j` arguments are 1-based, matching the
generator labels a_1..a_n.  The face lattice is found combinatorially: the
facets come from the signed maximal minors of rank - 1 column subsets, an
integer normal that is 0 exactly when the columns are dependent, checked by
sign (on the nonzero HNF rows of A when rank < d), and the faces are their
intersections.  A subset inside a facet already found is skipped, as it can
only find that facet again (the lemma in `_facets`).

Forced certificates.  The LP of `_face_certificate` asks for phi with
phi.a_j = 0 on a face F and phi.a_j >= 1 off it, in split form phi = phi+ -
phi- with slacks s >= 0, and phase I stops at a basic feasible solution, a
vertex (Schrijver, *Theory of Linear and Integer Programming*, section 8).
If rank A = d and F is a facet with integer normal nu, nu.a_j > 0 off F, the
feasible phi are c * nu with c >= 1 / m, m the least nu.a_j off F: one
vertex, so the LP returns nu / m.  For the improper face every right-hand
side is 0, every pivot is degenerate, and the LP returns 0.  So only the
other faces run an LP.  A face's dim is rank for the improper face, rank
being the length of A's Smith diagonal (`elementary_divisors`), and rank - 1
for a facet.  The face lattice of a cone is graded by dim, so any other face
has one less than the dim of the larger face with fewest columns: that face
covers it, since a face between the two would have fewer columns.
Membership in R+A + QF, F a face, is read off the signs of the integer
facet certificates (`cone_contains`), with no LP.

Annihilators.  The integer functionals vanishing on a column set are one
cached lattice kernel (`face_functionals`): the equations of span(A) when
rank < d, the residue index below, and lemma 3 of `resonance`.

Membership in NA is a depth-first search with one memo per matrix, for
points of the cone only, up to phi-height n * min w (w_j = phi . a_j the
column weights).  A deeper point is answered by the standard pairs (m,
sigma) of in(I_A), I_A the toric ideal under the default order.  Lemma:
the standard monomials of A-degree b span (S/I_A)_b, which is 1-dimensional
exactly when b is in NA and 0 otherwise (S/I_A is the semigroup ring of
NA).  So b is in NA exactly when b - A m lies in N A_sigma for some pair,
and then m + lambda is the unique standard monomial of degree b, whichever
pair finds it.  The columns of A_sigma are independent, since sigma is a
face of the regular triangulation of in(I_A) (Sturmfels, *Groebner Bases
and Convex Polytopes*, Thm 8.3).  Residue index: with L integral, L A_sigma
= q I, and psi = `face_functionals` of sigma, b - A m lies in Z A_sigma
exactly when b and A m have one key (L b mod q, psi b): psi puts the
difference in Q A_sigma, where L v / q is the only coefficient vector of v.
So the pairs are grouped by sigma and then by key, and b costs one product
per sigma, not one per pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, product
from operator import ge, mul
from typing import Optional, Sequence

from .errors import ColumnIndexOutOfRange, NotFullLattice, NotPointed, ParseError
from .intlinalg import IntMatrix, checked_vector, elementary_divisors, hermite_normal_form, lattice_kernel, primitive_vector, signed_minors, vec_sub
from .lp import _cleared, feasible_point, gauss_solve
from .polynomials import binomial, standard_pairs


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
        point = checked_vector(v, len(self.functional), "point")
        return sum(map(mul, self.functional, point), Fraction(0))


@lru_cache(maxsize=None)
def _face_certificate(a: IntMatrix, subset: frozenset[int]) -> Optional[tuple[Fraction, ...]]:
    """phi with phi.a_i = 0 on the subset, phi.a_j >= 1 off it (scale-invariant strictness).

    Always the LP, so it checks the certificates `face_lattice` sets without one.
    """
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


def _facets(a: IntMatrix, rank: int) -> dict[frozenset[int], Optional[tuple[Fraction, ...]]]:
    """The facets of R+A, for a cone of dimension rank >= 1: each 1-based
    column set, with its certificate when rank = d and None when rank < d.

    A facet spans a hyperplane of span(A), so it holds rank - 1 independent
    columns.  Their annihilator in span(A) is a line; it supports the cone
    exactly when its values on the columns all have one sign, and the facet
    is then the set of columns where it vanishes.  The line is spanned by
    the integer vector nu of signed maximal minors of those columns, which
    is 0 exactly when they are dependent, so the n dot products are int
    arithmetic.  When rank < d the scan runs on the rank nonzero rows of the
    HNF of A: unimodular row operations keep every linear relation among the
    columns, so the facet column sets are the same.  When rank = d, nu is
    the normal, and nu / m, m its signed least value off the facet, is the
    forced certificate of the module docstring; it does not depend on the
    scale or sign of nu.  When rank < d none is forced.

    Skip lemma: a subset inside a facet found before is not scanned.  If its
    rank - 1 columns are independent they span that facet's hyperplane, so
    they can only find that facet again; if not, they find nothing.
    """
    cols = (a if rank == a.d else hermite_normal_form(a)).columns()
    found: dict[frozenset[int], Optional[tuple[Fraction, ...]]] = {}
    for subset in combinations(range(a.n), rank - 1):
        if any(f.issuperset(subset) for f in found):
            continue
        nu = signed_minors([cols[j] for j in subset], rank)
        if not any(nu):
            continue  # dependent columns span less than a hyperplane
        values = [sum(map(mul, nu, col)) for col in cols]
        if all(v >= 0 for v in values) or all(v <= 0 for v in values):
            m = min((v for v in values if v), key=abs)  # signed, so nu / m is >= 1 off the facet
            cert = tuple(Fraction(p, m) for p in nu) if rank == a.d else None
            found[frozenset(j for j, v in enumerate(values) if v == 0)] = cert
    return {frozenset(j + 1 for j in f): cert for f, cert in found.items()}


@lru_cache(maxsize=None)
def face_lattice(a: IntMatrix) -> FaceLattice:
    """All faces of R+A, each with a validated supporting functional.

    The faces are the full column set and every intersection of facets (a
    cone with no facets is a linear space, its only face the full set).  The
    improper face, and each facet when rank A = d, take the certificate the
    LP is forced to return (the module docstring); every other face is
    certified by one LP.  They come ordered by (size, sorted columns).
    """
    rank = len(elementary_divisors(a))
    full = frozenset(range(1, a.n + 1))
    facets = _facets(a, rank) if rank else {}
    subsets = {full}
    for facet in facets:
        subsets |= {facet & g for g in subsets}
    certs = {**facets, full: (Fraction(0),) * a.d}
    dims = {**dict.fromkeys(facets, rank - 1), full: rank}
    for subset in sorted(subsets, key=len, reverse=True):
        if subset not in dims:  # a larger face of fewest columns covers it
            dims[subset] = dims[min((g for g in dims if g > subset), key=len)] - 1
    faces = []
    for subset in sorted(subsets, key=lambda s: (len(s), sorted(s))):
        cert = certs.get(subset) or _face_certificate(a, subset)
        if cert is None:
            raise AssertionError(f"no supporting functional for face {sorted(subset)}")
        faces.append(Face(columns=subset, certificate=cert, dim=dims[subset]))
    return FaceLattice(
        faces=tuple(faces),
        proper_faces=tuple(faces[:-1]),
        improper=faces[-1],
        minimal=faces[0],
        pointed=(faces[0].dim == 0),
    )


@lru_cache(maxsize=None)
def positive_grading(a: IntMatrix) -> Optional[tuple[int, ...]]:
    """Integer column weights w_i = phi . a_i >= 1, or None if there are none.

    phi is the certificate of the empty face, cleared of denominators: the
    LP `face_lattice` also asks, without the rest of the lattice.  It is
    infeasible exactly when the cone is not pointed or a column is zero.
    A nonzero single row spans a full-dimensional cone whose facets come
    with their forced certificates, so there the empty face is read off
    `_facets` with no LP (absent for mixed signs or a zero column).
    """
    if a.d == 1 and any(a.rows[0]):
        cert = _facets(a, 1).get(frozenset())
    else:
        cert = _face_certificate(a, frozenset())
    if cert is None:
        return None
    phi = _cleared(cert)[0]
    return tuple(sum(p * x for p, x in zip(phi, col)) for col in a.columns())


def support_functions(a: IntMatrix) -> list[SupportFunction]:
    """One primitive integral support function per facet of the cone."""
    if not a.spans_lattice:
        raise NotFullLattice("columns must generate the full lattice Z^d")
    out = []
    for face in face_lattice(a).proper_faces:
        if face.dim != a.d - 1:
            continue
        vec = primitive_vector(_cleared(face.certificate)[0])
        out.append(SupportFunction(facet=face, functional=vec))
    out.sort(key=lambda s: s.functional)
    return out


def _check_columns(a: IntMatrix, cols: Sequence[int]) -> None:
    for j in cols:
        if not 1 <= j <= a.n:
            raise ColumnIndexOutOfRange(f"column index {j} is not in 1..{a.n}")


@lru_cache(maxsize=None)
def face_functionals(a: IntMatrix, cols: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """A basis of the integer functionals vanishing on the 1-based cols: the lattice
    kernel of those columns as rows, after a zero row (cols may be empty)."""
    _check_columns(a, cols)
    return tuple(lattice_kernel(IntMatrix.from_rows([(0,) * a.d, *(a.column(j - 1) for j in cols)])))


@lru_cache(maxsize=None)
def _cone_inequalities(a: IntMatrix, cols: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Integer y with R+A + QF = {x : y . x >= 0 for all y}, F the smallest face
    holding the 1-based cols: the certificates of the facets that contain F,
    which cut the set out of span(A), then +-y for a basis y of the
    annihilator of span(A) (`face_functionals`), all integral."""
    _check_columns(a, cols)
    lat = face_lattice(a)
    rank = lat.improper.dim
    facets = [f for f in lat.proper_faces if f.dim == rank - 1 and f.columns.issuperset(cols)]
    normals = face_functionals(a, tuple(range(1, a.n + 1))) if rank < a.d else ()
    return (*(tuple(_cleared(f.certificate)[0]) for f in facets), *normals, *(tuple(-x for x in y) for y in normals))


def cone_contains(a: IntMatrix, v: Sequence, cols: Sequence[int] = (), strict: bool = False) -> bool:
    """Whether v lies in R+A + QF (F the smallest face holding the 1-based
    cols), by the signs of integer dot products.  With strict, whether all
    are > 0: for a full-dimensional cone and no cols, the interior of R+A."""
    if len(v) != a.d:
        raise ParseError(f"point has length {len(v)}, but the matrix has {a.d} rows")
    dots = (sum(p * x for p, x in zip(y, v)) for y in _cone_inequalities(a, tuple(cols)))
    return all(s > 0 for s in dots) if strict else all(s >= 0 for s in dots)


def saturation_contains(a: IntMatrix, b: Sequence) -> bool:
    """Membership of a rational point b in the rational cone Q+A, by facet signs."""
    return cone_contains(a, checked_vector(b, a.d, "point"))


def cone_witness(a: IntMatrix, b: Sequence) -> Optional[list[Fraction]]:
    """x >= 0 over Q with A x = b, or None."""
    rhs = checked_vector(b, a.d, "point")
    return feasible_point(a.rows, rhs, [True] * a.n)


def semigroup_contains(a: IntMatrix, b: Sequence[int]) -> bool:
    return semigroup_witness(a, b) is not None


class _Semigroup:
    """The NA-membership search on one matrix, with one memo for all its calls.

    phi, the minimal face's certificate cleared of denominators, is >= 1 on
    every nonzero column of a pointed cone, so the weights w_j = phi . a_j
    bound the search; zero columns (weight 0) never change the point and are
    not steps.  memo maps each point searched to its depth-first witness, or
    None; that witness is a pure function of the point, so sharing the memo
    across calls never changes an answer.
    """

    def __init__(self, a: IntMatrix):
        lat = face_lattice(a)
        if not lat.pointed:
            raise NotPointed("cone has a nonzero lineality space")
        self.a = a
        self.phi = _cleared(lat.minimal.certificate)[0]
        self.cols = a.columns()
        self.weights = [sum(p * c for p, c in zip(self.phi, col)) for col in self.cols]
        self.steps = [j for j in range(a.n) if self.weights[j] > 0]
        self.min_weight = min((self.weights[j] for j in self.steps), default=0)
        self.memo: dict[tuple[int, ...], Optional[tuple[int, ...]]] = {}

    @cached_property
    def pairs(self) -> dict[tuple[int, ...], tuple]:
        """The standard pairs (m, sigma) of in(I_A), by sigma: each sigma maps to
        (L, psi, q, classes), classes mapping each key (L A m mod q, psi A m)
        to the (m, L A m) that have it (the residue index of the module
        docstring).  The standard monomial of a degree is unique, so the
        order of the pairs never changes a witness.  `resonance.n_beta` is
        the second reader: it takes the max over every pair (lemma 2 there)."""
        from .toric import DEFAULT_ORDER, toric_ideal  # toric imports this module

        leads = [binomial(g)[0] for g in toric_ideal(self.a, DEFAULT_ORDER).generators]
        table: dict[tuple[int, ...], tuple] = {}
        for m, sigma in standard_pairs(leads, self.a.n):
            if sigma not in table:
                rows = [dict(enumerate(self.cols[j])) for j in sigma]
                # q times the left inverse of A_sigma, cut back into rows of length d.
                flat, q = _cleared(
                    [x for i in sigma for x in gauss_solve(rows, [int(i == k) for k in sigma], self.a.d)]
                )
                psi = face_functionals(self.a, tuple(j + 1 for j in sigma))
                table[sigma] = (list(zip(*[iter(flat)] * self.a.d)), psi, q, {})
            inverse, psi, q, classes = table[sigma]
            lam, key = self.classify(self.a.mul_vec(m), inverse, psi, q)
            classes.setdefault(key, []).append((m, lam))
        return table

    @staticmethod
    def classify(v, inverse, psi, q) -> tuple[list[int], tuple]:
        """L v, and the key (L v mod q, psi v) of v's class modulo Z A_sigma."""
        lv = [sum(map(mul, y, v)) for y in inverse]
        return lv, (tuple(x % q for x in lv), tuple(sum(map(mul, y, v)) for y in psi))

    def witness(self, target: tuple[int, ...]) -> Optional[tuple[int, ...]]:
        """x in N^n with A x = target, or None (see `semigroup_witness`)."""
        if not cone_contains(self.a, target):
            return None  # not searched, so the memo only holds points reached from the cone
        height = sum(p * x for p, x in zip(self.phi, target))
        if height <= self.a.n * self.min_weight:
            return self.search(target, height)
        for sigma, (inverse, psi, q, classes) in self.pairs.items():
            lv, key = self.classify(target, inverse, psi, q)
            for m, lam in classes.get(key, ()):
                step = dict(zip(sigma, ((x - y) // q for x, y in zip(lv, lam))))
                if all(k >= 0 for k in step.values()):
                    return tuple(k + step.get(j, 0) for j, k in enumerate(m))
        return None

    def search(self, v: tuple[int, ...], height: int) -> Optional[tuple[int, ...]]:
        """The depth-first witness of v: subtract the first step that leads to 0.

        Each step lowers the height by at least min w, so from a start at
        most n * min w the recursion is at most n deep.
        """
        if not any(v):
            return (0,) * self.a.n
        if v not in self.memo:
            found = None
            for j in self.steps:
                if self.weights[j] <= height:
                    rest = self.search(vec_sub(v, self.cols[j]), height - self.weights[j])
                    if rest is not None:
                        found = rest[:j] + (rest[j] + 1,) + rest[j + 1 :]
                        break
            self.memo[v] = found
        return self.memo[v]


@lru_cache(maxsize=None)
def _semigroup(a: IntMatrix) -> _Semigroup:
    """The shared search state of one matrix; `cache_clear` drops its memo and pairs too."""
    return _Semigroup(a)


def semigroup_witness(a: IntMatrix, b: Sequence[int]) -> Optional[tuple[int, ...]]:
    """x in N^n with A x = b, or None.  Requires NA pointed.

    A non-integral b is never in NA and gets None.  Up to phi-height
    n * min w (w_j = phi . a_j the column weights) the witness is the
    depth-first one: column subtractions in column order, with one memo per
    matrix.  Above it, the witness is the degrevlex standard monomial of
    degree b, read off the standard pairs of in(I_A) (the module docstring).
    """
    point = checked_vector(b, a.d, "point")
    semigroup = _semigroup(a)
    if any(x.denominator != 1 for x in point):
        return None
    return semigroup.witness(tuple(int(x) for x in point))


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

    It does exactly when NA holds the Hilbert basis of the cone's lattice
    points, and only a point x != 0 of the cone with, for every primitive
    ray r, x = r or x - r outside the cone can be in that basis: otherwise
    x = (x - r) + r.  The Hilbert basis also lies in the zonotope spanned by
    the rays (Bruns-Gubeladze, *Polytopes, Rings and K-Theory*, ch. 2), so
    the candidates in the zonotope's bounding box are conclusive.  Each box
    point takes one integer dot product per cone inequality y, and x - r is
    in the cone exactly when y . x >= y . r for every y, so only the
    candidates reach the NA membership test.
    """
    lat = face_lattice(a)
    if not lat.pointed:
        raise NotPointed("saturation test requires a pointed semigroup")
    rays = extreme_rays(a)
    if not rays:
        return True
    ineqs = _cone_inequalities(a, ())
    ray_dots = [(r, [sum(map(mul, y, r)) for y in ineqs]) for r in rays]
    lo = [sum(min(0, r[i]) for r in rays) for i in range(a.d)]
    hi = [sum(max(0, r[i]) for r in rays) for i in range(a.d)]
    for point in product(*(range(l, h + 1) for l, h in zip(lo, hi))):
        dots = [sum(map(mul, y, point)) for y in ineqs]
        if not any(point) or any(s < 0 for s in dots):
            continue
        if any(point != r and all(map(ge, dots, r_dots)) for r, r_dots in ray_dots):
            continue  # point - r is in the cone, so point is not in the Hilbert basis
        if not semigroup_contains(a, point):
            return False
    return True


def interior_contains(a: IntMatrix, b: Sequence) -> bool:
    """Membership of b in the interior of R+A (columns spanning Z^d only).

    Such a cone is full-dimensional and cut out by its facet inequalities,
    so the interior is where all hold strictly; with no facets it is Q^d.
    """
    if not a.spans_lattice:
        raise NotFullLattice("columns must generate the full lattice Z^d")
    return cone_contains(a, b, strict=True)

