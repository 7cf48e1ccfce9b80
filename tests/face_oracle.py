"""The per-subset LP route to face lattices, kept as an independent oracle.

A column subset is a face exactly when some functional vanishes on it and is
positive off it, which one phase-I LP decides.  Trying all 2^n subsets needs
no facet or sign reasoning, so it checks the facet-built `cones.face_lattice`
without sharing its method.  Each face's dim is its own `Fraction` rank
(`span_dim`), not the grading `face_lattice` reads dims off.
`is_saturated_by_lp` likewise tests cone membership of each box point with
an LP instead of facet certificates.

`facets_by_fraction_scan` is the facet scan `cones._facets` ran before it
cleared kernel vectors to integers and skipped subsets inside a found facet:
every independent subset of rank - 1 columns is solved, and the signs, and
the facet certificates of a full-dimensional cone, are read off `Fraction`
dot products.  `face_lattice_by_fraction_scan` builds the lattice on it,
with the rest of `cones.face_lattice` unchanged.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from typing import Optional
from unittest import mock

from lp_oracle import gauss_solve

from gkzkit import cones
from gkzkit.cones import (
    Face,
    FaceLattice,
    _face_certificate,
    cone_witness,
    extreme_rays,
    semigroup_contains,
)
from gkzkit.errors import NotPointed
from gkzkit.intlinalg import IntMatrix


def span_dim(a: IntMatrix, cols) -> int:
    """The rank of the given 1-based columns, by Fraction row reduction."""
    rows = [[Fraction(a.entry(i, j - 1)) for j in cols] for i in range(a.d)]
    rank = 0
    for c in range(len(cols)):
        p = next((i for i in range(rank, a.d) if rows[i][c]), None)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        for i in range(rank + 1, a.d):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def face_lattice_by_subsets(a: IntMatrix) -> FaceLattice:
    """All faces of R+A from one certificate LP per column subset."""
    faces = []
    for size in range(a.n + 1):
        for combo in combinations(range(1, a.n + 1), size):
            subset = frozenset(combo)
            cert = _face_certificate(a, subset)
            if cert is None:
                continue
            dim = span_dim(a, sorted(subset))
            faces.append(Face(columns=subset, certificate=cert, dim=dim))
    improper = next(f for f in faces if f.columns == frozenset(range(1, a.n + 1)))
    proper = tuple(f for f in faces if f is not improper)
    minimal = min(faces, key=lambda f: (len(f.columns), f.sorted_columns()))
    return FaceLattice(
        faces=tuple(faces),
        proper_faces=proper,
        improper=improper,
        minimal=minimal,
        pointed=(minimal.dim == 0),
    )


def is_saturated_by_lp(a: IntMatrix) -> bool:
    """Saturation of NA, testing each zonotope box point for cone membership by LP."""
    if not face_lattice_by_subsets(a).pointed:
        raise NotPointed("saturation test requires a pointed semigroup")
    rays = extreme_rays(a)
    if not rays:
        return True
    lo = [sum(min(0, r[i]) for r in rays) for i in range(a.d)]
    hi = [sum(max(0, r[i]) for r in rays) for i in range(a.d)]
    for point in product(*(range(l, h + 1) for l, h in zip(lo, hi))):
        if cone_witness(a, point) is None:
            continue
        if not semigroup_contains(a, point):
            return False
    return True


def facets_by_fraction_scan(a: IntMatrix, rank: int) -> dict[frozenset[int], Optional[tuple[Fraction, ...]]]:
    """The facets of R+A, for a cone of dimension rank >= 1, each with its
    certificate when rank = d (None when rank < d), in `cones._facets`' shape.

    A facet spans a hyperplane of span(A), so it holds rank - 1 independent
    columns.  Their annihilator in span(A) is a line; it supports the cone
    exactly when its values on the columns all have one sign, and the facet
    is then the set of columns where it vanishes.  When rank = d, that line
    scaled to be at least 1 off the facet, with equality somewhere, is the
    certificate.
    """
    cols = a.columns()
    identity = [[int(i == k) for k in range(a.d)] for i in range(a.d)]
    facets = {}
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
            scale = min((v for v in values if v), key=abs)
            cert = tuple(Fraction(p) / scale for p in phi) if rank == a.d else None
            facets[frozenset(j + 1 for j, v in enumerate(values) if v == 0)] = cert
    return facets


def face_lattice_by_fraction_scan(a: IntMatrix) -> FaceLattice:
    """`cones.face_lattice`, uncached, with its facets from the Fraction scan."""
    with mock.patch.object(cones, "_facets", facets_by_fraction_scan):
        return cones.face_lattice.__wrapped__(a)
