"""The per-subset LP route to face lattices, kept as an independent oracle.

A column subset is a face exactly when some functional vanishes on it and is
positive off it, which one phase-I LP decides.  Trying all 2^n subsets needs
no facet or sign reasoning, so it checks the facet-built `cones.face_lattice`
without sharing its method.  `is_saturated_by_lp` likewise tests cone
membership of each box point with an LP instead of facet certificates.
"""

from __future__ import annotations

from itertools import combinations, product

from gkzkit.cones import (
    Face,
    FaceLattice,
    _face_certificate,
    _span_dim,
    extreme_rays,
    saturation_contains,
    semigroup_contains,
)
from gkzkit.errors import NotPointed
from gkzkit.intlinalg import IntMatrix


def face_lattice_by_subsets(a: IntMatrix) -> FaceLattice:
    """All faces of R+A from one certificate LP per column subset."""
    faces = []
    for size in range(a.n + 1):
        for combo in combinations(range(1, a.n + 1), size):
            subset = frozenset(combo)
            cert = _face_certificate(a, subset)
            if cert is None:
                continue
            dim = _span_dim(a, sorted(subset))
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
        if not saturation_contains(a, point):
            continue
        if not semigroup_contains(a, point):
            return False
    return True
