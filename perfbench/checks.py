"""Exact answer checks that share no code with gkzkit's solvers.

Everything here is written for the benchmark on plain Fractions: row
reduction, cone membership through brute-force facet normals, a
monotone-chain convex hull, and the action of Weyl-algebra operators on
polynomials.  The workloads use these to decide what an answer must be and
to re-verify every certificate the program returns.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product


def dot(u, v):
    return sum(Fraction(a) * Fraction(b) for a, b in zip(u, v))


def is_integral(v) -> bool:
    return all(Fraction(x).denominator == 1 for x in v)


def _rref(rows, ncols):
    """Reduced row echelon form over Q; returns (rows, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def rank(vectors) -> int:
    vectors = list(vectors)
    if not vectors:
        return 0
    return len(_rref(vectors, len(vectors[0]))[1])


def solve(rows, rhs, ncols):
    """x with rows @ x = rhs, free variables set to 0, or None if inconsistent."""
    if not rows:
        return [Fraction(0)] * ncols
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    m, pivots = _rref(aug, ncols + 1)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = m[i][ncols]
    return x


def kernel(rows, ncols):
    """A basis of {x in Q^ncols : rows @ x = 0}."""
    m, pivots = _rref(rows, ncols) if rows else ([], [])
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -m[i][free]
        basis.append(v)
    return basis


def primitive(v) -> tuple[int, ...]:
    """The primitive integer vector on the ray of a nonzero rational vector."""
    v = [Fraction(x) for x in v]
    den = math.lcm(*(x.denominator for x in v))
    ints = [int(x * den) for x in v]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)


def in_span(vectors, target) -> bool:
    d = len(target)
    if not vectors:
        return all(x == 0 for x in target)
    rows = [[vec[i] for vec in vectors] for i in range(d)]
    return solve(rows, list(target), len(vectors)) is not None


def columns(rows):
    return [tuple(row[j] for row in rows) for j in range(len(rows[0]))]


def homogenize(rows):
    """Prepend a row of ones and the column (1, 0, .., 0)."""
    return [(1,) * (len(rows[0]) + 1)] + [(0,) + tuple(row) for row in rows]


# ---------------------------------------------------------------- cones


@lru_cache(maxsize=None)
def facet_normals(vectors: tuple) -> tuple:
    """Inward facet normals of the full-dimensional cone generated by vectors.

    Every facet is spanned by d-1 of the generators, so the primitive kernel
    vector of each rank-(d-1) subset that keeps one sign on all generators
    is a facet normal.  A cone with no facets is the whole space.
    """
    d = len(vectors[0])
    if rank(vectors) != d:
        raise ValueError("cone is not full-dimensional")
    normals = set()
    for subset in combinations(vectors, d - 1):
        ker = kernel(list(subset), d)
        if len(ker) != 1:
            continue
        psi = primitive(ker[0])
        values = [dot(psi, v) for v in vectors]
        if all(x >= 0 for x in values):
            normals.add(psi)
        if all(x <= 0 for x in values):
            normals.add(tuple(-x for x in psi))
    return tuple(sorted(normals))


def in_cone(vectors, point) -> bool:
    return all(dot(psi, point) >= 0 for psi in facet_normals(tuple(map(tuple, vectors))))


def in_lattice_plus_span(face_vectors, beta) -> bool:
    """beta in Z^d + Q F, tested on a generating set of the annihilator lattice."""
    d = len(beta)
    f = rank(face_vectors) if face_vectors else 0
    if f == 0:
        return is_integral(beta)
    if f == d:
        return True
    if d - f == 1:
        rows = [list(v) for v in face_vectors]
        return dot(primitive(kernel(rows, d)[0]), beta).denominator == 1
    if f == 1:
        # For a primitive r the Koszul vectors r_j e_i - r_i e_j generate
        # the integer annihilator of r.
        r = primitive(next(v for v in face_vectors if any(v)))
        for i, j in combinations(range(d), 2):
            psi = [0] * d
            psi[i], psi[j] = r[j], -r[i]
            if dot(psi, beta).denominator != 1:
                return False
        return True
    raise ValueError("annihilator lattices are only implemented for d <= 3")


def dsres_face_ok(cols, face, beta) -> bool:
    """Whether the proper face (1-based column tuple) certifies beta in DsRes."""
    fv = [cols[j - 1] for j in face]
    if not in_lattice_plus_span(fv, beta):
        return False
    return in_cone(list(cols) + [tuple(-x for x in v) for v in fv], beta)


def dsres_member(cols, faces, beta) -> bool:
    return any(dsres_face_ok(cols, face, beta) for face in faces)


def component_multiplier(shift, offset, face_vectors, beta):
    """Solve beta + m * shift in offset + Q F for m: 'free', a Fraction, or None."""
    rhs = [Fraction(o) - Fraction(b) for o, b in zip(offset, beta)]
    if rank(list(face_vectors) + [shift]) == (rank(face_vectors) if face_vectors else 0):
        return "free" if in_span(face_vectors, rhs) else None
    d = len(beta)
    rows = [[shift[i]] + [-v[i] for v in face_vectors] for i in range(d)]
    sol = solve(rows, rhs, 1 + len(face_vectors))
    return None if sol is None else sol[0]


def sres_member(cols, components, beta) -> bool:
    """Strong resonance from the (j, offset, face columns) components."""
    for j, offset, face in components:
        m = component_multiplier(cols[j - 1], offset, [cols[k - 1] for k in face], beta)
        if m == "free" or (m is not None and m.denominator == 1 and m >= 1):
            return True
    return False


def sres_witness_ok(cols, components, beta, witness) -> bool:
    j, offset, face = witness["j"], tuple(witness["offset"]), tuple(witness["face_columns"])
    m = Fraction(witness["multiplier"])
    if (j, offset, face) not in {(c[0], tuple(c[1]), tuple(c[2])) for c in components}:
        return False
    if m.denominator != 1 or m < 1:
        return False
    moved = [Fraction(b) + m * a - o for b, a, o in zip(beta, cols[j - 1], offset)]
    return in_span([cols[k - 1] for k in face], moved)


def n_beta_expected(rows, htilde_components, beta) -> int:
    """max(0, ceil t) over the j=1 components of homogenize(A) hit by the line (t, beta)."""
    hcols = columns(homogenize(rows))
    bound = 0
    for offset, face in htilde_components:
        fv = [hcols[j - 1] for j in face]
        rhs = [Fraction(b) - o for b, o in zip(beta, offset[1:])]
        if fv:
            coeffs = solve([[v[i] for v in fv] for i in range(1, len(offset))], rhs, len(fv))
            if coeffs is None:
                continue
        elif any(rhs):
            continue
        else:
            coeffs = []
        t = Fraction(offset[0]) + sum(c * v[0] for c, v in zip(coeffs, fv))
        bound = max(bound, math.ceil(t))
    return bound


def semigroup_points(cols, phi, height: int) -> frozenset:
    """Every element of N A with phi-height at most `height` (phi . a_j >= 1)."""
    weights = [dot(phi, c) for c in cols]
    if min(weights) < 1:
        raise ValueError("phi must be positive on every column")
    zero = (0,) * len(cols[0])
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for p in frontier:
            for c in cols:
                q = tuple(x + y for x, y in zip(p, c))
                if q not in seen and dot(phi, q) <= height:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return frozenset(seen)


# ---------------------------------------------------------------- polygons


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points) -> list:
    """Vertices of the convex hull in counter-clockwise order (monotone chain)."""
    pts = sorted(set(points))
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def polygon_cone_faces(points):
    """Faces of the cone over the homogenized points, from the 2-D hull.

    Returns (proper faces as sorted 1-based column tuples, extreme rays,
    inward facet functionals, whether every lattice point of the hull is
    one of the points).
    """
    hull = convex_hull(points)
    index = {p: i + 1 for i, p in enumerate(points)}
    faces = {()}
    rays = sorted((1,) + v for v in hull)
    functionals = []
    for v in hull:
        faces.add((index[v],))
    for k, p in enumerate(hull):
        q = hull[(k + 1) % len(hull)]
        on_edge = tuple(sorted(index[r] for r in points if _cross(p, q, r) == 0))
        faces.add(on_edge)
        alpha, beta = -(q[1] - p[1]), q[0] - p[0]
        functionals.append(primitive((-(alpha * p[0] + beta * p[1]), alpha, beta)))
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    inside = [
        (x, y)
        for x in range(min(xs), max(xs) + 1)
        for y in range(min(ys), max(ys) + 1)
        if all(_cross(hull[k], hull[(k + 1) % len(hull)], (x, y)) >= 0 for k in range(len(hull)))
    ]
    saturated = set(inside) == set(points)
    return sorted(faces), rays, sorted(functionals), saturated


def det3(a, b, c) -> int:
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def spans_z3(cols) -> bool:
    g = 0
    for a, b, c in combinations(cols, 3):
        g = math.gcd(g, det3(a, b, c))
    return g == 1


# ---------------------------------------------------------------- Weyl algebra


def weyl_product(x: dict, y: dict) -> dict:
    """Normally ordered product of {(lambda exps, d exps): coeff} term maps."""
    out: dict = {}
    for (u1, v1), c1 in x.items():
        for (u2, v2), c2 in y.items():
            ranges = [range(min(a, b) + 1) for a, b in zip(v1, u2)]
            for ks in product(*ranges):
                c = Fraction(c1) * c2
                for a, b, k in zip(v1, u2, ks):
                    c *= math.factorial(k) * math.comb(a, k) * math.comb(b, k)
                key = (
                    tuple(p + q - k for p, q, k in zip(u1, u2, ks)),
                    tuple(p + q - k for p, q, k in zip(v1, v2, ks)),
                )
                out[key] = out.get(key, 0) + c
    return {k: c for k, c in out.items() if c != 0}


def add_polys(p: dict, q: dict) -> dict:
    out = dict(p)
    for k, c in q.items():
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c != 0}
