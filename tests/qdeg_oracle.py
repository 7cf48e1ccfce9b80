"""The quasi-degree filtration with no shortcuts, kept as an oracle.

This is `toric.quasi_degrees` as it was before the face prefilter and the
incremental bases: it computes the full quotient `current : d^u` for every
candidate monomial outside the ideal, compares it with every face prime, and
builds each basis (start ideal, face primes, every filtration step) from
scratch.  Its scan is its own: every monomial by weight, those of the ideal
included, with no bound (the lemma of `toric.quasi_degrees` ends each step).
The fast routine must return the same components in the same order.  `degree_set_contains` tests the union of the components, each
offset + NF in the semigroup of the face's own columns; that union is the
degree set {u in NA : u - a_j not in NA}, which the library answers with
`toric.true_degree_contains`, and the tests compare the two.
"""

from __future__ import annotations

import heapq

from gkzkit.cones import _check_columns, face_lattice, positive_grading, semigroup_contains
from gkzkit.errors import DegenerateColumn, NotPointed
from gkzkit.intlinalg import IntMatrix, vec_sub
from groebner_oracle import groebner_basis, ideal_is_unit, ideal_quotient

from gkzkit.polynomials import Polynomial, normal_form, order_by_name
from gkzkit.toric import DEFAULT_ORDER, DegreePair, QuasiDegreeSet, toric_ideal


def monomials_by_weight(weights):
    """Every exponent tuple, in increasing weight w.u, ties broken
    lexicographically: no pruning and no bound, so the caller stops it."""
    n = len(weights)
    start = (0,) * n
    heap = [(0, start)]
    seen = {start}
    while True:
        w, u = heapq.heappop(heap)
        yield u
        for i in range(n):
            v = u[:i] + (u[i] + 1,) + u[i + 1 :]
            if v not in seen:
                seen.add(v)
                heapq.heappush(heap, (w + weights[i], v))


def face_primes(a: IntMatrix, order_name: str):
    """Reduced GB of I_A + <d_i : i not in F> for every proper face F."""
    order = order_by_name(order_name)
    ideal = toric_ideal(a, order_name)
    out = []
    for face in face_lattice(a).proper_faces:
        gens = list(ideal.generators)
        for i in range(1, a.n + 1):
            if i not in face.columns:
                expo = tuple(1 if k == i - 1 else 0 for k in range(a.n))
                gens.append(Polynomial.monomial(expo))
        out.append((face, tuple(groebner_basis(gens, order))))
    return out


def quasi_degrees(a: IntMatrix, j: int, order_name: str = DEFAULT_ORDER) -> QuasiDegreeSet:
    """Prime filtration of S_A / <d_j> as (offset, face) components (j 1-based)."""
    _check_columns(a, (j,))
    if not face_lattice(a).pointed:
        raise NotPointed("quasi-degree decomposition requires a pointed semigroup")
    for k in range(1, a.n + 1):
        if all(x == 0 for x in a.column(k - 1)):
            raise DegenerateColumn(f"column {k} is zero")
    order = order_by_name(order_name)
    weights = positive_grading(a)
    primes = [
        (face, gb)
        for face, gb in face_primes(a, order_name)
        if j not in face.columns
    ]
    start = Polynomial.monomial(tuple(1 if k == j - 1 else 0 for k in range(a.n)))
    current = groebner_basis(list(toric_ideal(a, order_name).generators) + [start], order)
    components: list[DegreePair] = []
    while not ideal_is_unit(current):
        step = None
        for u in monomials_by_weight(weights):
            mono = Polynomial.monomial(u)
            if normal_form(mono, current, order).is_zero():
                continue  # already in the ideal
            quotient = ideal_quotient(current, u, weights, order)
            for face, gb in primes:
                if tuple(quotient) == gb:
                    step = (u, face)
                    break
            if step is not None:
                break
        u, face = step
        components.append(DegreePair(offset=a.mul_vec(u), face=face))
        current = groebner_basis(list(current) + [Polynomial.monomial(u)], order)
    return QuasiDegreeSet(matrix=a, j=j, components=tuple(components))


def degree_set_contains(qd: QuasiDegreeSet, u) -> bool:
    """Whether u lies in some offset + NF, NF the semigroup of the face's columns."""
    a = qd.matrix
    for comp in qd.components:
        v = vec_sub(u, comp.offset)
        cols = sorted(comp.face.columns)
        if not cols:
            if all(x == 0 for x in v):
                return True
            continue
        sub = IntMatrix.from_rows([[a.entry(i, j - 1) for j in cols] for i in range(a.d)])
        if semigroup_contains(sub, v):
            return True
    return False
