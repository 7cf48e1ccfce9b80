"""The toric ideal I_A and quasi-degree decompositions of S_A / <d_j>.

The grading is deg(d_j) = a_j (column j of the defining matrix).  I_A is
the ideal of a lattice basis of ker_Z(A) saturated by every variable, and
the quasi-degree routine builds a prime filtration of R/(I_A + <d_j>) by
repeatedly splitting off a face-prime quotient, with no bound on the weights
it scans (a lemma proves the scan ends); only the union of the
resulting degree sets is contractual, the component list itself is one
valid filtration.  That union, the degree set of S_A / <d_j>, is {u in NA :
u - a_j not in NA} (Saito, Sturmfels and Takayama, ch. 3), which
`true_degree_contains` tests with no filtration.  Both saturation and each
quotient by a monomial d^u are read off weighted-revlex Groebner bases with
one variable last (`polynomials.quotient_generators`), which needs the
positive grading w_i = phi . a_i of `cones.positive_grading`.  A toric ideal
of a matrix without one goes through the homogenized matrix; the filtration
requires one, so every column must be nonzero.  The filtration works on the
exponent pairs of `polynomials`, and no face prime gets a Groebner basis: an
A-homogeneous polynomial lies in I_A exactly when its coefficients sum to 0
(Sturmfels, Groebner Bases and Convex Polytopes, Lemma 4.1), so a monomial
lies in a face prime when it uses a variable off the face, and a binomial
when both its terms do or neither does (Saito, Sturmfels and Takayama,
Groebner Deformations of Hypergeometric Differential Equations, ch. 3).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache
from math import inf
from typing import Iterable, Optional, Sequence

from .cones import Face, _check_columns, face_lattice, positive_grading, semigroup_contains
from .errors import DegenerateColumn, NotPointed
from .intlinalg import IntMatrix, homogenize, lattice_kernel, vec_sub
from .polynomials import (
    Binomial,
    Polynomial,
    TermOrder,
    binomial,
    binomial_polynomial,
    groebner_basis,
    ideal_quotient,
    normal_form,
    order_by_name,
    quotient_generators,
    reduce_monomial,
)

DEFAULT_ORDER = "degrevlex"


@dataclass(frozen=True)
class ToricIdeal:
    matrix: IntMatrix
    order_name: str
    generators: tuple[Polynomial, ...]

    @property
    def nvars(self) -> int:
        return self.matrix.n

    def order(self) -> TermOrder:
        return order_by_name(self.order_name)


def box_binomial(l: Sequence[int]) -> Binomial:
    """d^(l-) - d^(l+) for an integer relation l, as an exponent pair."""
    return tuple(-x if x < 0 else 0 for x in l), tuple(x if x > 0 else 0 for x in l)


def a_degree(p: Polynomial | Iterable[Sequence[int]], a: IntMatrix) -> Optional[tuple[int, ...]]:
    """Common A-degree of all monomials of p, or None if mixed (0 for p = 0).

    p is a Polynomial or an iterable of exponent vectors;
    `WeylElement.a_degree` passes v - u for each term lambda^u d^v.
    """
    degs = {a.mul_vec(m) for m in (p.terms if isinstance(p, Polynomial) else p)}
    if not degs:
        return (0,) * a.d
    if len(degs) > 1:
        return None
    return degs.pop()


@lru_cache(maxsize=None)
def toric_ideal(a: IntMatrix, order_name: str = DEFAULT_ORDER) -> ToricIdeal:
    """Reduced Groebner basis of the lattice ideal of ker_Z(A).

    I_A is the saturation of the ideal of a lattice basis by every variable,
    and `ideal_quotient` computes it with u_i = inf under the grading
    w_i = phi . a_i of `positive_grading`.  When A has no such grading (it is
    not pointed, or a column is zero), I_A is I_A' with d_0 = 1 for
    A' = homogenize(A), whose first row of ones grades it.
    """
    order = order_by_name(order_name)
    weights = positive_grading(a)
    if weights is None:
        lifted = [binomial(g) for g in toric_ideal(homogenize(a), DEFAULT_ORDER).generators]
        pairs = groebner_basis([(u[1:], v[1:]) for u, v in lifted], order)
    else:
        box = [box_binomial(l) for l in lattice_kernel(a)]
        pairs = ideal_quotient(box, (inf,) * a.n, weights, order)
    gens = [binomial_polynomial(b) for b in pairs]
    for g in gens:
        if a_degree(g, a) is None:
            raise AssertionError("toric ideal generator is not A-homogeneous")
    return ToricIdeal(matrix=a, order_name=order_name, generators=tuple(gens))


def toric_normal_form(p: Polynomial, ideal: ToricIdeal) -> Polynomial:
    return normal_form(p, ideal.generators, ideal.order())


def true_degree_contains(a: IntMatrix, j: int, u: Sequence[int]) -> bool:
    """Whether u is a true degree of S_A / <d_j> (j is 1-based).

    A non-integral u is never a degree, so it answers False.
    """
    _check_columns(a, (j,))
    if not face_lattice(a).pointed:
        raise NotPointed("true-degree test requires a pointed semigroup")
    col = a.column(j - 1)
    return semigroup_contains(a, u) and not semigroup_contains(a, vec_sub(u, col))


@dataclass(frozen=True)
class DegreePair:
    offset: tuple[int, ...]
    face: Face


@dataclass(frozen=True)
class QuasiDegreeSet:
    matrix: IntMatrix
    j: int
    components: tuple[DegreePair, ...]


def _in_face_prime(g: Binomial, columns: frozenset[int]) -> bool:
    """Whether an A-homogeneous g lies in I_A + <d_i : i not in F> (see `quasi_degrees`)."""
    lead, tail = g
    off = [k for k in range(len(lead)) if k + 1 not in columns]
    lead_off = any(lead[k] for k in off)
    return lead_off if tail is None else lead_off == any(tail[k] for k in off)


@lru_cache(maxsize=None)
def quasi_degrees(a: IntMatrix, j: int) -> QuasiDegreeSet:
    """Prime filtration of S_A / <d_j> as (offset, face) components (j 1-based).

    Starting from I = I_A + <d_j>, each step scans the monomials d^u outside
    I by increasing phi-weight w.u, ties broken lexicographically, and takes
    the first whose quotient I : d^u is a face prime
    P_F = I_A + <d_i : i not in F> with j not in F; the component is
    (A u, F) and I grows to I + <d^u>.  The loop ends when I is the unit
    ideal.

    Lemma: the scan needs no bound.  (1) While I != (1), some d^u not in I
    has I : d^u = P_F with j not in F.  R/I is A-graded, so an associated
    prime is I : f with f A-homogeneous; modulo I_A, f is c d^u, as each
    degree of S_A is spanned by one monomial.  An A-graded prime over I_A
    is some P_F, and j is not in F because d_j lies in I.  (2) Each weight
    holds finitely many monomials (every w_i >= 1), so the scan reaches that
    u; I grows at every step, so the loop ends.  (3) The monomials outside I
    are closed under division, so a heap fed from d^0 with only the children
    d^u d_i outside I (the `spared` set the test computes anyway) visits all
    of them in the same order, and never a monomial of I.

    If I : d^u = P_F, then d^u d_i lies in I exactly for the i off F: P_F
    holds those d_i, and no d_i with i in F, since it meets k[d_F] =
    k[d_i : i in F] in the toric ideal of F, which holds no monomial.  So
    each candidate first gets the set of i with d^u d_i not in I (n monomial
    reductions), and the quotient is computed only when that set is the
    column set of a face F.  Then P_F lies in I : d^u (I holds I_A and each
    d^u d_i off F), so the two are equal exactly when each generator of the
    quotient lies in P_F (`quotient_generators`: no final reduced basis).
    Lemma: an A-homogeneous g lies in P_F exactly when the coefficients of
    its terms on F (those using no d_i off F) sum to 0.  Proof: g lies in
    P_F iff g_F, g with d_i = 0 off F, lies in P_F cap k[d_F], which is
    I_A cap k[d_F], as the face functional vanishes on both sides of a
    binomial of I_A or on neither.  That is the kernel of d^m -> t^(A m),
    which sends the A-homogeneous g_F to its coefficient sum times one
    monomial (Sturmfels, Groebner Bases and Convex Polytopes, Lemma 4.1).  As g is an exponent pair, the test reads:
    a monomial lies in P_F iff it uses some d_i off F, and a binomial iff
    both its terms do or neither does.  Every basis extends a reduced one
    (`groebner_basis(..., known=...)`): the start ideal that of I_A, each
    step that of the step before.

    No term order is a parameter: each test reads a monomial's membership in
    I, or the generators of I : d^u that `quotient_generators` divides out of
    reduced bases in `weighted_revlex` orders.  A reduced basis is fixed by
    its ideal and order, so the components depend on (A, j) alone.
    """
    _check_columns(a, (j,))
    if not face_lattice(a).pointed:
        raise NotPointed("quasi-degree decomposition requires a pointed semigroup")
    # Every weight phi.a_k must be positive: a zero column would make the
    # monomial scan below endless and the quotient order ill-founded.
    for k in range(1, a.n + 1):
        if all(x == 0 for x in a.column(k - 1)):
            raise DegenerateColumn(f"column {k} is zero")
    order = order_by_name(DEFAULT_ORDER)
    weights = positive_grading(a)
    faces = {f.columns: f for f in face_lattice(a).proper_faces if j not in f.columns}
    known = [binomial(g) for g in toric_ideal(a, DEFAULT_ORDER).generators]
    d_j = tuple(1 if k == j - 1 else 0 for k in range(a.n))
    current = groebner_basis([(d_j, None)], order, known=known)
    components: list[DegreePair] = []
    zero = (0,) * a.n
    while current != [(zero, None)]:  # the reduced basis of the unit ideal
        heap, outside = [(0, zero)], {zero}
        while True:
            w, u = heapq.heappop(heap)
            children = [u[:i] + (u[i] + 1,) + u[i + 1 :] for i in range(a.n)]
            spared = frozenset(
                i + 1
                for i, v in enumerate(children)
                if v in outside or reduce_monomial(v, current) is not None
            )
            if spared in faces and all(
                _in_face_prime(g, spared) for g in quotient_generators(current, u, weights)
            ):
                break
            for i in spared:
                if children[i - 1] not in outside:
                    outside.add(children[i - 1])
                    heapq.heappush(heap, (w + weights[i - 1], children[i - 1]))
        components.append(DegreePair(offset=a.mul_vec(u), face=faces[spared]))
        current = groebner_basis([(u, None)], order, known=current)
    return QuasiDegreeSet(matrix=a, j=j, components=tuple(components))
