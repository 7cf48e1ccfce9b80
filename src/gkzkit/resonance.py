"""Parameter-space analysis: strong resonance, its dual set, cone shifts.

Rational parameters only.  beta lies in sRes_j(A) iff beta + m*a_j lands in
some component offset + QF of the quasi-degrees of S_A/<d_j> with an integer
m >= 1.  The public sRes and DsRes tests check beta once and clear it to
beta = N/D, N integral and D > 0 (`lp._cleared`); then every component
question is a few integer dot products with N: with the cached functionals
psi of QF (`_component_multiplier`), or as a sign test for a point of R+A +
QF (`cones.cone_contains`), by the lemmas below:

1. m is unique.  F is a face without j, so its certificate is 0 on QF and
   positive on a_j: a_j is off QF.  So with psi_1..psi_k the basis of the
   functionals vanishing on QF (lemma 3), s_i = psi_i . a_j and the
   integers g_i = D psi_i . offset - psi_i . N = D psi_i . (offset - beta),
   some s_i is nonzero, and beta + m*a_j lies in offset + QF iff g_l =
   m*D*s_l for every l: the first nonzero s_i gives m = g_i / (s_i D), and
   the other psi check it by g_l s_i = g_i s_l.
2. n_beta.  At = homogenize(A) has the columns e_0 and (1, a_i), so (s, b)
   is in N At exactly when some x in N^n has A x = b and |x| <= s, and the
   degree set of S_At/<d_0> is {(mu(b), b) : b in NA}, mu(b) the least |x|
   with A x = b.  Degrevlex is graded, so the standard monomial m of in(I_A)
   of degree b has |m| = mu(b): a smaller x would make d^m - d^x a binomial
   of I_A led by d^m.  So the j = 1 components of sRes(At), shift e_0, are
   the closures (|m|, A m) + Q{(1, a_i) : i in sigma} over the standard
   pairs (m, sigma) of in(I_A) (`cones._Semigroup.pairs`).  One holds
   (t, beta) when beta - A m = A_sigma c, t = |m| + sum c: with L A_sigma =
   q I and psi the functionals of A_sigma, when psi . beta = psi . A m for
   every psi, and then c = L (beta - A m) / q, L A m the pair's lambda.
3. The functionals vanishing on QF form a saturated lattice, whose basis
   psi_1..psi_k (`cones.face_functionals`) extends to one of (Z^d)*.  So
   x -> (psi_i . x) maps Z^d onto Z^k, and beta lies in Z^d + QF iff every
   psi_i . beta is an integer: iff D divides every psi_i . N.
4. With t = 1 + s, s >= 0, and a_j a column, delta + R+A meets -t*a_j +
   offset + QF iff offset - delta - a_j lies in R+A + QF.
5. Every proper face lies in a facet G whose functional is >= 0 on R+A + QF
   and < 0 on -int(R+A), so no such point is in DsRes(A).  (Both the
   interior and DsRes need columns spanning Z^d, so a full-dimensional cone.)
6. R+A + QF is where span(A)'s equations hold and every facet holding F is
   >= 0, so it needs no LP; a point off it violates one (`cones.cone_contains`).
   The inequalities are homogeneous and D > 0, so y . beta and y . N have one
   sign: beta lies in R+A + QF iff N does.
7. That t is unique: e_0 = sum c_i (1, a_i) over sigma would give A_sigma c
   = 0 with sum c = 1, and a binomial of I_A in the variables of sigma, whose
   lead, a sigma-monomial, would make d^m times it nonstandard.  A closure
   inside a larger one meets the line (t, beta) where the larger one does,
   so n_beta needs no maximality filter: its bound is the largest of 0 and
   ceil(t) over every pair, and b0 >= ceil(t) puts (b0, beta) + k e_0 off
   the closure for every k >= 1.
8. Domination.  Let p_c = offset - shift and C_c = R+A + QF_c, so that
   component c rules out delta exactly when p_c - delta lies in C_c (lemma
   4).  If F_c lies in F_c' (every inequality of C_c' is one of C_c, so C_c
   lies in C_c') and p_c' - p_c lies in C_c', then p_c - delta in C_c gives
   p_c' - delta in C_c' + C_c = C_c': c rules out nothing c' does not, and
   the verifier can drop c.
9. Monotonicity.  Every C_c holds R+A, so if delta is valid, so is delta + x
   for x in R+A; and if x is not in NA, neither is x - c for c in NA, as NA
   + NA lies in NA.  The delta walk only subtracts columns, so once delta -
   a_j fails the verifier or NA, it fails both at every later delta.  So
   the greedy walk, which steps along the first column passing both, walks
   column 1 as far as it goes, then column 2, and so on.
10. The dual walk ends.  If A's columns span Z^d, each facet G of R+A has
   an integer normal nu_G >= 0 on the columns and nonzero on one of them,
   so nu_G . S >= 1 for S the column sum.  So for any x, nu_G . (x + k*S)
   > 0 for every facet once k is large: x + k*S is interior, and its
   negative is outside DsRes(A) (lemma 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import ceil, floor
from operator import mul
from typing import Optional, Sequence

from .cones import _cone_inequalities, _semigroup, cone_contains, face_functionals, face_lattice, interior_contains, semigroup_contains
from .errors import (
    NotFullLattice,
    NotHomogeneous,
    NotPointed,
    ParameterResonant,
)
from .intlinalg import (
    IntMatrix,
    checked_integer_vector,
    checked_vector,
    homogeneity_vector,
    vec_add,
    vec_sub,
)
from .lp import _cleared
from .toric import quasi_degrees

DUAL_SEARCH_RADIUS = 8


@dataclass(frozen=True)
class ResonanceComponent:
    """One sheet of sRes_j(A): the union over m >= 1 of -m*a_j + offset + QF."""

    j: int
    offset: tuple[int, ...]
    face_columns: tuple[int, ...]
    shift: tuple[int, ...]


@dataclass(frozen=True)
class ResonanceSet:
    matrix: IntMatrix
    components: tuple[ResonanceComponent, ...]


@dataclass(frozen=True)
class ResonanceWitness:
    j: int
    offset: tuple[int, ...]
    face_columns: tuple[int, ...]
    multiplier: Fraction


@lru_cache(maxsize=None)
def resonance_set(a: IntMatrix) -> ResonanceSet:
    comps = []
    for j in range(1, a.n + 1):
        qd = quasi_degrees(a, j)
        col = a.column(j - 1)
        for pair in qd.components:
            comps.append(
                ResonanceComponent(
                    j=j,
                    offset=pair.offset,
                    face_columns=pair.face.sorted_columns(),
                    shift=col,
                )
            )
    return ResonanceSet(matrix=a, components=tuple(comps))


def _component_multiplier(
    a: IntMatrix, comp: ResonanceComponent, nums: Sequence[int], den: int
) -> Optional[Fraction]:
    """The m with beta + m*shift in offset + QF, or None, for beta = nums/den
    with den > 0, from the psi of QF (lemma 1): g_l = den*(psi . offset) -
    psi . nums and m = g / (s*den); the first psi that fails answers None
    before the rest are read."""
    s = g = 0
    for psi in face_functionals(a, comp.face_columns):
        s_l, g_l = _dot(psi, comp.shift), den * _dot(psi, comp.offset) - _dot(psi, nums)
        if not s:
            if s_l:
                s, g = s_l, g_l
            elif g_l:
                return None
        elif g_l * s != g * s_l:
            return None
    if not s:
        raise AssertionError("the shift lies in the span of its face")
    return Fraction(g, s * den)


def _sres_witness(a: IntMatrix, nums: Sequence[int], den: int) -> Optional[ResonanceWitness]:
    """`sres_witness` of a checked beta = nums/den, den > 0."""
    for comp in resonance_set(a).components:
        m = _component_multiplier(a, comp, nums, den)
        if m is not None and m.denominator == 1 and m >= 1:
            return ResonanceWitness(
                j=comp.j, offset=comp.offset, face_columns=comp.face_columns, multiplier=m
            )
    return None


def sres_witness(a: IntMatrix, beta: Sequence[Fraction]) -> Optional[ResonanceWitness]:
    """A component and integer multiplier certifying beta in sRes(A), or None."""
    return _sres_witness(a, *_cleared(checked_vector(beta, a.d, "beta")))


def sres_contains(a: IntMatrix, beta: Sequence[Fraction]) -> bool:
    """Strong-resonance membership for a rational parameter."""
    return sres_witness(a, beta) is not None


def _dsres_witness(a: IntMatrix, nums: Sequence[int], den: int) -> Optional[tuple[int, ...]]:
    """`dsres_witness` of a checked beta = nums/den, den > 0, columns spanning Z^d:
    the first proper face whose psi all take nums to multiples of den (lemma 3)
    and whose cone R+A + QF holds nums (lemma 6)."""
    for face in face_lattice(a).proper_faces:
        cols = face.sorted_columns()
        if all(_dot(psi, nums) % den == 0 for psi in face_functionals(a, cols)) and cone_contains(a, nums, cols):
            return cols
    return None


def dsres_witness(a: IntMatrix, beta: Sequence[Fraction]) -> Optional[tuple[int, ...]]:
    """Columns of a proper face F certifying beta in DsRes(A), or None.

    Membership per face is tested in the quotient modulo QF: the class of
    beta must lie in both the image of the cone and the image of Z^d.
    """
    beta = checked_vector(beta, a.d, "beta")
    if not a.spans_lattice:
        raise NotFullLattice("DsRes requires columns generating Z^d")
    return _dsres_witness(a, *_cleared(beta))


def dsres_contains(a: IntMatrix, beta: Sequence[Fraction]) -> bool:
    return dsres_witness(a, beta) is not None


def delta_valid(a: IntMatrix, delta: Sequence[int]) -> bool:
    """Whether (R+A + delta) misses every resonance component (lemma 4), delta in Z^d."""
    return _delta_valid(a, checked_integer_vector(delta, a.d, "delta"))


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


@lru_cache(maxsize=None)
def _undominated_regions(a: IntMatrix) -> tuple[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]], ...]:
    """(p_c, inequalities of C_c) of the components of sRes(A) that no other
    covers (lemma 8), in order; of equal regions, the first.  Repeats go first;
    then a cheap pass tests each region against the first with the largest
    y_1 . p per inequality tuple (per facet, the one reaching furthest along
    its normal), and the survivors are tested pairwise."""
    comps = resonance_set(a).components
    regions = list(dict.fromkeys((vec_sub(c.offset, c.shift), _cone_inequalities(a, c.face_columns)) for c in comps))
    faces = [frozenset(ineqs) for _, ineqs in regions]

    def covers(i: int, k: int) -> bool:
        (p, ineqs), (p_k, _) = regions[i], regions[k]
        return faces[i] <= faces[k] and all(_dot(y, vec_sub(p, p_k)) >= 0 for y in ineqs)

    def drops(i: int, k: int) -> bool:
        return i != k and covers(i, k) and (i < k or not covers(k, i))

    best: dict[tuple, int] = {}
    for i, (p, ineqs) in enumerate(regions):
        first = best.setdefault(ineqs, i)
        if ineqs and _dot(ineqs[0], p) > _dot(ineqs[0], regions[first][0]):
            best[ineqs] = i
    survivors = [k for k in range(len(regions)) if not any(drops(i, k) for i in best.values())]
    return tuple(regions[k] for k in survivors if not any(drops(i, k) for i in survivors))


def _delta_valid(a: IntMatrix, delta: tuple[int, ...]) -> bool:
    """`delta_valid` of an integer tuple, read off the undominated regions."""
    return not any(all(_dot(y, p) >= _dot(y, delta) for y in ineqs) for p, ineqs in _undominated_regions(a))


@lru_cache(maxsize=None)
def delta_A(a: IntMatrix) -> tuple[int, ...]:
    """A semigroup element translating the cone off sRes(A).

    Starts from (sum of columns) + (sum of all filtration offsets) and then
    greedily walks back along the first column whose step passes the cheap
    verifier and stays in NA: along each column in turn, as far as it goes
    (lemma 9).
    """
    if not a.spans_lattice:
        raise NotFullLattice("delta requires columns generating Z^d")
    if not face_lattice(a).pointed:
        raise NotPointed("delta requires a pointed semigroup")
    delta = a.column_sum()
    for comp in resonance_set(a).components:
        delta = vec_add(delta, comp.offset)
    if not _delta_valid(a, delta):
        raise AssertionError("constructed delta failed its own verifier")
    for col in a.columns():
        while _delta_valid(a, cand := vec_sub(delta, col)) and semigroup_contains(a, cand):
            delta = cand
    return delta


def n_beta(a: IntMatrix, beta: Sequence[Fraction]) -> int:
    """Integer bound so that (b0, beta) stays non-strongly-resonant for b0 >= bound.

    The largest of 0 and ceil(t) over the standard pairs (m, sigma) of in(I_A)
    whose closure holds (t, beta) (lemmas 2 and 7), read off the cached pairs
    table: nothing of homogenize(A) is built.
    """
    beta = checked_vector(beta, a.d, "beta")
    if _sres_witness(a, *_cleared(beta)) is not None:
        raise ParameterResonant("beta is strongly resonant")
    bound = 0
    for inverse, psi, q, classes in _semigroup(a).pairs.values():
        on_span = tuple(_dot(beta, y) for y in psi)
        # q t = q |m| - sum(lambda) + sum(L beta), over the pairs whose span holds beta - A m
        tops = [sum(m) * q - sum(lam) for (_, key), ms in classes.items() if key == on_span for m, lam in ms]
        if tops:
            bound = max(bound, ceil(Fraction(max(tops) + sum(_dot(beta, y) for y in inverse), q)))
    return bound


def _box_shifts(d: int, radius: int):
    for r in range(radius + 1):
        for point in product(range(-r, r + 1), repeat=d):
            if max(abs(x) for x in point) == r if point else r == 0:
                yield point


def dual_parameter(a: IntMatrix, beta: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """beta' congruent to -beta mod Z^d with beta' outside DsRes(A).

    Scans integer translates of -beta, preferring candidates in the interior
    of the negated cone, which DsRes(A) cannot reach (lemma 5).  If neither
    scan of the box of radius `DUAL_SEARCH_RADIUS` answers, it walks s =
    -floor(beta) + k*S, S the column sum, for k = 0, 1, .. until beta + s is
    interior, which lemma 10 proves happens.
    """
    beta = checked_vector(beta, a.d, "beta")
    if homogeneity_vector(a) is None:
        raise NotHomogeneous("dual parameters need a homogeneous matrix")
    nums, den = _cleared(beta)
    if _sres_witness(a, nums, den) is not None:
        raise ParameterResonant("beta is strongly resonant")
    for shift in _box_shifts(a.d, DUAL_SEARCH_RADIUS):
        if interior_contains(a, vec_add(beta, shift)):
            return tuple(-b - s for b, s in zip(beta, shift))
    for shift in _box_shifts(a.d, DUAL_SEARCH_RADIUS):
        if _dsres_witness(a, [-x - den * s for x, s in zip(nums, shift)], den) is None:
            return tuple(-b - s for b, s in zip(beta, shift))
    shift = tuple(-floor(b) for b in beta)
    while not interior_contains(a, vec_add(beta, shift)):
        shift = vec_add(shift, a.column_sum())
    return tuple(-b - s for b, s in zip(beta, shift))
