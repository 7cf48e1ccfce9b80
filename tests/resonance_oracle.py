"""The resonance routes that the face lemmas replaced, kept as an oracle.

These are `sres_witness`, `dsres_witness`, `delta_valid`, `n_beta` and
`dual_parameter` as they were before `gkzkit.resonance` answered every
component question with one multiplier solve or one cone-plus-span LP:
the multiplier is tagged "free" or "unique", the DsRes lattice test
reduces the functionals' values against an HNF, `delta_valid` builds its
own LP with a variable t >= 1, and the interior pass of `dual_parameter`
still tests DsRes.  The library must return exactly what these return, exceptions
included.

`n_beta` here is the built route, which the library's reading of A's own
standard pairs replaced: it solves its own line against each j = 1
component of the quasi-degrees of the homogenized matrix At, and then
checks (b0, beta) against every component of sRes(At), j >= 2 included,
at b0 = bound, bound + 1/2, ..., bound + 6.

Three routes that the library later replaced by integer facet inequalities
(`gkzkit.cones.cone_contains`) are kept here as well: the cone-plus-span
LP `_beta_in_cone_plus_span`, `interior_contains` by `support_functions`,
and the `delta_A` walk that asks `semigroup_contains` before the LP
verifier.

Two routes that the domination and monotonicity lemmas (8 and 9 of
`gkzkit.resonance`) replaced close the file: `delta_valid_all_components`,
the facet-sign test against every component, and `delta_A_every_column`,
the walk that reads it and tries every column at every step.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor
from typing import Optional, Sequence

from lp_oracle import gauss_solve

from gkzkit.cones import cone_contains, face_lattice, semigroup_contains, support_functions
from gkzkit.errors import (
    NotFullLattice,
    NotHomogeneous,
    NotPointed,
    ParameterResonant,
)
from gkzkit.intlinalg import (
    IntMatrix,
    checked_vector,
    hermite_normal_form,
    homogeneity_vector,
    homogenize,
    lattice_kernel,
    vec_add,
    vec_sub,
)
from gkzkit.lp import feasible_point
from gkzkit.resonance import (
    DUAL_SEARCH_RADIUS,
    ResonanceComponent,
    ResonanceWitness,
    _box_shifts,
    resonance_set,
)
from gkzkit.toric import quasi_degrees


def _component_multiplier(
    a: IntMatrix, comp: ResonanceComponent, beta: Sequence[Fraction]
) -> Optional[tuple[str, Optional[Fraction]]]:
    """Solve beta + m*shift in offset + QF for the multiplier m.

    Returns ("free", None) when any m works (shift inside the face span),
    ("unique", m) when the multiplier is pinned down, None when infeasible.
    """
    cols = list(comp.face_columns)
    rows = []
    rhs = []
    for i in range(a.d):
        row = [comp.shift[i]]
        row.extend(-a.entry(i, j - 1) for j in cols)
        rows.append(row)
        rhs.append(comp.offset[i] - beta[i])
    sol = gauss_solve(rows, rhs)
    if sol is None:
        return None
    particular, nullspace = sol
    if any(vec[0] != 0 for vec in nullspace):
        return ("free", None)
    return ("unique", particular[0])


def sres_witness(
    a: IntMatrix, beta: Sequence[Fraction]
) -> Optional[ResonanceWitness]:
    """A component and integer multiplier certifying beta in sRes(A), or None."""
    beta = checked_vector(beta, a.d, "beta")
    for comp in resonance_set(a).components:
        got = _component_multiplier(a, comp, beta)
        if got is None:
            continue
        kind, m = got
        if kind == "free":
            chosen = Fraction(1)
        elif m.denominator == 1 and m >= 1:
            chosen = m
        else:
            continue
        return ResonanceWitness(
            j=comp.j,
            offset=comp.offset,
            face_columns=comp.face_columns,
            multiplier=chosen,
        )
    return None


def sres_contains(a: IntMatrix, beta: Sequence[Fraction]) -> bool:
    return sres_witness(a, beta) is not None


def dsres_witness(a: IntMatrix, beta: Sequence[Fraction]) -> Optional[tuple[int, ...]]:
    """Columns of a proper face F certifying beta in DsRes(A), or None.

    Membership per face is tested in the quotient modulo QF: the class of
    beta must lie in both the image of the cone and the image of Z^d.
    """
    if not a.spans_lattice:
        raise NotFullLattice("DsRes requires columns generating Z^d")
    beta = checked_vector(beta, a.d, "beta")
    for face in face_lattice(a).proper_faces:
        cols = sorted(face.columns)
        if not _beta_in_lattice_plus_span(a, cols, beta):
            continue
        if not _beta_in_cone_plus_span(a, cols, beta):
            continue
        return tuple(cols)
    return None


def dsres_contains(a: IntMatrix, beta: Sequence[Fraction]) -> bool:
    return dsres_witness(a, beta) is not None


def _beta_in_lattice_plus_span(a: IntMatrix, cols, beta) -> bool:
    """beta in Z^d + QF, via integer functionals annihilating the face span.

    With psi_1..psi_k a basis of the annihilator of QF in the dual lattice,
    beta lies in Z^d + QF iff (psi_i . beta)_i is hit by some integer point.
    """
    if not cols:
        return all(Fraction(x).denominator == 1 for x in beta)
    span = IntMatrix.from_rows(
        [[a.entry(i, j - 1) for i in range(a.d)] for j in cols]
    )  # rows are the face columns; kernel = annihilator functionals
    ann = lattice_kernel(span)
    if not ann:
        return True  # face spans Q^d
    values = [sum(Fraction(p) * Fraction(b) for p, b in zip(psi, beta)) for psi in ann]
    if any(v.denominator != 1 for v in values):
        return False  # psi(Z^d) is integral
    # the values are hit exactly when they lie in the lattice of the psi matrix's columns
    return _row_lattice_contains(list(zip(*ann)), [int(v) for v in values])


def _row_lattice_contains(rows, v) -> bool:
    """Whether the integer v is an integer combination of the rows: it reduces
    to 0 against their HNF, pivot by pivot."""
    v = list(v)
    for row in hermite_normal_form(IntMatrix.from_rows(rows)).rows:
        if any(row):
            p = next(k for k, x in enumerate(row) if x)
            q, r = divmod(v[p], row[p])
            if r:
                return False
            v = [x - q * y for x, y in zip(v, row)]
    return not any(v)


def _beta_in_cone_plus_span(a: IntMatrix, cols, beta) -> bool:
    """beta in Q+A + QF via LP feasibility."""
    rows = [[*row, *(row[j - 1] for j in cols)] for row in a.rows]
    nonneg = [True] * a.n + [False] * len(cols)
    return feasible_point(rows, beta, nonneg) is not None


def delta_valid(a: IntMatrix, delta: Sequence[int]) -> bool:
    """Whether (R+A + delta) misses every resonance component (real t >= 1 LP)."""
    delta = tuple(int(x) for x in delta)
    for comp in resonance_set(a).components:
        cols = list(comp.face_columns)
        # delta + A x = -t*shift + offset + F c,  x >= 0, t >= 1, c free
        rows = []
        rhs = []
        for i, arow in enumerate(a.rows):
            rows.append([*arow, comp.shift[i], *(-arow[j - 1] for j in cols)])
            rhs.append(comp.offset[i] - delta[i] - comp.shift[i])
        nonneg = [True] * (a.n + 1) + [False] * len(cols)
        if feasible_point(rows, rhs, nonneg) is not None:
            return False
    return True


def delta_A(a: IntMatrix) -> tuple[int, ...]:
    """The greedy cone-shift walk with the semigroup test asked first."""
    if not a.spans_lattice:
        raise NotFullLattice("delta requires columns generating Z^d")
    if not face_lattice(a).pointed:
        raise NotPointed("delta requires a pointed semigroup")
    delta = a.column_sum()
    for comp in resonance_set(a).components:
        delta = vec_add(delta, comp.offset)
    if not delta_valid(a, delta):
        raise AssertionError("constructed delta failed its own verifier")
    improved = True
    while improved:
        improved = False
        for j in range(a.n):
            cand = vec_sub(delta, a.column(j))
            if semigroup_contains(a, cand) and delta_valid(a, cand):
                delta = cand
                improved = True
                break
    return delta


def interior_contains(a: IntMatrix, b: Sequence) -> bool:
    """Membership of b in the interior of R+A by strict support-function signs."""
    return all(s(b) > 0 for s in support_functions(a))


def n_beta(a: IntMatrix, beta: Sequence[Fraction]) -> int:
    """Integer bound so that (b0, beta) stays non-strongly-resonant for b0 >= bound."""
    beta = checked_vector(beta, a.d, "beta")
    if sres_contains(a, beta):
        raise ParameterResonant("beta is strongly resonant")
    atilde = homogenize(a)
    bound = 0
    for pair in quasi_degrees(atilde, 1).components:
        t = _line_hits_component(atilde, pair, beta)
        if t is not None:
            bound = max(bound, ceil(t))
    for k in range(13):
        if sres_contains(atilde, (bound + Fraction(k, 2),) + beta):
            raise AssertionError("n_beta bound failed its check")
    return bound


def _line_hits_component(atilde, pair, beta) -> Optional[Fraction]:
    """t with (t, beta) in offset + QF, unique when (1,0,..,0) is off the span."""
    cols = sorted(pair.face.columns)
    rows = []
    rhs = []
    for i in range(1, atilde.d):
        rows.append([atilde.entry(i, j - 1) for j in cols])
        rhs.append(beta[i - 1] - pair.offset[i])
    if cols:
        sol = gauss_solve(rows, rhs)
        if sol is None:
            return None
        coeffs, _ = sol
    else:
        if any(x != 0 for x in rhs):
            return None
        coeffs = []
    t = Fraction(pair.offset[0])
    for c, j in zip(coeffs, cols):
        t += c * Fraction(atilde.entry(0, j - 1))
    return t


def dual_parameter(
    a: IntMatrix, beta: Sequence[Fraction], radius: int = DUAL_SEARCH_RADIUS
) -> tuple[Fraction, ...]:
    """beta' congruent to -beta mod Z^d with beta' outside DsRes(A).

    Scans integer translates of -beta, preferring candidates in the interior
    of the negated cone, where the dual set provably cannot reach.  When
    both scans fail, it walks shifts -floor(beta) + k * (column sum), k = 0,
    1, .., to the first interior one, still testing DsRes.
    """
    beta = checked_vector(beta, a.d, "beta")
    if homogeneity_vector(a) is None:
        raise NotHomogeneous("dual parameters need a homogeneous matrix")
    if sres_contains(a, beta):
        raise ParameterResonant("beta is strongly resonant")
    for shift in _box_shifts(a.d, radius):
        cand = tuple(-b - s for b, s in zip(beta, shift))
        neg = tuple(-x for x in cand)
        if interior_contains(a, neg) and not dsres_contains(a, cand):
            return cand
    for shift in _box_shifts(a.d, radius):
        cand = tuple(-b - s for b, s in zip(beta, shift))
        if not dsres_contains(a, cand):
            return cand
    shift = tuple(-floor(b) for b in beta)
    while True:
        cand = tuple(-b - s for b, s in zip(beta, shift))
        if interior_contains(a, tuple(-x for x in cand)) and not dsres_contains(a, cand):
            return cand
        shift = vec_add(shift, a.column_sum())


def delta_valid_all_components(a: IntMatrix, delta: Sequence[int]) -> bool:
    """Whether (R+A + delta) misses every resonance component, by facet signs
    against each component in turn (lemma 4), none of them pruned."""
    delta = tuple(int(x) for x in delta)
    return not any(
        cone_contains(
            a, [comp.offset[i] - delta[i] - comp.shift[i] for i in range(a.d)], comp.face_columns
        )
        for comp in resonance_set(a).components
    )


def delta_A_every_column(a: IntMatrix) -> tuple[int, ...]:
    """The greedy walk over every column at every step, verifier first."""
    if not a.spans_lattice:
        raise NotFullLattice("delta requires columns generating Z^d")
    if not face_lattice(a).pointed:
        raise NotPointed("delta requires a pointed semigroup")
    delta = a.column_sum()
    for comp in resonance_set(a).components:
        delta = vec_add(delta, comp.offset)
    if not delta_valid_all_components(a, delta):
        raise AssertionError("constructed delta failed its own verifier")
    improved = True
    while improved:
        improved = False
        for j in range(a.n):
            cand = vec_sub(delta, a.column(j))
            if delta_valid_all_components(a, cand) and semigroup_contains(a, cand):
                delta = cand
                improved = True
                break
    return delta
