"""The Weyl product and bounded membership search, kept as an oracle.

`weyl_mul` is `weyl.weyl_mul` as it was when every variable was expanded,
commuting or not, and every commutation weight was multiplied into a new
Fraction, one factor at a time.
`ideal_member_bounded` is the search as it was when each call graded every
monomial of degree <= bound, filtered that list once per generator, sorted
the rows of its system by key alone, and built every column m·g in Fraction
arithmetic from the generator as given.  It solves with the Fraction
Gauss-Jordan of `lp_oracle`, so it shares neither the product nor the solver
with the route it checks.  A zero generator gets no columns.  The fast
routes must return the same product and the same certificate.
`_grading_vectors` is `weyl._grading_vectors` as it was before the grading
was cached by term keys: each call builds the rows and runs
`lattice_kernel`, so the oracle does not read the grading from the cache it
checks.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

from lp_oracle import gauss_solve

from gkzkit.intlinalg import IntMatrix, lattice_kernel
from gkzkit.weyl import (
    MembershipCertificate,
    TermKey,
    WeylElement,
    _commute_coeffs,
    _monomials_up_to,
    _weyl_degree,
)


def weyl_mul(x: WeylElement, y: WeylElement) -> WeylElement:
    x._check(y)
    n = x.nvars
    out: dict[TermKey, Fraction] = {}
    for (u1, v1), c1 in x.terms.items():
        for (u2, v2), c2 in y.terms.items():
            base = c1 * c2
            choices = [_commute_coeffs(v1[i], u2[i]) for i in range(n)]
            for picks in product(*choices):
                coeff = base
                ks = []
                for k, w in picks:
                    coeff *= w
                    ks.append(k)
                u = tuple(u1[i] + u2[i] - ks[i] for i in range(n))
                v = tuple(v1[i] + v2[i] - ks[i] for i in range(n))
                out[(u, v)] = out.get((u, v), Fraction(0)) + coeff
    return WeylElement(n, out)


def _grading_vectors(elements: Sequence[WeylElement]) -> Optional[tuple[tuple[int, ...], ...]]:
    """Vectors g making every element homogeneous via deg d_i = g_i; None for the identity."""
    rows = []
    for el in elements:
        keys = list(el.terms)
        if len(keys) < 2:
            continue
        u0, v0 = keys[0]
        base = tuple(vv - uu for uu, vv in zip(u0, v0))
        for u, v in keys[1:]:
            rows.append(tuple((vv - uu) - b for uu, vv, b in zip(u, v, base)))
    if not rows:
        return None
    return tuple(lattice_kernel(IntMatrix.from_rows(rows)))


def ideal_member_bounded(
    target: WeylElement, gens: Sequence[WeylElement], bound: int
) -> Optional[MembershipCertificate]:
    nvars = gens[0].nvars
    if target.is_zero():
        return MembershipCertificate(
            cofactors=tuple(WeylElement.zero(nvars) for _ in gens), bound=bound
        )
    grading = _grading_vectors(list(gens) + [target])
    t_first = next(iter(target.terms))
    t_deg = _weyl_degree(t_first[0], t_first[1], grading)
    graded = [(mono, _weyl_degree(*mono, grading)) for mono in _monomials_up_to(nvars, bound)]
    columns = []
    for gi, g in enumerate(gens):
        if g.is_zero():
            continue
        g_first = next(iter(g.terms))
        g_deg = _weyl_degree(g_first[0], g_first[1], grading)
        want = tuple(t - s for t, s in zip(t_deg, g_deg))
        for mono, deg in graded:
            if deg != want:
                continue
            prod = weyl_mul(WeylElement.monomial(*mono), g)
            if not prod.is_zero():
                columns.append((gi, mono, prod))
    if not columns:
        return None
    row_keys = sorted(
        {k for _, _, prod in columns for k in prod.terms} | set(target.terms)
    )
    key_index = {k: i for i, k in enumerate(row_keys)}
    matrix = [[0] * len(columns) for _ in row_keys]
    for ci, (_, _, prod) in enumerate(columns):
        for k, c in prod.terms.items():
            matrix[key_index[k]][ci] = c
    rhs = [0] * len(row_keys)
    for k, c in target.terms.items():
        rhs[key_index[k]] = c
    sol = gauss_solve(matrix, rhs)
    if sol is None:
        return None
    cof_terms: list[dict[TermKey, Fraction]] = [dict() for _ in gens]
    for x, (gi, mono, _) in zip(sol[0], columns):
        if x != 0:
            cof_terms[gi][mono] = x
    cofactors = tuple(WeylElement(nvars, t) for t in cof_terms)
    total = WeylElement.zero(nvars)
    for c, g in zip(cofactors, gens):
        total = total + weyl_mul(c, g)
    if total != target:
        raise AssertionError("certificate re-expansion mismatch")
    return MembershipCertificate(cofactors=cofactors, bound=bound)
