"""The recursive NA-membership search, kept as an independent oracle.

This is `semigroup_witness` as it was before `gkzkit.cones` moved to one
memo per matrix and to the standard pairs of in(I_A) for deep points: a
depth-first search over column subtractions with a fresh memo on every
call, recursing once per column step.  Its witness is the depth-first one,
so the library must return the same witness up to phi-height n * min w,
and above it the normal form of this witness under the toric ideal.

`standard_pair_witness` keeps the deep route as it was before the pairs
were indexed by sigma and residue: a scan of every standard pair in order,
one product with the left inverse of A_sigma each.
"""

from __future__ import annotations

from math import lcm
from operator import mul
from typing import Optional, Sequence

from lp_oracle import gauss_solve

from gkzkit.cones import _semigroup, cone_contains
from gkzkit.errors import SearchBoundError
from gkzkit.intlinalg import IntMatrix, checked_vector, vec_sub
from gkzkit.polynomials import binomial, standard_pairs
from gkzkit.toric import DEFAULT_ORDER, toric_ideal


def semigroup_witness(a: IntMatrix, b: Sequence[int]) -> Optional[tuple[int, ...]]:
    """x in N^n with A x = b, or None.  Requires NA pointed.

    A non-integral b is never in NA and gets None.  Depth-first search over
    column subtractions, memoized; the functional from the face lattice is
    positive on every nonzero column and bounds the recursion.  Zero columns
    (weight 0) never change the point, so the search skips them.  A point
    deeper than the interpreter's recursion limit raises SearchBoundError.
    """
    point = checked_vector(b, a.d, "point")
    phi = _semigroup(a).phi
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


def standard_pair_witness(a: IntMatrix, b: Sequence[int]) -> Optional[tuple[int, ...]]:
    """The x = m + lambda, lambda in N^sigma, of the first standard pair (m,
    sigma) of the degrevlex in(I_A) with A x = b, or None; b integral."""
    target = tuple(int(x) for x in b)
    if not cone_contains(a, target):
        return None
    cols = a.columns()
    leads = [binomial(g)[0] for g in toric_ideal(a, DEFAULT_ORDER).generators]
    for m, sigma in standard_pairs(leads, a.n):
        rows = [cols[j] for j in sigma]
        inverse = [gauss_solve(rows, [int(i == k) for k in sigma])[0] for i in sigma]
        q = lcm(*(x.denominator for y in inverse for x in y))
        v = vec_sub(target, a.mul_vec(m))
        lam = dict(zip(sigma, (sum(map(mul, (int(x * q) for x in y), v)) for y in inverse)))
        x = tuple(k + lam.get(j, 0) // q for j, k in enumerate(m))
        if all(k >= 0 and k % q == 0 for k in lam.values()) and a.mul_vec(x) == target:
            return x
    return None
