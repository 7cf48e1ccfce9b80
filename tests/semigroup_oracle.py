"""The recursive NA-membership search, kept as an independent oracle.

This is `semigroup_witness` as it was before `gkzkit.cones` moved to one
memo per matrix and to the standard pairs of in(I_A) for deep points: a
depth-first search over column subtractions with a fresh memo on every
call, recursing once per column step.  Its witness is the depth-first one,
so the library must return the same witness up to phi-height n * min w,
and above it the normal form of this witness under the toric ideal.
"""

from __future__ import annotations

from typing import Optional, Sequence

from gkzkit.cones import positive_functional
from gkzkit.errors import SearchBoundError
from gkzkit.intlinalg import IntMatrix, checked_vector, vec_sub


def semigroup_witness(a: IntMatrix, b: Sequence[int]) -> Optional[tuple[int, ...]]:
    """x in N^n with A x = b, or None.  Requires NA pointed.

    A non-integral b is never in NA and gets None.  Depth-first search over
    column subtractions, memoized; the functional from the face lattice is
    positive on every nonzero column and bounds the recursion.  Zero columns
    (weight 0) never change the point, so the search skips them.  A point
    deeper than the interpreter's recursion limit raises SearchBoundError.
    """
    point = checked_vector(b, a.d, "point")
    phi = positive_functional(a)
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
