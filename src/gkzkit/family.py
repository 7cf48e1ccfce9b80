"""Factorization bookkeeping for families of Laurent polynomials.

Covers the Smith-based splitting B = C * D1 * A, the index sets of
congruence-class representatives with resonance-avoiding sections, and the
exponent-level morphism from relative-form data into the homogenized system.

Lemma (the index-set walks end).  A~ = homogenize(A) spans Z^(d+1) with A,
so each facet G of its cone has an integer normal nu_G >= 0 on the columns,
and nu_G . S >= 1 for S the column sum.  Kind "I": a component (offset o,
face F, column j) of sRes(A~) is o - m*a_j + QF over m >= 1, j off F.  F is
the intersection of the facets holding it, so one of them, G, has nu_G . a_j
> 0, and nu_G . x <= nu_G . o - nu_G . a_j on the whole component.  Each step
of S raises nu_G of every member by at least 1, past that bound for good.
Kind "Iprime" steps by -S, so it ends by lemma 10 of `resonance`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

from .errors import ColumnIndexOutOfRange, ParseError
from .intlinalg import IntMatrix, checked_integer_vector, homogenize, smith_decompose, vec_add
from .resonance import delta_A, dsres_contains, sres_contains
from .weyl import WeylElement, euler_operator


@dataclass(frozen=True)
class FamilyData:
    """B = C * diag(e) * A with A spanning the lattice; the Laurent family
    -sum_i lambda_i y^(b_i) is kept as exponent data only (columns of B)."""

    B: IntMatrix
    C: IntMatrix
    e: tuple[int, ...]
    A: IntMatrix

    def laurent_exponents(self) -> list[tuple[int, ...]]:
        return self.B.columns()


def factor_B(b: IntMatrix) -> FamilyData:
    """Split B through its Smith form; raises RankDeficient below full rank."""
    dec = smith_decompose(b)
    a = dec.A
    if not a.spans_lattice:
        raise AssertionError("D2 @ M should always span the lattice")
    return FamilyData(B=b, C=dec.C, e=dec.e, A=a)


def i_e_classes(e: Sequence[int]) -> list[tuple[Fraction, ...]]:
    """The set prod_k {0, 1/e_k, .., (e_k-1)/e_k}, sorted."""
    axes = [[Fraction(r, ek) for r in range(ek)] for ek in e]
    return sorted(product(*axes))


@dataclass(frozen=True)
class IndexSet:
    kind: str  # "I" or "Iprime"
    members: tuple[tuple[Fraction, ...], ...]
    shift: tuple[int, ...]
    e: tuple[int, ...]


def index_sets(b: IntMatrix, kind: str) -> IndexSet:
    """Representatives (0, gamma) + shift, gamma in I_e, one congruence class each.

    kind "I" wants every member outside sRes(A~), and walks the shift from
    delta_A(A~) along the column sum S of A~; kind "Iprime" wants every
    member outside DsRes(A~), and walks it from 0 along -S.  Each walk stops
    at the first shift that rejects no member, which the module docstring's
    lemma proves exists.
    """
    if kind not in ("I", "Iprime"):
        raise ParseError(f"index set kind must be 'I' or 'Iprime', not {kind!r}")
    fam = factor_B(b)
    atilde = homogenize(fam.A)
    base = [(Fraction(0),) + g for g in i_e_classes(fam.e)]
    colsum = atilde.column_sum()
    if kind == "I":
        shift, step = delta_A(atilde), colsum
        reject = lambda member: sres_contains(atilde, member)
    else:
        shift, step = tuple(0 for _ in range(atilde.d)), tuple(-x for x in colsum)
        reject = lambda member: dsres_contains(atilde, member)
    while True:
        members = [tuple(Fraction(s) + x for s, x in zip(shift, m)) for m in base]
        if not any(reject(m) for m in members):
            return IndexSet(kind=kind, members=tuple(members), shift=tuple(shift), e=fam.e)
        shift = vec_add(shift, step)


@dataclass(frozen=True)
class PsiImage:
    """d_0^(s-m+1) d_1^(m_1) .. d_n^(m_n), with a formal d_0 exponent."""

    coefficient: Fraction
    exponents: tuple[int, ...]


def psi_image(m: Sequence[int], s: int) -> PsiImage:
    """Image of y^(sum m_i a_i) w0 (x) d0^s under the comparison morphism."""
    m = checked_integer_vector(m, len(m), "m")
    (s,) = checked_integer_vector((s,), 1, "s")
    return PsiImage(coefficient=Fraction(1), exponents=(s - sum(m) + 1,) + m)


def psi_lambda_derivative(m: Sequence[int], s: int, i: int) -> tuple[tuple[int, ...], int]:
    """The d_lambda_i action on monomial data: multiply by y^(a_i), bump d_0."""
    m = checked_integer_vector(m, len(m), "m")
    (s,) = checked_integer_vector((s,), 1, "s")
    if not 0 <= i < len(m):
        raise ColumnIndexOutOfRange(f"variable index {i} is not in 0..{len(m) - 1}")
    bumped = m[:i] + (m[i] + 1,) + m[i + 1 :]
    return bumped, s + 1


def psi_kernel_sections(a: IntMatrix) -> list[WeylElement]:
    """The d flat sections sum_i a_ki lambda_i d_i, one per row, in n+1 pairs.

    Each section equals the corresponding beta-free Euler operator of the
    homogenized presentation, so it reduces to zero against the generators.
    """
    atilde = homogenize(a)
    return [euler_operator(atilde, k + 1, 0) for k in range(a.d)]
