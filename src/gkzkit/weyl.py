"""Weyl-algebra arithmetic and the box/Euler presentations built on it.

Elements are kept normally ordered (every lambda to the left of every d),
so equality is literal equality of term maps; the term-map arithmetic and
rendering are `polynomials.TermMap`, shared with `Polynomial`.  Every Euler
operator, in presentations, restrictions and the Euler field, comes from
`euler_operator`.  The commutator is
[d_i, lambda_i] = 1; products are expanded with the one-variable identity

    d^a lambda^b = sum_k k! C(a,k) C(b,k) lambda^(b-k) d^(a-k).

`_mul_terms` expands products of raw term maps, for `weyl_mul` and, on
integer maps, for the columns of `ideal_member_bounded`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from operator import add, sub
from typing import Iterable, Optional, Sequence

from .errors import ColumnIndexOutOfRange, FirstRowNotOnes, NotFullLattice, ParseError, VariableMismatch
from .intlinalg import (
    IntMatrix,
    checked_vector,
    homogeneity_vector,
    homogenize,
    lattice_kernel,
    parse_fraction,
    vec_sub,
)
from .lp import _cleared, gauss_solve
from .polynomials import TermMap
from .toric import a_degree, toric_ideal

TermKey = tuple[tuple[int, ...], tuple[int, ...]]  # (lambda exponents, d exponents)


class WeylElement(TermMap):
    """Normally ordered element of the Weyl algebra in nvars variable pairs."""

    __slots__ = ()

    @classmethod
    def scalar(cls, nvars: int, c) -> "WeylElement":
        z = (0,) * nvars
        return cls(nvars, {(z, z): Fraction(c)})

    @classmethod
    def one(cls, nvars: int) -> "WeylElement":
        return cls.scalar(nvars, 1)

    @classmethod
    def lam(cls, i: int, nvars: int, power: int = 1) -> "WeylElement":
        return cls(nvars, {(_exponents(i, nvars, power), (0,) * nvars): Fraction(1)})

    @classmethod
    def dee(cls, i: int, nvars: int, power: int = 1) -> "WeylElement":
        return cls(nvars, {((0,) * nvars, _exponents(i, nvars, power)): Fraction(1)})

    @classmethod
    def monomial(cls, u: Sequence[int], v: Sequence[int], coeff=1) -> "WeylElement":
        if len(u) != len(v):
            raise VariableMismatch(f"{len(u)} lambda exponents but {len(v)} d exponents")
        for i, e in [*enumerate(u), *enumerate(v)]:
            if e < 0:
                raise ColumnIndexOutOfRange(f"exponent {e} of variable {i} is negative")
        return cls(len(u), {(tuple(u), tuple(v)): Fraction(coeff)})

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return weyl_mul(self, other)

    def total_degree(self) -> int:
        return max((sum(u) + sum(v) for u, v in self.terms), default=0)

    def uses_lambda(self, i: int) -> bool:
        return any(u[i] for u, _ in self.terms)

    def uses_dee(self, i: int) -> bool:
        return any(v[i] for _, v in self.terms)

    def is_dee_only(self) -> bool:
        z = (0,) * self.nvars
        return all(u == z for u, _ in self.terms)

    def a_degree(self, a: IntMatrix) -> Optional[tuple[int, ...]]:
        """Common degree under deg(lambda_j) = -a_j, deg(d_j) = a_j; None if mixed."""
        return a_degree((vec_sub(v, u) for u, v in self.terms), a)

    def sorted_terms(self) -> list[tuple[TermKey, Fraction]]:
        return sorted(
            self.terms.items(),
            key=lambda t: (sum(t[0][0]) + sum(t[0][1]), t[0]),
            reverse=True,
        )

    def pretty(self) -> str:
        """Render in the CLI operator syntax: l<i> for lambda_i, d<i> for d_i."""
        names = [f"l{i}" for i in range(self.nvars)] + [f"d{i}" for i in range(self.nvars)]
        return self._render(
            (self._power_product(names, u + v), c) for (u, v), c in self.sorted_terms()
        )

    def __repr__(self):
        return f"WeylElement({self.pretty()})"


def _exponents(i: int, nvars: int, power: int) -> tuple[int, ...]:
    """The exponent vector of variable i (0-based) to a nonnegative power."""
    if not 0 <= i < nvars:
        raise ColumnIndexOutOfRange(f"variable index {i} is not in 0..{nvars - 1}")
    if power < 0:
        raise ColumnIndexOutOfRange(f"exponent {power} of variable {i} is negative")
    return tuple(power if k == i else 0 for k in range(nvars))


@lru_cache(maxsize=None)
def _commute_coeffs(a: int, b: int) -> tuple[tuple[int, int], ...]:
    """d^a lambda^b = sum_k coeff * lambda^(b-k) d^(a-k); entries (k, coeff)."""
    from math import comb, factorial

    return tuple(
        (k, factorial(k) * comb(a, k) * comb(b, k)) for k in range(min(a, b) + 1)
    )


def weyl_mul(x: WeylElement, y: WeylElement) -> WeylElement:
    """Normally ordered product, `_mul_terms` wrapped in a `WeylElement`."""
    x._check(y)
    return WeylElement(x.nvars, _mul_terms(x.terms, y.terms))


def _mul_terms(x_terms: dict, y_terms: dict) -> dict:
    """Normally ordered product of raw term maps, less the terms that cancel.

    d^v1 lambda^u2 is expanded only over the variables i where v1_i and u2_i
    are both positive.  Every other variable commutes, and its only pick is
    (k, weight) = (0, 1), so the picks come in the order of the product over
    all variables, with the same terms and the same integer weights.  The
    coefficients may be `int` or `Fraction`; integer maps give an integer map.
    """
    out: dict = {}
    for (u1, v1), c1 in x_terms.items():
        for (u2, v2), c2 in y_terms.items():
            base = c1 * c2
            u0, v0 = tuple(map(add, u1, u2)), tuple(map(add, v1, v2))
            busy = [i for i, (a, b) in enumerate(zip(v1, u2)) if a and b]
            if not busy:
                out[(u0, v0)] = out.get((u0, v0), 0) + base
                continue
            for picks in product(*[_commute_coeffs(v1[i], u2[i]) for i in busy]):
                w = 1
                u, v = list(u0), list(v0)
                for i, (k, wk) in zip(busy, picks):
                    w *= wk
                    u[i] -= k
                    v[i] -= k
                key = (tuple(u), tuple(v))
                out[key] = out.get(key, 0) + base * w
    return {k: c for k, c in out.items() if c}


_TOKEN = re.compile(r"\s*([ld]\d+|\d+/\d+|\d+|[-+*^()])")


def variable_count(texts: Iterable[str]) -> int:
    """One more than the largest variable index in the operator texts."""
    indices = [int(t[1:]) for text in texts for t in _TOKEN.findall(text) if t[0] in "ld"]
    if not indices:
        raise ParseError("no variables found; pass the variable count explicitly")
    return max(indices) + 1


def parse_weyl(text: str, nvars: Optional[int] = None) -> WeylElement:
    """Parse the CLI operator syntax, e.g. '3*l0^2*d0 - 4*l1*l2*d0^2 + l0'.

    Factors multiply left to right as Weyl-algebra elements, so 'd0*l0'
    normalizes to 'l0*d0 + 1'.  Without nvars, the text's own
    `variable_count` is used.
    """
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ParseError(f"bad operator syntax near {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    if nvars is None:
        nvars = variable_count([text])
    if nvars < 1:
        raise ParseError(f"the variable count must be positive, got {nvars}")
    parser = _WeylParser(tokens, nvars)
    result = parser.parse_sum()
    if parser.pos != len(tokens):
        raise ParseError(f"trailing tokens {tokens[parser.pos:]!r}")
    return result


class _WeylParser:
    """Operator parser; each open parenthesis pushes the enclosing sum onto
    an explicit stack, so nesting depth costs no recursion."""

    def __init__(self, tokens: list[str], nvars: int):
        self.tokens = tokens
        self.nvars = nvars
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of operator expression")
        self.pos += 1
        return tok

    def signs(self) -> int:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        return sign

    def parse_sum(self) -> WeylElement:
        """sum := sign* product (sign+ product)*, product := factor ('*'? factor)*,
        factor := ('(' sum ')' | l<i> | d<i> | number) ('^' digits)?."""
        zero, one = WeylElement.zero(self.nvars), WeylElement.one(self.nvars)
        stack = []  # (total, sign, product) of the sum around each open '('
        total, sign, product = zero, self.signs(), one
        while True:
            tok = self.take()
            if tok == "(":
                stack.append((total, sign, product))
                total, sign, product = zero, self.signs(), one
                continue
            factor = self.atom(tok)
            while True:
                product = weyl_mul(product, self.power(factor))
                tok = self.peek()
                if tok == "*":
                    self.take()
                if tok == "*" or tok is not None and (tok[0] in "ld(" or tok[0].isdigit()):
                    break
                total, product = total + product.scale(sign), one
                if tok in ("+", "-"):
                    sign = self.signs()
                    break
                if not stack:
                    return total
                if self.take() != ")":
                    raise ParseError("unbalanced parentheses")
                factor, (total, sign, product) = total, stack.pop()

    def atom(self, tok: str) -> WeylElement:
        if tok[0] in "ld" and tok[1:].isdigit():
            if int(tok[1:]) >= self.nvars:
                raise ParseError(f"variable index {int(tok[1:])} out of range")
            make = WeylElement.lam if tok[0] == "l" else WeylElement.dee
            return make(int(tok[1:]), self.nvars)
        if tok[0].isdigit():
            return WeylElement.scalar(self.nvars, parse_fraction(tok))
        raise ParseError(f"unexpected token {tok!r}")

    def power(self, base: WeylElement) -> WeylElement:
        """base^k by square and multiply over the bits of k after the leading
        one, at most 2 log2 k products: by associativity and the uniqueness of
        the normally ordered form, the element that k - 1 products give."""
        if self.peek() != "^":
            return base
        self.take()
        expo_tok = self.take()
        if not expo_tok.isdigit():
            raise ParseError(f"bad exponent {expo_tok!r}")
        k = int(expo_tok)
        out = base if k else WeylElement.one(self.nvars)
        for bit in bin(k)[3:]:
            out = weyl_mul(out, out)
            if bit == "1":
                out = weyl_mul(out, base)
        return out


@dataclass(frozen=True)
class GKZPresentation:
    matrix: IntMatrix
    beta: tuple[Fraction, ...]
    boxes: tuple[WeylElement, ...]
    eulers: tuple[WeylElement, ...]

    def generators(self) -> list[WeylElement]:
        return list(self.boxes) + list(self.eulers)


def binomial_to_weyl(p, nvars: int) -> WeylElement:
    """Transcribe a d-only polynomial into the Weyl algebra, its variables
    moved up to the last p.nvars of the nvars d's."""
    zero, pad = (0,) * nvars, (0,) * (nvars - p.nvars)
    return WeylElement(nvars, {(zero, pad + m): c for m, c in p.terms.items()})


def euler_operator(a: IntMatrix, k: int, beta_k: Fraction) -> WeylElement:
    """E_k - beta_k = sum_i a_ki lambda_i d_i - beta_k (k is 0-based row index)."""
    n = a.n
    terms: dict[TermKey, Fraction] = {}
    for i in range(n):
        coeff = a.entry(k, i)
        if coeff:
            u = tuple(1 if t == i else 0 for t in range(n))
            terms[(u, u)] = Fraction(coeff)
    if beta_k:
        zero = (0,) * n
        terms[(zero, zero)] = terms.get((zero, zero), Fraction(0)) - Fraction(beta_k)
    return WeylElement(n, terms)


def gkz_presentation(
    a: IntMatrix, beta: Sequence[Fraction], order_name: str = "degrevlex"
) -> GKZPresentation:
    """Box operators from the toric ideal plus Euler operators E_k - beta_k."""
    if not a.spans_lattice:
        raise NotFullLattice("GKZ data requires columns generating Z^d")
    beta = checked_vector(beta, a.d, "beta")
    ideal = toric_ideal(a, order_name)
    boxes = tuple(binomial_to_weyl(g, a.n) for g in ideal.generators)
    eulers = tuple(euler_operator(a, k, beta[k]) for k in range(a.d))
    return GKZPresentation(matrix=a, beta=beta, boxes=boxes, eulers=eulers)


def restrict_presentation(
    atilde: IntMatrix, beta_tilde: Sequence[Fraction], order_name: str = "degrevlex"
) -> list[WeylElement]:
    """Generators of the restriction to lambda_0 = 1 of a homogenized system.

    Requires atilde = homogenize(A) with the first row of A all ones; the
    output lives in n+1 variable pairs but never uses lambda_0, and uses d_0
    only in the added operator d_0 + sum_i lambda_i d_i.
    """
    beta_tilde = checked_vector(beta_tilde, atilde.d, "beta")
    d, n = atilde.d - 1, atilde.n - 1
    if d < 1 or n < 1:
        raise FirstRowNotOnes("matrix is too small to be a homogenization")
    inner = IntMatrix.from_rows([row[1:] for row in atilde.rows[1:]])
    if atilde != homogenize(inner):
        raise FirstRowNotOnes("matrix is not a homogenization")
    if any(x != 1 for x in inner.rows[0]):
        raise FirstRowNotOnes("inner matrix must have first row all ones")
    nvars = n + 1
    gens = [binomial_to_weyl(g, nvars) for g in toric_ideal(inner, order_name).generators]
    # Rows 1..d of atilde are (0 | A), so these are the Euler operators of A
    # moved to variables 1..n.
    gens.extend(euler_operator(atilde, k, beta_tilde[k]) for k in range(1, d + 1))
    rest = IntMatrix.from_rows([[0] + [1] * n])
    gens.append(WeylElement.dee(0, nvars) + euler_operator(rest, 0, 0))
    return gens


@dataclass(frozen=True)
class MembershipCertificate:
    cofactors: tuple[WeylElement, ...]
    bound: int

    def combine(self, gens: Sequence[WeylElement]) -> WeylElement:
        total = WeylElement.zero(gens[0].nvars)
        for c, g in zip(self.cofactors, gens):
            total = total + weyl_mul(c, g)
        return total


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


def _weyl_degree(u, v, grading) -> tuple[int, ...]:
    if grading is None:
        return vec_sub(v, u)
    diff = [(i, y - x) for i, (x, y) in enumerate(zip(u, v)) if x != y]
    return tuple(sum(g[i] * e for i, e in diff) for g in grading)


def ideal_member_bounded(
    target: WeylElement, gens: Sequence[WeylElement], bound: int
) -> Optional[MembershipCertificate]:
    """Left-ideal membership with cofactor total degree <= bound.

    Coefficient matching in the normally ordered expansion yields an exact
    linear system over Q.  Returns None when no certificate exists at this
    bound (which proves nothing beyond the bound).

    Grading lemma: the generators are homogeneous under their own
    `_grading_vectors` (deg d_i = g_i, deg lambda_i = -g_i), so the left
    ideal is graded, and the target is a member at a bound exactly when
    each homogeneous part of it is (the parts of a certificate's cofactors
    keep its bound).  So the candidate cofactors of a generator are, for
    each degree of the target's terms in turn, the monomials of the wanted
    degree, read from `_monomials_by_degree`.  Each degree group keeps the
    `_monomials_up_to` order, so the columns come in the order of filtering
    that whole list by degree, one generator after another: the linear
    system, and so the certificate, is the one the filter gives.  A zero
    generator gets no columns and the zero cofactor.

    The rows (term keys) are sorted by the number of columns using the key,
    then by the key, and each is built as a dict straight from the column
    products.  By the lemma of `gauss_solve`, its pivot columns, the
    particular solution (the cofactors) and the inconsistency verdict
    depend on M and b alone, not on the row order.  It pivots on the first
    remaining row that holds each column and updates only the rows that
    hold it, so the sparse rows come first and fill in less.

    Column-scaling lemma: with q_g the least common denominator of g's
    coefficients, the column of (g, m) is the integer m·G_g, G_g = q_g·g, so
    the system is M·D with D = diag(q_g) > 0.  Scaling columns by positive
    constants keeps the zero pattern of every elimination step, so
    `gauss_solve` picks the same pivots, gives the same verdict and returns
    x' = D⁻¹x; each cofactor coefficient x'·q_g is the `Fraction` x.  The
    re-expansion check multiplies by the unscaled generators.
    """
    if not gens:
        return None
    nvars = gens[0].nvars
    for g in gens:
        if g.nvars != nvars:
            raise VariableMismatch("generators use different variable counts")
    target._check(gens[0])
    if target.is_zero():
        return MembershipCertificate(
            cofactors=tuple(WeylElement.zero(nvars) for _ in gens), bound=bound
        )
    grading = _grading_vectors(gens)
    by_degree = _monomials_by_degree(nvars, bound, grading)
    cleared = [_cleared(list(g.terms.values())) for g in gens]  # (q_g·g's coefficients, q_g)
    scaled = [dict(zip(g.terms, ints)) for g, (ints, _) in zip(gens, cleared)]
    columns: list[tuple[int, TermKey, dict]] = []
    for t_deg in dict.fromkeys(_weyl_degree(u, v, grading) for u, v in target.terms):
        for gi, g in enumerate(gens):
            if g.is_zero():
                continue  # no column: its cofactor stays zero
            want = tuple(map(sub, t_deg, _weyl_degree(*next(iter(g.terms)), grading)))
            for mono in by_degree.get(want, ()):
                prod = _mul_terms({mono: 1}, scaled[gi])
                if prod:
                    columns.append((gi, mono, prod))
    if not columns:
        return None
    uses: dict[TermKey, int] = dict.fromkeys(target.terms, 0)
    for _, _, prod in columns:
        for k in prod:
            uses[k] = uses.get(k, 0) + 1
    row_keys = sorted(uses, key=lambda k: (uses[k], k))
    key_index = {k: i for i, k in enumerate(row_keys)}
    rows: list[dict[int, int]] = [{} for _ in row_keys]
    for ci, (_, _, prod) in enumerate(columns):
        for k, c in prod.items():
            rows[key_index[k]][ci] = c
    rhs = [0] * len(row_keys)
    for k, c in target.terms.items():
        rhs[key_index[k]] = c
    coeffs = gauss_solve(rows, rhs, len(columns))
    if coeffs is None:
        return None
    cof_terms: list[dict[TermKey, Fraction]] = [dict() for _ in gens]
    for x, (gi, mono, _) in zip(coeffs, columns):
        if x != 0:
            cof_terms[gi][mono] = x * cleared[gi][1]
    cert = MembershipCertificate(
        cofactors=tuple(WeylElement(nvars, t) for t in cof_terms), bound=bound
    )
    if cert.combine(gens) != target:
        raise AssertionError("certificate re-expansion mismatch")
    return cert


@lru_cache(maxsize=16)
def _monomials_by_degree(
    nvars: int, bound: int, grading: Optional[tuple[tuple[int, ...], ...]]
) -> dict[tuple[int, ...], list[TermKey]]:
    """The monomials of `_monomials_up_to(nvars, bound)` grouped by degree
    under `grading`, each group in that order; a small cache, so that a
    one-off large bound does not stay in memory."""
    groups: dict[tuple[int, ...], list[TermKey]] = {}
    for mono in _monomials_up_to(nvars, bound):
        groups.setdefault(_weyl_degree(*mono, grading), []).append(mono)
    return groups


def _monomials_up_to(nvars: int, bound: int) -> Iterable[TermKey]:
    """All (lambda, d) exponent pairs of total degree <= bound, each degree in
    lexicographic order: the 2 nvars - 1 bars among its stars, as combinations."""
    parts = 2 * nvars
    for total in range(bound + 1):
        end = total + parts - 1
        for bars in combinations(range(end), parts - 1):
            combo = tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (end,)))
            yield combo[:nvars], combo[nvars:]


def euler_field(nvars: int) -> WeylElement:
    """sum_i lambda_i d_i, the Euler operator of a single row of ones."""
    return euler_operator(IntMatrix.from_rows([[1] * nvars]), 0, 0)


def euler_decomposition(a: IntMatrix) -> Optional[tuple[int, ...]]:
    """h with sum_k h_k E_k = sum_i lambda_i d_i, verified symbolically."""
    h = homogeneity_vector(a)
    if h is None:
        return None
    total = WeylElement.zero(a.n)
    for k in range(a.d):
        total = total + euler_operator(a, k, Fraction(0)).scale(h[k])
    if total != euler_field(a.n):
        raise AssertionError("euler decomposition identity failed")
    return h
