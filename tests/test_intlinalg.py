import random
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import smith_oracle
from lp_oracle import gauss_solve

from gkzkit import (
    IntMatrix,
    homogeneity_vector,
    homogenize,
    lattice_kernel,
    parse_matrix,
    smith_decompose,
)
from gkzkit.errors import ParseError, RankDeficient
from gkzkit.intlinalg import (
    _smith_tracked,
    elementary_divisors,
    hermite_normal_form,
    signed_minors,
)

try:
    from sympy import Matrix
    from sympy.matrices.normalforms import invariant_factors
except ImportError:  # the library's own Smith form stands in
    Matrix = None


def random_full_rank(rng, d, n):
    while True:
        m = IntMatrix.from_rows(
            [[rng.randint(-6, 6) for _ in range(n)] for _ in range(d)]
        )
        try:
            smith_decompose(m)
            return m
        except RankDeficient:
            continue


def is_unimodular(m):
    """Whether the square m is invertible over Z: each m x = e_i has one
    solution, and it is integral."""
    for i in range(m.d):
        sol = gauss_solve(m.rows, [int(k == i) for k in range(m.d)])
        if sol is None or sol[1] or any(x.denominator != 1 for x in sol[0]):
            return False
    return True


def check_smith(m):
    dec = smith_decompose(m)
    assert dec.product() == m
    assert is_unimodular(dec.C)
    assert is_unimodular(dec.M)
    assert all(e >= 1 for e in dec.e)
    for x, y in zip(dec.e, dec.e[1:]):
        assert y % x == 0
    return dec


def test_unimodular_check():
    assert is_unimodular(parse_matrix("1 1; 0 1"))
    assert not is_unimodular(parse_matrix("2 1; 0 1"))  # the inverse holds 1/2
    assert not is_unimodular(parse_matrix("1 1; 2 2"))  # singular


def test_smith_identity():
    dec = check_smith(IntMatrix.identity(2))
    assert dec.e == (1, 1)


def test_smith_scalar_two():
    dec = check_smith(parse_matrix("2"))
    assert dec.e == (2,)
    assert dec.A == parse_matrix("1")


def test_smith_two_by_two():
    dec = check_smith(parse_matrix("2 2; 0 2"))
    assert dec.e == (2, 2)
    assert dec.A.spans_lattice


def test_smith_random_property_suite():
    rng = random.Random(20240811)
    for _ in range(100):
        d = rng.randint(1, 3)
        n = rng.randint(d, 5)
        check_smith(random_full_rank(rng, d, n))


def test_smith_rank_deficient():
    with pytest.raises(RankDeficient):
        smith_decompose(parse_matrix("1 2; 2 4"))


def test_homogenize_staircase(staircase):
    assert homogenize(staircase) == parse_matrix("1 1 1 1; 0 3 2 0; 0 1 1 1")


def test_homogenize_scalar(line):
    assert homogenize(line) == parse_matrix("1 1; 0 1")


def test_homogenize_two_columns():
    assert homogenize(parse_matrix("1 -1")) == parse_matrix("1 1 1; 0 1 -1")


def test_homogenize_preserves_lattice():
    rng = random.Random(7)
    for _ in range(25):
        d = rng.randint(1, 3)
        n = rng.randint(d, 4)
        a = random_full_rank(rng, d, n)
        if a.spans_lattice:
            assert homogenize(a).spans_lattice


def test_kernel_trivial(wedge):
    assert lattice_kernel(wedge) == []


def test_kernel_hat(hat):
    basis = lattice_kernel(hat)
    assert basis == [(-2, 1, 1)]
    for vec in basis:
        assert hat.mul_vec(vec) == (0, 0)


def test_kernel_staircase(staircase):
    basis = lattice_kernel(staircase)
    assert basis == [(2, -3, 1)]
    assert staircase.mul_vec(basis[0]) == (0, 0)
    # the superficially similar relation (3, -5, 2) is not in the kernel
    assert staircase.mul_vec((3, -5, 2)) != (0, 0)


def test_kernel_random_annihilates_and_spans():
    rng = random.Random(99)
    for _ in range(40):
        d = rng.randint(1, 3)
        n = rng.randint(1, 5)
        m = IntMatrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(n)] for _ in range(d)]
        )
        basis = lattice_kernel(m)
        for vec in basis:
            assert all(x == 0 for x in m.mul_vec(vec))
        # members of the kernel reduce to zero against the HNF of the basis
        if basis:
            hnf = hermite_normal_form(IntMatrix.from_rows(basis))
            for _ in range(5):
                coeffs = [rng.randint(-3, 3) for _ in basis]
                vec = [
                    sum(c * b[i] for c, b in zip(coeffs, basis))
                    for i in range(n)
                ]
                rows = [list(r) for r in hnf.rows]
                for row in rows:
                    piv = min(i for i, x in enumerate(row) if x != 0)
                    q, r = divmod(vec[piv], row[piv])
                    assert r == 0
                    vec = [x - q * y for x, y in zip(vec, row)]
                assert all(x == 0 for x in vec)


def test_homogenized_kernel_extends(staircase):
    atilde = homogenize(staircase)
    for vec in lattice_kernel(atilde):
        assert all(x == 0 for x in atilde.mul_vec(vec))
        assert staircase.mul_vec(vec[1:]) == (0, 0)


def test_homogeneity_vector_examples(staircase, numerical):
    assert homogeneity_vector(staircase) == (0, 1)
    assert homogeneity_vector(numerical) is None
    assert homogeneity_vector(homogenize(staircase)) == (1, 0, 0)


def test_homogeneity_vector_defining_property():
    rng = random.Random(3)
    for _ in range(30):
        d = rng.randint(1, 3)
        n = rng.randint(d, 4)
        a = random_full_rank(rng, d, n)
        h = homogeneity_vector(homogenize(a))
        assert h is not None
        for col in homogenize(a).columns():
            assert sum(x * y for x, y in zip(h, col)) == 1


def test_elementary_divisors_trim():
    assert elementary_divisors(parse_matrix("1 2; 2 4")) == (1,)


def test_matrix_validation():
    with pytest.raises(ParseError):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ParseError):
        parse_matrix("")


def test_spans_lattice():
    assert parse_matrix("1 1; 0 1").spans_lattice
    assert not parse_matrix("2 0; 0 1").spans_lattice
    assert not parse_matrix("2 5; 0 0").spans_lattice


def test_smith_identity_is_fixed_point():
    dec = smith_decompose(IntMatrix.identity(2))
    eye = IntMatrix.identity(2)
    assert dec.C == eye and dec.D1 == eye and dec.D2 == eye and dec.M == eye


def laplace_det(m):
    """Determinant by cofactor expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** k * x * laplace_det([r[:k] + r[k + 1 :] for r in m[1:]]) for k, x in enumerate(m[0]) if x)


@st.composite
def minor_rows(draw):
    """width - 1 rows of length width <= 6, entries in [-4, 4], often dependent or with a zero column."""
    width = draw(st.integers(1, 6))
    rows = [draw(st.lists(st.integers(-4, 4), min_size=width, max_size=width)) for _ in range(width - 1)]
    if width > 2 and draw(st.booleans()):
        rows[-1] = [x - 2 * y for x, y in zip(rows[0], rows[1 % (width - 2)])]
    if width > 1 and (zero := draw(st.none() | st.integers(0, width - 1))) is not None:
        for row in rows:
            row[zero] = 0
    return rows, width


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(minor_rows())
@example(([], 1))
@example(([[0, 1]], 2))
@example(([[0, 0, 1], [0, 1, 0]], 3))  # two row swaps' worth of pivot search
@example(([[1, 2, 3], [2, 4, 6]], 3))  # dependent rows
def test_signed_minors_match_cofactor_expansion(case):
    rows, width = case
    nu = signed_minors(rows, width)
    assert nu == tuple((-1) ** k * laplace_det([r[:k] + r[k + 1 :] for r in rows]) for k in range(width))
    assert all(sum(p * x for p, x in zip(nu, row)) == 0 for row in rows)


@st.composite
def integer_matrices(draw, max_rows=4, max_cols=5):
    """Small integer matrices, often rank-deficient: a repeated row up to a
    factor, or a zero row."""
    d = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, max_cols))
    rows = [draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n)) for _ in range(d)]
    if d > 1 and draw(st.booleans()):
        rows[-1] = [draw(st.integers(-2, 2)) * x for x in rows[0]]
    return IntMatrix.from_rows(rows)


@st.composite
def unimodular(draw, k):
    """A k x k integer matrix of determinant +-1: a product of row swaps,
    sign changes and additions of a multiple of one row to another."""
    rows = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(draw(st.integers(0, 8))):
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        move = draw(st.sampled_from(["swap", "negate", "add"]))
        if move == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        elif move == "negate":
            rows[i] = [-x for x in rows[i]]
        elif i != j:
            c = draw(st.integers(-3, 3))
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return IntMatrix.from_rows(rows)


def divisors(rows):
    """The nonzero elementary divisors of the rows, from sympy when present."""
    if Matrix is None:
        return elementary_divisors(IntMatrix.from_rows(rows))
    return tuple(abs(x) for x in invariant_factors(Matrix(rows)) if x)


def row_lattice_contains(m, v):
    """Whether v is an integer combination of the rows of m: adding v keeps
    the rank and the product of the elementary divisors, the index of the
    row lattice in its saturation."""
    old, new = divisors(m.rows), divisors([*m.rows, v])
    return len(old) == len(new) and prod(old) == prod(new)


def pivots(h):
    return [next(k for k, x in enumerate(row) if x) for row in h.rows if any(row)]


def rank(m):
    """The rank over Q, from sympy when present, else from the nullspace that
    gauss_solve returns."""
    if Matrix is not None:
        return Matrix(m.rows).rank()
    return m.n - len(gauss_solve(m.rows, [0] * m.d)[1])


HNF_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@HNF_SETTINGS
@given(integer_matrices())
@example(parse_matrix("0 0; 0 0"))
@example(parse_matrix("2 4; 3 6"))
def test_hnf_is_echelon_with_reduced_columns(m):
    h = hermite_normal_form(m)
    piv = pivots(h)
    assert len(piv) == rank(m)
    # one row per pivot; the zero matrix keeps one zero row
    assert len(h.rows) == max(len(piv), 1)
    assert piv == sorted(set(piv))  # strictly increasing: echelon
    for i, p in enumerate(piv):
        assert h.rows[i][p] > 0
        assert all(0 <= h.rows[k][p] < h.rows[i][p] for k in range(i))


@HNF_SETTINGS
@given(integer_matrices(), st.data())
@example(parse_matrix("4 6; 6 9"), None)
def test_hnf_keeps_the_row_lattice_and_is_canonical(m, data):
    h = hermite_normal_form(m)
    assert all(row_lattice_contains(m, row) for row in h.rows)
    assert all(row_lattice_contains(h, row) for row in m.rows)
    assert hermite_normal_form(h) == h
    if data is not None:
        u = data.draw(unimodular(m.d))
        assert hermite_normal_form(u.mul(m)) == h


@st.composite
def smith_inputs(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(d, 6))
    rows = [draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n)) for _ in range(d)]
    return IntMatrix.from_rows(rows)


@HNF_SETTINGS
@given(smith_inputs())
@example(parse_matrix("2 4 6; 4 8 12"))  # rank 1
@example(parse_matrix("2 0 0; 0 4 0; 0 0 6"))  # diagonal, not yet a divisor chain
def test_smith_keeps_divisibility_and_unimodular_factors(m):
    try:
        dec = check_smith(m)
    except RankDeficient:
        assert rank(m) < m.d
        return
    assert dec.e == elementary_divisors(m)


@st.composite
def smith_oracle_inputs(draw):
    """d <= 4, n <= 9 (d > n too), entries in [-60, 60], often with a
    repeated row, a zero row or a zero column."""
    d, n = draw(st.integers(1, 4)), draw(st.integers(1, 9))
    rows = [draw(st.lists(st.integers(-60, 60), min_size=n, max_size=n)) for _ in range(d)]
    if d > 1 and draw(st.booleans()):
        rows[-1] = list(rows[draw(st.integers(0, d - 2))])
    if draw(st.booleans()):
        rows[draw(st.integers(0, d - 1))] = [0] * n
    if draw(st.booleans()):
        zero = draw(st.integers(0, n - 1))
        rows = [[0 if j == zero else x for j, x in enumerate(row)] for row in rows]
    return IntMatrix.from_rows(rows)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(smith_oracle_inputs())
@example(parse_matrix("0 0 0; 0 0 0"))
@example(parse_matrix("2 4 6; 4 8 12"))  # rank 1
@example(parse_matrix("2 0 0; 0 4 0; 0 0 6"))  # diagonal, not yet a divisor chain
@example(parse_matrix("-3"))  # a negative pivot
def test_smith_matches_the_tracked_oracle(m):
    """The plain-list reduction makes the oracle's operations in its order,
    so C, M, the diagonal and the rank are equal, not just equivalent."""
    C, M, diag, rank = _smith_tracked(m)
    tracked, oracle_diag, oracle_rank = smith_oracle._smith_tracked(m)
    assert [list(row) for row in C] == tracked.C
    assert M == tracked.M
    assert (diag, rank) == (oracle_diag, oracle_rank)


@st.composite
def kernel_inputs(draw):
    """d <= 4, n <= 9, entries in [-5, 5], often with a zero column or a
    column that is a multiple of another."""
    d, n = draw(st.integers(1, 4)), draw(st.integers(1, 9))
    cols = [draw(st.lists(st.integers(-5, 5), min_size=d, max_size=d)) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        cols[-1] = [draw(st.integers(-2, 2)) * x for x in cols[0]]
    if draw(st.booleans()):
        cols[draw(st.integers(0, n - 1))] = [0] * d
    return IntMatrix.from_rows(list(zip(*cols)))


def signed(row):
    """The sign rule of `lattice_kernel`: the last nonzero entry positive."""
    return tuple(-x for x in row) if [x for x in row if x][-1] < 0 else tuple(row)


@HNF_SETTINGS
@given(kernel_inputs())
@example(parse_matrix("0 0 0; 0 0 0"))  # the whole of Z^3
@example(parse_matrix("1 2 3"))  # homogeneous: (1)
@example(parse_matrix("2 4 6; 0 1 2"))  # 1 is not in the row lattice of A^T
@example(parse_matrix("1 1 1; 0 1 0"))  # left kernel {0}
@example(parse_matrix("1 0 1; 0 0 0"))  # zero column: no h
def test_kernel_and_homogeneity_vector_properties(a):
    basis = lattice_kernel(a)
    assert all(a.mul_vec(v) == (0,) * a.d for v in basis)
    assert len(basis) == a.n - rank(a)
    if basis:
        lat = IntMatrix.from_rows(basis)
        assert elementary_divisors(lat) == (1,) * len(basis)  # saturated
        assert [signed(row) for row in hermite_normal_form(lat).rows] == basis
    h = homogeneity_vector(a)
    at = a.transpose()
    with_ones = IntMatrix.from_rows([(*row, 1) for row in at.rows])
    assert (h is None) == (elementary_divisors(with_ones) != elementary_divisors(at))
    if h is not None:
        assert at.mul_vec(h) == (1,) * a.n
        for row in hermite_normal_form(IntMatrix.from_rows(lattice_kernel(at) or [(0,) * a.d])).rows:
            if any(row):
                p = next(k for k, x in enumerate(row) if x)
                assert 0 <= h[p] < row[p]
