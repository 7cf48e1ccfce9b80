import random
from fractions import Fraction
from itertools import product

import pytest

import qdeg_oracle
from groebner_oracle import passes_buchberger_criterion

from gkzkit import (
    homogenize,
    parse_matrix,
    quasi_degrees,
    toric_ideal,
    toric_normal_form,
    true_degree_contains,
)
from gkzkit.cones import face_lattice
from gkzkit.errors import ColumnIndexOutOfRange, DegenerateColumn, NotPointed, ParseError
from gkzkit.polynomials import Polynomial
from gkzkit.toric import a_degree


def test_trivial_kernel_gives_empty_ideal(wedge):
    assert toric_ideal(wedge).generators == ()


def test_toric_ideal_skips_the_face_lattice():
    # The grading comes from one LP, not from the face lattice, which has
    # the faces {} and the full set.
    wide = parse_matrix(" ".join(["1"] * 13))
    assert len(toric_ideal(wide).generators) == 12
    assert [f.columns for f in face_lattice(wide).faces] == [frozenset(), frozenset(range(1, 14))]


def test_hat_ideal(hat):
    gens = toric_ideal(hat).generators
    assert len(gens) == 1
    assert gens[0] == Polynomial(3, {(2, 0, 0): 1, (0, 1, 1): -1})


def test_staircase_ideal_is_the_corrected_binomial(staircase):
    gens = toric_ideal(staircase).generators
    assert len(gens) == 1
    assert gens[0] == Polynomial(3, {(0, 3, 0): 1, (2, 0, 1): -1})
    # the look-alike quintic relation is not even A-homogeneous
    quintic = Polynomial(3, {(0, 5, 0): 1, (3, 0, 2): -1})
    assert a_degree(quintic, staircase) is None


def test_generators_are_a_homogeneous(staircase, hat):
    for a in (staircase, hat, homogenize(staircase)):
        for g in toric_ideal(a).generators:
            assert a_degree(g, a) is not None


def test_ideal_is_groebner(staircase, hat):
    for a in (staircase, hat):
        ideal = toric_ideal(a)
        assert passes_buchberger_criterion(list(ideal.generators), ideal.order())


@pytest.mark.parametrize("text", ["3 2 0; 1 1 1", "1 1 1; 0 1 -1", "2 5", "1 1; 0 1"])
def test_lattice_ideal_soundness_oracle(text):
    """Normal forms of two monomials agree iff their A-degrees agree."""
    a = parse_matrix(text)
    ideal = toric_ideal(a)
    rng = random.Random(hash(text) & 0xFFFF)
    for _ in range(200):
        u = tuple(rng.randint(0, 4) for _ in range(a.n))
        v = tuple(rng.randint(0, 4) for _ in range(a.n))
        nf_u = toric_normal_form(Polynomial.monomial(u), ideal)
        nf_v = toric_normal_form(Polynomial.monomial(v), ideal)
        assert (nf_u == nf_v) == (a.mul_vec(u) == a.mul_vec(v))


def test_normal_form_trivial_and_graded(staircase):
    ideal = toric_ideal(staircase)
    one = Polynomial.one(3)
    assert toric_normal_form(one, ideal) == one
    cubed = Polynomial.monomial((0, 3, 0))
    nf = toric_normal_form(cubed, ideal)
    assert nf == Polynomial.monomial((2, 0, 1))
    assert a_degree(nf, staircase) == (6, 3)


def test_true_degree_examples(staircase):
    assert true_degree_contains(staircase, 1, (2, 1))
    assert not true_degree_contains(staircase, 1, (3, 1))
    assert true_degree_contains(staircase, 1, (0, 0))


def test_true_degree_rejects_non_integral_point():
    a = parse_matrix("3 2 0; 1 1 1")
    assert true_degree_contains(a, 1, (0, 1))
    assert not true_degree_contains(a, 1, (Fraction(1, 2), 1))


def test_true_degree_not_pointed():
    with pytest.raises(NotPointed):
        true_degree_contains(parse_matrix("1 -1"), 1, (0,))


def test_qdeg_staircase_j1(staircase):
    qd = quasi_degrees(staircase, 1)
    comps = {(c.offset, c.face.sorted_columns()) for c in qd.components}
    assert comps == {((0, 0), (3,)), ((2, 1), (3,)), ((4, 2), (3,))}


def test_degree_set_rejects_non_integral_point():
    a = parse_matrix("3 2 0; 1 1 1")
    assert true_degree_contains(a, 1, (0, 1))
    assert not true_degree_contains(a, 1, (Fraction(1, 2), 1))


@pytest.mark.parametrize("point", [(1,), (1, 2, 99)], ids=["short", "long"])
def test_degree_set_rejects_a_point_of_the_wrong_length(point):
    with pytest.raises(ParseError, match=f"point has length {len(point)}, but the matrix has 2 rows"):
        true_degree_contains(parse_matrix("1 1 1 1; 0 1 2 3"), 1, point)


def test_qdeg_line(line):
    qd = quasi_degrees(line, 1)
    assert [(c.offset, c.face.sorted_columns()) for c in qd.components] == [((0,), ())]


def test_qdeg_numerical_semigroup(numerical):
    qd = quasi_degrees(numerical, 1)
    comps = {(c.offset, c.face.sorted_columns()) for c in qd.components}
    assert comps == {((0,), ()), ((5,), ())}


def test_qdeg_rejects_zero_column():
    with pytest.raises(DegenerateColumn):
        quasi_degrees(parse_matrix("1 0; 0 0").transpose(), 2)


@pytest.mark.parametrize("j", [0, -1, 4])
def test_column_index_is_validated(staircase, j):
    with pytest.raises(ColumnIndexOutOfRange):
        quasi_degrees(staircase, j)
    with pytest.raises(ColumnIndexOutOfRange):
        true_degree_contains(staircase, j, (0, 0))


@pytest.mark.parametrize("j", [1, 2, 3])
def test_qdeg_box_oracle_staircase(staircase, j):
    """Union of offset + NF components == true degrees, pointwise on a box."""
    qd = quasi_degrees(staircase, j)
    for point in product(range(-2, 11), range(-2, 6)):
        assert qdeg_oracle.degree_set_contains(qd, point) == true_degree_contains(
            staircase, j, point
        )


@pytest.mark.parametrize("text,j", [("2 5", 1), ("2 5", 2), ("1 1; 0 1", 1), ("1 1 1; 0 1 -1", 2)])
def test_qdeg_box_oracle_others(text, j):
    a = parse_matrix(text)
    qd = quasi_degrees(a, j)
    for point in product(range(-2, 11), repeat=a.d):
        assert qdeg_oracle.degree_set_contains(qd, point) == true_degree_contains(a, j, point)


def test_qdeg_offsets_are_true_degrees(staircase):
    for j in (1, 2, 3):
        for comp in quasi_degrees(staircase, j).components:
            assert true_degree_contains(staircase, j, comp.offset)


def test_qdeg_faces_avoid_the_column(staircase):
    for j in (1, 2, 3):
        for comp in quasi_degrees(staircase, j).components:
            assert j not in comp.face.columns


# This filtration scans past weight 64, the default bound the scan had before
# the lemma of `quasi_degrees` ended it; the components are those that
# quasi_degrees(a, j, bound=200) gave then.
FORMER_BOUND_MATRIX = "2 0 1 1; -1 2 -1 0; 2 1 2 -1"
FORMER_BOUND_COMPONENTS = {
    1: [
        ((14, -9, 13), (3, 4)), ((13, -8, 11), (2, 4)), ((12, -7, 9), (2, 4)),
        ((11, -6, 7), (2, 4)), ((10, -5, 5), (2, 4)), ((9, -4, 3), (2, 4)),
        ((8, -3, 1), (2, 4)), ((7, -2, -1), (2, 4)), ((6, -1, -3), (2, 4)),
        ((5, 0, -5), (2, 4)), ((4, 0, -4), (2, 3)), ((3, 0, -3), (2, 3)),
        ((2, 0, -2), (2, 3)), ((1, 0, -1), (2, 3)), ((0, 0, 0), (2, 3)),
    ],
    2: [
        ((12, -6, 12), (3, 4)), ((10, -5, 10), (3, 4)), ((8, -4, 8), (3, 4)),
        ((6, -3, 6), (3, 4)), ((4, -2, 4), (3, 4)), ((2, -1, 2), (3, 4)),
        ((0, 0, 0), (3, 4)),
    ],
    3: [
        ((12, -6, 12), (2, 4)), ((10, -5, 10), (2, 4)), ((8, -4, 8), (2, 4)),
        ((6, -3, 6), (2, 4)), ((4, -2, 4), (2, 4)), ((2, -1, 2), (2, 4)),
        ((0, 0, 0), (2, 4)),
    ],
    4: [
        ((12, -6, 12), (2, 3)), ((10, -5, 10), (2, 3)), ((8, -4, 8), (2, 3)),
        ((6, -3, 6), (2, 3)), ((4, -2, 4), (2, 3)), ((2, -1, 2), (2, 3)),
        ((0, 0, 0), (2, 3)),
    ],
}


@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_filtration_ends_without_a_bound(j):
    qd = quasi_degrees(parse_matrix(FORMER_BOUND_MATRIX), j)
    got = [(c.offset, c.face.sorted_columns()) for c in qd.components]
    assert got == FORMER_BOUND_COMPONENTS[j]


def test_toric_ideal_order_flag(staircase):
    lex_ideal = toric_ideal(staircase, "lex")
    gens = lex_ideal.generators
    assert len(gens) == 1
    # under lex with d1 > d2 > d3 the leading monomial flips to d1^2 d3
    assert gens[0] == Polynomial(3, {(2, 0, 1): 1, (0, 3, 0): -1})


def test_qdeg_box_oracle_homogenized_staircase(staircase):
    """Three-row instance: the filtration must still match membership exactly."""
    atilde = homogenize(staircase)
    for j in (1, 2):
        qd = quasi_degrees(atilde, j)
        for point in product(range(-1, 5), repeat=3):
            assert qdeg_oracle.degree_set_contains(qd, point) == true_degree_contains(
                atilde, j, point
            )
