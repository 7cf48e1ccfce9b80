from fractions import Fraction as F
from itertools import product

import pytest

from gkzkit import (
    delta_A,
    delta_valid,
    dsres_contains,
    dual_parameter,
    homogenize,
    n_beta,
    parse_matrix,
    semigroup_contains,
    sres_contains,
    sres_witness,
)
from gkzkit.cones import interior_contains, saturation_contains
from gkzkit.errors import NotHomogeneous, ParameterResonant, ParseError
from gkzkit.resonance import dsres_witness

SATURATED_HOMOGENEOUS = ["1", "1 1; 0 1", "1 1 1; 0 1 -1"]


def test_sres_line_is_negative_integers(line):
    for b in range(-3, 4):
        assert sres_contains(line, (F(b),)) == (b < 0)


def test_sres_staircase_vertical_line(staircase):
    wit = sres_witness(staircase, (F(1), F(0)))
    assert wit is not None
    assert (wit.offset, wit.face_columns, wit.multiplier) == ((4, 2), (3,), 1)
    assert not sres_contains(staircase, (F(0), F(0)))


def test_sres_staircase_more_points(staircase):
    # every point of the line x = 1 is resonant; x = 0 with y >= 0 is not
    for y in range(-3, 4):
        assert sres_contains(staircase, (F(1), F(y)))
    assert not sres_contains(staircase, (F(0), F(5)))
    assert sres_contains(staircase, (F(-3), F(7)))  # x = -3 vertical line


@pytest.mark.parametrize("text", SATURATED_HOMOGENEOUS)
def test_saturated_homogeneous_law(text):
    """For saturated homogeneous data: integer non-resonance == membership."""
    a = parse_matrix(text)
    for point in product(range(-5, 6), repeat=a.d):
        beta = tuple(F(x) for x in point)
        assert sres_contains(a, beta) == (not semigroup_contains(a, point))


@pytest.mark.parametrize("text", SATURATED_HOMOGENEOUS)
def test_saturated_cone_avoids_sres(text):
    a = parse_matrix(text)
    grid = [F(x, 2) for x in range(0, 9)]
    for coeffs in product(grid, repeat=a.n):
        beta = tuple(
            sum(c * col[i] for c, col in zip(coeffs, a.columns()))
            for i in range(a.d)
        )
        assert not sres_contains(a, beta)


def test_witness_multiplier_is_positive_integer(staircase):
    wit = sres_witness(staircase, (F(-2), F(1)))
    assert wit is not None
    assert wit.multiplier.denominator == 1 and wit.multiplier >= 1


def test_numerical_semigroup_witness(numerical):
    assert sres_contains(numerical, (F(3),))
    assert saturation_contains(numerical, (F(3),))
    assert not delta_valid(numerical, (0,))


def test_delta_numerical(numerical):
    delta = delta_A(numerical)
    assert semigroup_contains(numerical, delta)
    assert delta_valid(numerical, delta)
    assert delta_valid(numerical, (4,))


def test_delta_staircase(staircase):
    delta = delta_A(staircase)
    assert semigroup_contains(staircase, delta)
    assert delta_valid(staircase, delta)
    assert delta_valid(staircase, (4, 2))


@pytest.mark.parametrize(
    "text, delta",
    [
        ("1 1 1 1 1; 0 1 2 3 4; 0 0 1 3 6", (3, 9, 9)),  # the twisted quartic
        ("-1 -1 0 0 -1; 2 -1 -2 -2 1; 1 -1 0 -1 -2", (-1, -2, -1)),
    ],
)
def test_delta_of_walks_through_deep_points(text, delta):
    # Both walks ask NA membership far above n * min w; the values are
    # those the depth-first search with LP-proximity lowering gave.
    assert delta_A(parse_matrix(text)) == delta


@pytest.mark.parametrize("delta", [(5, 2, 99), (5,), (5.7, 2)])
def test_delta_valid_rejects_malformed_delta(staircase, delta):
    # A third entry used to be ignored, 5.7 truncated to 5, and (5,) an IndexError.
    with pytest.raises(ParseError):
        delta_valid(staircase, delta)


def test_delta_saturated_shrinks_to_zero(line):
    assert delta_A(line) == (0,)


def test_delta_certificate_region_is_clean(staircase):
    # every integer point of delta + cone inside a box is non-resonant
    delta = delta_A(staircase)
    for point in product(range(-1, 10), range(-1, 6)):
        shifted = tuple(x - d for x, d in zip(point, delta))
        if saturation_contains(staircase, shifted):
            assert not sres_contains(staircase, tuple(F(x) for x in point))


def test_dsres_examples(hat, line):
    assert dsres_contains(hat, (F(0), F(0)))
    assert not dsres_contains(hat, (F(-1), F(0)))
    assert not dsres_contains(line, (F(-1),))
    assert dsres_contains(line, (F(2),))


def test_dsres_misses_negated_interior(staircase, hat, line):
    for a in (staircase, hat, line):
        for point in product(range(-6, 1), repeat=a.d):
            neg = tuple(-x for x in point)
            if interior_contains(a, neg):
                assert not dsres_contains(a, tuple(F(x) for x in point))


def test_dsres_witness_face(hat):
    wit = dsres_witness(hat, (F(3), F(3)))
    assert wit is not None


def test_nbeta_basics(line, wedge, staircase):
    assert n_beta(line, (F(0),)) == 0
    for a, beta in ((wedge, (F(0), F(0))), (staircase, (F(0), F(0)))):
        n = n_beta(a, beta)
        atilde = homogenize(a)
        for b0 in (F(n), F(n) + 1, F(n) + F(7, 2)):
            assert not sres_contains(atilde, (b0,) + beta)


def test_nbeta_rejects_resonant(line):
    with pytest.raises(ParameterResonant):
        n_beta(line, (F(-1),))


def test_sres_numerical_gap_point(numerical):
    # 1 = -2*2 + 5 lands on a shifted offset, so the gap point 1 is resonant
    assert sres_contains(numerical, (F(1),))


def test_nbeta_nonzero_case(numerical):
    beta = (F(2),)
    assert not sres_contains(numerical, beta)
    n = n_beta(numerical, beta)
    atilde = homogenize(numerical)
    for b0 in (F(n), F(n) + 1, F(n) + F(7, 2)):
        assert not sres_contains(atilde, (b0,) + beta)


def test_nbeta_of_a_non_homogeneous_matrix_reads_its_own_pairs():
    # The route through resonance_set(homogenize(A)) took 45 s on this matrix;
    # 7 is its answer.
    a = parse_matrix("2 1 1 3 1; 2 0 -1 2 3; 0 1 -1 2 0")
    assert n_beta(a, (F(1, 3), F(1, 5), F(2, 7))) == 7


def test_dual_parameter_examples(line, hat):
    assert dual_parameter(line, (F(0),)) == (F(-1),)
    assert dual_parameter(hat, (F(0), F(0))) == (F(-1), F(0))
    assert dual_parameter(line, (F(1, 2),)) == (F(-1, 2),)


def test_dual_parameter_contract(line, hat, staircase):
    for a, beta in (
        (line, (F(0),)),
        (line, (F(5, 3),)),
        (hat, (F(1), F(0))),
        (staircase, (F(0), F(0))),
    ):
        dual = dual_parameter(a, beta)
        assert all((b + d).denominator == 1 for b, d in zip(beta, dual))
        assert not dsres_contains(a, dual)


@pytest.mark.parametrize(
    ("text", "want"), [("1 1; 5 6", (-2, -11)), ("1 1; 100 101", (-2, -201))]
)
def test_narrow_cone_dual_parameter_walks_the_column_sum(text, want):
    # No integer point within radius 8 is interior, and every candidate of the
    # box is in DsRes, so the answer is the first k * (column sum) that is
    # interior (lemma 10): k = 1 here.
    a = parse_matrix(text)
    dual = dual_parameter(a, (F(0), F(0)))
    assert dual == tuple(F(x) for x in want)
    assert interior_contains(a, tuple(-x for x in dual))
    assert not dsres_contains(a, dual)
    assert not any(interior_contains(a, shift) for shift in product(range(-8, 9), repeat=2))


def test_dual_parameter_requires_homogeneous(numerical):
    with pytest.raises(NotHomogeneous):
        dual_parameter(numerical, (F(1),))


def test_dual_parameter_rejects_resonant(line):
    with pytest.raises(ParameterResonant):
        dual_parameter(line, (F(-2),))
