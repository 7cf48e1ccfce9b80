from fractions import Fraction as F

import pytest

from gkzkit import (
    IntMatrix,
    factor_B,
    gkz_presentation,
    homogenize,
    i_e_classes,
    index_sets,
    parse_matrix,
    psi_image,
    psi_kernel_sections,
    psi_lambda_derivative,
    sres_contains,
    dsres_contains,
)
from gkzkit.errors import ParseError, RankDeficient
import random


def test_factor_identity():
    fam = factor_B(IntMatrix.identity(2))
    assert fam.e == (1, 1)
    assert fam.A.spans_lattice
    assert fam.C.mul(_diag(fam.e)).mul(fam.A) == fam.B


def _diag(e):
    return IntMatrix.from_rows(
        [[e[i] if i == j else 0 for j in range(len(e))] for i in range(len(e))]
    )


def test_factor_scalar_two():
    fam = factor_B(parse_matrix("2"))
    assert fam.e == (2,)
    assert fam.A == parse_matrix("1")
    assert fam.C.mul(_diag(fam.e)).mul(fam.A) == fam.B


def test_factor_two_by_two():
    b = parse_matrix("2 2; 0 2")
    fam = factor_B(b)
    assert fam.e == (2, 2)
    assert fam.A.spans_lattice
    assert fam.C.mul(_diag(fam.e)).mul(fam.A) == b


def test_factor_rank_deficient():
    with pytest.raises(RankDeficient):
        factor_B(parse_matrix("1 2; 2 4"))


def test_factor_spanning_input_keeps_unit_divisors(hat):
    fam = factor_B(hat)
    assert fam.e == (1, 1)
    # the recovered A generates the same column lattice
    assert fam.A.spans_lattice and hat.spans_lattice


def test_i_e_classes():
    assert i_e_classes((1,)) == [(F(0),)]
    assert i_e_classes((2,)) == [(F(0),), (F(1, 2),)]
    assert len(i_e_classes((2, 3))) == 6


def test_index_sets_unit():
    idx = index_sets(parse_matrix("1"), "I")
    assert len(idx.members) == 1


def test_index_sets_two():
    idx = index_sets(parse_matrix("2"), "I")
    assert len(idx.members) == 2
    fractional = sorted(tuple(x - int(x) for x in m) for m in idx.members)
    assert fractional == [(F(0), F(0)), (F(0), F(1, 2))]
    atilde = homogenize(factor_B(parse_matrix("2")).A)
    for m in idx.members:
        assert not sres_contains(atilde, m)


def test_index_sets_unknown_kind_is_a_parse_error():
    with pytest.raises(ParseError):
        index_sets(parse_matrix("2"), "J")


def test_index_sets_two_dual():
    idx = index_sets(parse_matrix("2"), "Iprime")
    assert len(idx.members) == 2
    atilde = homogenize(factor_B(parse_matrix("2")).A)
    for m in idx.members:
        assert not dsres_contains(atilde, m)


def test_index_sets_product_six():
    b = parse_matrix("2 2 2; 0 3 -3")  # diag(2,3) times a spanning matrix
    for kind in ("I", "Iprime"):
        idx = index_sets(b, kind)
        assert len(idx.members) == 6
        fam = factor_B(b)
        prod = 1
        for e in fam.e:
            prod *= e
        assert prod == 6


def test_index_sets_members_pairwise_incongruent():
    for kind in ("I", "Iprime"):
        idx = index_sets(parse_matrix("2 2 2; 0 3 -3"), kind)
        seen = set()
        for m in idx.members:
            cls = tuple(x % 1 for x in m)
            assert cls not in seen
            seen.add(cls)


def test_index_sets_nonresonance(hat):
    b = parse_matrix("2 2 2; 0 3 -3")
    fam = factor_B(b)
    atilde = homogenize(fam.A)
    for m in index_sets(b, "I").members:
        assert not sres_contains(atilde, m)
    for m in index_sets(b, "Iprime").members:
        assert not dsres_contains(atilde, m)


def test_psi_base_case():
    img = psi_image((0, 0), 0)
    assert img.exponents == (1, 0, 0)
    assert img.coefficient == 1


def test_psi_single_step():
    assert psi_image((1, 0), 0).exponents == (0, 1, 0)


def test_psi_formal_negative():
    assert psi_image((-1, 0), 0).exponents == (2, -1, 0)


def test_psi_equivariance():
    rng = random.Random(13)
    n = 3
    for _ in range(50):
        m = tuple(rng.randint(-3, 3) for _ in range(n))
        s = rng.randint(0, 4)
        i = rng.randint(0, n - 1)
        m2, s2 = psi_lambda_derivative(m, s, i)
        acted = psi_image(m2, s2)
        direct = list(psi_image(m, s).exponents)
        direct[i + 1] += 1
        assert acted.exponents == tuple(direct)
        assert acted.coefficient == psi_image(m, s).coefficient


def test_psi_kernel_sections_match_euler_generators(staircase):
    atilde = homogenize(staircase)
    pres = gkz_presentation(atilde, (F(0),) * 3)
    sections = psi_kernel_sections(staircase)
    assert len(sections) == staircase.d
    for k, section in enumerate(sections):
        assert section == pres.eulers[k + 1]
        assert (section - pres.eulers[k + 1]).is_zero()


def test_psi_kernel_sections_two_column():
    a = parse_matrix("1 -1")
    atilde = homogenize(a)
    pres = gkz_presentation(atilde, (F(0), F(0)))
    sections = psi_kernel_sections(a)
    assert len(sections) == 1
    assert sections[0] == pres.eulers[1]


def test_section_search_cap():
    from gkzkit.errors import SectionSearchFailed

    with pytest.raises(SectionSearchFailed):
        index_sets(parse_matrix("2"), "Iprime", cap=0)
