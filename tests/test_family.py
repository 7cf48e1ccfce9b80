from fractions import Fraction as F
from math import floor
from operator import mul

import pytest
from hypothesis import HealthCheck, assume, example, given, seed, settings
from hypothesis import strategies as st

from face_oracle import facets_by_fraction_scan

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
from gkzkit.errors import ColumnIndexOutOfRange, ParseError, RankDeficient
from gkzkit.family import IndexSet
from gkzkit.intlinalg import vec_add
from gkzkit.resonance import delta_A, resonance_set
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


@pytest.mark.parametrize("i", [2, 5, -1])
def test_psi_lambda_derivative_rejects_bad_variable_index(i):
    with pytest.raises(ColumnIndexOutOfRange, match=rf"variable index {i} is not in 0\.\.1"):
        psi_lambda_derivative((1, 2), 0, i)


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


def capped_scan(b, kind, cap):
    """`index_sets` as it was with a fixed cap: at most cap + 1 shifts, else None."""
    fam = factor_B(b)
    atilde = homogenize(fam.A)
    base = [(F(0),) + g for g in i_e_classes(fam.e)]
    colsum = atilde.column_sum()
    if kind == "I":
        start, reject = delta_A(atilde), lambda m: sres_contains(atilde, m)
    else:
        start, reject = (0,) * atilde.d, lambda m: dsres_contains(atilde, m)
    step = colsum if kind == "I" else tuple(-x for x in colsum)
    shift = start
    for _ in range(cap + 1):
        members = [tuple(F(s) + x for s, x in zip(shift, m)) for m in base]
        if not any(reject(m) for m in members):
            return IndexSet(kind, tuple(members), tuple(shift), fam.e)
        shift = vec_add(shift, step)
    return None


def _dot(u, v):
    return sum(map(mul, u, v))


def _steps_past(value, rate, bound):
    """The least k >= 0 with value + k * rate > bound, for rate > 0."""
    return max(0, floor((bound - value) / rate) + 1)


def lemma_bound(b, kind):
    """The step count after which the family docstring's lemma puts every member
    outside sRes(A~) (kind "I") or inside -int(R+A~) (kind "Iprime"), read off
    the facet normals of A~ from the Fraction scan, which are >= 1 off the facet."""
    fam = factor_B(b)
    atilde = homogenize(fam.A)
    base = [(F(0),) + g for g in i_e_classes(fam.e)]
    colsum = atilde.column_sum()
    facets = facets_by_fraction_scan(atilde, atilde.d)
    if kind == "Iprime":
        return max(_steps_past(-_dot(nu, m), _dot(nu, colsum), 0) for nu in facets.values() for m in base)
    start = delta_A(atilde)
    bound = 0
    for comp in resonance_set(atilde).components:
        # facets G holding F with nu_G . a_j > 0; the component has nu_G . x <= top
        steps = []
        for cols, nu in facets.items():
            if cols.issuperset(comp.face_columns) and _dot(nu, comp.shift) > 0:
                top = _dot(nu, comp.offset) - _dot(nu, comp.shift)
                steps.append(_steps_past(min(_dot(nu, vec_add(start, m)) for m in base), _dot(nu, colsum), top))
        bound = max(bound, min(steps))
    return bound


@st.composite
def family_cases(draw):
    """A kind, and a B with d <= 2 rows, d..d+2 columns and entries in -3..6.
    Kind "I" reads sRes(A~), whose filtration can take minutes on a 2 x 3 B,
    so at d = 2 it draws 2 columns (the `@example`s add two 2 x 3 ones)."""
    kind = draw(st.sampled_from(("I", "Iprime")))
    d = draw(st.integers(1, 2))
    n = draw(st.integers(d, d + 2 if kind == "Iprime" or d == 1 else d))
    return IntMatrix.from_rows([draw(st.lists(st.integers(-3, 6), min_size=n, max_size=n)) for _ in range(d)]), kind


@settings(max_examples=150, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
@seed(0)  # a fixed seed, so the draws do not move when the test's source does
@given(family_cases())
@example((parse_matrix("-3 -3 -3; 5 -3 5"), "Iprime"))  # 8 steps, the lemma's bound
@example((parse_matrix("1 0 6; 3 0 0"), "I"))  # 5 steps, the lemma's bound
@example((parse_matrix("1 0 6; 6 3 0"), "I"))  # 0 steps, bound 1
@example((parse_matrix("2"), "Iprime"))
def test_index_set_walk_ends_within_the_lemma_bound(case):
    """The walk takes at most the lemma's step count, and so answers what the
    fixed-cap scan answers when its cap is that count."""
    b, kind = case
    try:
        factor_B(b)
    except RankDeficient:
        assume(False)
    bound = lemma_bound(b, kind)
    idx = index_sets(b, kind)
    start = delta_A(homogenize(factor_B(b).A)) if kind == "I" else (0,) * (b.d + 1)
    steps = abs(idx.shift[0] - start[0]) // (b.n + 1)  # the first row of A~ is all ones
    assert steps <= bound
    assert idx == capped_scan(b, kind, bound)
