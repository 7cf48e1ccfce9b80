import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkzkit import (
    WeylElement,
    euler_decomposition,
    gkz_presentation,
    homogenize,
    ideal_member_bounded,
    parse_matrix,
    parse_weyl,
    restrict_presentation,
    toric_ideal,
    weyl_mul,
)
from gkzkit import weyl
from gkzkit.errors import ColumnIndexOutOfRange, FirstRowNotOnes, GkzError, ParseError, VariableMismatch
from gkzkit.weyl import _weyl_degree, euler_field


def rand_element(rng, nvars, nterms=2, maxexp=2):
    terms = {}
    for _ in range(nterms):
        u = tuple(rng.randint(0, maxexp) for _ in range(nvars))
        v = tuple(rng.randint(0, maxexp) for _ in range(nvars))
        terms[(u, v)] = F(rng.randint(-4, 4), rng.randint(1, 3))
    return WeylElement(nvars, terms)


def test_commutation_basics():
    l0 = WeylElement.lam(0, 1)
    d0 = WeylElement.dee(0, 1)
    assert d0 * l0 == l0 * d0 + WeylElement.one(1)
    assert d0 * (l0 * l0) == l0 * l0 * d0 + l0.scale(2)
    ld = l0 * d0
    assert ld * ld == WeylElement.monomial((2,), (2,)) + ld


def test_cross_variable_commutation():
    l1 = WeylElement.lam(1, 2)
    d0 = WeylElement.dee(0, 2)
    assert d0 * l1 == l1 * d0


def test_associativity_and_distributivity():
    rng = random.Random(42)
    for _ in range(100):
        a, b, c = (rand_element(rng, 2) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c


def weyl_elements(nvars):
    keys = st.tuples(*[st.integers(0, 2)] * (2 * nvars)).map(lambda e: (e[:nvars], e[nvars:]))
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return st.dictionaries(keys, coeffs, max_size=3).map(lambda t: WeylElement(nvars, t))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 2).flatmap(lambda n: st.tuples(*[weyl_elements(n)] * 3)))
def test_weyl_multiplication_is_associative(triple):
    f, g, h = triple
    assert weyl_mul(weyl_mul(f, g), h) == weyl_mul(f, weyl_mul(g, h))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(st.integers(0, 3), min_size=2 * n, max_size=2 * n)))
def test_identity_grading_degree_is_v_minus_u(exps):
    n = len(exps) // 2
    u, v = tuple(exps[:n]), tuple(exps[n:])
    identity = [tuple(1 if i == k else 0 for i in range(n)) for k in range(n)]
    assert _weyl_degree(u, v, None) == _weyl_degree(u, v, identity)


def test_grading_is_multiplicative(staircase):
    rng = random.Random(8)
    for _ in range(50):
        u1 = tuple(rng.randint(0, 2) for _ in range(3))
        v1 = tuple(rng.randint(0, 2) for _ in range(3))
        u2 = tuple(rng.randint(0, 2) for _ in range(3))
        v2 = tuple(rng.randint(0, 2) for _ in range(3))
        x = WeylElement.monomial(u1, v1)
        y = WeylElement.monomial(u2, v2)
        dx = x.a_degree(staircase)
        dy = y.a_degree(staircase)
        prod = x * y
        if not prod.is_zero():
            assert prod.a_degree(staircase) == tuple(p + q for p, q in zip(dx, dy))


def test_variable_mismatch():
    with pytest.raises(VariableMismatch):
        weyl_mul(WeylElement.lam(0, 1), WeylElement.lam(0, 2))


def test_parser_round_trip():
    p = parse_weyl("3*l0^2*d0 - 4*l1*l2*d0^2 + l0")
    assert p.pretty() == "-4*l1*l2*d0^2 + 3*l0^2*d0 + l0"
    assert parse_weyl(p.pretty()) == p


def test_parser_normalizes():
    assert parse_weyl("d0*l0", 1) == parse_weyl("l0*d0 + 1", 1)
    assert parse_weyl("d0^2*l0^2", 1) == parse_weyl("l0^2*d0^2 + 4*l0*d0 + 2", 1)
    assert parse_weyl("1/2*l0 + 1/2*l0", 1) == parse_weyl("l0", 1)


def test_parser_rejects_garbage():
    with pytest.raises(ParseError):
        parse_weyl("l0 + $", 1)
    with pytest.raises(ParseError):
        parse_weyl("q0", 1)


def test_large_power_parses_in_logarithmically_many_products(monkeypatch):
    calls = []

    def counting(x, y):
        calls.append(None)
        return real(x, y)

    real = weyl.weyl_mul
    monkeypatch.setattr(weyl, "weyl_mul", counting)
    assert parse_weyl("d0^1000000") == WeylElement.dee(0, 1, power=1000000)
    assert len(calls) <= 2 * 20 + 1  # 10^6 < 2^20


@pytest.mark.parametrize(
    "make, match",
    [
        (lambda: WeylElement.lam(5, 2), r"variable index 5 is not in 0\.\.1"),
        (lambda: WeylElement.dee(-1, 2), r"variable index -1 is not in 0\.\.1"),
        (lambda: WeylElement.lam(0, 2, power=-3), "exponent -3 of variable 0 is negative"),
        (lambda: WeylElement.monomial((-2,), (1,)), "exponent -2 of variable 0 is negative"),
    ],
    ids=["lam-index-past-the-end", "dee-negative-index", "lam-negative-power", "monomial-negative-exponent"],
)
def test_constructors_reject_bad_indices_and_exponents(make, match):
    with pytest.raises(ColumnIndexOutOfRange, match=match) as err:
        make()
    assert isinstance(err.value, GkzError)


def test_monomial_rejects_exponent_vectors_of_different_lengths():
    with pytest.raises(VariableMismatch, match="2 lambda exponents but 1 d exponents"):
        WeylElement.monomial((1, 0), (1,))


@pytest.mark.parametrize("nvars", [0, -1])
def test_parser_rejects_nonpositive_variable_count(nvars):
    with pytest.raises(ParseError, match=f"must be positive, got {nvars}"):
        parse_weyl("1", nvars)


def test_presentation_line(line):
    pres = gkz_presentation(line, (F(3),))
    assert pres.boxes == ()
    assert list(pres.eulers) == [parse_weyl("l0*d0 - 3", 1)]


def test_presentation_hat(hat):
    pres = gkz_presentation(hat, (F(0), F(0)))
    assert [b.pretty() for b in pres.boxes] == ["d0^2 - d1*d2"]
    assert [e.pretty() for e in pres.eulers] == [
        "l0*d0 + l1*d1 + l2*d2",
        "l1*d1 - l2*d2",
    ]


def test_presentation_homogenized_staircase(staircase):
    atilde = homogenize(staircase)
    pres = gkz_presentation(atilde, (F(0),) * 3)
    assert list(pres.boxes) == [parse_weyl("d2^3 - d1^2*d3", 4)]
    assert len(pres.eulers) == 3
    for b in pres.boxes:
        assert b.is_dee_only()
        assert b.a_degree(atilde) is not None
    for e in pres.eulers:
        assert e.a_degree(atilde) == (0,) * 3


def test_presentation_beta_shape(hat):
    pres = gkz_presentation(hat, (F(1, 2), F(-3)))
    assert pres.eulers[0] == parse_weyl("l0*d0 + l1*d1 + l2*d2 - 1/2", 3)
    assert pres.eulers[1] == parse_weyl("l1*d1 - l2*d2 + 3", 3)


def test_restrict_line(line):
    gens = restrict_presentation(homogenize(line), (F(7), F(5)))
    assert gens == [parse_weyl("l1*d1 - 5", 2), parse_weyl("d0 + l1*d1", 2)]


def test_restrict_wedge(wedge):
    gens = restrict_presentation(homogenize(wedge), (F(0),) * 3)
    assert gens == [
        parse_weyl("l1*d1 + l2*d2", 3),
        parse_weyl("l2*d2", 3),
        parse_weyl("d0 + l1*d1 + l2*d2", 3),
    ]


def test_restrict_shape_invariants(wedge):
    gens = restrict_presentation(homogenize(wedge), (F(1), F(2), F(3)))
    dee0_uses = 0
    for g in gens:
        assert not g.uses_lambda(0)
        if g.uses_dee(0):
            dee0_uses += 1
    assert dee0_uses == 1


def test_restrict_moves_the_inner_toric_ideal_up_one_variable():
    # The other restrict tests have an inner toric ideal of 0; the twisted cubic's is not.
    inner = parse_matrix("1 1 1 1; 0 1 2 3")
    atilde = homogenize(inner)
    assert atilde == parse_matrix("1 1 1 1 1; 0 1 1 1 1; 0 0 1 2 3")
    gens = restrict_presentation(atilde, (F(0), F(1), F(2)))
    quadrics = toric_ideal(inner).generators
    assert len(quadrics) == 3 and len(gens) == 3 + 2 + 1
    boxes = gens[: len(quadrics)]
    assert boxes == [
        WeylElement(5, {((0,) * 5, (0,) + m): c for m, c in q.terms.items()}) for q in quadrics
    ]
    assert boxes == [parse_weyl(t, 5) for t in ("-d2*d4 + d3^2", "-d1*d4 + d2*d3", "-d1*d3 + d2^2")]
    assert not any(g.uses_lambda(0) for g in gens)
    assert [g.uses_dee(0) for g in gens] == [False] * 5 + [True]
    assert gens[-1] == parse_weyl("l1*d1 + l2*d2 + l3*d3 + l4*d4 + d0", 5)


def test_restrict_gate(staircase):
    with pytest.raises(FirstRowNotOnes):
        restrict_presentation(homogenize(staircase), (F(0),) * 3)
    with pytest.raises(FirstRowNotOnes):
        restrict_presentation(staircase, (F(0), F(0)))


def test_membership_trivial():
    g1 = parse_weyl("d0^2 - d1*d2", 3)
    g2 = parse_weyl("l1*d1 - l2*d2", 3)
    cert = ideal_member_bounded(g1, [g1, g2], 0)
    assert cert is not None
    assert cert.cofactors[0] == WeylElement.one(3)
    assert cert.cofactors[1] == WeylElement.zero(3)


@pytest.mark.parametrize("zero", ["0", "d0 - d0"])
def test_membership_zero_generator_gets_the_zero_cofactor(zero):
    gens = [parse_weyl(zero, 2), parse_weyl("d0", 2)]
    target = parse_weyl("l0*d0", 2)
    cert = ideal_member_bounded(target, gens, 2)
    assert cert is not None
    assert cert.cofactors == (WeylElement.zero(2), parse_weyl("l0", 2))
    assert cert.combine(gens) == target
    assert ideal_member_bounded(target, gens[:1], 2) is None


def test_membership_finds_synthetic_combination(hat):
    pres = gkz_presentation(hat, (F(0), F(0)))
    gens = pres.generators()
    target = (
        parse_weyl("l1*l2", 3) * gens[0]
        + parse_weyl("l0*d0 + 3", 3) * gens[1]
        + parse_weyl("l2*d2", 3) * gens[2]
    )
    cert = ideal_member_bounded(target, gens, 4)
    assert cert is not None
    assert cert.combine(gens) == target


def test_membership_of_unit_fails(hat):
    pres = gkz_presentation(hat, (F(0), F(0)))
    assert ideal_member_bounded(WeylElement.one(3), pres.generators(), 2) is None


def test_corrected_inverse_identity(hat):
    """d0 * ((4 l1 l2 - l0^2) d0 + l0) - 1 has an exact low-degree certificate."""
    pres = gkz_presentation(hat, (F(0), F(0)))
    gens = pres.generators()
    target = parse_weyl("d0", 3) * parse_weyl("(4*l1*l2 - l0^2)*d0 + l0", 3)
    cert = ideal_member_bounded(target - WeylElement.one(3), gens, 4)
    assert cert is not None
    assert cert.combine(gens) == target - WeylElement.one(3)


def test_sign_flipped_inverse_is_rejected(hat):
    """The same expression with the discriminant sign flipped is not a member."""
    pres = gkz_presentation(hat, (F(0), F(0)))
    gens = pres.generators()
    target = parse_weyl("d0", 3) * parse_weyl("(l0^2 - 4*l1*l2)*d0 + l0", 3)
    assert ideal_member_bounded(target - WeylElement.one(3), gens, 4) is None


def test_euler_decomposition_examples(staircase, numerical):
    assert euler_decomposition(staircase) == (0, 1)
    assert euler_decomposition(homogenize(staircase)) == (1, 0, 0)
    assert euler_decomposition(numerical) is None


def test_euler_decomposition_identity(staircase):
    h = euler_decomposition(staircase)
    total = WeylElement.zero(3)
    from gkzkit.weyl import euler_operator

    for k, hk in enumerate(h):
        total = total + euler_operator(staircase, k, F(0)).scale(hk)
    assert total == euler_field(3)
