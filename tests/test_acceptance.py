"""Acceptance suite: one test per criterion, each printing a PASS line.

Run `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every check is exact (integer/rational equality); the wall-clock budgets
are asserted with the limits the criteria carry.
"""

import random
import time
from fractions import Fraction as F
from itertools import product

import qdeg_oracle
from test_intlinalg import is_unimodular

from gkzkit import (
    IntMatrix,
    WeylElement,
    delta_A,
    delta_valid,
    dsres_contains,
    dual_parameter,
    euler_decomposition,
    factor_B,
    gkz_presentation,
    homogenize,
    i_e_classes,
    ideal_member_bounded,
    index_sets,
    lattice_kernel,
    parse_matrix,
    parse_weyl,
    psi_image,
    psi_kernel_sections,
    psi_lambda_derivative,
    quasi_degrees,
    semigroup_contains,
    smith_decompose,
    saturation_contains,
    sres_contains,
    toric_ideal,
    toric_normal_form,
    true_degree_contains,
)
from gkzkit.errors import RankDeficient
from gkzkit.polynomials import Polynomial
from gkzkit.toric import a_degree

LINE = parse_matrix("1")
WEDGE = parse_matrix("1 1; 0 1")
HAT = parse_matrix("1 1 1; 0 1 -1")
STAIRCASE = parse_matrix("3 2 0; 1 1 1")
NUMERICAL = parse_matrix("2 5")


class _Clock:
    def __init__(self, limit):
        self.limit = limit

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        if exc[0] is None:
            assert self.elapsed < self.limit, (
                f"over budget: {self.elapsed:.2f}s >= {self.limit}s"
            )
        return False


def _report(num, text, clock):
    print(f"\n[criterion {num:2d}] PASS ({clock.elapsed:.2f}s): {text}")


def test_criterion_01_one_variable_suite():
    with _Clock(1.0) as clock:
        for b in range(-3, 4):
            assert sres_contains(LINE, (F(b),)) == (b < 0)
        assert dual_parameter(LINE, (F(0),)) == (F(-1),)
        for beta in (F(0), F(3), F(-1, 2)):
            pres = gkz_presentation(LINE, (beta,))
            assert pres.boxes == ()
            expected = WeylElement(1, {((1,), (1,)): F(1), ((0,), (0,)): -beta})
            assert list(pres.eulers) == [expected]
    _report(1, "one-variable resonance, dual parameter, presentation", clock)


def test_criterion_02_staircase_toric_ideal():
    with _Clock(5.0) as clock:
        ideal = toric_ideal(STAIRCASE)
        assert len(ideal.generators) == 1
        assert ideal.generators[0] == Polynomial(3, {(0, 3, 0): 1, (2, 0, 1): -1})
        rng = random.Random(2024)
        for _ in range(200):
            u = tuple(rng.randint(0, 4) for _ in range(3))
            v = tuple(rng.randint(0, 4) for _ in range(3))
            same_nf = toric_normal_form(
                Polynomial.monomial(u), ideal
            ) == toric_normal_form(Polynomial.monomial(v), ideal)
            assert same_nf == (STAIRCASE.mul_vec(u) == STAIRCASE.mul_vec(v))
        # the quintic look-alike is rejected by the degree check: its vector
        # is not a relation and its binomial is not A-homogeneous
        assert STAIRCASE.mul_vec((3, -5, 2)) == (-1, 0)
        assert lattice_kernel(STAIRCASE) == [(2, -3, 1)]
        quintic = Polynomial(3, {(0, 5, 0): 1, (3, 0, 2): -1})
        assert a_degree(quintic, STAIRCASE) is None
    _report(2, "toric ideal generator, 200-pair grading oracle, rejected relation", clock)


def test_criterion_03_quasi_degree_box_oracle():
    with _Clock(10.0) as clock:
        box = list(product(range(-1, 10), range(-1, 6)))
        for j in (1, 2, 3):
            qd = quasi_degrees(STAIRCASE, j)
            for point in box:
                assert qdeg_oracle.degree_set_contains(qd, point) == true_degree_contains(
                    STAIRCASE, j, point
                )
        lines = {
            (comp.offset[0], comp.face.sorted_columns())
            for comp in quasi_degrees(STAIRCASE, 1).components
        }
        assert lines == {(0, (3,)), (2, (3,)), (4, (3,))}
    _report(3, "quasi-degree unions match true degrees pointwise on the box", clock)


def test_criterion_04_saturated_homogeneous_law():
    with _Clock(10.0) as clock:
        for a in (LINE, WEDGE, HAT):
            for point in product(range(-5, 6), repeat=a.d):
                beta = tuple(F(x) for x in point)
                assert sres_contains(a, beta) == (not semigroup_contains(a, point))
    _report(4, "integer resonance complements the semigroup on [-5,5]^d", clock)


def test_criterion_05_delta_and_counterexample():
    with _Clock(5.0) as clock:
        assert sres_contains(NUMERICAL, (F(3),))
        assert saturation_contains(NUMERICAL, (3,))
        assert not delta_valid(NUMERICAL, (0,))
        delta = delta_A(NUMERICAL)
        assert semigroup_contains(NUMERICAL, delta)
        assert delta_valid(NUMERICAL, delta)
        delta2 = delta_A(STAIRCASE)
        assert semigroup_contains(STAIRCASE, delta2)
        assert delta_valid(STAIRCASE, delta2)
        assert delta_valid(STAIRCASE, (4, 2))
    _report(5, "cone-shift certificates, zero shift rejected for <2,5>", clock)


def test_criterion_06_dual_identity_certificate():
    with _Clock(30.0) as clock:
        pres = gkz_presentation(HAT, (F(0), F(0)))
        gens = pres.generators()
        assert [g.pretty() for g in gens] == [
            "d0^2 - d1*d2",
            "l0*d0 + l1*d1 + l2*d2",
            "l1*d1 - l2*d2",
        ]
        # as printed elsewhere, with the discriminant factor (l0^2 - 4 l1 l2),
        # the expression is NOT a member: see notes on the sign
        printed = parse_weyl("d0*((l0^2 - 4*l1*l2)*d0 + l0) - 1", 3)
        assert ideal_member_bounded(printed, gens, 4) is None
        # the sign-corrected inverse certifies at cofactor degree <= 4
        target = parse_weyl("d0*((4*l1*l2 - l0^2)*d0 + l0) - 1", 3)
        cert = ideal_member_bounded(target, gens, 4)
        assert cert is not None
        assert all(c.total_degree() <= 4 for c in cert.cofactors)
        assert (cert.combine(gens) - target).is_zero()
    _report(6, "inverse-of-d0 certificate exact at cofactor degree <= 4", clock)


def test_criterion_07_smith_property_suite():
    with _Clock(30.0) as clock:
        rng = random.Random(777)
        done = 0
        while done < 100:
            d = rng.randint(1, 3)
            n = rng.randint(d, 5)
            m = IntMatrix.from_rows(
                [[rng.randint(-6, 6) for _ in range(n)] for _ in range(d)]
            )
            try:
                dec = smith_decompose(m)
            except RankDeficient:
                continue
            done += 1
            assert dec.product() == m
            assert is_unimodular(dec.C)
            assert is_unimodular(dec.M)
            assert all(e >= 1 for e in dec.e)
            for x, y in zip(dec.e, dec.e[1:]):
                assert y % x == 0
    _report(7, "100 random Smith factorizations: product, unimodularity, chain", clock)


def test_criterion_08_psi_suite():
    with _Clock(5.0) as clock:
        assert psi_image((0, 0), 0).exponents == (1, 0, 0)
        for a in (STAIRCASE, parse_matrix("1 -1")):
            pres = gkz_presentation(homogenize(a), (F(0),) * (a.d + 1))
            sections = psi_kernel_sections(a)
            assert len(sections) == a.d
            for k, section in enumerate(sections):
                assert (section - pres.eulers[k + 1]).is_zero()
        rng = random.Random(31)
        for _ in range(50):
            n = rng.randint(1, 4)
            m = tuple(rng.randint(-3, 3) for _ in range(n))
            s = rng.randint(0, 5)
            i = rng.randint(0, n - 1)
            acted = psi_image(*psi_lambda_derivative(m, s, i))
            direct = list(psi_image(m, s).exponents)
            direct[i + 1] += 1
            assert acted.exponents == tuple(direct)
    _report(8, "psi base case, kernel sections, derivative equivariance", clock)


def test_criterion_09_index_sets():
    with _Clock(10.0) as clock:
        cases = [
            (parse_matrix("1"), 1),
            (parse_matrix("2"), 2),
            (parse_matrix("2 2 2; 0 3 -3"), 6),  # diag(2,3) times a spanning matrix
        ]
        for b, size in cases:
            fam = factor_B(b)
            atilde = homogenize(fam.A)
            prod_e = 1
            for e in fam.e:
                prod_e *= e
            assert prod_e == size
            assert len(i_e_classes(fam.e)) == size
            for kind in ("I", "Iprime"):
                idx = index_sets(b, kind)
                assert len(idx.members) == size
                classes = {tuple(x % 1 for x in m) for m in idx.members}
                assert len(classes) == size
                for member in idx.members:
                    if kind == "I":
                        assert not sres_contains(atilde, member)
                    else:
                        assert not dsres_contains(atilde, member)
    _report(9, "index-set sizes and per-member non-resonance checks", clock)


def test_criterion_10_homogeneity_monodromicity():
    with _Clock(5.0) as clock:
        assert euler_decomposition(STAIRCASE) == (0, 1)
        for a in (LINE, WEDGE, HAT, STAIRCASE, NUMERICAL):
            h = euler_decomposition(homogenize(a))
            assert h == (1,) + (0,) * a.d
        assert euler_decomposition(NUMERICAL) is None
        # euler_decomposition verifies sum h_k E_k == sum lambda_i d_i
        # symbolically and raises on mismatch, so reaching here is the check
    _report(10, "homogeneity vectors and the symbolic Euler-field identity", clock)
