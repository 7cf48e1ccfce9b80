"""One computation per cache key.

The cached layers are `lru_cache` objects keyed by their argument tuple, so
`toric_ideal(a)` and `toric_ideal(a, "degrevlex")` would be two keys and
build the same basis twice.  `quasi_degrees(a, j)` takes no term order, as
its components do not depend on one, so a report in any order shares its
filtrations with the resonance layer.  A cold `run_report` on a pointed
matrix A whose columns span Z^d must build the filtration of S_A/<d_j> once
per column of A, the toric ideal of A once in the default order (and once
more in the report's order when that differs), and one face LP per face
whose certificate is not forced (not the improper face, nor a facet of a
full-dimensional cone).  `n_beta` reads the standard pairs of A's own
toric ideal in the default order, so it builds nothing of homogenize(A),
homogeneous or not.  The nonspanning corpus matrix is left out: its
report also builds the index-set matrices.  The undominated delta regions
are built once per matrix whose delta is walked: A when its columns span
Z^d, and homogenize(A) for the nonspanning matrix's index sets.  The
parameter queries key no cache by beta: once warm, fresh parameters add no
miss anywhere.
"""

import functools
import random
import sys
from fractions import Fraction

import pytest

from gkzkit import cones, parse_matrix, resonance, toric
from gkzkit.cones import _face_certificate, face_lattice
from gkzkit.errors import GkzError
from gkzkit.intlinalg import homogenize, parse_rational_vector
from gkzkit.report import DiagramSpec, classification_table, render_diagram, run_report

# The spanning corpus matrices of the analyze goldens, at their betas.
SPANNING = {
    "staircase": ("3 2 0; 1 1 1", "5/2,-2/5"),
    "hat": ("1 1 1; 0 1 -1", "-9/5,3/5"),
    "two_five": ("2 5", "-5/7"),
    "three_five_seven": ("3 5 7", "7/5"),
    "rnc3": ("1 1 1 1; 0 1 2 3", "2/3,-3/5"),
    "rnc4": ("1 1 1 1 1; 0 1 2 3 4", "2/7,2/5"),
    "m3x5": ("1 1 1 1 1; 0 1 0 1 2; 0 0 1 1 0", "-1/3,-2/7,-4/5"),
}

RNC3 = "1 1 1 1; 0 1 2 3"


def gkzkit_caches():
    """Every lru_cache of every gkzkit module, each once (a cached function
    imported into several modules is one cache)."""
    caches = {}
    for name, module in list(sys.modules.items()):
        if name == "gkzkit" or name.startswith("gkzkit."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_info"):
                    caches[id(obj)] = obj
    return list(caches.values())


def clear_caches():
    """Empty every lru_cache of every gkzkit module, as a cold run starts."""
    for cache in gkzkit_caches():
        cache.cache_clear()


@pytest.mark.parametrize("name", SPANNING)
def test_cold_report_computes_each_key_once(name):
    matrix, beta = SPANNING[name]
    a = parse_matrix(matrix)
    clear_caches()
    report = run_report(a, parse_rational_vector(beta))
    assert isinstance(report["n_beta"], int), report["n_beta"]
    assert toric.quasi_degrees.cache_info().misses == a.n
    assert toric.toric_ideal.cache_info().misses == 1
    assert _face_certificate.cache_info().misses == len(lp_keys(a))


@pytest.mark.parametrize("order", ["lex", "deglex"])
@pytest.mark.parametrize("name", SPANNING)
def test_cold_report_in_another_order_shares_the_filtrations(name, order):
    matrix, beta = SPANNING[name]
    a = parse_matrix(matrix)
    clear_caches()
    report = run_report(a, parse_rational_vector(beta), order)
    assert isinstance(report["n_beta"], int), report["n_beta"]
    assert toric.quasi_degrees.cache_info().misses == a.n
    assert toric.toric_ideal.cache_info().misses == 2


def lp_keys(a):
    """The column sets whose certificate takes an LP: each face that is neither
    the improper face nor, when the cone is full-dimensional, a facet."""
    lat = face_lattice(a)
    full = lat.improper.dim == a.d
    return {f.columns for f in lat.proper_faces if not (full and f.dim == a.d - 1)}


@pytest.mark.parametrize("name", SPANNING)
def test_cold_report_builds_nothing_of_the_homogenization(name, monkeypatch):
    matrix, beta = SPANNING[name]
    a = parse_matrix(matrix)
    clear_caches()
    asked = []
    for layer in (toric.toric_ideal, toric.quasi_degrees, face_lattice):
        def spy(m, *args, _layer=layer):
            asked.append((_layer.__name__, m))
            return _layer(m, *args)

        for module_name, module in list(sys.modules.items()):
            if module_name == "gkzkit" or module_name.startswith("gkzkit."):
                for attr, obj in list(vars(module).items()):
                    if obj is layer:
                        monkeypatch.setattr(module, attr, spy)
    report = run_report(a, parse_rational_vector(beta))
    assert isinstance(report["n_beta"], int), report["n_beta"]
    assert {layer for layer, m in asked if m == a} == {"toric_ideal", "quasi_degrees", "face_lattice"}
    assert [layer for layer, m in asked if m == homogenize(a)] == []


def test_diagram_builds_no_second_filtration():
    a = parse_matrix(RNC3)
    clear_caches()
    spec = DiagramSpec(box=(-3, 6, -3, 6), layers=("qdeg", "sres"), qdeg_j=2)
    assert "<svg" in render_diagram(a, spec)
    assert toric.quasi_degrees.cache_info().misses == a.n


def test_qdeg_diagram_builds_nothing_of_a_face():
    # The qdeg layer tests the true degrees u in NA, u - a_j not in NA, so the
    # ASCII table builds no filtration, and no face submatrix gets a
    # semigroup, face lattice or toric ideal of its own.
    a = parse_matrix(RNC3)
    clear_caches()
    table = classification_table(a, DiagramSpec(box=(-3, 6, -3, 6), layers=("qdeg",), output_format="ascii"))
    assert sum(row["qdeg"] for row in table.values()) == 7
    assert toric.quasi_degrees.cache_info().misses == 0
    assert toric.toric_ideal.cache_info().misses == 1
    assert face_lattice.cache_info().misses == 1


def test_warm_diagram_asks_no_lp(monkeypatch):
    # Once the lattice, delta and the semigroup memo are built, no layer asks
    # an LP: cone, saturation-gap and delta-cone read facet signs, and the
    # semigroup layer reads its memo or the standard pairs.
    a = parse_matrix(RNC3)
    spec = DiagramSpec(box=(-3, 6, -3, 6), layers=("semigroup", "saturation-gap", "cone", "sres", "delta-cone"))
    clear_caches()
    warm = classification_table(a, spec)
    calls = []
    solve = cones.feasible_point
    monkeypatch.setattr(cones, "feasible_point", lambda *args: calls.append(args) or solve(*args))
    assert classification_table(a, spec) == warm
    assert len(warm) == 100 and calls == []


def test_delta_cone_table_walks_once(monkeypatch):
    # The spy sits on the verifier the walk itself calls, so one walk is
    # several calls, and the table must make exactly as many.
    a = parse_matrix(RNC3)
    asked = []
    verifier = resonance._delta_valid
    monkeypatch.setattr(resonance, "_delta_valid", lambda m, d: asked.append(d) or verifier(m, d))
    clear_caches()
    resonance.delta_A(a)
    one_walk = len(asked)
    asked.clear()
    clear_caches()
    table = classification_table(a, DiagramSpec(box=(-2, 2, -2, 2), layers=("delta-cone",)))
    assert len(table) == 25
    assert len(asked) == one_walk > 1


def test_undominated_regions_are_a_module_level_lru_cache():
    # perfbench's all_caches and clear_caches above find the lru_caches in a
    # module's namespace; a cache kept elsewhere would stay warm across cold runs.
    assert isinstance(resonance._undominated_regions, functools._lru_cache_wrapper)
    assert vars(resonance)["_undominated_regions"] is resonance._undominated_regions


@pytest.mark.parametrize("name", [*SPANNING, "nonspanning"])
def test_cold_report_prunes_the_regions_once_per_matrix(name):
    # A spanning A is walked for its delta; the nonspanning one raises
    # before any region is built, and its index sets walk homogenize(A).
    matrix, beta = SPANNING.get(name, ("2 2 2; 0 3 -3", "9/7,9/2"))
    a = parse_matrix(matrix)
    clear_caches()
    run_report(a, parse_rational_vector(beta))
    assert resonance._undominated_regions.cache_info().misses == 1


def total_misses():
    return sum(cache.cache_info().misses for cache in gkzkit_caches())


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except GkzError as exc:  # resonant parameters and non-homogeneous matrices
        return "raised", type(exc)


def fresh_betas(a, rng, count):
    return [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(a.d)) for _ in range(count)]


@pytest.mark.parametrize("name", [*SPANNING, "nonspanning"])
def test_parameter_queries_cache_nothing_per_beta(name):
    # The multipliers read face_functionals per component, and DsRes (in
    # dual_parameter's second pass) reads the functionals and inequalities
    # of the faces it visits, which depend on beta; every key is a matrix,
    # a face or a component, never a parameter.  So once one call of each
    # query has run and each face's keys are built, fresh betas add no miss.
    matrix, _ = SPANNING.get(name, ("2 2 2; 0 3 -3", None))
    a = parse_matrix(matrix)
    rng = random.Random(25)
    clear_caches()
    warm = next(b for b in fresh_betas(a, rng, 100) if resonance.sres_witness(a, b) is None)
    queries = (resonance.sres_witness, resonance.n_beta, resonance.dual_parameter)
    for query in queries:
        outcome(query, a, warm)
    for face in face_lattice(a).proper_faces:
        cones.face_functionals(a, face.sorted_columns())
        cones._cone_inequalities(a, face.sorted_columns())
    before = total_misses()
    answers = [outcome(query, a, beta) for beta in fresh_betas(a, rng, 40) for query in queries]
    assert total_misses() == before
    assert any(kind == "ok" for kind, *_ in answers)
