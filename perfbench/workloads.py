"""The four benchmark workloads: seeded inputs, one operation, and its check.

Each workload has `setup(gk, seed)`, which builds the inputs (and, where the
workload is warm, fills gkzkit's caches), `run(gk, state, i)`, which is the
timed operation, and `check(state, i, outcome)`, which returns None for a
correct outcome or a message.  `cold` workloads clear every gkzkit cache
before each operation; `pass_len` operations form one balanced pass, and a
run always ends on a pass boundary so that each run sees the same mix.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import checks

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# The ROADMAP corpus without RNC5, whose single 34 s report would set the
# length of every run.
CORPUS = {
    "staircase": "3 2 0; 1 1 1",
    "hat": "1 1 1; 0 1 -1",
    "two_five": "2 5",
    "three_five_seven": "3 5 7",
    "rnc3": "1 1 1 1; 0 1 2 3",
    "rnc4": "1 1 1 1 1; 0 1 2 3 4",
    "m3x5": "1 1 1 1 1; 0 1 0 1 2; 0 0 1 1 0",
    "nonspanning": "2 2 2; 0 3 -3",
}

# Positive functionals (phi . a_j = 1 on every column) of the query matrices.
QUERY_PHI = {"staircase": (0, 1), "hat": (1, 0), "rnc3": (1, 0), "m3x5": (1, 0, 0)}
QUERY_HEIGHT = 12  # phi-height of every membership point of the timed stream
DEEP_PER_MATRIX = 2  # untimed semigroup probes per query matrix, > 1000 column steps out
DEEP_STEPS = (1100, 1400)
WEYL_BOUNDS = (3, 4, 5)
NONMEMBER_BOUND = 4


def parse_rows(text: str) -> list[tuple[int, ...]]:
    return [tuple(int(x) for x in row.split()) for row in text.split(";")]


def fmt(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def clear_caches(caches) -> None:
    for func in caches:
        func.cache_clear()


def random_beta(rng: random.Random, d: int, denominators=(2, 3, 5, 7), span=9):
    out = []
    for _ in range(d):
        q = rng.choice(denominators)
        out.append(Fraction(rng.choice([p for p in range(-span, span + 1) if q == 1 or p % q]), q))
    return tuple(out)


def qdeg_components(golden_entry) -> list:
    return [
        (int(j), tuple(offset), tuple(face))
        for j, comps in golden_entry["qdeg"].items()
        for offset, face in comps
    ]


def nonresonant_beta(rng, rows, golden_entry, **kw):
    cols = checks.columns(rows)
    comps = qdeg_components(golden_entry)
    while True:
        beta = random_beta(rng, len(rows), **kw)
        if not checks.sres_member(cols, comps, beta):
            return beta


def _error_code(section):
    return section.get("error", {}).get("code") if isinstance(section, dict) else None


# ---------------------------------------------------------------- analyze

BETA_SECTIONS = ("sres", "dsres", "dual_parameter", "n_beta")


def split_report(report: dict) -> tuple[dict, dict]:
    """(beta-independent part, beta-dependent part) of an analyze report."""
    indep = json.loads(json.dumps(report))
    dep = {"beta": indep["input"].pop("beta")}
    for key in BETA_SECTIONS:
        dep[key] = indep.pop(key)
    pres = indep.get("presentation", {})
    if "eulers" in pres:
        dep["eulers"] = pres.pop("eulers")
    mono = indep.get("euler_decomposition", {})
    if "b" in mono:
        dep["b"] = mono.pop("b")
    return indep, dep


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def euler_json(rows, k: int, beta_k) -> dict:
    """Expected report entry of E_k - beta_k."""
    n = len(rows[0])
    zero = (0,) * n
    terms = {}
    for i, a in enumerate(rows[k]):
        if a:
            e = tuple(int(t == i) for t in range(n))
            terms[(e, e)] = Fraction(a)
    if beta_k:
        terms[(zero, zero)] = -Fraction(beta_k)
    ordered = sorted(terms.items(), key=lambda t: (sum(t[0][0]) + sum(t[0][1]), t[0]), reverse=True)
    text = ""
    for pos, ((u, v), c) in enumerate(ordered):
        body = "*".join(
            [f"l{i}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(u) if e]
            + [f"d{i}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(v) if e]
        )
        mag = fmt(abs(c))
        piece = mag if not body else body if abs(c) == 1 else f"{mag}*{body}"
        sign = "-" if c < 0 else "+"
        text += (("-" if c < 0 else "") + piece) if pos == 0 else f" {sign} {piece}"
    return {
        "terms": [
            {"lambda": list(u), "d": list(v), "coefficient": fmt(c)}
            for (u, v), c in sorted(terms.items())
        ],
        "text": text or "0",
    }


def check_report(rows, golden_entry, beta, text: str):
    """None when an analyze report is right for (A, beta), else a message."""
    report = json.loads(text)
    indep, dep = split_report(report)
    if digest(indep) != golden_entry["digest"]:
        return "beta-independent sections differ from the golden digest"
    if dep["beta"] != [fmt(b) for b in beta]:
        return "report echoes a different beta"
    cols = checks.columns(rows)
    spans = indep["flags"]["spans_lattice"]
    homogeneous = indep["flags"]["homogeneous"] is not None
    comps = [
        (int(j), tuple(c["offset"]), tuple(c["face_columns"]))
        for j, lst in indep["quasi_degrees"].items()
        for c in lst
    ]
    faces = [tuple(f["columns"]) for f in indep["faces"]["proper"]]
    resonant = checks.sres_member(cols, comps, beta)

    sres = dep["sres"]
    if sres.get("member") != resonant:
        return "sres verdict is wrong"
    if resonant and not checks.sres_witness_ok(cols, comps, beta, sres["witness"]):
        return "sres witness does not re-verify"

    dsres = dep["dsres"]
    if not spans:
        if _error_code(dsres) != "not_full_lattice":
            return "dsres should fail with not_full_lattice"
    else:
        if dsres.get("member") != checks.dsres_member(cols, faces, beta):
            return "dsres verdict is wrong"
        if dsres["member"]:
            face = tuple(dsres["witness"]["face_columns"])
            if face not in faces or not checks.dsres_face_ok(cols, face, beta):
                return "dsres witness does not re-verify"

    dual = dep["dual_parameter"]
    expected = (
        "not_homogeneous" if not homogeneous
        else "parameter_resonant" if resonant
        else "not_full_lattice" if not spans
        else None
    )
    if expected is not None:
        if _error_code(dual) != expected:
            return f"dual_parameter should fail with {expected}"
    else:
        if not isinstance(dual, list):
            return "dual_parameter is missing"
        value = [Fraction(x) for x in dual]
        if not checks.is_integral([v + b for v, b in zip(value, beta)]):
            return "dual parameter is not congruent to -beta"
        if checks.dsres_member(cols, faces, value):
            return "dual parameter lies in DsRes"

    nb = dep["n_beta"]
    if resonant:
        if _error_code(nb) != "parameter_resonant":
            return "n_beta should fail with parameter_resonant"
    elif nb != checks.n_beta_expected(rows, golden_entry["htilde_qdeg1"], beta):
        return "n_beta is wrong"

    if spans:
        want = [euler_json(rows, k, beta[k]) for k in range(len(rows))]
        if dep.get("eulers") != want:
            return "Euler operators do not match beta"
    mono = indep["euler_decomposition"]
    if mono.get("monodromic"):
        if dep.get("b") != fmt(sum(Fraction(h) * b for h, b in zip(mono["h"], beta))):
            return "monodromic scalar is wrong"
    return None


class Analyze:
    """`gkz analyze` on the fixed corpus, cold, at seeded non-resonant betas."""

    cold = True
    # RNC3 appears three times per pass, between the four cheaper reports and
    # the three dearer ones, so that the median op is a mid-ranked RNC3 report.
    pass_names = (*CORPUS, "rnc3", "rnc3")
    pass_len = len(pass_names)
    passes = 6

    def setup(self, gk, seed: int):
        golden = load_golden()
        rng = random.Random(seed)
        ops = []
        for _ in range(self.passes):
            names = list(self.pass_names)
            rng.shuffle(names)
            for name in names:
                rows = parse_rows(CORPUS[name])
                beta = nonresonant_beta(rng, rows, golden[name])
                ops.append({"matrix": name, "beta": [fmt(b) for b in beta]})
        return {"inputs": ops, "golden": golden}

    def run(self, gk, state, i):
        op = state["inputs"][i]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = gk.cli.main(
                ["analyze", "--matrix", CORPUS[op["matrix"]], "--beta=" + ",".join(op["beta"])]
            )
        return rc, buf.getvalue()

    def check(self, state, i, result):
        op = state["inputs"][i]
        rc, text = result
        if rc != 0:
            return f"exit code {rc}"
        beta = tuple(Fraction(b) for b in op["beta"])
        rows = parse_rows(CORPUS[op["matrix"]])
        return check_report(rows, state["golden"][op["matrix"]], beta, text)

    def label(self, state, i):
        return state["inputs"][i]["matrix"]


# ---------------------------------------------------------------- faces

GRID = [(x, y) for x in range(4) for y in range(3)]


class Faces:
    """Cold face lattice, support functions, rays and saturation of grid polygons."""

    cold = True
    sizes = (7, 8, 8, 8, 8, 9)  # the median op is a mid-ranked 8-point configuration
    pass_len = len(sizes)
    passes = 8

    def setup(self, gk, seed: int):
        rng = random.Random(seed)
        ops = [rng.sample(GRID, n) for _ in range(self.passes) for n in self.sizes]
        return {"inputs": ops}

    def run(self, gk, state, i):
        pts = state["inputs"][i]
        a = gk.intlinalg.IntMatrix.from_rows(
            [[1] * len(pts), [p[0] for p in pts], [p[1] for p in pts]]
        )
        lattice = gk.cones.face_lattice(a)
        try:
            support = gk.cones.support_functions(a)
        except gk.errors.GkzError as exc:
            support = exc.code
        return lattice, support, gk.cones.extreme_rays(a), gk.cones.is_saturated(a)

    def check(self, state, i, result):
        pts = [tuple(p) for p in state["inputs"][i]]
        lattice, support, rays, saturated = result
        cols = [(1,) + p for p in pts]
        faces, want_rays, functionals, want_saturated = checks.polygon_cone_faces(pts)
        got = sorted(f.sorted_columns() for f in lattice.proper_faces)
        if got != faces:
            return "proper faces differ from the convex hull"
        if lattice.improper.sorted_columns() != tuple(range(1, len(pts) + 1)):
            return "improper face is wrong"
        if not lattice.pointed or lattice.minimal.sorted_columns() != ():
            return "cone should be pointed"
        for face in lattice.faces:
            want_dim = {0: 0, 1: 1}.get(len(face.columns), 2 if face is not lattice.improper else 3)
            if face.dim != want_dim:
                return "face dimension is wrong"
            for j, col in enumerate(cols, start=1):
                value = checks.dot(face.certificate, col)
                if (j in face.columns and value != 0) or (j not in face.columns and value <= 0):
                    return "face certificate fails"
        if [tuple(r) for r in rays] != want_rays:
            return "extreme rays differ from the hull vertices"
        if checks.spans_z3(cols):
            if sorted(tuple(s.functional) for s in support) != functionals:
                return "support functions differ from the hull edges"
            for s in support:
                zero = tuple(j for j, c in enumerate(cols, 1) if checks.dot(s.functional, c) == 0)
                if zero != s.facet.sorted_columns():
                    return "support function does not vanish exactly on its facet"
        elif support != "not_full_lattice":
            return "support functions should fail with not_full_lattice"
        if saturated != want_saturated:
            return "saturation verdict is wrong"
        return None

    def label(self, state, i):
        return f"n={len(state['inputs'][i])}"


# ---------------------------------------------------------------- queries

QUERY_MATRICES = ("staircase", "hat", "rnc3", "m3x5")
QUERY_KINDS = ("sres", "dsres", "semigroup", "cone", "true_degree", "n_beta", "dual")


def _box_point(rng, rows, phi):
    """A random integer point of phi-height 0..QUERY_HEIGHT near the cone."""
    while True:
        p = tuple(rng.randint(-4, 6) for _ in rows)
        if 0 <= checks.dot(phi, p) <= QUERY_HEIGHT:
            return p


def _combo(rng, rows, steps):
    n = len(rows[0])
    x = [0] * n
    for _ in range(steps):
        x[rng.randrange(n)] += 1
    return tuple(sum(r[j] * x[j] for j in range(n)) for r in rows)


class Queries:
    """Warm membership, witness and parameter queries on four matrices.

    The stream is made of shuffled blocks holding each (kind, matrix) pair
    once, so every seed runs the same mix; the tail is set by dual_parameter
    on the 3x5, whose search radius depends on beta.  Deep semigroup points
    (more than 1000 column steps out) are not in the timed stream, where an
    op that raises would make the failure count follow the run length; they
    are a fixed set of `side_inputs`, run and checked once after the timed
    phase and reported on their own.
    """

    cold = False
    pass_len = len(QUERY_MATRICES) * len(QUERY_KINDS)
    blocks = 200

    def _op(self, rng, golden, name, kind):
        rows = parse_rows(CORPUS[name])
        cols = checks.columns(rows)
        phi = QUERY_PHI[name]
        op = {"matrix": name, "kind": kind}
        if kind == "sres":
            if rng.random() < 0.5:
                j, offset, face = rng.choice(qdeg_components(golden[name]))
                m = rng.randint(1, 3)
                beta = [Fraction(o - m * a) for o, a in zip(offset, cols[j - 1])]
                for k in face:
                    c = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
                    beta = [b + c * a for b, a in zip(beta, cols[k - 1])]
            else:
                beta = random_beta(rng, len(rows), denominators=(1, 2, 3), span=6)
            op["beta"] = [fmt(b) for b in beta]
        elif kind == "dsres":
            if rng.random() < 0.5:
                beta = tuple(rng.randint(-4, 4) for _ in rows)
            else:
                beta = random_beta(rng, len(rows), denominators=(2, 3), span=8)
            op["beta"] = [fmt(b) for b in beta]
        elif kind == "semigroup":
            if rng.random() < 0.5:
                op["point"] = _combo(rng, rows, rng.randint(0, QUERY_HEIGHT))
            else:
                op["point"] = _box_point(rng, rows, phi)
        elif kind == "cone":
            op["point"] = tuple(rng.randint(-4, 6) for _ in rows)
        elif kind == "true_degree":
            op["j"] = rng.randint(1, len(cols))
            if rng.random() < 0.5:
                op["point"] = _combo(rng, rows, rng.randint(0, QUERY_HEIGHT))
            else:
                op["point"] = _box_point(rng, rows, phi)
        else:
            beta = nonresonant_beta(rng, rows, golden[name], denominators=(2, 3, 5), span=3)
            op["beta"] = [fmt(b) for b in beta]
        return op

    def setup(self, gk, seed: int):
        golden = load_golden()
        rng = random.Random(seed)
        ops = []
        for b in range(self.blocks):
            block = [(name, kind) for name in QUERY_MATRICES for kind in QUERY_KINDS]
            rng.shuffle(block)
            ops.extend(self._op(rng, golden, name, kind) for name, kind in block)
        deep = [
            {"matrix": name, "kind": "semigroup", "deep": True,
             "point": _combo(rng, parse_rows(CORPUS[name]), rng.randint(*DEEP_STEPS))}
            for name in QUERY_MATRICES for _ in range(DEEP_PER_MATRIX)
        ]
        matrices = {}
        for name in QUERY_MATRICES:
            a = gk.intlinalg.parse_matrix(CORPUS[name])
            atilde = gk.intlinalg.homogenize(a)
            gk.cones.face_lattice(a)
            gk.resonance.resonance_set(a)
            gk.toric.quasi_degrees(atilde, 1)
            gk.resonance.resonance_set(atilde)
            matrices[name] = a
        return {"inputs": ops, "side_inputs": deep, "golden": golden, "matrices": matrices,
                "semigroups": {}}

    def run(self, gk, state, i):
        return self.run_op(gk, state, state["inputs"][i])

    def run_op(self, gk, state, op):
        a = state["matrices"][op["matrix"]]
        kind = op["kind"]
        if kind == "semigroup":
            return gk.cones.semigroup_witness(a, op["point"])
        if kind == "cone":
            return gk.cones.cone_witness(a, op["point"])
        if kind == "true_degree":
            return gk.toric.true_degree_contains(a, op["j"], op["point"])
        beta = tuple(Fraction(b) for b in op["beta"])
        if kind == "sres":
            return gk.resonance.sres_witness(a, beta)
        if kind == "dsres":
            return gk.resonance.dsres_witness(a, beta)
        if kind == "n_beta":
            return gk.resonance.n_beta(a, beta)
        return gk.resonance.dual_parameter(a, beta)

    def _semigroup(self, state, name):
        if name not in state["semigroups"]:
            cols = checks.columns(parse_rows(CORPUS[name]))
            state["semigroups"][name] = checks.semigroup_points(cols, QUERY_PHI[name], QUERY_HEIGHT)
        return state["semigroups"][name]

    def check(self, state, i, result):
        return self.check_op(state, state["inputs"][i], result)

    def check_op(self, state, op, result):
        name, kind = op["matrix"], op["kind"]
        rows = parse_rows(CORPUS[name])
        cols = checks.columns(rows)
        golden = state["golden"][name]
        if kind in ("semigroup", "cone"):
            b = tuple(op["point"])
            if result is not None:
                x = [Fraction(v) for v in result]
                if kind == "semigroup" and not all(v.denominator == 1 for v in x):
                    return "semigroup witness is not integral"
                if any(v < 0 for v in x) or len(x) != len(cols):
                    return "witness has a negative or missing entry"
                if tuple(sum(r[j] * x[j] for j in range(len(x))) for r in rows) != b:
                    return "witness does not satisfy A x = b"
                return None
            if kind == "cone":
                return "point in the cone has no witness" if checks.in_cone(cols, b) else None
            if op.get("deep") or b in self._semigroup(state, name):
                return "semigroup member has no witness"
            return None
        if kind == "true_degree":
            s = self._semigroup(state, name)
            u = tuple(op["point"])
            below = tuple(x - y for x, y in zip(u, cols[op["j"] - 1]))
            return None if result == (u in s and below not in s) else "true-degree verdict is wrong"
        beta = tuple(Fraction(b) for b in op["beta"])
        if kind == "sres":
            comps = qdeg_components(golden)
            if (result is not None) != checks.sres_member(cols, comps, beta):
                return "sres verdict is wrong"
            if result is not None:
                witness = {
                    "j": result.j,
                    "offset": result.offset,
                    "face_columns": result.face_columns,
                    "multiplier": result.multiplier,
                }
                if not checks.sres_witness_ok(cols, comps, beta, witness):
                    return "sres witness does not re-verify"
            return None
        faces = [tuple(f) for f in golden["faces"]]
        if kind == "dsres":
            if (result is not None) != checks.dsres_member(cols, faces, beta):
                return "dsres verdict is wrong"
            if result is not None and (
                tuple(result) not in faces or not checks.dsres_face_ok(cols, tuple(result), beta)
            ):
                return "dsres witness does not re-verify"
            return None
        if kind == "n_beta":
            want = checks.n_beta_expected(rows, golden["htilde_qdeg1"], beta)
            return None if result == want else "n_beta is wrong"
        if not checks.is_integral([Fraction(v) + b for v, b in zip(result, beta)]):
            return "dual parameter is not congruent to -beta"
        if checks.dsres_member(cols, faces, result):
            return "dual parameter lies in DsRes"
        return None

    def label(self, state, i):
        return state["inputs"][i]["kind"]


# ---------------------------------------------------------------- weyl

WEYL_MATRICES = {"hat": False, "staircase": True}  # name -> homogenize first


def _a_degree(rows, key):
    u, v = key
    return tuple(sum(r[i] * (v[i] - u[i]) for i in range(len(u))) for r in rows)


def _monomials(nvars, bound):
    for total in range(bound + 1):
        for combo in combinations_with_replacement(range(2 * nvars), total):
            e = [0] * (2 * nvars)
            for k in combo:
                e[k] += 1
            yield tuple(e[:nvars]), tuple(e[nvars:])


def _terms(w) -> dict:
    return {k: Fraction(c) for k, c in w.terms.items()}


def _candidates(rows, gens, bound):
    """(generator, cofactor monomial) pairs whose product has A-degree 0."""
    nvars = len(rows[0])
    out = []
    for gi, g in enumerate(gens):
        want = tuple(-x for x in _a_degree(rows, next(iter(g.terms))))
        out.extend((gi, m) for m in _monomials(nvars, bound) if _a_degree(rows, m) == want)
    return out


def _member_target(rng, gens, candidates, bound):
    """A seeded left combination sum c * m * g_i with one cofactor of degree = bound."""
    top = [c for c in candidates if sum(c[1][0]) + sum(c[1][1]) == bound]
    while True:
        picks = [rng.choice(top or candidates)] + rng.sample(candidates, 2)
        coeffs = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in picks]
        target = {}
        for (gi, mono), c in zip(picks, coeffs):
            prod = checks.weyl_product({mono: Fraction(c)}, _terms(gens[gi]))
            target = checks.add_polys(target, prod)
        if target:
            return target, [[gi, [list(m[0]), list(m[1])], c] for (gi, m), c in zip(picks, coeffs)]


class Weyl:
    """Bounded left-ideal membership over GKZ presentations at seeded betas."""

    cold = False
    pass_len = 2 * (len(WEYL_BOUNDS) + 2)
    passes = 12

    def setup(self, gk, seed: int):
        rng = random.Random(seed)
        ops, runtime, candidates = [], [], {}
        for _ in range(self.passes):
            for name, homog in WEYL_MATRICES.items():
                rows = parse_rows(CORPUS[name])
                if homog:
                    rows = checks.homogenize(rows)
                a = gk.intlinalg.IntMatrix.from_rows(rows)
                nvars = len(rows[0])
                zero = (0,) * nvars
                for kind, bound in [("member", b) for b in WEYL_BOUNDS] + [
                    ("unit", NONMEMBER_BOUND), ("minus_l0", NONMEMBER_BOUND)
                ]:
                    beta = random_beta(rng, len(rows), denominators=(1, 2, 3), span=5)
                    gens = gk.weyl.gkz_presentation(a, beta).generators()
                    op = {"matrix": name, "kind": kind, "bound": bound, "beta": [fmt(b) for b in beta]}
                    if kind == "member":
                        if (name, bound) not in candidates:
                            candidates[name, bound] = _candidates(rows, gens, bound)
                        target, op["picks"] = _member_target(rng, gens, candidates[name, bound], bound)
                    elif kind == "unit":
                        target = {(zero, zero): Fraction(1)}
                    else:
                        l0 = tuple(int(k == 0) for k in range(nvars))
                        target = {(l0, zero): Fraction(-1)}
                    ops.append(op)
                    runtime.append((gk.weyl.WeylElement(nvars, target), gens))
        return {"inputs": ops, "runtime": runtime, "seed": seed}

    def run(self, gk, state, i):
        target, gens = state["runtime"][i]
        return gk.weyl.ideal_member_bounded(target, gens, state["inputs"][i]["bound"])

    def check(self, state, i, result):
        op = state["inputs"][i]
        target, gens = state["runtime"][i]
        if op["kind"] != "member":
            return None if result is None else "non-member got a certificate"
        if result is None:
            return "known member got no certificate"
        if len(result.cofactors) != len(gens):
            return "wrong number of cofactors"
        if any(sum(u) + sum(v) > op["bound"] for c in result.cofactors for u, v in c.terms):
            return "cofactor exceeds the degree bound"
        lhs = {}
        for c, g in zip(result.cofactors, gens):
            lhs = checks.add_polys(lhs, checks.weyl_product(_terms(c), _terms(g)))
        if lhs != _terms(target):
            return "sum of cofactor * generator differs from the target"
        return None

    def label(self, state, i):
        op = state["inputs"][i]
        return f"{op['matrix']}:{op['kind']}:{op['bound']}"


WORKLOADS = {"analyze": Analyze, "faces": Faces, "queries": Queries, "weyl": Weyl}
