"""Self-tests of the benchmark: seeded inputs, tracer patching, and checkers
that must reject planted wrong answers.

    python3 perfbench/selftest.py      # from the repository root, about a minute
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

GK = run.import_gkzkit(SRC)
CACHES = run.all_caches(GK)
STATES: dict = {}


def state(name: str, seed: int = 7):
    if (name, seed) not in STATES:
        STATES[name, seed] = workloads.WORKLOADS[name]().setup(GK, seed)
    return STATES[name, seed]


def first(name: str, pred, seed: int = 7) -> int:
    return next(i for i, op in enumerate(state(name, seed)["inputs"]) if pred(op))


def outcome(name: str, i: int, seed: int = 7):
    wl = workloads.WORKLOADS[name]()
    if wl.cold:
        workloads.clear_caches(CACHES)
    return wl.run(GK, state(name, seed), i)


def verdict(name: str, i: int, result, seed: int = 7):
    return workloads.WORKLOADS[name]().check(state(name, seed), i, result)


class Determinism(unittest.TestCase):
    def test_same_seed_gives_same_inputs(self):
        for name, cls in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                again = cls().setup(GK, 7)["inputs"]
                self.assertEqual(json.dumps(again), json.dumps(state(name)["inputs"]))

    def test_same_seed_gives_same_outputs(self):
        i = first("analyze", lambda op: op["matrix"] == "hat")
        self.assertEqual(outcome("analyze", i), outcome("analyze", i))
        for k in range(60):
            self.assertEqual(repr(outcome("queries", k)), repr(outcome("queries", k)))
        for k in range(5):
            a, b = outcome("weyl", k), outcome("weyl", k)
            self.assertEqual(a and [c.terms for c in a.cofactors], b and [c.terms for c in b.cofactors])

    def test_other_seed_changes_betas_and_points(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self.assertNotEqual(
                    json.dumps(state(name, 7)["inputs"]), json.dumps(state(name, 8)["inputs"])
                )
        betas = {json.dumps(op["beta"]) for op in state("analyze", 7)["inputs"][:8]}
        others = {json.dumps(op["beta"]) for op in state("analyze", 8)["inputs"][:8]}
        self.assertNotEqual(betas, others)


class Checkers(unittest.TestCase):
    def test_faces_rejects_dropped_face_bad_certificate_and_flipped_saturation(self):
        i = first("faces", lambda pts: len(pts) == 7)
        lattice, support, rays, saturated = outcome("faces", i)
        self.assertIsNone(verdict("faces", i, (lattice, support, rays, saturated)))
        dropped = dataclasses.replace(lattice, proper_faces=lattice.proper_faces[:-1])
        self.assertIsNotNone(verdict("faces", i, (dropped, support, rays, saturated)))
        face = lattice.faces[1]
        bad = dataclasses.replace(face, certificate=tuple(Fraction(0) for _ in face.certificate))
        faces = tuple(bad if f is face else f for f in lattice.faces)
        self.assertIsNotNone(
            verdict("faces", i, (dataclasses.replace(lattice, faces=faces), support, rays, saturated))
        )
        self.assertIsNotNone(verdict("faces", i, (lattice, support, rays[1:], saturated)))
        self.assertIsNotNone(verdict("faces", i, (lattice, support, rays, not saturated)))

    def test_weyl_rejects_flipped_verdicts_and_bad_cofactors(self):
        i = first("weyl", lambda op: op["kind"] == "member")
        cert = outcome("weyl", i)
        self.assertIsNone(verdict("weyl", i, cert))
        self.assertIsNotNone(verdict("weyl", i, None))
        cof = list(cert.cofactors)
        k = next(n for n, c in enumerate(cof) if not c.is_zero())
        cof[k] = cof[k] + GK.weyl.WeylElement.one(cof[k].nvars)
        self.assertIsNotNone(verdict("weyl", i, dataclasses.replace(cert, cofactors=tuple(cof))))
        # A wrong term of high d-degree must be caught too, not only low-order ones.
        i = first("weyl", lambda op: op["kind"] == "member" and op["bound"] >= 4)
        cert = outcome("weyl", i)
        self.assertIsNone(verdict("weyl", i, cert))
        nvars = cert.cofactors[0].nvars
        d0_4 = GK.weyl.WeylElement(nvars, {((0,) * nvars, (4,) + (0,) * (nvars - 1)): Fraction(1)})
        cof = list(cert.cofactors)
        cof[0] = cof[0] + d0_4
        self.assertIsNotNone(verdict("weyl", i, dataclasses.replace(cert, cofactors=tuple(cof))))
        j = first("weyl", lambda op: op["kind"] == "unit")
        self.assertIsNone(verdict("weyl", j, outcome("weyl", j)))
        self.assertIsNotNone(verdict("weyl", j, cert))

    def test_queries_reject_bad_witnesses_and_values(self):
        def case(kind, pred=lambda r: True):
            for k, op in enumerate(state("queries")["inputs"]):
                if op["kind"] == kind:
                    r = outcome("queries", k)
                    if pred(r):
                        self.assertIsNone(verdict("queries", k, r))
                        return k, r
            raise AssertionError(f"no {kind} case")

        k, x = case("semigroup", lambda r: r is not None)
        self.assertIsNotNone(verdict("queries", k, (x[0] + 1,) + tuple(x[1:])))
        self.assertIsNotNone(verdict("queries", k, None))
        k, x = case("cone", lambda r: r is not None)
        self.assertIsNotNone(verdict("queries", k, [x[0] + Fraction(1, 2)] + list(x[1:])))
        k, w = case("sres", lambda r: r is not None)
        self.assertIsNotNone(verdict("queries", k, None))
        self.assertIsNotNone(
            verdict("queries", k, dataclasses.replace(w, multiplier=w.multiplier + Fraction(1, 2)))
        )
        k, _ = case("dsres", lambda r: r is not None)
        self.assertIsNotNone(verdict("queries", k, None))
        k, dual = case("dual")
        self.assertIsNotNone(verdict("queries", k, (dual[0] + Fraction(1, 2),) + tuple(dual[1:])))
        k, nb = case("n_beta")
        self.assertIsNotNone(verdict("queries", k, nb + 1))
        k, flag = case("true_degree")
        self.assertIsNotNone(verdict("queries", k, not flag))

    def test_analyze_rejects_tampered_reports(self):
        i = first("analyze", lambda op: op["matrix"] == "staircase")
        rc, text = outcome("analyze", i)
        self.assertIsNone(verdict("analyze", i, (rc, text)))
        good = json.loads(text)

        def tampered(edit):
            rep = json.loads(text)
            edit(rep)
            return verdict("analyze", i, (0, json.dumps(rep)))

        self.assertIsNotNone(tampered(lambda r: r["toric_ideal"]["generators"].pop()))
        self.assertIsNotNone(tampered(lambda r: r.update(n_beta=good["n_beta"] + 1)))
        self.assertIsNotNone(tampered(lambda r: r.update(sres={"member": True, "witness": {
            "j": 1, "offset": [0, 0], "face_columns": [], "multiplier": "1"}})))
        self.assertIsNotNone(tampered(lambda r: r.update(dual_parameter=["0", "0"])))
        self.assertIsNotNone(tampered(lambda r: r["dsres"].update(member=not good["dsres"]["member"])))
        self.assertIsNotNone(verdict("analyze", i, (3, text)))


class Tracing(unittest.TestCase):
    def test_wrappers_cover_by_name_imports_and_restore(self):
        original = GK.resonance.quasi_degrees
        hat = GK.intlinalg.parse_matrix("1 1 1; 0 1 -1")
        tracer = Tracer(GK)
        tracer.install()
        try:
            self.assertIsNot(GK.resonance.quasi_degrees, original)
            self.assertIs(GK.resonance.quasi_degrees, GK.toric.quasi_degrees)
            self.assertIs(GK.quasi_degrees, GK.toric.quasi_degrees)
            self.assertIs(GK.toric.groebner_basis, GK.polynomials.groebner_basis)
            self.assertTrue(hasattr(GK.toric.groebner_basis, "__wrapped__"))
            workloads.clear_caches(CACHES)
            GK.toric.quasi_degrees(hat, 1)
        finally:
            tracer.uninstall()
        self.assertIs(GK.resonance.quasi_degrees, original)
        stats = tracer.summary()
        self.assertEqual(stats["toric.quasi_degrees"]["calls"], 1)
        self.assertGreater(stats["polynomials.groebner_basis"]["calls"], 0)
        total = stats["toric.quasi_degrees"]["incl_s"]
        selfs = sum(s["self_s"] for s in stats.values())
        self.assertAlmostEqual(total, selfs, delta=1e-6 + 1e-3 * total)
        self.assertEqual(tracer.cache_counts()["toric.quasi_degrees"][1], 1)


class Harness(unittest.TestCase):
    def test_per_layer_reports_per_traced_op(self):
        stats = {"lp.feasible_point": {"calls": 10, "self_s": 2.0, "incl_s": 3.0, "feasible": 4}}
        out = run.per_layer(stats, {}, 1.1, n_ops=5)
        self.assertEqual(out["lp.feasible_point.calls"], (2.0, "calls/op"))
        self.assertEqual(out["lp.feasible_point.self_s"], (0.4, "s/op"))
        self.assertEqual(out["lp.self_s"], (0.4, "s/op"))
        self.assertEqual(out["lp.feasible_point.feasible_ratio"], (0.4, "ratio"))

    def test_equal_answers_to_an_input_are_kept_once(self):
        class Constant:
            cold = False
            pass_len = 4

            def run(self, gk, state, i):
                return {"answer": [1, 2, 3]}

        records, _ = run.timed_phase(GK, Constant(), {"inputs": [0, 1]}, [], 0)
        kept = [r[2] for r in records]
        self.assertIs(kept[0], kept[2])
        self.assertIsNot(kept[0], kept[1])
        self.assertEqual(pickle.loads(kept[3]), ("ok", {"answer": [1, 2, 3]}))

    def test_every_op_counts_once_per_distinct_answer(self):
        i = first("weyl", lambda op: op["kind"] == "unit")
        right, wrong = pickle.dumps(("ok", None)), pickle.dumps(("ok", "a certificate"))
        records = [(i, 0.1, right, 1.0)] * 3 + [(i, 0.1, wrong, 1.0)] * 2
        records.append((i, 0.1, ("error", "RecursionError"), 1.0))
        failed, wrong_answers, _ = run.check_records(workloads.Weyl(), state("weyl"), records)
        self.assertEqual((failed, wrong_answers), (3, 2))

    def test_deep_points_are_side_inputs_checked_apart(self):
        st = state("queries")
        self.assertFalse(any(op.get("deep") for op in st["inputs"]))
        side = st["side_inputs"]
        self.assertEqual(len(side), workloads.DEEP_PER_MATRIX * len(workloads.QUERY_MATRICES))
        attempted, failed, wrong_answers, _ = run.side_checks(GK, workloads.Queries(), st)
        self.assertEqual((attempted, wrong_answers), (len(side), 0))

        class NoWitness(workloads.Queries):
            def run_op(self, gk, state, op):
                return None

        class Raises(workloads.Queries):
            def run_op(self, gk, state, op):
                raise RecursionError("deep")

        self.assertEqual(run.side_checks(GK, NoWitness(), st)[1:3], (len(side), len(side)))
        self.assertEqual(run.side_checks(GK, Raises(), st)[1:3], (len(side), 0))
        self.assertEqual(run.side_checks(GK, workloads.Weyl(), state("weyl"))[:3], (0, 0, 0))


if __name__ == "__main__":
    unittest.main()
