"""gkzkit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20   # all four, summary table
    python3 perfbench/run.py --baseline                              # ROADMAP cold report times

Run it from the repository root: gkzkit is imported from ./src and from
nowhere else.  The last line of stdout is the result object; the line
before it holds context that is recorded but not gated.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 half of the run is timed
untraced and half with every public gkzkit function wrapped, and the
metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import TRACED_MODULES, Tracer  # noqa: E402

# Set-up runs at least SETUP_MIN_REPS times and, while it is cheap, until
# SETUP_BUDGET_S of set-up has run; the median is reported.
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 15
SETUP_BUDGET_S = 1.0
OUT_DIR = HERE / "out"

# Host-speed probe.  Identical cold reports vary by 10-25% in wall and CPU
# time on a shared VM, and the variation follows the host's load, not the
# input.  A fixed exact row reduction timed next to the ops tracks it
# (correlation 0.9 with an RNC3 report over 30 alternations), so every time
# metric is reported at nominal host speed: measured seconds times
# PROBE_NOMINAL_S over the probe time measured around them.  Raw values go
# to the context line.  Never change the probe or PROBE_NOMINAL_S without
# re-measuring the baseline.
PROBE_N = 10
PROBE_MATRIX = [
    [Fraction((7 * i + 13 * j) % 11 - 5, 1 + (i + j) % 4) for j in range(PROBE_N)]
    for i in range(PROBE_N)
]
PROBE_NOMINAL_S = 0.0045  # median probe, 2-core Firecracker VM, Python 3.11.7
PROBE_INTERVAL_S = 0.25
SPREAD_NOTE = (
    "single cold corpus passes spread about 11% on a shared 2-core box "
    "(6.28-7.00 s over 3 processes), so runs repeat whole passes, report medians "
    "and scale times to nominal host speed with the probe"
)


def source_dir():
    """./src if it holds gkzkit, else None (the benchmark never imports another copy)."""
    src = Path.cwd() / "src"
    if not (src / "gkzkit" / "__init__.py").is_file():
        print(f"error: no gkzkit sources under {src}", file=sys.stderr)
        return None
    sys.path.insert(0, str(src))
    return src


def import_gkzkit(src: Path):
    """A fresh import of gkzkit from src, with cold caches."""
    for name in [k for k in sys.modules if k == "gkzkit" or k.startswith("gkzkit.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    gk = importlib.import_module("gkzkit")
    importlib.import_module("gkzkit.cli")
    if Path(gk.__file__).resolve().parent != (src / "gkzkit").resolve():
        raise ImportError(f"gkzkit was imported from {gk.__file__}, not from {src}")
    return gk


def all_caches(gk) -> list:
    """Every lru_cache reachable on a gkzkit module."""
    seen = {}
    for key, module in list(sys.modules.items()):
        if key == "gkzkit" or key.startswith("gkzkit."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    seen[id(obj)] = obj
    return list(seen.values())


def probe() -> float:
    """Best of three timings of a fixed 10 x 10 rational row reduction."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        m = [row[:] for row in PROBE_MATRIX]
        for c in range(PROBE_N):
            p = next((r for r in range(c, PROBE_N) if m[r][c]), None)
            if p is None:
                continue
            m[c], m[p] = m[p], m[c]
            for r in range(PROBE_N):
                if r != c and m[r][c]:
                    f = m[r][c] / m[c][c]
                    m[r] = [x - f * y for x, y in zip(m[r], m[c])]
        best = min(best, time.perf_counter() - t0)
    return best


def timed_phase(gk, wl, state, caches, seconds, tracer=None):
    """Closed loop over the inputs until `seconds` have passed, on a pass boundary.

    Returns records (input index, latency, kept outcome, host factor), where
    the host factor is the mean of the probes before and after the op over
    PROBE_NOMINAL_S, and the cache hit counts of the traced layers.  Outcomes
    are kept pickled and interned per input until they are checked after the
    phase: equal answers to one input share one copy, so what the benchmark
    holds stays under about 0.5 MB, whatever the number of ops, and the
    checkers do not count against gkzkit in peak_rss_mb.
    """
    records = []
    hits = {}
    interned = {}
    n_inputs = len(state["inputs"])
    probes = [probe()]
    owner = []  # index of the probe that precedes each record
    last_probe = time.perf_counter()
    begin = last_probe
    i = 0
    while True:
        k = i % n_inputs
        if wl.cold:
            workloads.clear_caches(caches)
        before = tracer.cache_counts() if tracer else None
        t0 = time.perf_counter()
        try:
            outcome = ("ok", wl.run(gk, state, k))
        except Exception as exc:  # a failed operation is counted, not fatal
            outcome = ("error", f"{type(exc).__name__}: {str(exc)[:120]}")
        latency = time.perf_counter() - t0
        if tracer:
            for name, (h, m) in tracer.cache_counts().items():
                h0, m0 = before[name]
                acc = hits.setdefault(name, [0, 0])
                acc[0] += h - h0
                acc[1] += m - m0
        try:
            kept = pickle.dumps(outcome)
            kept = interned.setdefault((k, kept), kept)
        except Exception:  # an unpicklable outcome is kept as it is
            kept = outcome
        records.append((k, latency, kept))
        owner.append(len(probes) - 1)
        i += 1
        done = i % wl.pass_len == 0 and time.perf_counter() - begin >= seconds
        if done or time.perf_counter() - last_probe >= PROBE_INTERVAL_S:
            probes.append(probe())
            last_probe = time.perf_counter()
        if done:
            factors = [(probes[p] + probes[p + 1]) / 2 / PROBE_NOMINAL_S for p in owner]
            return [r + (f,) for r, f in zip(records, factors)], hits


def verdict(outcome, check):
    """(message or None, is a wrong answer) of one ("ok" | "error", value) outcome."""
    status, value = outcome
    if status == "error":
        return value, False
    try:
        msg = check(value)
    except Exception as exc:  # a malformed answer is a wrong answer
        msg = f"check raised {type(exc).__name__}: {exc}"
    return msg, msg is not None


def check_records(wl, state, records):
    """(failed, wrong, first messages): exceptions and wrong answers.

    Each distinct outcome of an input is checked once; its verdict counts for
    every op that returned it.
    """
    failed = wrong = 0
    messages = []
    verdicts = {}
    for k, _, kept, _ in records:
        key = (k, id(kept))
        if key not in verdicts:
            outcome = pickle.loads(kept) if isinstance(kept, bytes) else kept
            verdicts[key] = verdict(outcome, lambda value: wl.check(state, k, value))
        msg, is_wrong = verdicts[key]
        if msg is None:
            continue
        failed += 1
        wrong += is_wrong
        if len(messages) < 5:
            messages.append(f"op {k} ({wl.label(state, k)}): {msg}")
    return failed, wrong, messages


def side_checks(gk, wl, state):
    """(attempted, failed, wrong, first messages) of the workload's untimed side inputs.

    Side inputs are ops kept out of the timed stream (the deep semigroup
    points of queries): they run once, after the timed phase, and are
    reported in the context line, so a known failure among them does not make
    the gated failure count follow the run length.  A wrong answer among them
    still makes the run incorrect.
    """
    side = state.get("side_inputs", [])
    failed = wrong = 0
    messages = []
    for op in side:
        try:
            outcome = ("ok", wl.run_op(gk, state, op))
        except Exception as exc:  # a failed probe is counted, not fatal
            outcome = ("error", f"{type(exc).__name__}: {str(exc)[:120]}")
        msg, is_wrong = verdict(outcome, lambda value: wl.check_op(state, op, value))
        if msg is None:
            continue
        failed += 1
        wrong += is_wrong
        if len(messages) < 5:
            messages.append(f"side op {op['kind']} on {op['matrix']}: {msg}")
    return len(side), failed, wrong, messages


def p99_ms(latencies) -> float:
    lat = sorted(latencies)
    return lat[math.ceil(0.99 * len(lat)) - 1] * 1e3


def end_to_end(latencies, completed, setup_times, peak_rss_kb):
    lat = sorted(latencies)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (completed / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }


INTLINALG = ("lattice_kernel", "smith_decompose", "solve_integer", "hermite_normal_form",
             "homogeneity_vector", "elementary_divisors")


def per_layer(stats, hits, overhead_ratio, n_ops):
    """Layer metrics of the traced phase: calls, times and sizes per traced op.

    The traced phase runs whole passes for a set time, so totals would grow
    with the number of ops a faster program fits in; per op they describe the
    program.  Ratios and maxima are reported as they are.
    """
    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    def calls(name):
        return (get(name, "calls") / n_ops, "calls/op")

    def secs(name, key):
        return (get(name, key) / n_ops, "s/op")

    def ratio(num, den):
        return num / den if den else 0.0

    def hit_ratio(name):
        h, m = hits.get(name, (0, 0))
        return ratio(h, h + m)

    out = {}
    for name in ("polynomials.groebner_basis", "polynomials.normal_form"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = secs(name, "self_s")
    out["polynomials.s_polynomial.calls"] = calls("polynomials.s_polynomial")
    out["polynomials.groebner_basis.out_len_max"] = (
        get("polynomials.groebner_basis", "out_len_max"), "count")
    out["polynomials.ideal_quotient.incl_s"] = secs("polynomials.ideal_quotient", "incl_s")
    fp = "lp.feasible_point"
    out[f"{fp}.calls"] = calls(fp)
    out[f"{fp}.self_s"] = secs(fp, "self_s")
    out[f"{fp}.feasible_ratio"] = (ratio(get(fp, "feasible"), get(fp, "calls")), "ratio")
    fl = "cones.face_lattice"
    out[f"{fl}.self_s"] = secs(fl, "self_s")
    out[f"{fl}.incl_s"] = secs(fl, "incl_s")
    out[f"{fl}.lp_per_face"] = (ratio(get(fl, "lp_in_lattice"), get(fl, "faces_built")), "lp/face")
    out["cones.semigroup_witness.calls"] = calls("cones.semigroup_witness")
    out["cones.semigroup_witness.self_s"] = secs("cones.semigroup_witness", "self_s")
    for name in ("sres_witness", "dsres_witness"):
        out[f"resonance.{name}.self_s"] = secs(f"resonance.{name}", "self_s")
    for name in ("n_beta", "dual_parameter", "delta_A"):
        out[f"resonance.{name}.incl_s"] = secs(f"resonance.{name}", "incl_s")
    for name in ("toric.toric_ideal", "toric.quasi_degrees"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.incl_s"] = secs(name, "incl_s")
        out[f"{name}.hit_ratio"] = (hit_ratio(name), "ratio")
    out["resonance.resonance_set.hit_ratio"] = (hit_ratio("resonance.resonance_set"), "ratio")
    out["weyl.ideal_member_bounded.incl_s"] = secs("weyl.ideal_member_bounded", "incl_s")
    out["weyl.weyl_mul.calls"] = calls("weyl.weyl_mul")
    out["weyl.weyl_mul.self_s"] = secs("weyl.weyl_mul", "self_s")
    out["lp.gauss_solve.calls"] = calls("lp.gauss_solve")
    out["lp.gauss_solve.self_s"] = secs("lp.gauss_solve", "self_s")
    out["lp.gauss_solve.cells"] = (get("lp.gauss_solve", "cells") / n_ops, "cells/op")
    for name in INTLINALG:
        out[f"intlinalg.{name}.calls"] = calls(f"intlinalg.{name}")
        out[f"intlinalg.{name}.self_s"] = secs(f"intlinalg.{name}", "self_s")
    out["family.index_sets.incl_s"] = secs("family.index_sets", "incl_s")
    out["report.run_report.self_s"] = secs("report.run_report", "self_s")
    out["report.report_json.self_s"] = secs("report.report_json", "self_s")
    out["cli.main.self_s"] = secs("cli.main", "self_s")
    for module in TRACED_MODULES:
        total = sum(s["self_s"] for n, s in stats.items() if n.startswith(module + "."))
        out[f"{module}.self_s"] = (total / n_ops, "s/op")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out


def src_lines(src: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(src.rglob("*.py")))


def run_workload(args) -> int:
    src = source_dir()
    if src is None:
        return 2
    wl = workloads.WORKLOADS[args.workload]()

    setup_raw, setup_factors = [], []
    before = probe()
    while len(setup_raw) < SETUP_MIN_REPS or (
        sum(setup_raw) < SETUP_BUDGET_S and len(setup_raw) < SETUP_MAX_REPS
    ):
        t0 = time.perf_counter()
        gk = import_gkzkit(src)
        state = wl.setup(gk, args.seed)
        setup_raw.append(time.perf_counter() - t0)
        after = probe()
        setup_factors.append((before + after) / 2 / PROBE_NOMINAL_S)
        before = after
    setup_times = [t / f for t, f in zip(setup_raw, setup_factors)]
    caches = all_caches(gk)

    if args.trace:
        plain, _ = timed_phase(gk, wl, state, caches, args.seconds / 2)
        tracer = Tracer(gk)
        tracer.install()
        try:
            traced, hits = timed_phase(gk, wl, state, caches, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        records = plain + traced
    else:
        records, _ = timed_phase(gk, wl, state, caches, args.seconds)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # before any check runs

    failed, wrong, messages = check_records(wl, state, records)
    side_attempted, side_failed, side_wrong, side_messages = side_checks(gk, wl, state)
    for msg in messages + side_messages:
        print(f"[{args.workload}] {msg}", file=sys.stderr)

    if args.trace:
        def rate(recs):
            return len(recs) / sum(r[1] / r[3] for r in recs)

        stats = tracer.summary()
        metrics = per_layer(stats, hits, rate(plain) / rate(traced), len(traced))
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.bin")
        top = sorted(
            ((k[: -len(".self_s")], v) for k, (v, _) in metrics.items()
             if k.count(".") == 1 and k.endswith(".self_s")),
            key=lambda kv: -kv[1],
        )
        print(f"[{args.workload}] module self time per op: "
              + ", ".join(f"{k} {v * 1e3:.3f}ms" for k, v in top[:4]), file=sys.stderr)
    completed = len(records) - failed
    raw = end_to_end([r[1] for r in records], completed, setup_raw, peak_rss_kb)
    if not args.trace:
        metrics = end_to_end([r[1] / r[3] for r in records], completed, setup_times, peak_rss_kb)

    by_label = {}
    for k, latency, _, factor in records:
        by_label.setdefault(wl.label(state, k), []).append(latency / factor)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_lines": src_lines(src),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "setup_runs_s": setup_times,
        "host_factor_median": statistics.median([r[3] for r in records]),
        "raw_metrics": {k: v for k, (v, _) in raw.items()},
        "samples": len(records),
        "fail_rate": failed / len(records),
        # Nearest-rank, host-scaled.  Recorded, not gated: only queries runs
        # enough ops for ten beyond it; on the others it is the slowest one to
        # three ops of the run, and host noise spread it by up to 0.23
        # (quartile distance over median) over ten seeds.
        "op_p99_ms": p99_ms([r[1] / r[3] for r in records]),
        "wrong_answers": wrong,
        "side_probes": {"attempted": side_attempted, "failed": side_failed, "wrong": side_wrong},
        "median_s_by_input": {k: statistics.median(v) for k, v in sorted(by_label.items())},
        "note": SPREAD_NOTE,
    }
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": wrong == 0 and side_wrong == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process (so peak RSS is per workload), then a table."""
    rows = []
    ok = True
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            ok = False
            continue
        *_, context, result = map(json.loads, proc.stdout.strip().splitlines())
        ok = ok and result["correct"]
        fail_rate = result["failed"] / result["attempted"]
        verdict = "pass" if result["correct"] else "FAIL"
        side = context["context"]["side_probes"]
        rows.append(f"{name:8} correct={verdict} attempted={result['attempted']} "
                    f"fail_rate={fail_rate:.4f} op_p99_ms={context['context']['op_p99_ms']:.6g} "
                    f"side_failed={side['failed']}/{side['attempted']}")
        for metric, m in result["metrics"].items():
            rows.append(f"    {metric:42} {m['value']:>14.6g} {m['unit']}")
    print("\n".join(rows))
    return 0 if ok else 1


def run_baseline(args) -> int:
    """Cold run_report(A, 0) per ROADMAP matrix, and the 3x10 face lattice."""
    src = source_dir()
    if src is None:
        return 2
    gk = import_gkzkit(src)
    corpus = dict(workloads.CORPUS, rnc5="1 1 1 1 1 1; 0 1 2 3 4 5")
    out = {}
    probes = [probe()]
    for name, text in corpus.items():
        a = gk.intlinalg.parse_matrix(text)
        workloads.clear_caches(all_caches(gk))
        t0 = time.perf_counter()
        gk.report.run_report(a, (0,) * a.d)
        out[f"run_report:{name}"] = time.perf_counter() - t0
        probes.append(probe())
    a = gk.intlinalg.parse_matrix("1 1 1 1 1 1 1 1 1 1; 0 1 2 3 0 1 2 3 0 1; 0 0 0 0 1 1 1 1 2 2")
    workloads.clear_caches(all_caches(gk))
    t0 = time.perf_counter()
    gk.cones.face_lattice(a)
    out["face_lattice:3x10"] = time.perf_counter() - t0
    probes.append(probe())
    print(json.dumps({"baseline_s": out, "host_factor": statistics.median(probes) / PROBE_NOMINAL_S,
                      "src_lines": src_lines(src),
                      "python": platform.python_version(), "nproc": os.cpu_count()}, indent=2))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args(argv)
    if args.baseline:
        return run_baseline(args)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
