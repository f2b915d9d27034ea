"""Benchmark of the per-check pipeline that ``factorsmith verify`` runs.

One check is one (graph, k) pair, run in this process on one thread:
``graphs.parse_graph6`` on the graph6 line, then
``conditions.check_iso_condition(g, (2k+1)/2)``, then
``reducer.extract_component_factor_detailed(g, k)``, then
``reducer.verify_certificate``.  Each workload's corpus is generated here with
the ``factorsmith.corpus`` generator named in ``workloads.json`` and handed to
the program as graph6 lines only.

    python3 perfbench/run.py --workload small-dense --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

``--seed`` fixes the order in which the checks run.  The corpus itself comes
from ``corpus_seed`` in ``workloads.json``, so the exact counts stored there
hold for every ``--seed``; ``--corpus-seed`` runs another corpus, such as the
workload's ``held_out_seed`` (``free-trees`` enumerates every tree and has no
corpus seed).  The run makes ``min_passes`` passes over the corpus, each in
its own order, and more while the next one is expected to end within
``--seconds``.  Every time is scaled by a reference loop timed between checks
(see REF_NOMINAL_S), and a check's time is its median over the passes.

Every check goes through a correctness gate outside its timed region, and runs
under ``time_limit_s``; a check that hits it is a recorded failure, tagged
with the layer that was running, and is not retried in later passes.  With
``--trace 1`` one more pass runs with spans around each call into the program;
the per-layer metrics come from it, and its spans go to ``out/``.

The last line of standard output is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; standard error gets a table.  The
exit code is 1 when a check disagreed, crashed or an exact count drifted, and
2 when the program cannot be loaded from ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from pathlib import Path
from types import SimpleNamespace

from spans import SpanRecorder

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPANS_DIR = HERE / "out"
MODULES = ("graphs", "conditions", "corpus", "factors", "families", "reducer")
RULES = [f"R{i}" for i in range(1, 9)] + [f"S{i}" for i in range(1, 10)]
CLASSES = ("P2", "C3", "P5", "star", "cubic_expansion", "tree_expansion")

# Traced calls: layer name, then the module whose attribute the caller looks
# up at call time (the benchmark for the first two and verify_certificate,
# extract_component_factor_detailed for the rest) and the attribute.
TRACED = (
    ("graphs.parse_graph6", "graphs", "parse_graph6"),
    ("conditions.check_iso_condition", "conditions", "check_iso_condition"),
    ("factors.find_fractional_factor", "reducer", "find_fractional_factor"),
    ("reducer.from_assignment", "reducer", "from_assignment"),
    ("reducer.minimize", "reducer", "minimize"),
    ("families.classify_component", "reducer", "classify_component"),
    ("reducer.verify_certificate", "reducer", "verify_certificate"),
)
LAYERS = {name for name, _, _ in TRACED} | {"reducer.extract_component_factor_detailed"}
P95_LAYERS = ("conditions.check_iso_condition", "factors.find_fractional_factor", "reducer.minimize")

# On a shared 2-core machine the speed of a pure-Python loop drifts by 10-40%
# within seconds, and wall-clock figures of the same code came out 11-50% apart
# between runs.  So a fixed reference loop is timed every REF_EVERY_S between
# checks, and each time is scaled by REF_NOMINAL_S over the mean reference time
# within REF_WINDOW_S of it: the result reads as wall time on a machine where
# the loop takes REF_NOMINAL_S, and the same runs came out 2-7% apart.
REF_EVERY_S = 0.02
REF_WINDOW_S = 0.5
REF_NOMINAL_S = 0.0008

# Counts that repeat exactly for one corpus.  conditions.violated is a verdict
# and must always match.  The others follow from the factor engine's output,
# so they are compared only while that output (its digest) is unchanged.
FACTOR_COUNTS = (
    ["factors.none", "factors.support_edges", "reducer.minimize.steps", "families.components"]
    + [f"reducer.rule.{r}" for r in RULES]
    + [f"families.class.{c}" for c in CLASSES]
)


class CheckTimeout(BaseException):
    """Raised by SIGALRM at the time limit.  A BaseException, so that no
    ``except Exception`` inside the program can swallow it."""


def _on_alarm(signum, frame):
    raise CheckTimeout


def reference_work() -> int:
    acc = 0
    seen = set()
    for i in range(3000):
        acc = (acc * 31 + i) & 0xFFFF
        seen.add((acc & 63, i & 7))
    return len(seen)


def time_reference() -> tuple[float, float]:
    """(end time, seconds) of one reference run, after one run to warm up."""
    reference_work()
    start = time.perf_counter()
    reference_work()
    end = time.perf_counter()
    return end, end - start


def scales(intervals: list, refs: list) -> list[float]:
    """For each (start, end) interval, REF_NOMINAL_S over the mean time of the
    reference runs that ended within REF_WINDOW_S of it."""
    ends = [end for end, _ in refs]
    total = list(accumulate((seconds for _, seconds in refs), initial=0.0))
    out = []
    for start, end in intervals:
        i = bisect_left(ends, start - REF_WINDOW_S)
        j = bisect_right(ends, end + REF_WINDOW_S)
        out.append(REF_NOMINAL_S * (j - i) / (total[j] - total[i]))
    return out


def load_program() -> SimpleNamespace:
    """Import factorsmith afresh from this checkout's ``src/``."""
    for name in [m for m in sys.modules if m == "factorsmith" or m.startswith("factorsmith.")]:
        del sys.modules[name]
    fs = SimpleNamespace(**{m: importlib.import_module(f"factorsmith.{m}") for m in MODULES})
    if not Path(fs.graphs.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"factorsmith was loaded from {fs.graphs.__file__}, not from {SRC}")
    return fs


def generate(corpus, spec: dict, corpus_seed) -> list:
    fn = getattr(corpus, spec["generator"])
    params = dict(spec["params"])
    if "p" in params:
        params["p"] = Fraction(params["p"])
    count = params.pop("count", None)
    if count is None:
        return list(fn(**params))
    return [fn(**params, seed=corpus_seed + i) for i in range(count)]


def set_up(spec: dict, corpus_seed, repeats: int):
    """Import, generate and encode ``repeats`` times; returns the program,
    the graph6 lines, and the median scaled set-up and generate seconds."""
    totals, gens, lines = [], [], None
    for _ in range(repeats):
        refs = [time_reference() for _ in range(3)]
        t0 = time.perf_counter()
        fs = load_program()
        t1 = time.perf_counter()
        graphs = generate(fs.corpus, spec, corpus_seed)
        t2 = time.perf_counter()
        encoded = [fs.graphs.encode_graph6(g) for g in graphs]
        t3 = time.perf_counter()
        refs += [time_reference() for _ in range(3)]
        (scale,) = scales([(t0, t3)], refs)
        totals.append((t3 - t0) * scale)
        gens.append((t2 - t1) * scale)
        if lines is not None and encoded != lines:
            raise RuntimeError("corpus generation is not deterministic")
        lines = encoded
    return fs, lines, statistics.median(totals), statistics.median(gens)


def pipeline(fs, line: str, k: int, out: dict) -> None:
    """One check; fills ``out`` stage by stage, so a timeout shows how far it got."""
    out["g"] = g = fs.graphs.parse_graph6(line)
    out["witness"] = fs.conditions.check_iso_condition(g, Fraction(2 * k + 1, 2))
    out["cert"], out["h"], out["trace"] = fs.reducer.extract_component_factor_detailed(g, k)
    out["cert_ok"] = out["cert"] is not None and fs.reducer.verify_certificate(g, out["cert"])


def running_layer(exc: BaseException) -> str:
    """Innermost program layer on the stack where ``exc`` was raised."""
    layer = "check"
    tb = exc.__traceback__
    while tb is not None:
        code = tb.tb_frame.f_code
        name = f"{tb.tb_frame.f_globals.get('__name__', '').rpartition('.')[2]}.{code.co_name}"
        if name in LAYERS:
            layer = name
        tb = tb.tb_next
    return layer


def run_check(run, fs, line: str, k: int, limit: float):
    """Time ``run`` (the pipeline, traced or not) on one check under the limit;
    returns (seconds, stage outputs, failure), where the failure is None,
    ("timeout", layer) or ("error", message)."""
    out: dict = {}
    failure = None
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        run(fs, line, k, out)
    except CheckTimeout as exc:
        failure = ("timeout", running_layer(exc))
    except Exception as exc:  # a crash in the program fails this check only
        failure = ("error", f"{type(exc).__name__}: {exc}")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return time.perf_counter() - start, out, failure


def gate(fs, line: str, k: int, out: dict) -> str | None:
    """Why a completed check's outputs are wrong, or None if they are right."""
    g, witness, cert = out["g"], out["witness"], out["cert"]
    if fs.graphs.encode_graph6(g) != line:
        return "parsed graph does not re-encode to its graph6 line"
    if witness is not None:
        isolated = fs.conditions.iso_after_removal(g, witness.removed)
        if isolated != witness.isolated or 2 * len(isolated) <= (2 * k + 1) * len(witness.removed):
            return f"witness {sorted(witness.removed)} does not violate the condition"
    if (witness is None) != (cert is not None):
        return "condition verdict and factor verdict disagree"
    if cert is not None:
        if not fs.factors.verify_fractional(g, k, out["h"]):
            return "fractional assignment fails verify_fractional"
        if not out["cert_ok"]:
            return "certificate fails verify_certificate"
        if len(out["trace"].steps) > g.num_edges:
            return "rewrite trace longer than ||G||"
    return None


def count(counts: Counter, out: dict, failure) -> tuple:
    """Add one check's exact counts; returns its outcome: whether the condition
    is violated (None if that stage did not finish) and what the factor stage
    returned, in a form that compares equal across runs."""
    violated = out["witness"] is not None if "witness" in out else None
    counts["conditions.violated"] += bool(violated)
    if failure is not None:
        if failure == ("timeout", "factors.find_fractional_factor"):
            counts["factors.timeouts"] += 1
        return violated, failure[0]
    h, trace, cert = out["h"], out["trace"], out["cert"]
    if cert is None:
        counts["factors.none"] += 1
        return violated, "none"
    counts["factors.support_edges"] += len(h.support_edges())
    counts["reducer.minimize.steps"] += len(trace.steps)
    counts["factor_graph_edges"] += out["g"].num_edges
    counts.update(f"reducer.rule.{s.rule}" for s in trace.steps)
    counts["families.components"] += len(cert.components)
    counts.update(f"families.class.{c.cls.kind}" for c in cert.components)
    return violated, sorted(h.units.items())


def run_pass(fs, order: list, limit: float, rec: SpanRecorder | None = None) -> dict:
    """One pass over the checks, with spans if ``rec`` is given.  ``spent`` maps
    each check to its scaled time (the limit itself for a check that hit it),
    ``scale`` to the factor that scaled it and ``outcomes`` to what ``count``
    returned."""
    run = pipeline if rec is None else rec.wrap("check", pipeline)
    raw, intervals, outcomes, failures, refs = {}, [], {}, [], []
    timed_out = set()
    counts: Counter = Counter()
    for check_id, line, k in order:
        if not refs or time.perf_counter() - refs[-1][0] >= REF_EVERY_S:
            refs.append(time_reference())
        if rec is not None:
            rec.check = (check_id, k)
        dt, out, failure = run_check(run, fs, line, k, limit)
        end = time.perf_counter()
        intervals.append((end - dt, end))
        if failure is not None and failure[0] == "timeout":
            timed_out.add((check_id, k))
            if rec is not None:
                rec.close_open()
        problem = gate(fs, line, k, out) if failure is None else None
        if problem is not None:
            failures.append((check_id, k, "disagreement", problem))
        elif failure is not None:
            failures.append((check_id, k) + failure)
        raw[check_id, k] = dt
        outcomes[check_id, k] = count(counts, out, failure)
    refs.append(time_reference())
    scale = dict(zip(raw, scales(intervals, refs)))
    spent = {key: limit if key in timed_out else dt * scale[key] for key, dt in raw.items()}
    return {"order": order, "spent": spent, "scale": scale, "outcomes": outcomes, "failures": failures,
            "counts": counts, "busy_s": sum(spent.values()),
            "timeout_s": sum(spent[key] for key in timed_out),
            "reference_s": statistics.mean(seconds for _, seconds in refs)}


def count_drift(expected: dict | None, first: dict) -> list[str]:
    """Exact-count guard: the first pass against the counts stored for this corpus."""
    factor_outcomes = sorted((key, factor) for key, (_, factor) in first["outcomes"].items())
    observed = {"conditions.violated": first["counts"]["conditions.violated"],
                "factor_digest": hashlib.sha256(repr(factor_outcomes).encode()).hexdigest(),
                "counts": {name: first["counts"][name] for name in FACTOR_COUNTS}}
    if not expected:
        return [f"no stored counts for this corpus; observed {json.dumps(observed)}"]
    drift = []
    if observed["conditions.violated"] != expected["conditions.violated"]:
        drift.append(f"conditions.violated {observed['conditions.violated']} != {expected['conditions.violated']}")
    if observed["factor_digest"] == expected["factor_digest"]:
        drift += [f"{n} {observed['counts'][n]} != {expected['counts'][n]}"
                  for n in FACTOR_COUNTS if observed["counts"][n] != expected["counts"][n]]
    else:
        print("note: the factor engine's output changed; rewrite counts not compared", file=sys.stderr)
    if drift:
        drift.append(f"observed {json.dumps(observed)}")
    return drift


def nearest_rank(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(passes: list, setup_s: float) -> dict:
    """A check's time is its median over the passes; a check that failed in
    any pass has latency +inf."""
    runs: dict = {}
    for p in passes:
        for key, dt in p["spent"].items():
            runs.setdefault(key, []).append(dt)
    spent = {key: statistics.median(dts) for key, dts in runs.items()}
    failed = {(check_id, k) for p in passes for check_id, k, _, _ in p["failures"]}
    latency = [math.inf if key in failed else dt * 1000.0 for key, dt in spent.items()]
    passed = len(spent) - len(failed)
    return {
        "setup_s": (setup_s, "s"),
        "checks_per_s": (passed / sum(spent.values()), "1/s"),
        "check_p50_ms": (nearest_rank(latency, 0.50), "ms"),
        "check_p95_ms": (nearest_rank(latency, 0.95), "ms"),
        "passed_share": (passed / len(spent), "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(rec: SpanRecorder, traced: dict, untraced: list, generate_s: float):
    """Per-layer metrics: times from the traced pass, scaled like its checks,
    and exact counts from the first pass, the only one to run every check.
    Also returns a problem if the layer self times do not add up to the check
    spans."""
    ms = {name: [t * 1000.0 for t in times] for name, times in rec.self_times(traced["scale"]).items()}
    metrics = {f"{name}.ms": (sum(ms.get(name, ())), "ms") for name, _, _ in TRACED}
    for name in P95_LAYERS:
        metrics[f"{name}.p95_ms"] = (nearest_rank(ms[name], 0.95) if ms.get(name) else 0.0, "ms")
    c = untraced[0]["counts"]
    for name in ["conditions.violated", "factors.timeouts"] + FACTOR_COUNTS:
        metrics[name] = (c[name], "count")
    edges = c["factor_graph_edges"]
    metrics["reducer.minimize.steps_per_edge"] = (c["reducer.minimize.steps"] / edges if edges else 0.0, "ratio")
    metrics["corpus.generate.ms"] = (generate_s * 1000.0, "ms")
    metrics["check.unattributed.ms"] = (sum(ms.get("check", ())), "ms")
    done = statistics.median(p["busy_s"] - p["timeout_s"] for p in untraced)
    metrics["trace.overhead_share"] = ((traced["busy_s"] - traced["timeout_s"]) / done - 1.0, "share")
    layered = sum(sum(v) for v in ms.values())
    spans_ms = sum((end - start) * 1000.0 * traced["scale"][check]
                   for name, start, end, _, check in rec.spans if name == "check")
    problem = None
    if abs(layered - spans_ms) > 1e-6 * spans_ms + 1e-3:
        problem = f"layer self times add up to {layered} ms, check spans to {spans_ms} ms"
    return metrics, problem


def run_all(args, config: dict) -> int:
    """Run every workload in its own process, so each reports its own memory."""
    worst = 0
    for name in config["workloads"]:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def measure(fs, lines: list, config: dict, seed: int, seconds: float) -> list:
    """The untraced passes, each over the checks in a new order from ``seed``."""
    limit = config["time_limit_s"]
    checks = [(i, line, k) for i, line in enumerate(lines) for k in config["ks"]]
    rng = random.Random(seed)
    passes: list = []
    timed_out: set = set()  # a check that hit the limit is not retried
    started = time.perf_counter()
    while len(passes) < config["min_passes"] or (
        (time.perf_counter() - started) * (len(passes) + 1) / len(passes) <= seconds
    ):
        order = [c for c in checks if (c[0], c[2]) not in timed_out]
        rng.shuffle(order)
        passes.append(run_pass(fs, order, limit))
        timed_out |= {(i, k) for i, k, kind, _ in passes[-1]["failures"] if kind == "timeout"}
    return passes


def trace(fs, passes: list, limit: float) -> tuple[SpanRecorder, dict]:
    """One traced pass, in the order of the last untraced one."""
    rec = SpanRecorder()
    saved = []
    for name, module, attr in TRACED:
        mod = getattr(fs, module)
        saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, rec.wrap(name, getattr(mod, attr)))
    timed_out = {(i, k) for p in passes for i, k, kind, _ in p["failures"] if kind == "timeout"}
    order = [c for c in passes[-1]["order"] if (c[0], c[2]) not in timed_out]
    try:
        return rec, run_pass(fs, order, limit, rec)
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def problems_of(passes: list, lines: list, expected: dict | None) -> tuple[list, dict]:
    """Everything that makes the run incorrect, and the first failure of each
    failed check."""
    problems: list = []
    failures: dict = {}
    for p in passes:
        for check_id, k, kind, detail in p["failures"]:
            failures.setdefault((check_id, k), (kind, detail))
        problems += [f"graph {i} k={k}: outcome differs from the first pass"
                     for (i, k), outcome in p["outcomes"].items() if outcome != passes[0]["outcomes"][i, k]]
    for (check_id, k), (kind, detail) in sorted(failures.items()):
        print(f"{kind}: graph {check_id} {lines[check_id]} k={k}: {detail}", file=sys.stderr)
    wrong = sum(kind != "timeout" for kind, _ in failures.values())
    if wrong:
        problems.append(f"{wrong} checks crashed or failed the correctness gate")
    return problems + count_drift(expected, passes[0]), failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload in workloads.json, or all")
    ap.add_argument("--seed", type=int, default=0, help="seed of the check order")
    ap.add_argument("--seconds", type=float, default=10.0, help="measure whole passes for about this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: add a traced pass, report per-layer metrics")
    ap.add_argument("--corpus-seed", type=int, help="generate the corpus from this seed, e.g. the held-out one")
    args = ap.parse_args(argv)
    config = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    if args.workload == "all":
        return run_all(args, config)
    spec = config["workloads"].get(args.workload)
    if spec is None or (args.corpus_seed is not None and spec["corpus_seed"] is None):
        print(f"error: unknown workload {args.workload!r}, or it has no corpus seed", file=sys.stderr)
        return 2
    if not (SRC / "factorsmith").is_dir():
        print(f"error: no factorsmith sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    corpus_seed = spec["corpus_seed"] if args.corpus_seed is None else args.corpus_seed
    try:
        fs, lines, setup_s, generate_s = set_up(spec, corpus_seed, config["setup_repeats"])
    except ImportError as exc:
        print(f"error: cannot load factorsmith: {exc}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _on_alarm)
    passes = measure(fs, lines, config, args.seed, args.seconds)
    span_problem = None
    if args.trace:
        rec, traced = trace(fs, passes, config["time_limit_s"])
        metrics, span_problem = per_layer(rec, traced, passes, generate_s)
        rec.write(SPANS_DIR / f"spans-{args.workload}.jsonl")
        passes.append(traced)
    else:
        metrics = end_to_end(passes, setup_s)
    problems, failures = problems_of(passes, lines, spec["expected"].get(json.dumps(corpus_seed)))
    problems += [span_problem] if span_problem else []
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    reference_ms = statistics.mean(p["reference_s"] for p in passes) * 1000.0
    print(f"times scaled by the reference loop: mean {reference_ms:.4f} ms, nominal {REF_NOMINAL_S * 1000.0} ms",
          file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<12} {name:<40} {value:>14.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(passes[0]["spent"]),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
