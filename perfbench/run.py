#!/usr/bin/env python3
"""dictelab benchmark: time to verdict, end to end and per layer.

Usage (from the repository root):
  python3 perfbench/run.py --workload flex|wide|fuzz|cli --seed N \\
      --seconds S --trace 0|1
  python3 perfbench/run.py --self-test

With --trace 0 the workload runs untraced for about S seconds and the
end-to-end metrics are reported. Times are in reference seconds: each one
is scaled by the host's speed at that moment, measured with a fixed loop
just before, during and just after it (see HostSpeed). With --trace 1
half the time runs with spans and counters wrapped around dictelab's
entry points (see tracing.py), the wrappers are removed, and the other
half runs untraced, so the per-layer metrics and the tracing overhead are
reported. Every
verdict is checked against the known answer (see workloads.py).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines above it are a readable
report and a `detail` JSON line with the scaling curve, the run context
and every mismatch.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
clock = time.perf_counter

SETUP_PROBES = 11   # at least this many, spread over the passes
REF_DEPTH = 13      # the reference term has 2^(REF_DEPTH+1) leaves
REF_REPEATS = 3     # the fastest of these is the reference time
REF_NOMINAL_S = 0.004   # reference time that reference seconds assume
TICK_S = 0.25       # in-process items: one more reference this often
DETERMINISM_RERUN_S = 1.0   # traced items re-run to check the counters

END_TO_END = {"setup_s": "s", "wall_s": "s", "item_ms.p50": "ms",
              "item_ms.tail": "ms", "peak_rss_mb": "MB"}
# Layers that run on every workload; the others are in the detail line.
LAYER_TIMES = ("parser.parse", "source_typer.typecheck", "fd_core.check",
               "syntax.alpha_eq", "bench.self")
LAYER_COUNTS = ("parser.parse_calls", "source_typer.typecheck_calls",
                "source_typer.elabs", "source_typer.truncated",
                "fd_core.env_wf_calls", "fd_core.check_calls",
                "fd_core.eval_calls", "fd_core.steps",
                "target_core.eval_calls", "syntax.alpha_eq_calls",
                "syntax.subst_calls", "harness.gen_calls",
                "harness.coherence_calls", "harness.decompose_calls",
                "harness.meta_calls")


def _ref_term(depth: int):
    if depth == 0:
        return ("var", "x")
    return ("app", _ref_term(depth - 1), ("lam", "y", _ref_term(depth - 1)))


def _ref_subst(term, name, new):
    tag = term[0]
    if tag == "var":
        return new if term[1] == name else term
    if tag == "lam":
        return term if term[1] == name else \
            ("lam", term[1], _ref_subst(term[2], name, new))
    return ("app", _ref_subst(term[1], name, new),
            _ref_subst(term[2], name, new))


class HostSpeed:
    """The host's speed, from a fixed loop timed between operations.

    A shared host's speed changes by up to 1.7x for seconds at a time, in
    CPU time as well as wall time, so raw times of the same code spread
    more than any useful bound. The reference loop is a substitution over
    a tuple term, the kind of work dictelab does, run with the collector
    off so that no setting of the program can change it. An operation's
    time is scaled by REF_NOMINAL_S over the mean of the reference times
    just before and just after it, and, for an item that runs in this
    process, of those taken every TICK_S while it runs (from a timer
    signal; their own time is left out of the item's). So it reads as
    seconds on a host where the loop takes REF_NOMINAL_S, and only the
    program's speed moves it.
    """

    def __init__(self):
        self._term = _ref_term(REF_DEPTH)
        self.times: list[float] = []
        self._last = self._measure()
        self._during: list[float] = []
        self._ticking = False
        self.spent = 0.0

    def start(self, ticks: bool):
        """Begin an operation; with ticks, measure during it as well."""
        self._during, self.spent, self._ticking = [], 0.0, ticks
        if ticks:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self):
        """End the operation; `spent` is the time its ticks took."""
        if self._ticking:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._ticking = False

    def _tick(self, _signum, _frame):
        start = clock()
        try:
            self._during.append(self._measure())
        except RecursionError:  # the program is near the limit: skip
            pass
        self.spent += clock() - start

    def _measure(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            best = float("inf")
            for _ in range(REF_REPEATS):
                start = clock()
                _ref_subst(self._term, "x", ("var", "z"))
                best = min(best, clock() - start)
        finally:
            if enabled:
                gc.enable()
        self.times.append(best)
        return best

    def factor(self) -> float:
        """Scale for the operation that ran since the last measurement."""
        before, self._last = self._last, self._measure()
        refs = [before, self._last, *self._during]
        return REF_NOMINAL_S / (sum(refs) / len(refs))


@dataclass
class PassRecord:
    wall: float = 0.0   # time to all verdicts: the sum of the item times
    raw_wall: float = 0.0   # the same in seconds as measured
    samples: list = field(default_factory=list)  # (item, seconds, elabs, steps)
    outcomes: list = field(default_factory=list)  # (item, verdict, observed)
    failures: list = field(default_factory=list)  # (label, error)
    item_counts: list = field(default_factory=list)  # traced: Counter per item
    self_s: dict = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)


class SetupProbe:
    """Fresh interpreter until the workload's modules are imported.

    Probes run a few at a time before each pass, so that their median
    spans the whole run like the other figures.
    """

    def __init__(self, imports: str, per_pass: int, speed: HostSpeed):
        from workloads import child_env

        self.speed = speed
        self.argv = [sys.executable, "-c", imports]
        self.env = child_env(ROOT)
        self.per_pass = per_pass
        self.times: list[float] = []
        self._run()  # writes bytecode, untimed

    def _run(self):
        subprocess.run(self.argv, cwd=ROOT, env=self.env, check=True)

    def __call__(self):
        for _ in range(self.per_pass):
            start = clock()
            self._run()
            seconds = clock() - start
            self.times.append(seconds * self.speed.factor())


def run_items(items, tracer, rec: PassRecord, speed: HostSpeed,
              fresh_heap: bool = False, ticks: bool = False):
    from workloads import verdict

    for item in items:
        if fresh_heap:
            gc.collect()
        if tracer is not None:
            before = Counter(tracer.counts)
            tracer.open("bench")
        start = clock()
        speed.start(ticks)
        try:
            observed, elabs, steps = item.run(tracer)
            error = None
        except Exception as err:  # a failed operation is counted, not fatal
            error = f"{type(err).__name__}: {err}"
        finally:
            speed.stop()
        seconds = clock() - start - speed.spent
        if tracer is not None:
            tracer.close("bench.self")
        factor = speed.factor()
        if error is not None:
            rec.failures.append((item.label, error))
            continue
        rec.raw_wall += seconds
        if tracer is not None:
            rec.item_counts.append(tracer.counts - before)
        seconds *= factor
        rungs = observed.get("_rung_s", {})
        measured = sum(rungs.values())
        for rung in rungs:  # shares of the item's time, ticks left out
            rungs[rung] *= seconds / measured
        rec.samples.append((item, seconds, elabs, steps))
        rec.outcomes.append((item, verdict(item, observed), observed))


def run_passes(wl, passes: int, speed: HostSpeed, tracer=None,
               before_pass=None) -> list:
    records = []
    for p in range(passes):
        if before_pass is not None:
            before_pass()
        rec = PassRecord()
        if tracer is not None:
            before_s, before_c = tracer.snapshot()
        run_items(wl.pass_items(p), tracer, rec, speed, wl.fresh_heap,
                  wl.in_process and tracer is None)
        rec.wall = sum(seconds for _, seconds, _, _ in rec.samples)
        if tracer is not None:
            # Self times in reference seconds, so that they add up to wall.
            scale = rec.wall / rec.raw_wall if rec.raw_wall else 1.0
            after_s, after_c = tracer.snapshot()
            rec.self_s = {k: (v - before_s.get(k, 0.0)) * scale
                          for k, v in after_s.items()}
            rec.counts = after_c - before_c
        records.append(rec)
    return records


def tail(values: list) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def end_to_end(wl_name: str, setup: list, records: list) -> tuple[dict, dict]:
    secs = [s for rec in records for _, s, _, _ in rec.samples]
    elabs = sum(e for rec in records for _, _, e, _ in rec.samples)
    steps = sum(st for rec in records for _, _, _, st in rec.samples)
    busy = sum(secs) or float("nan")
    tail_s, tail_pct, n = tail(secs) if secs else (float("nan"), 0.0, 0)
    who = resource.RUSAGE_CHILDREN if wl_name == "cli" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(rec.wall for rec in records),
        "item_ms.p50": 1000 * statistics.median(secs) if secs else float("nan"),
        "item_ms.tail": 1000 * tail_s,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    extra = {"item_ms.tail_percentile": tail_pct, "item_samples": n,
             "passes": len(records)}
    if wl_name == "fuzz":
        terms = sum(it.terms for rec in records for it, *_ in rec.samples)
        extra["terms_per_s"] = terms / busy
        extra["steps_per_s"] = steps / busy
    else:
        extra["elabs_per_s"] = elabs / busy
    return metrics, extra


def scaling(records: list) -> dict:
    """Median time per rung, in ms, in the order rungs first appear."""
    by_rung: dict[str, list] = {}
    for rec in records:
        for (item, s, _, _), (_, _, observed) in zip(rec.samples,
                                                     rec.outcomes):
            parts = observed.get("_rung_s", {item.group: s})
            for rung, seconds in parts.items():
                by_rung.setdefault(rung, []).append(seconds)
    return {g: round(1000 * statistics.median(v), 4)
            for g, v in by_rung.items()}


def per_layer(traced: list, untraced: list) -> tuple[dict, dict]:
    layers = sorted({k for rec in traced for k in rec.self_s})
    median_s = {k: statistics.median(rec.self_s.get(k, 0.0) for rec in traced)
                for k in layers}
    counts = traced[0].counts
    metrics = {f"{k}_s": median_s.get(k, 0.0) for k in LAYER_TIMES}
    metrics["harness.self_s"] = sum(v for k, v in median_s.items()
                                    if k.startswith("harness."))
    metrics.update({k: counts.get(k, 0) for k in LAYER_COUNTS})
    traced_wall = statistics.median(rec.wall for rec in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead"] = traced_wall / statistics.median(
        rec.wall for rec in untraced)
    detail = {"self_s": {k: round(v, 6) for k, v in median_s.items()},
              "counts": dict(sorted(counts.items())),
              "self_sum_over_wall": sum(median_s.values()) / traced_wall,
              "traced_passes": len(traced), "untraced_passes": len(untraced)}
    return metrics, detail


def check_determinism(tracer, traced: list, speed: HostSpeed) -> list[str]:
    """Re-run the first traced items; every counter must repeat exactly."""
    first = traced[0]
    items = [item for item, *_ in first.samples]
    rec = PassRecord()
    start = clock()
    for item in items:
        run_items([item], tracer, rec, speed)
        if clock() - start > DETERMINISM_RERUN_S:
            break
    problems = []
    for (item, *_), again, before in zip(rec.samples, rec.item_counts,
                                         first.item_counts):
        if again != before:
            problems.append(f"counters of {item.label} differ between two "
                            f"traced runs: {dict(before)} vs {dict(again)}")
    return problems


def report(args, metrics: dict, units: dict, extra: dict, detail: dict):
    print(f"dictelab benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    for name, value in {**metrics, **extra}.items():
        unit = units.get(name, "")
        print(f"  {name:32s} {value:.6g} {unit}")
    for m in detail["mismatches"]:
        tag = f"known defect: {m['known']}" if m["known"] else "MISMATCH"
        print(f"  verdict differs ({tag}): {m['item']}: expected "
              f"{m['expected']}, observed {m['observed']}")
    for label, err in detail["failures"]:
        print(f"  FAILED {label}: {err}")
    for problem in detail["self_check"]:
        print(f"  SELF-CHECK FAILED: {problem}")
    print("detail " + json.dumps(detail, sort_keys=True))


def run(args) -> int:
    from tracing import Tracer, leftover_wrappers
    from workloads import KNOWN_DEFECTS, WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, ROOT)
    try:
        self_check = []
        traced = []
        # A fixed number of passes, so that two commits do the same work.
        passes = max(2, int(args.seconds / wl.nominal_pass_s))
        speed = HostSpeed()
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_passes(wl, max(1, passes // 3), speed, tracer)
                self_check += check_determinism(tracer, traced, speed)
            finally:
                tracer.remove()
            passes = max(1, passes // 2)
        leftover = leftover_wrappers()
        if leftover:
            self_check.append(f"tracing wrappers left before the untraced "
                              f"run: {leftover}")
        setup = SetupProbe(wl.imports, -(-SETUP_PROBES // passes), speed)
        untraced = run_passes(wl, passes, speed, before_pass=setup)
    finally:
        wl.close()

    records = traced + untraced
    mismatches = {}
    for rec in records:
        for item, outcome, observed in rec.outcomes:
            if outcome != "ok" and item.label not in mismatches:
                known = KNOWN_DEFECTS[item.label][1] \
                    if outcome == "known" else None
                mismatches[item.label] = {
                    "item": item.label, "expected": item.expected,
                    "observed": {k: v for k, v in observed.items()
                                 if not k.startswith("_")},
                    "known": known}
    failures = [f for rec in records for f in rec.failures]
    attempted = sum(len(rec.samples) + len(rec.failures) for rec in records)

    e2e, extra = end_to_end(args.workload, setup.times, untraced)
    extra["verdict_mismatch"] = len(mismatches)
    extra["failed_share"] = len(failures) / attempted
    units = dict(END_TO_END, elabs_per_s="1/s", terms_per_s="1/s",
                 steps_per_s="1/s", verdict_mismatch="count",
                 failed_share="ratio", **{"item_ms.tail_percentile": "%"})
    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "context": {"python": platform.python_version(),
                    "nproc": os.cpu_count(), "machine": platform.machine(),
                    "src_lines": src_lines()},
        "end_to_end": {k: {"value": v, "unit": units.get(k, "")}
                       for k, v in {**e2e, **extra}.items()},
        "setup_probes_s": setup.times,
        "pass_wall_s": [rec.wall for rec in untraced],
        "raw_pass_wall_s": [rec.raw_wall for rec in untraced],
        "reference_s": {"nominal": REF_NOMINAL_S,
                        "median": statistics.median(speed.times),
                        "min": min(speed.times), "max": max(speed.times),
                        "measurements": len(speed.times)},
        "scaling_ms": scaling(untraced),
        "mismatches": list(mismatches.values()),
        "failures": failures,
        "self_check": self_check,
    }
    if args.trace:
        metrics, detail["per_layer"] = per_layer(traced, untraced)
        layer_units = {k: ("s" if k.endswith("_s") else "count")
                       for k in metrics}
        layer_units["trace.overhead"] = "ratio"
        report(args, metrics, layer_units, extra, detail)
        out = {k: {"value": v, "unit": layer_units[k]}
               for k, v in metrics.items()}
    else:
        report(args, e2e, units, extra, detail)
        out = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    unexpected = [m for m in mismatches.values() if not m["known"]]
    print(json.dumps({"correct": not unexpected and not self_check,
                      "attempted": attempted, "failed": len(failures),
                      "metrics": out}))
    return 0


def self_test() -> int:
    """Counters repeat, wrappers come off, and a wrong verdict is caught."""
    from tracing import Tracer, leftover_wrappers
    from workloads import WORKLOADS, verdict

    import dictelab.cli  # noqa: F401  (so its hooks are installed too)

    problems = []
    for wl_name in ("flex", "wide", "fuzz", "cli"):
        wl = WORKLOADS[wl_name](0, ROOT)
        try:
            items = wl.pass_items(0)[:3]
            speed = HostSpeed()
            tracer = Tracer()
            tracer.install()
            try:
                first, second = PassRecord(), PassRecord()
                run_items(items, tracer, first, speed)
                run_items(items, tracer, second, speed)
            finally:
                tracer.remove()
        finally:
            wl.close()
        for rec in (first, second):
            problems += [f"{wl_name}: {f}" for f in rec.failures]
        if first.item_counts != second.item_counts:
            problems.append(f"{wl_name}: counters differ between two runs")
        if not any(first.item_counts):
            problems.append(f"{wl_name}: no calls were counted")
        wrong = {k: "wrong" for k in items[0].expected}
        if verdict(items[0], wrong) != "mismatch":
            problems.append(f"{wl_name}: a wrong verdict was accepted")
    problems += [f"wrapper left: {w}" for w in leftover_wrappers()]
    for p in problems:
        print(f"self-test: {p}", file=sys.stderr)
    print("self-test " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=["flex", "wide", "fuzz", "cli"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=24)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "dictelab" / "cli.py").is_file() \
            or not (ROOT / "tests" / "corpus").is_dir():
        print(f"error: no dictelab checkout at {ROOT} (need src/dictelab "
              f"and tests/corpus)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
