#!/usr/bin/env python3
"""Odin reproduction benchmark: one closed-loop workload per invocation.

Run from the repository root:

    python3 perfbench/run.py --workload probe-churn --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up time (median of
several cold set-ups), operation throughput, the median and 90th
percentile latency of the workload's main operation, and peak RSS.
``--trace 1`` wraps every layer's entry points (see ``layers.py``) for
set-up and the fixed prefix, then switches tracing off and on every few
operations, and reports per-layer busy time, counts and ratios, the
tracing overhead (traced vs untraced operations of the same run), a
per-program table, the sim-vs-real calibration table, a layer-coverage
guard and a determinism guard.  Both modes end with the correctness gate
and print one JSON object as the last line of stdout; the exit code is 1
when a check failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit(f"perfbench: {ROOT} holds no src/repro; run it from a repository checkout")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from layers import ALL, PASS_NAMES, TIERS, LayerTracer  # noqa: E402
from workloads import EXEC, PRUNE, REMOVE, TOGGLE, WORKLOADS, Op  # noqa: E402

SETUP_REPS = 3
# Counters that must repeat exactly for one commit and seed: set-up plus
# the workload's fixed prefix of operations.
DETERMINISTIC = (
    "vm.steps", "opt.pass_invocations", "backend.isel.machine_insts",
    *(f"core.engine.tier.{tier}" for tier in TIERS),
)
# The gated tail is this fixed percentile; a run takes at least
# MIN_SAMPLES of its main operation, so at least ten samples lie beyond it.
TAIL_PCT = 90
MIN_SAMPLES = 100

# The operation whose latency the gated op_* metrics report: the full
# tier on probe-churn, the patch tier through the cluster on
# tenants-shared (its removals, mostly cache hits, weigh in ops_per_s).
MAIN_OP = {"fuzz-campaign": EXEC, "probe-churn": REMOVE, "tenants-shared": TOGGLE}

# Layer -> workloads that must record at least one call into it.
ALL_WORKLOADS = tuple(WORKLOADS)
CHURN_LIKE = ("probe-churn", "tenants-shared")
REQUIRED_CALLS = {
    "frontend": ALL_WORKLOADS,
    "core.partition": ALL_WORKLOADS,
    "core.schedule": ALL_WORKLOADS,
    "core.scheduler": ALL_WORKLOADS,
    "core.engine": ALL_WORKLOADS,
    "ir.print": ALL_WORKLOADS,
    "ir.parse": ALL_WORKLOADS,
    "ir.verify": ALL_WORKLOADS,
    "ir.clone": ALL_WORKLOADS,
    "opt": ALL_WORKLOADS,
    **{f"opt.pass.{name}": ALL_WORKLOADS for name in PASS_NAMES},
    "backend.isel": ALL_WORKLOADS,
    "backend.patching": ALL_WORKLOADS,
    "linker.link": ALL_WORKLOADS,
    "linker.patch_image": CHURN_LIKE,
    "linker.cache": ("tenants-shared",),
    "vm": ("fuzz-campaign",),
    "instrument.prune": ("fuzz-campaign",),
    "fuzz.mutator": ("fuzz-campaign",),
    "fuzz.corpus": ("fuzz-campaign",),
    "fuzz.executor": ("fuzz-campaign",),
    "service": ("tenants-shared",),
    "cluster.register": ("tenants-shared",),
    "cluster.route": ("tenants-shared",),
}
# Counters (not calls) that must be non-zero on the listed workloads.
REQUIRED_COUNTS = {"vm.probe_hits": ("fuzz-campaign",)}

# Shared-cache figures the tenants-shared workload reads off the cluster.
SHARED_CACHE_METRICS = {
    "service.cache.hit_ratio": "ratio",
    "opt.memo.hit_ratio": "ratio",
    "cluster.cross_tenant_hits": "count",
}

# Layer rows of the calibration table (real vs cost-model ms inside
# engine rebuilds, both from the rebuild's span tree).
CALIBRATED = (
    ["core.engine.rebuild", "opt"]
    + [f"opt.pass.{name}" for name in PASS_NAMES]
    + ["backend.isel+ir", "backend.patching", "linker.link", "linker.patch_image"]
)


def percentile(samples: List[float], pct: float = TAIL_PCT) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(math.ceil(pct / 100.0 * len(ordered)) - 1, 0)]


def program_median(ops: List[Op]) -> float:
    """Geometric mean over programs of each program's median latency.

    Latency has one mode per program, so a median over the pooled
    operations would fall on whichever gap between modes the program mix
    puts it; each program's own median does not depend on the mix.
    """
    per_program: Dict[str, List[float]] = {}
    for op in ops:
        per_program.setdefault(op.program, []).append(op.ms)
    logs = [math.log(statistics.median(values)) for values in per_program.values()]
    return math.exp(statistics.fmean(logs))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """One set-up + closed loop of a workload, with its outcome."""

    def __init__(self, workload, seed: int, seconds: float, min_steps: int,
                 min_samples: int = 0, tracer=None, interleave: bool = False):
        """Run for *seconds*, at least *min_steps* operations and, unless
        an operation failed, at least *min_samples* main operations."""
        self.ops: List[Op] = []
        self.errors: List[str] = []
        self.main_kind = MAIN_OP[workload.name]
        # With ``interleave`` the caller has installed ``tracer``: the
        # prefix runs traced, then every ``trace_unit`` operations tracing
        # goes off and on again, so traced and untraced operations see the
        # same host drift and warm-up.  ``tracing`` records, per operation,
        # None in the prefix, else whether it ran traced.
        self.tracing: List[Optional[bool]] = []
        prefix, unit = workload.prefix_steps, workload.trace_unit
        tracing = interleave
        workload.start(seed)
        start = time.perf_counter()
        index = main_done = 0
        self.snapshot: Dict[str, float] = {}
        while (
            index < min_steps
            or time.perf_counter() - start < seconds
            or (main_done < min_samples and not self.errors)
        ):
            if interleave and index >= prefix and (index - prefix) % unit == 0:
                tracing = (index - prefix) // unit % 2 == 1
                if tracing:
                    tracer.install()
                else:
                    tracer.uninstall()
            try:
                op = workload.step(index)
                self.ops.append(op)
                self.tracing.append(tracing if index >= prefix else None)
                main_done += op.kind == self.main_kind
            except Exception as error:  # a failed operation: count it, go on
                self.errors.append(f"step {index}: {type(error).__name__}: {error}")
            index += 1
            if index == prefix:
                self.snapshot = workload.snapshot()
                # Memory keeps growing with every operation a run gets
                # through (rebuild reports, span trees), so the figure is
                # taken where all runs have done the same work.
                self.peak_rss_mb = peak_rss_mb()
                if tracer is not None:
                    self.snapshot.update((name, tracer.total(name)) for name in DETERMINISTIC)
        self.wall_s = time.perf_counter() - start
        self.attempted = index

    def latencies(self, kind: str) -> List[float]:
        return [op.ms for op in self.ops if op.kind == kind]

    def main_ops(self, traced: Optional[bool] = None) -> List[Op]:
        """Main operations; with *traced* set, only those after the
        prefix that ran with tracing on (True) or off (False)."""
        return [
            op for op, on in zip(self.ops, self.tracing)
            if op.kind == self.main_kind and (traced is None or on is traced)
        ]

    @property
    def ops_per_s(self) -> float:
        """Edits per second; executions per second on fuzz-campaign."""
        return sum(op.executions or 1 for op in self.ops) / self.wall_s


def timed_setup(workload) -> float:
    gc.collect()
    start = time.perf_counter()
    workload.setup()
    return time.perf_counter() - start


def removals_from_cache(run: Run) -> float:
    """Share of removals answered entirely from the shared content cache."""
    removals = [op for op in run.ops if op.kind == REMOVE]
    return sum(op.tier == "cache" for op in removals) / len(removals) if removals else 0.0


def summary(run: Run, workload_name: str) -> Dict[str, object]:
    """Per-workload figures for the report line."""
    out: Dict[str, object] = {
        "ops": len(run.ops),
        "ops_per_s": run.ops_per_s,
        "wall_s": run.wall_s,
        **run.snapshot,
    }
    for kind in (EXEC, PRUNE, TOGGLE, REMOVE):
        ops = [op for op in run.ops if op.kind == kind]
        if not ops:
            continue
        samples = [op.ms for op in ops]
        label = {EXEC: "round", PRUNE: "prune_round", TOGGLE: "toggle", REMOVE: "rebuild"}[kind]
        out[f"{label}_p50_ms"] = {
            "value": statistics.median(samples), "of_program_medians": program_median(ops),
        }
        if len(samples) >= MIN_SAMPLES:
            out[f"{label}_p{TAIL_PCT}_ms"] = {
                "value": percentile(samples), "percentile": TAIL_PCT, "samples": len(samples),
            }
        tiers: Dict[str, int] = {}
        for op in ops:
            if op.tier:
                tiers[op.tier] = tiers.get(op.tier, 0) + 1
        if tiers:
            out[f"{label}_tiers"] = tiers
    if workload_name == "fuzz-campaign":
        out["execs_per_s"] = run.ops_per_s
    if run.latencies(REMOVE):
        out["removals_from_cache"] = removals_from_cache(run)
    per_program: Dict[str, List[float]] = {}
    for op in run.ops:
        per_program.setdefault(f"{op.program}.{op.kind}", []).append(op.ms)
    out["per_program_p50_ms"] = {
        key: statistics.median(values) for key, values in sorted(per_program.items())
    }
    return out


def end_to_end(run: Run, setup_s: float) -> Dict[str, dict]:
    main = run.main_ops()
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": run.ops_per_s, "unit": "1/s"},
        "op_p50_ms": {"value": program_median(main), "unit": "ms"},
        "op_p90_ms": {"value": percentile([op.ms for op in main]), "unit": "ms"},
        "peak_rss_mb": {"value": run.peak_rss_mb, "unit": "MB"},
    }


# -- traced run ------------------------------------------------------------------


def layer_metrics(tracer: LayerTracer, program: str = ALL) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric, for all programs or one."""
    t = lambda name: tracer.total(name, program)  # noqa: E731
    calls = lambda layer: tracer.calls(layer, program)  # noqa: E731

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    vm_ms = t("vm")
    out = {
        "frontend.busy_ms": (t("frontend"), "ms"),
        "frontend.calls": (calls("frontend"), "count"),
        "core.partition.busy_ms": (t("core.partition"), "ms"),
        "core.partition.fragments": (t("core.partition.fragments"), "count"),
        "core.schedule.busy_ms": (t("core.schedule"), "ms"),
        "core.scheduler.busy_ms": (t("core.scheduler"), "ms"),
        "core.engine.rebuild.busy_ms": (t("core.engine"), "ms"),
        "core.engine.fragments_compiled": (t("core.engine.fragments_compiled"), "count"),
        **{f"core.engine.tier.{tier}": (t(f"core.engine.tier.{tier}"), "count") for tier in TIERS},
        "ir.print.busy_ms": (t("ir.print"), "ms"),
        "ir.parse.busy_ms": (t("ir.parse"), "ms"),
        "ir.verify.busy_ms": (t("ir.verify"), "ms"),
        "ir.clone.busy_ms": (t("ir.clone"), "ms"),
        "opt.busy_ms": (t("opt"), "ms"),
        "opt.pass_invocations": (t("opt.pass_invocations"), "count"),
        **{f"opt.pass.{name}.busy_ms": (t(f"opt.pass.{name}"), "ms") for name in PASS_NAMES},
        "backend.isel.busy_ms": (t("backend.isel"), "ms"),
        "backend.isel.machine_insts": (t("backend.isel.machine_insts"), "count"),
        "backend.patching.busy_ms": (t("backend.patching"), "ms"),
        "backend.patching.calls": (calls("backend.patching"), "count"),
        "linker.link.busy_ms": (t("linker.link"), "ms"),
        "linker.patch_image.busy_ms": (t("linker.patch_image"), "ms"),
        "linker.cache.hit_ratio": (ratio(t("linker.cache.hits"), calls("linker.cache")), "ratio"),
        "vm.busy_ms": (vm_ms, "ms"),
        "vm.steps": (t("vm.steps"), "count"),
        "vm.steps_per_s": (ratio(t("vm.steps"), vm_ms / 1000.0), "1/s"),
        "vm.probe_hits": (t("vm.probe_hits"), "count"),
        "instrument.prune.busy_ms": (t("instrument.prune"), "ms"),
        "instrument.probes_pruned": (t("instrument.probes_pruned"), "count"),
        "fuzz.mutator.busy_ms": (t("fuzz.mutator"), "ms"),
        "fuzz.corpus.busy_ms": (t("fuzz.corpus"), "ms"),
        "fuzz.executor.self_ms": (t("fuzz.executor"), "ms"),
        "fuzz.corpus.keep_ratio": (ratio(t("fuzz.corpus.kept"), t("fuzz.executions")), "ratio"),
        "service.queue_wait_ms": (t("service.queue_wait_ms"), "ms"),
        "service.busy_ms": (t("service"), "ms"),
        "cluster.register.busy_ms": (t("cluster.register"), "ms"),
        "cluster.route.busy_ms": (t("cluster.route"), "ms"),
    }
    return out


def calibration(tracer: LayerTracer) -> List[Tuple[str, str, float, float]]:
    rows = []
    for layer in CALIBRATED:
        for program in tracer.programs():
            real, sim = tracer.calibration.get((layer, program), (0.0, 0.0))
            if real or sim:
                rows.append((layer, program, real, sim))
    return rows


def coverage_guard(tracer: LayerTracer, workload_name: str) -> List[str]:
    failures = []
    for layer, workloads in REQUIRED_CALLS.items():
        if workload_name in workloads and tracer.calls(layer) == 0:
            failures.append(f"layer {layer} recorded no call on {workload_name}")
    for name, workloads in REQUIRED_COUNTS.items():
        if workload_name in workloads and tracer.total(name) == 0:
            failures.append(f"counter {name} stayed 0 on {workload_name}")
    return failures


def deterministic_counters(workload_cls, seed: int) -> Dict[str, float]:
    """Set-up + the fixed prefix of one workload, traced: exact counters."""
    tracer = LayerTracer()
    workload = workload_cls(tracer)
    with tracer:
        workload.setup()
        try:
            run = Run(workload, seed, 0.0, workload.prefix_steps, tracer=tracer)
        finally:
            workload.teardown()
    if run.errors:
        raise RuntimeError(f"determinism prefix failed: {run.errors[:3]}")
    return run.snapshot


def traced(workload_cls, seed: int, seconds: float) -> Tuple[dict, int, List[str]]:
    name = workload_cls.name
    failures: List[str] = []

    tracer = LayerTracer()
    workload = workload_cls(tracer)
    try:
        # Set-up, the run's start and its prefix are traced; then tracing
        # alternates off and on (at least one unit of each).
        tracer.install()
        timed_setup(workload)
        run = Run(
            workload, seed, seconds, workload.prefix_steps + 2 * workload.trace_unit,
            MIN_SAMPLES, tracer, interleave=True,
        )
        tracer.uninstall()  # the correctness gate is not part of the measurement
        failures += workload.epilogue()
        shared = workload.shared_cache()
    finally:
        tracer.uninstall()
        workload.teardown()
    failures += run.errors
    uncovered = coverage_guard(tracer, name)
    failures += uncovered

    metrics = layer_metrics(tracer)
    for key, unit in SHARED_CACHE_METRICS.items():
        metrics[key] = (shared.get(key, 0.0), unit)
    metrics["cluster.removals_from_cache_ratio"] = (removals_from_cache(run), "ratio")
    # op_p50_ms of the gated operation, traced vs untraced, after the
    # prefix (the campaign's start-up: prune rebuilds, full instrumentation).
    traced_ms, plain_ms = program_median(run.main_ops(True)), program_median(run.main_ops(False))
    metrics["trace.overhead_pct"] = ((traced_ms / plain_ms - 1.0) * 100.0, "%")

    # Determinism guard: the traced run's prefix, the prefix again on the
    # same seed, and once on another seed.
    first = run.snapshot
    again = deterministic_counters(workload_cls, seed)
    other = deterministic_counters(workload_cls, seed + 1)
    for key in first:
        if first[key] != again[key]:
            failures.append(f"determinism: {key} {first[key]!r} != {again[key]!r} on seed {seed}")

    print(f"== {name}: traced run, seed {seed} ==")
    print(f"op_p50_ms ({run.main_kind}) after the prefix: untraced {plain_ms:.2f} ms, "
          f"traced {traced_ms:.2f} ms; tracing overhead {metrics['trace.overhead_pct'][0]:.1f}%")
    print("\nper-layer metrics (total, then one column per program):")
    programs = tracer.programs()
    per_program = {p: layer_metrics(tracer, p) for p in programs}
    print(f"{'metric':38s} {'total':>12s} " + " ".join(f"{p:>11s}" for p in programs))
    for key, (value, unit) in metrics.items():
        cells = " ".join(
            f"{per_program[p][key][0]:11.1f}" if key in per_program[p] else f"{'-':>11s}"
            for p in programs
        )
        print(f"{key:38s} {value:12.1f} {cells}  {unit}")
    print("\nsim-vs-real calibration (inside engine rebuilds, from their spans):")
    print(f"{'layer':28s} {'program':10s} {'real ms':>10s} {'sim ms':>10s} {'real/sim':>9s}")
    for layer, program, real, sim in calibration(tracer):
        ratio_text = f"{real / sim:9.2f}" if sim > 0.005 else f"{'-':>9s}"
        print(f"{layer:28s} {program:10s} {real:10.1f} {sim:10.1f} {ratio_text}")
    print("\ndeterminism guard (fixed prefix; seed, seed again, seed+1):")
    for key in first:
        print(f"{key:34s} {first[key]:14.3f} {again[key]:14.3f} {other[key]:14.3f}")
    print("\nlayer-coverage guard:", "FAILED" if uncovered else "ok")
    print(json.dumps({
        "workload": name,
        "per_program": {p: {k: v for k, (v, _u) in per_program[p].items()} for p in programs},
        "calibration": calibration(tracer),
        "determinism": {"seed": first, "seed_again": again, "seed_plus_1": other},
        "run": summary(run, name),
    }))
    result = {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()}
    return result, run.attempted, failures


def untraced(workload_cls, seed: int, seconds: float) -> Tuple[dict, int, List[str]]:
    workload = workload_cls()
    setups = []
    try:
        for rep in range(SETUP_REPS):
            if rep:
                workload.teardown()
            setups.append(timed_setup(workload))
        run = Run(workload, seed, seconds, workload.prefix_steps, MIN_SAMPLES)
        failures = run.errors + workload.epilogue()
        detail = workload.detail()
    finally:
        workload.teardown()
    report = summary(run, workload_cls.name)
    report["setup_s_each"] = setups
    report.update(detail)
    print(json.dumps({"workload": workload_cls.name, "seed": seed, "report": report}))
    return end_to_end(run, statistics.median(setups)), run.attempted, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload_cls = WORKLOADS[args.workload]
    measure = traced if args.trace else untraced
    metrics, attempted, failures = measure(workload_cls, args.seed, args.seconds)
    for failure in failures:
        print("FAILED:", failure)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
