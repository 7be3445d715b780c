"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — the benchmark targets
* ``run PROGRAM`` — compile and run a target's smoke test + seed corpus
* ``partition PROGRAM`` — show the fragment definition (Figure 6 style)
* ``fuzz PROGRAM`` — a coverage-guided campaign with on-the-fly pruning
* ``check [PROGRAMS]`` — the differential rebuild oracle: replay random
  probe-state schedules incrementally and from scratch, assert byte- and
  behaviour-equivalence, and run cache-fault + invariant suites
* ``chaos [PROGRAMS]`` — seeded fault injection against the live
  service (worker crash/hang, cache corruption, dispatcher restarts,
  deadline expiry); every run must end oracle-equivalent to a
  fault-free from-scratch build
* ``lint [PROGRAMS]`` — the static layer: run the IR lint suite over each
  target and drive a fully instrumented build with the probe-integrity
  sanitizer between passes; exits non-zero on sanitizer errors
* ``partisan [PROGRAMS]`` — run-time partitioned sanitization: execute a
  target through a multi-variant image (clean/coverage/sanitized) under
  a budget-controlled dispatch mix and report per-variant execution
  shares, achieved overhead and de-instrumented hot functions
* ``profile [PROGRAMS]`` — budgeted call-path profiling: instrument
  every function with enter/exit timing probes, hold the slowdown to a
  target budget by de-instrumenting hot symbols through the patch tier,
  and report the flat + call-path profile with cold paths retained
* ``experiment NAME`` — regenerate one of the paper's tables/figures
* ``serve PROGRAM`` — run the recompilation service under a synthetic
  multi-client probe-flip workload and report its metrics
* ``stats [FILE]`` — pretty-print a stats snapshot written by ``serve``
* ``trace PROGRAM`` — record an instrumented build + one on-the-fly
  rebuild as span trees and export Chrome ``trace_event`` JSON
  (``fuzz`` and ``serve`` accept ``--trace-out`` for whole campaigns)
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import threading
from typing import List, Optional

from repro.core.engine import Odin
from repro.core.variants import VARIANT_LABELS
from repro.fuzz.executor import PRESERVED, OdinCovExecutor, run_input
from repro.fuzz.fuzzer import Fuzzer
from repro.instrument.coverage import OdinCov
from repro.programs.registry import all_programs, get_program
from repro.toolchain import build_module
from repro.vm.interpreter import VM


def cmd_list(_args) -> int:
    for program in all_programs():
        print(f"{program.name:>10}  {program.source_lines:>4} lines  "
              f"{program.description}")
    return 0


def cmd_run(args) -> int:
    program = get_program(args.program)
    build = build_module(program.compile(), opt_level=args.opt)
    vm = VM(build.executable)
    smoke = vm.run("main")
    print(f"main: exit={smoke.exit_code} stdout={smoke.stdout.decode().strip()!r} "
          f"cycles={smoke.cycles}")
    total = 0
    for seed in program.seeds(args.seed):
        result = run_input(vm, seed)
        total += result.cycles
        status = result.trap or "ok"
        print(f"  seed[{len(seed):>4}B] -> {result.exit_code:>12} ({status}, "
              f"{result.cycles} cycles)")
    print(f"total replay cycles: {total}")
    return 0


def cmd_partition(args) -> int:
    program = get_program(args.program)
    engine = Odin(program.compile(), strategy=args.strategy, preserve=PRESERVED)
    print(f"{VARIANT_LABELS[args.strategy]} on {program.name}:")
    print(engine.describe_partition())
    report = engine.initial_build()
    print(f"\ninitial build: {report.total_compile_ms:.1f} ms compile "
          f"+ {report.link_ms:.1f} ms link across {len(report.fragment_ids)} fragments")
    worst = max(report.fragment_compile_ms.items(), key=lambda kv: kv[1])
    print(f"worst fragment: #{worst[0]} at {worst[1]:.1f} ms")
    return 0


def cmd_fuzz(args) -> int:
    program = get_program(args.program)
    service = None
    if args.service:
        from repro.service import RecompilationService

        service = RecompilationService(
            workers=args.workers, worker_mode=args.mode
        )
        engine = service.register_target(
            program.name, program.compile(), preserve=PRESERVED
        )
        client = service.client(program.name, "fuzzer")
        tool = OdinCov(engine, rebuild_fn=client.rebuild_report)
        probes = tool.add_all_block_probes()
        service.build(program.name)
        service.start()
    else:
        engine = Odin(program.compile(), preserve=PRESERVED)
        tool = OdinCov(engine)
        probes = tool.add_all_block_probes()
        tool.build()
    executor = OdinCovExecutor(tool)
    fuzzer = Fuzzer(
        executor, program.seeds(args.seed), seed=args.seed,
        prune_interval=args.prune_interval,
    )
    stats = fuzzer.run(args.executions)
    if service is not None:
        service.close()
    print(f"target:      {program.name} ({probes} probes, "
          f"{engine.num_fragments} fragments)")
    print(f"executions:  {stats.executions}")
    print(f"corpus:      {stats.corpus_size} entries, {stats.coverage} probes covered")
    print(f"crashes:     {stats.crashes}")
    rebuilds = max(stats.rebuilds, 1)
    print(f"rebuilds:    {stats.rebuilds} "
          f"(avg {stats.rebuild_ms / rebuilds:.1f} ms wall, "
          f"{stats.rebuild_cpu_ms / rebuilds:.1f} ms cpu)")
    print(f"probes left: {len(tool.probes)}")
    if service is not None:
        derived = service.stats()["derived"]
        print(f"service:     cache hit rate {derived['cache_hit_rate']:.1%}, "
              f"mean batch {derived['mean_batch_size']:.2f}, "
              f"{derived['fragments_compiled']:g} fragment compiles")
    if args.trace_out:
        tracer = service.tracer if service is not None else engine.tracer
        return _write_trace_file(args.trace_out, tracer.roots())
    return 0


def cmd_selffuzz(args) -> int:
    """Turn the toolchain on itself: composition-steered differential
    fuzzing of the -O2 pipeline against -O0 ground truth."""
    import json

    from repro.selffuzz import (
        SelfFuzzCampaign,
        SelfFuzzHarness,
        parse_style_mix,
    )

    mix = parse_style_mix(args.styles) if args.styles else None
    harness = SelfFuzzHarness(sanitize=not args.no_sanitize)

    def progress(verdict):
        if verdict.ok:
            if args.verbose:
                print(f"  {verdict.name} [{verdict.style}] ok")
            return
        print(f"  {verdict.name} [{verdict.style}] {verdict.status}"
              + (f" -> {verdict.pass_name}" if verdict.pass_name else ""))
        if verdict.detail and args.verbose:
            print(f"    {verdict.detail}")

    campaign = SelfFuzzCampaign(
        seed=args.seed, count=args.count, mix=mix,
        minimize=args.minimize, harness=harness, on_program=progress,
    )
    report = campaign.run()

    print(report.summary())
    for style, counts in sorted(report.styles.items()):
        print(f"  {style:15s} {counts['programs']:4d} programs, "
              f"{counts['failures']} failures")
    if report.passes:
        print("failures by pass:")
        for pass_name, n in sorted(report.passes.items()):
            print(f"  {pass_name}: {n}")

    if args.report_json:
        with open(args.report_json, "w") as fp:
            json.dump(report.to_dict(), fp, indent=2, sort_keys=True)
        print(f"report written to {args.report_json}")

    if args.corpus and report.failures:
        import os

        os.makedirs(args.corpus, exist_ok=True)
        for verdict in report.failures:
            path = os.path.join(args.corpus, f"{verdict.name}.c")
            source = verdict.minimized_source or verdict.source
            header = (
                f"// selffuzz reproducer: {verdict.status}\n"
                f"// seed={verdict.seed} index={verdict.index} "
                f"style={verdict.style}\n"
                + (f"// pass: {verdict.pass_name}\n" if verdict.pass_name
                   else "")
                + (f"// detail: {verdict.detail}\n" if verdict.detail else "")
            )
            with open(path, "w") as fp:
                fp.write(header + source)
            print(f"reproducer written to {path}")

    return 0 if report.ok else 1


DEFAULT_CHECK_PROGRAMS = ("libjpeg", "lcms")


def _print_reports(reports, note: Optional[str] = None) -> int:
    """Print replay reports as they arrive, an optional note, then
    PASS/FAIL."""
    failed = False
    for report in reports:
        print("\n".join(report.lines()))
        failed = failed or not report.ok
    if note:
        print(note)
    print("FAIL" if failed else "PASS")
    return 1 if failed else 0


def cmd_check(args) -> int:
    """Differential rebuild oracle + fault injection + invariants."""
    from repro.check import (
        check_clean_dispatch,
        generate_schedules,
        rebuild_replay,
        run_fault_checks,
        run_invariant_checks,
        tier_replay,
    )

    programs = [
        get_program(name) for name in (args.programs or DEFAULT_CHECK_PROGRAMS)
    ]
    schedules = generate_schedules(
        args.schedules,
        args.seed,
        max_steps=args.max_steps,
        include_prune=not args.no_prune,
    )
    if args.tiers:
        # Tier-sweep mode: replay the same schedules through the
        # patch-only, memo-only and full paths and demand byte/behaviour
        # equivalence.  Replaces the ordinary oracle run — three engines
        # per schedule is the expensive part, not the oracle around it.
        return _print_reports(
            tier_replay(program, max_inputs=args.max_inputs).run(schedules)
            for program in programs
        )
    failed = False
    for program in programs:
        report = rebuild_replay(
            program,
            service=args.service,
            workers=args.workers,
            worker_mode=args.mode,
            max_inputs=args.max_inputs,
        ).run(schedules)
        print("\n".join(report.lines()))
        failed = failed or not report.ok

        invariant_failures = run_invariant_checks(program)
        if invariant_failures:
            failed = True
            for failure in invariant_failures:
                print(f"  INVARIANT {failure}")
        else:
            print(f"{program.name}: invariants ok "
                  f"(back propagation, content-key determinism)")

        if not args.no_variants:
            variant_report = check_clean_dispatch(
                program, seed=args.seed, max_inputs=args.max_inputs
            )
            print("\n".join(variant_report.lines()))
            failed = failed or not variant_report.ok

    if not args.no_faults:
        fault_failures = run_fault_checks()
        if fault_failures:
            failed = True
            for failure in fault_failures:
                print(f"  FAULT {failure}")
        else:
            from repro.service.cache import PersistentCodeCache

            print(f"cache faults: {len(PersistentCodeCache.FAULT_KINDS)} "
                  f"scenarios, all degraded to a miss")
    print("FAIL" if failed else "PASS")
    return 1 if failed else 0


DEFAULT_CHAOS_PROGRAMS = ("lcms",)


def cmd_chaos(args) -> int:
    """Seeded chaos harness: fault-injected service runs vs the oracle."""
    from repro.check import chaos_replay, generate_chaos_schedules

    programs = [
        get_program(name) for name in (args.programs or DEFAULT_CHAOS_PROGRAMS)
    ]
    schedules = generate_chaos_schedules(
        args.schedules,
        args.seed,
        min_faults=args.min_faults,
        max_faults=args.max_faults,
        max_steps=args.max_steps,
    )
    reports = [
        chaos_replay(
            program,
            workers=args.workers,
            worker_mode=args.mode,
            max_inputs=args.max_inputs,
        ).run(schedules, seed=args.seed)
        for program in programs
    ]
    if args.report_json:
        payload = [report.to_dict() for report in reports]
        with open(args.report_json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        return _print_reports(
            reports, f"chaos report written to {args.report_json}"
        )
    return _print_reports(reports)


DEFAULT_CLUSTER_PROGRAMS = ("json", "lcms")


def cmd_cluster(args) -> int:
    """Sharded multi-tenant cluster chaos sweep with recovery oracle."""
    from repro.check import cluster_replay, generate_cluster_chaos_schedules

    programs = [
        get_program(name)
        for name in (args.programs or DEFAULT_CLUSTER_PROGRAMS)
    ]
    report = cluster_replay(
        programs,
        shards=args.shards,
        tenants=args.tenants,
        max_inputs=args.max_inputs,
        reply_timeout_s=args.reply_timeout,
    ).run(
        generate_cluster_chaos_schedules(
            args.schedules, args.seed, tenants=args.tenants
        ),
        seed=args.seed,
    )
    if args.report_json:
        with open(args.report_json, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        return _print_reports(
            [report], f"cluster report written to {args.report_json}"
        )
    return _print_reports([report])


DEFAULT_PARTISAN_PROGRAMS = ("json", "lcms", "libjpeg")


def _run_budget_command(args, name, default_programs, run, rows,
                        strict=lambda report: [], after=None) -> int:
    """The loop ``partisan`` and ``profile`` share: per program, a budgeted
    *run*, its summary, *rows*, ``--windows`` and ``--strict`` problems
    (non-convergence plus *strict*); then *after* (True on failure),
    ``--report-json``, ``--trace-out`` and PASS/FAIL."""
    programs = [get_program(p) for p in (args.programs or default_programs)]
    failed, payload, all_spans = False, [], []
    for program in programs:
        result = run(program, budget=args.budget, executions=args.executions,
                     seed=args.seed, window=args.window,
                     max_inputs=args.max_inputs)
        report = result.report
        lines = list(rows(report))
        if args.windows:
            lines += [window.summary for window in result.controller.windows]
        if args.strict:
            problems = strict(report)
            if not report.converged:
                problems.insert(0, f"NOT CONVERGED (budget {args.budget:+.3f})")
            failed = failed or bool(problems)
            lines += problems
        print("\n".join([report.summary()] + [f"  {line}" for line in lines]))
        payload.append(report.to_dict())
        all_spans.extend(result.tracer.roots())

    if after is not None:
        failed = after(programs) or failed
    if args.report_json:
        with open(args.report_json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"{name} report written to {args.report_json}")
    if args.trace_out:
        _write_trace_file(args.trace_out, all_spans)
    print("FAIL" if failed else "PASS")
    return 1 if failed else 0


def _budget_parser(sub, name, help, default_programs, *, executions, window,
                   strict, trace):
    """The options ``partisan`` and ``profile`` share."""
    parser = sub.add_parser(name, help=help)
    parser.add_argument("programs", nargs="*", help=f"targets (default: "
                        f"{' '.join(default_programs)})")
    parser.add_argument("--budget", type=float, default=0.25,
                        help="target fractional slowdown over clean")
    parser.add_argument("--executions", type=int, default=executions)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--window", type=int, default=window,
                        help="executions per controller window")
    parser.add_argument("--max-inputs", type=int, default=4,
                        help="seed-corpus inputs cycled through")
    parser.add_argument("--windows", action="store_true",
                        help="print every controller window")
    parser.add_argument("--strict", action="store_true", help=strict)
    parser.add_argument("--report-json", default=None,
                        help="write the machine-readable report here")
    parser.add_argument("--trace-out", default=None, help=trace)
    return parser


def cmd_partisan(args) -> int:
    """Run-time partitioned sanitization under an overhead budget."""
    from repro.check import check_clean_dispatch
    from repro.variants import run_partisan

    def rows(report):
        for name in sorted(report.probes):
            cost = report.family_costs.get(name)
            yield (
                f"{name:>10}: {report.probes[name]:>3} live probes, "
                f"call share {report.call_shares.get(name, 0.0):.3f}, "
                f"mix weight {report.mix_final.get(name, 0.0):.3f}"
                + (f", cost {cost:.2f}x clean" if cost is not None else "")
            )

    def clean_dispatch(programs) -> bool:
        failed = False
        for program in programs:
            report = check_clean_dispatch(program, seed=args.seed)
            print("\n".join(report.lines()))
            failed = failed or not report.ok
        return failed

    run = functools.partial(
        run_partisan, mode=args.mode, dispatch_tax=args.dispatch_tax
    )
    return _run_budget_command(
        args, "partisan", DEFAULT_PARTISAN_PROGRAMS, run, rows,
        after=None if args.no_check else clean_dispatch,
    )


DEFAULT_PROFILE_PROGRAMS = ("json", "lcms")


def cmd_profile(args) -> int:
    """Budgeted call-path profiling through the patch tier."""
    from repro.profile import run_profile

    def rows(report):
        for row in report.flat[: args.top]:
            state = "on " if row["enabled"] else "off"
            yield (
                f"[{state}] {row['symbol']:>16}: {row['calls']:>6} calls, "
                f"incl {row['incl_cycles']:>9}, excl {row['excl_cycles']:>9}"
            )
        for edge in report.edges[: args.top]:
            yield (f"edge {edge['caller']} -> {edge['callee']}: "
                   f"{edge['calls']} calls")
        if report.cold_instrumented:
            yield (f"cold (still instrumented): "
                   f"{', '.join(report.cold_instrumented)}")
        if report.unattributed:
            yield f"unattributed counter events: {report.unattributed}"

    def toggles_compiled(report):
        return [] if report.toggles_patch_only else [
            f"TOGGLES COMPILED: {report.compile_batches} fragment "
            f"compiles in {report.rebuilds} toggle rebuilds "
            f"(tiers: {', '.join(report.rebuild_tiers)})"
        ]

    return _run_budget_command(
        args, "profile", DEFAULT_PROFILE_PROGRAMS, run_profile, rows,
        strict=toggles_compiled,
    )


def cmd_lint(args) -> int:
    """IR lint suite + probe-integrity-sanitized instrumented build."""
    from collections import Counter

    from repro.instrument.cmplog import add_cmp_probes

    programs = [get_program(n) for n in args.programs] if args.programs \
        else list(all_programs())
    failed = False
    for program in programs:
        engine = Odin(
            program.compile(), preserve=PRESERVED,
            opt_level=args.opt, sanitize=not args.no_sanitize,
        )
        diags = engine.lint()
        warnings = [d for d in diags if d.severity == "warning"]
        notes = [d for d in diags if d.severity == "note"]
        for d in warnings:
            print(f"  {d}")
        if args.notes:
            for d in notes:
                print(f"  {d}")

        sanitizer_errors = []
        sanitizer_warnings = []
        if not args.no_sanitize:
            tool = OdinCov(engine)
            tool.add_all_block_probes()
            add_cmp_probes(engine)
            engine.initial_build()
            sanitizer_errors = [
                d for d in engine.sanitizer_diagnostics if d.is_error
            ]
            sanitizer_warnings = [
                d for d in engine.sanitizer_diagnostics if not d.is_error
            ]
            for d in sanitizer_errors + sanitizer_warnings:
                print(f"  {d}")

        counts = Counter(d.check for d in diags)
        summary = ", ".join(f"{n} {check}" for check, n in sorted(counts.items()))
        print(f"{program.name}: {summary or 'no lint findings'}"
              + ("" if args.no_sanitize else
                 f"; sanitizer: {len(sanitizer_errors)} errors, "
                 f"{len(sanitizer_warnings)} warnings (-O{args.opt})"))
        if sanitizer_errors or (args.strict and (warnings or sanitizer_warnings)):
            failed = True
    print("FAIL" if failed else "PASS")
    return 1 if failed else 0


def cmd_serve(args) -> int:
    """Run the recompilation service under a multi-client workload."""
    from repro.service import RecompilationService, format_stats
    from repro.utils.rng import DeterministicRNG

    program = get_program(args.program)
    service = RecompilationService(
        workers=args.workers,
        worker_mode=args.mode,
        cache_dir=args.cache_dir,
    )
    engine = service.register_target(
        program.name, program.compile(), preserve=PRESERVED
    )
    tool = OdinCov(engine)
    probes = tool.add_all_block_probes()
    build = service.build(program.name)
    print(f"serving {program.name}: {probes} probes, "
          f"{engine.num_fragments} fragments, initial build "
          f"{build.total_compile_ms:.1f} ms compile + {build.link_ms:.1f} ms link")

    probe_ids = sorted(tool.probes)

    def client_loop(index: int) -> None:
        client = service.client(program.name, f"client-{index}")
        rng = DeterministicRNG(args.seed + index)
        for _ in range(args.flips):
            picked = [
                probe_ids[rng.randint(0, len(probe_ids) - 1)]
                for _ in range(min(4, len(probe_ids)))
            ]
            client.disable(*picked).result(60.0)
            client.enable(*picked).result(60.0)

    with service:
        threads = [
            threading.Thread(target=client_loop, args=(i,), daemon=True)
            for i in range(args.clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    stats = service.stats()
    print()
    print(format_stats(stats))
    if args.stats_json:
        with open(args.stats_json, "w", encoding="utf-8") as fh:
            json.dump(stats, fh, indent=2, sort_keys=True)
        print(f"\nstats written to {args.stats_json}")
    if args.trace_out:
        return _write_trace_file(args.trace_out, service.tracer.roots())
    return 0


def _write_trace_file(path: str, spans) -> int:
    """Validate and write a Chrome trace; returns 0, or 2 on schema errors."""
    from repro.obs import to_trace_events, validate_trace_events, write_trace

    problems = validate_trace_events(to_trace_events(spans))
    if problems:
        for problem in problems:
            print(f"trace error: {problem}", file=sys.stderr)
        return 2
    write_trace(path, spans)
    print(f"trace written to {path} ({len(spans)} span trees)")
    return 0


def cmd_trace(args) -> int:
    """Trace an instrumented build plus one on-the-fly rebuild."""
    from repro.obs import flame_summary

    program = get_program(args.program)
    if args.service:
        from repro.service import RecompilationService

        with RecompilationService(
            workers=args.workers, worker_mode=args.mode
        ) as service:
            engine = service.register_target(
                program.name, program.compile(), preserve=PRESERVED
            )
            tool = OdinCov(engine)
            tool.add_all_block_probes()
            service.build(program.name)
            client = service.client(program.name, "trace")
            picked = sorted(tool.probes)[: args.flips]
            client.disable(*picked).result(60.0)
            client.enable(*picked).result(60.0)
        tracer = service.tracer
    else:
        engine = Odin(program.compile(), preserve=PRESERVED)
        tool = OdinCov(engine)
        tool.add_all_block_probes()
        tool.build()
        picked = sorted(tool.probes)[: args.flips]
        for pid in picked:
            engine.manager.disable(tool.probes[pid])
        engine.rebuild_if_needed()
        tracer = engine.tracer

    spans = tracer.roots()
    print(flame_summary(spans, max_depth=args.depth))
    if args.out:
        return _write_trace_file(args.out, spans)
    return 0


def cmd_stats(args) -> int:
    """Pretty-print a stats snapshot produced by ``serve --stats-json``."""
    from repro.service import format_stats

    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            stats = json.load(fh)
    except OSError as error:
        print(f"cannot read stats file: {error}", file=sys.stderr)
        return 2
    print(format_stats(stats))
    return 0


def cmd_experiment(args) -> int:
    name = args.name
    if name in ("fig8", "fig9"):
        from repro.experiments.overhead import (
            format_fig8,
            format_fig9,
            measure_overheads,
        )

        summary = measure_overheads(_selected(args))
        print(format_fig8(summary) if name == "fig8" else format_fig9(summary))
    elif name == "fig10":
        from repro.experiments.partition import format_fig10, measure_partition_variants

        print(format_fig10(measure_partition_variants(_selected(args))))
    elif name in ("fig11", "fig12"):
        from repro.experiments.recompile import (
            format_fig11,
            format_fig12,
            measure_recompile_times,
        )

        summary = measure_recompile_times(_selected(args))
        print(format_fig11(summary) if name == "fig11" else format_fig12(summary))
    elif name == "fig3":
        from repro.buildsim.buildcost import measure_build

        program = get_program(args.programs[0] if args.programs else "libxml2")
        breakdown = measure_build(program.name, program.source)
        for stage, fraction in breakdown.fractions().items():
            print(f"{stage:>16}: {fraction * 100:6.2f}%")
        print(f"{'total':>16}: {breakdown.total_ms:8.1f} ms")
    elif name == "headline":
        from repro.experiments.recompile import measure_headline_recompile

        result = measure_headline_recompile(_selected(args))
        print(f"recompilations: {result.count}, mean {result.mean_ms:.1f} ms "
              f"(paper: 82 ms)")
    else:
        print(f"unknown experiment {name!r}", file=sys.stderr)
        return 2
    return 0


def _selected(args):
    if getattr(args, "programs", None):
        return [get_program(n) for n in args.programs]
    return None


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Odin (PLDI 2022) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmark targets").set_defaults(fn=cmd_list)

    p_run = sub.add_parser("run", help="compile and run a target")
    p_run.add_argument("program")
    p_run.add_argument("--opt", type=int, default=2, choices=(0, 2))
    p_run.add_argument("--seed", type=int, default=0)
    p_run.set_defaults(fn=cmd_run)

    p_part = sub.add_parser("partition", help="show a target's fragments")
    p_part.add_argument("program")
    p_part.add_argument(
        "--strategy", default="odin", choices=("odin", "one", "max")
    )
    p_part.set_defaults(fn=cmd_partition)

    p_fuzz = sub.add_parser("fuzz", help="coverage-guided campaign")
    p_fuzz.add_argument("program")
    p_fuzz.add_argument("--executions", type=int, default=1000)
    p_fuzz.add_argument("--prune-interval", type=int, default=250)
    p_fuzz.add_argument("--seed", type=int, default=1)
    p_fuzz.add_argument(
        "--service", action="store_true",
        help="route on-the-fly rebuilds through the recompilation service",
    )
    p_fuzz.add_argument("--workers", type=int, default=2)
    p_fuzz.add_argument(
        "--mode", default="thread", choices=("serial", "thread", "process")
    )
    p_fuzz.add_argument(
        "--trace-out", default=None,
        help="write the campaign's rebuild span trees as Chrome trace JSON",
    )
    p_fuzz.set_defaults(fn=cmd_fuzz)

    p_selffuzz = sub.add_parser(
        "selffuzz",
        help="differential fuzzing of the -O2 pipeline (toolchain on itself)",
    )
    p_selffuzz.add_argument("--seed", type=int, default=0)
    p_selffuzz.add_argument("-n", "--count", type=int, default=100,
                            help="number of programs to generate")
    p_selffuzz.add_argument(
        "--styles", default=None,
        help="composition-style mix, e.g. 'inline-chain=2,diamond' "
             "(default: every style, equal weight)",
    )
    p_selffuzz.add_argument(
        "--minimize", action="store_true",
        help="auto-minimize every failing program to a 1-minimal reproducer",
    )
    p_selffuzz.add_argument(
        "--no-sanitize", action="store_true",
        help="skip the probe-integrity sanitizer leg",
    )
    p_selffuzz.add_argument(
        "--report-json", default=None, metavar="PATH",
        help="write the campaign report (per-style/per-pass tallies) as JSON",
    )
    p_selffuzz.add_argument(
        "--corpus", default=None, metavar="DIR",
        help="write (minimized) reproducers for every failure into DIR",
    )
    p_selffuzz.add_argument("-v", "--verbose", action="store_true")
    p_selffuzz.set_defaults(fn=cmd_selffuzz)

    p_check = sub.add_parser(
        "check", help="differential rebuild oracle + fault/invariant suites"
    )
    p_check.add_argument(
        "programs", nargs="*",
        help=f"targets to check (default: {' '.join(DEFAULT_CHECK_PROGRAMS)})",
    )
    p_check.add_argument("--schedules", type=int, default=25)
    p_check.add_argument("--seed", type=int, default=1)
    p_check.add_argument("--max-steps", type=int, default=6)
    p_check.add_argument("--max-inputs", type=int, default=4,
                         help="corpus inputs per behaviour comparison")
    p_check.add_argument(
        "--service", action="store_true",
        help="drive the incremental side through the recompilation service",
    )
    p_check.add_argument("--workers", type=int, default=1)
    p_check.add_argument(
        "--mode", default="serial", choices=("serial", "thread", "process")
    )
    p_check.add_argument(
        "--tiers", action="store_true",
        help="replay schedules through patch-only/memo-only/full engines "
             "and assert object-byte, image and behaviour equivalence",
    )
    p_check.add_argument("--no-prune", action="store_true",
                         help="exclude prune steps from generated schedules")
    p_check.add_argument("--no-faults", action="store_true",
                         help="skip the persistent-cache fault suite")
    p_check.add_argument(
        "--no-variants", action="store_true",
        help="skip the variant clean-dispatch equivalence suite",
    )
    p_check.set_defaults(fn=cmd_check)

    p_partisan = _budget_parser(
        sub, "partisan",
        "run-time partitioned sanitization under an overhead budget",
        DEFAULT_PARTISAN_PROGRAMS, executions=720, window=60,
        strict="fail if the controller did not converge",
        trace="export build/deinstrument span trees here",
    )
    p_partisan.add_argument(
        "--mode", default="per-call", choices=("per-call", "per-execution"),
        help="variant selection granularity (PartiSan's two policies)",
    )
    p_partisan.add_argument("--dispatch-tax", type=int, default=0,
                            help="cycles charged per dispatched call")
    p_partisan.add_argument("--no-check", action="store_true",
                            help="skip the clean-dispatch equivalence check")
    p_partisan.set_defaults(fn=cmd_partisan)

    p_profile = _budget_parser(
        sub, "profile", "budgeted call-path profiling through the patch tier",
        DEFAULT_PROFILE_PROGRAMS, executions=300, window=20,
        strict="fail unless converged with patch-only toggles",
        trace="export the call-path span tree here",
    )
    p_profile.add_argument("--top", type=int, default=8,
                           help="flat-profile and edge rows to print")
    p_profile.set_defaults(fn=cmd_profile)

    p_chaos = sub.add_parser(
        "chaos", help="seeded fault injection against the live service"
    )
    p_chaos.add_argument(
        "programs", nargs="*",
        help=f"targets to stress (default: {' '.join(DEFAULT_CHAOS_PROGRAMS)})",
    )
    p_chaos.add_argument("--schedules", type=int, default=3)
    p_chaos.add_argument("--seed", type=int, default=1)
    p_chaos.add_argument("--min-faults", type=int, default=1)
    p_chaos.add_argument("--max-faults", type=int, default=3)
    p_chaos.add_argument("--max-steps", type=int, default=5)
    p_chaos.add_argument("--max-inputs", type=int, default=4,
                         help="corpus inputs per behaviour comparison")
    p_chaos.add_argument("--workers", type=int, default=2)
    p_chaos.add_argument(
        "--mode", default="process", choices=("serial", "thread", "process")
    )
    p_chaos.add_argument("--report-json", default=None,
                         help="write the machine-readable chaos report here")
    p_chaos.set_defaults(fn=cmd_chaos)

    p_cluster = sub.add_parser(
        "cluster",
        help="sharded multi-tenant chaos sweep with failover recovery oracle",
    )
    p_cluster.add_argument(
        "programs", nargs="*",
        help=f"targets to serve (default: {' '.join(DEFAULT_CLUSTER_PROGRAMS)})",
    )
    p_cluster.add_argument("--schedules", type=int, default=2)
    p_cluster.add_argument("--seed", type=int, default=1)
    p_cluster.add_argument("--shards", type=int, default=3)
    p_cluster.add_argument("--tenants", type=int, default=8)
    p_cluster.add_argument("--max-inputs", type=int, default=3,
                           help="corpus inputs per behaviour comparison")
    p_cluster.add_argument("--reply-timeout", type=float, default=4.0,
                           help="per-request result() deadline in seconds")
    p_cluster.add_argument("--report-json", default=None,
                           help="write the machine-readable cluster report here")
    p_cluster.set_defaults(fn=cmd_cluster)

    p_lint = sub.add_parser(
        "lint", help="static lint suite + probe-integrity-sanitized build"
    )
    p_lint.add_argument(
        "programs", nargs="*", help="targets to lint (default: all)"
    )
    p_lint.add_argument("--opt", type=int, default=2, choices=(0, 2),
                        help="optimization level for the sanitized build")
    p_lint.add_argument("--no-sanitize", action="store_true",
                        help="lint only; skip the sanitized instrumented build")
    p_lint.add_argument("--notes", action="store_true",
                        help="also print note-severity lint findings")
    p_lint.add_argument("--strict", action="store_true",
                        help="treat warnings as fatal too")
    p_lint.set_defaults(fn=cmd_lint)

    p_serve = sub.add_parser(
        "serve", help="run the recompilation service under a client workload"
    )
    p_serve.add_argument("program")
    p_serve.add_argument("--clients", type=int, default=4)
    p_serve.add_argument("--flips", type=int, default=8)
    p_serve.add_argument("--workers", type=int, default=2)
    p_serve.add_argument(
        "--mode", default="thread", choices=("serial", "thread", "process")
    )
    p_serve.add_argument("--cache-dir", default=None)
    p_serve.add_argument("--seed", type=int, default=1)
    p_serve.add_argument("--stats-json", default=None)
    p_serve.add_argument(
        "--trace-out", default=None,
        help="write the workload's span trees as Chrome trace JSON",
    )
    p_serve.set_defaults(fn=cmd_serve)

    p_stats = sub.add_parser(
        "stats", help="pretty-print a stats snapshot from serve --stats-json"
    )
    p_stats.add_argument("file", nargs="?", default="service-stats.json")
    p_stats.set_defaults(fn=cmd_stats)

    p_trace = sub.add_parser(
        "trace", help="span-tree trace of a build + one on-the-fly rebuild"
    )
    p_trace.add_argument("program")
    p_trace.add_argument("--out", default=None,
                         help="write Chrome trace_event JSON here")
    p_trace.add_argument("--flips", type=int, default=4,
                         help="probes to flip for the traced rebuild")
    p_trace.add_argument("--depth", type=int, default=3,
                         help="flame summary depth")
    p_trace.add_argument(
        "--service", action="store_true",
        help="trace through the recompilation service dispatch path",
    )
    p_trace.add_argument("--workers", type=int, default=2)
    p_trace.add_argument(
        "--mode", default="thread", choices=("serial", "thread", "process")
    )
    p_trace.set_defaults(fn=cmd_trace)

    p_exp = sub.add_parser("experiment", help="regenerate a paper figure")
    p_exp.add_argument(
        "name",
        choices=("fig3", "fig8", "fig9", "fig10", "fig11", "fig12", "headline"),
    )
    p_exp.add_argument("programs", nargs="*", help="restrict to these targets")
    p_exp.set_defaults(fn=cmd_experiment)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
