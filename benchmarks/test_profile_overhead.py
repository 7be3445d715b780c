"""Budgeted profiling: convergence under budget with patch-tier toggles.

The acceptance claims for the profiling probe family, CaPI-style on top
of Odin's engine:

1. **Budget convergence** — on each benchmarked program the overhead
   controller steers the recent-window slowdown into the ±25% tolerance
   band around the 25% budget (or sits below it fully instrumented).
2. **Patch-tier actuation** — every de/re-instrumentation flip is
   serviced entirely by stage-1 probe patching: zero compile batches
   across all controller rebuilds.
3. **Cold-path retention** — symbols the workload never reaches keep
   their instrumentation; only measured-hot symbols are removed.
"""

from conftest import write_result

import pytest

from repro.profile import run_profile
from repro.programs.registry import get_program

PROGRAMS = ("json", "lcms", "libpng", "woff2")
BUDGET = 0.25
TOLERANCE = 0.25
EXECUTIONS = 300
WINDOW = 20
SEED = 5


@pytest.fixture(scope="session")
def profile_runs():
    return {
        name: run_profile(
            get_program(name),
            budget=BUDGET,
            executions=EXECUTIONS,
            seed=SEED,
            window=WINDOW,
        )
        for name in PROGRAMS
    }


def test_budget_convergence(benchmark, profile_runs):
    def summarize(runs):
        return {
            name: run.report.final_window_overhead
            for name, run in runs.items()
        }

    finals = benchmark(summarize, profile_runs)

    lines = [
        f"budget {BUDGET:+.2f} ±{TOLERANCE:.0%}, {EXECUTIONS} executions, "
        f"window {WINDOW}, seed {SEED}",
        f"{'program':>10} {'lifetime':>9} {'last-win':>9} {'probes':>9} "
        f"{'rebuilds':>8}  de-instrumented",
    ]
    ceiling = BUDGET * (1.0 + TOLERANCE)
    steered = 0
    for name, run in profile_runs.items():
        report = run.report
        assert report.converged, f"{name} did not converge"
        assert finals[name] <= ceiling + 1e-9, (
            f"{name} final window {finals[name]:+.3f} above band ceiling"
        )
        if report.deinstrumented:
            # The controller actually had to steer: the final window must
            # also clear the band floor.
            assert finals[name] >= BUDGET * (1.0 - TOLERANCE) - 1e-9
            steered += 1
        lines.append(
            f"{name:>10} {report.achieved_overhead:+9.3f} "
            f"{finals[name]:+9.3f} "
            f"{report.probes_enabled:>4}/{report.probes_total:<4} "
            f"{report.rebuilds:>8}  {', '.join(report.deinstrumented) or '-'}"
        )
    # The claim needs teeth: at least two programs must be expensive
    # enough at full instrumentation that the controller had to act.
    assert steered >= 2, f"only {steered} programs required steering"
    write_result("profile_overhead.txt", "\n".join(lines))


def test_toggle_rounds_never_compile(profile_runs):
    for name, run in profile_runs.items():
        report = run.report
        assert report.toggles_patch_only, (
            f"{name}: toggle rebuilds left the patch tier "
            f"(tiers: {report.rebuild_tiers})"
        )
        assert report.compile_batches == 0
        for rebuild in run.actuator.rebuilds:
            assert all(
                tier in ("patch", "noop")
                for tier in rebuild.fragment_tiers.values()
            )
            # The probe family behind every patch is profiling's.
            for families in rebuild.fragment_families.values():
                assert families == ("prof",)


def test_cold_paths_stay_instrumented(profile_runs):
    for name, run in profile_runs.items():
        report = run.report
        called = {row["symbol"] for row in report.flat if row["calls"]}
        # Everything removed was measured hot; everything never reached
        # is still carrying its probes.
        assert set(report.deinstrumented) <= called, name
        for symbol in report.cold_instrumented:
            assert symbol not in called, name
        enabled = {
            probe.target_symbol()
            for probe in run.actuator.tool.probes.values()
            if probe.enabled
        }
        assert set(report.cold_instrumented) <= enabled, name


def test_profile_attribution_consistency(profile_runs):
    """Inclusive time nests: a symbol's exclusive cycles never exceed its
    inclusive cycles, and call counts match the recorded edges."""
    for name, run in profile_runs.items():
        stats = run.actuator.tool.runtime.stats
        for symbol, st in stats.items():
            assert 0 <= st.excl_cycles <= st.incl_cycles, (name, symbol)
        inbound = {}
        for (_, callee), count in run.actuator.tool.runtime.edges.items():
            inbound[callee] = inbound.get(callee, 0) + count
        for symbol, st in stats.items():
            assert inbound.get(symbol, 0) == st.calls, (name, symbol)
