"""The budget loop with the profiling ToggleActuator: windowed budget
control over probe toggles."""

from repro.budget import BudgetConfig, BudgetController
from repro.core.engine import Odin
from repro.ir.parser import parse_module
from repro.profile.runner import ToggleActuator
from repro.profile.runtime import PROF_ENTER_COST, PROF_EXIT_COST
from repro.profile.tool import Profiler

PROGRAM = """
define internal i32 @hot(i32 %x) {
entry:
  %r = add i32 %x, 1
  ret i32 %r
}

define internal i32 @warm(i32 %x) {
entry:
  %r = mul i32 %x, 2
  ret i32 %r
}

define i32 @main() {
entry:
  %a = call i32 @hot(i32 1)
  %b = call i32 @warm(i32 %a)
  ret i32 %b
}
"""

PER_CALL = PROF_ENTER_COST + PROF_EXIT_COST


def make_controller(config=None):
    engine = Odin(parse_module(PROGRAM), preserve=("main", "hot", "warm"))
    tool = Profiler(engine)
    tool.add_all_function_probes()
    tool.build()
    controller = BudgetController(
        ToggleActuator(tool),
        config
        if config is not None
        else BudgetConfig(
            target_overhead=0.25, window=4, protected=frozenset({"main"})
        ),
    )
    return tool, controller


def feed_window(controller, tool, baseline, overhead, calls):
    """Push one window of synthetic executions; *calls* maps symbols to
    per-window call counts (their probe events drive attribution)."""
    for symbol, n in calls.items():
        events = tool.runtime.symbol_events.setdefault(symbol, [0, 0])
        events[0] += n
        events[1] += n
    per_exec = baseline + overhead // controller.config.window
    for _ in range(controller.config.window):
        controller.record_execution(per_exec, baseline)


class TestWindowing:
    def test_window_closes_at_configured_size(self):
        tool, controller = make_controller()
        feed_window(controller, tool, 1000, 0, {})
        assert len(controller.windows) == 1
        assert controller.windows[0].executions == 4

    def test_within_band_no_actuation(self):
        tool, controller = make_controller()
        window_base = 1000 * controller.config.window
        feed_window(
            controller, tool, 1000, int(window_base * 0.25), {"hot": 10}
        )
        w = controller.windows[0]
        assert not w.deinstrumented and not w.reinstrumented
        assert not controller.actuator.rebuilds


class TestDeinstrument:
    def test_hottest_symbol_flipped_off_at_patch_tier(self):
        tool, controller = make_controller()
        window_base = 1000 * controller.config.window
        # hot carries ~40% overhead, warm ~10%: flipping hot alone lands
        # the projection inside the band.
        hot_calls = int(window_base * 0.40) // PER_CALL
        warm_calls = int(window_base * 0.10) // PER_CALL
        overhead = (hot_calls + warm_calls) * PER_CALL
        feed_window(
            controller,
            tool,
            1000,
            overhead,
            {"hot": hot_calls, "warm": warm_calls},
        )
        w = controller.windows[0]
        assert w.deinstrumented == ["hot"]
        assert "hot" in controller.actuator.deinstrumented
        assert all(
            not p.enabled
            for p in tool.probes.values()
            if p.target_symbol() == "hot"
        )
        assert controller.actuator.toggles_patch_only
        assert w.rebuild_tier == "patch"

    def test_protected_symbol_never_flipped(self):
        tool, controller = make_controller()
        window_base = 1000 * controller.config.window
        calls = int(window_base * 0.80) // PER_CALL
        feed_window(controller, tool, 1000, calls * PER_CALL, {"main": calls})
        assert "main" not in controller.actuator.deinstrumented
        assert all(
            p.enabled
            for p in tool.probes.values()
            if p.target_symbol() == "main"
        )

    def test_flips_multiple_symbols_when_one_is_not_enough(self):
        tool, controller = make_controller()
        window_base = 1000 * controller.config.window
        hot_calls = int(window_base * 0.40) // PER_CALL
        warm_calls = int(window_base * 0.35) // PER_CALL
        overhead = (hot_calls + warm_calls) * PER_CALL
        feed_window(
            controller,
            tool,
            1000,
            overhead,
            {"hot": hot_calls, "warm": warm_calls},
        )
        assert set(controller.windows[0].deinstrumented) == {"hot", "warm"}


class TestReinstrument:
    def test_cold_symbol_flipped_back_when_budget_frees(self):
        tool, controller = make_controller()
        window_base = 1000 * controller.config.window
        # warm is the hottest single flip that stays inside the band
        # (flipping hot instead would land at 0.06, far under the floor).
        hot_calls = int(window_base * 0.27) // PER_CALL
        warm_calls = int(window_base * 0.06) // PER_CALL
        overhead = (hot_calls + warm_calls) * PER_CALL
        feed_window(
            controller,
            tool,
            1000,
            overhead,
            {"hot": hot_calls, "warm": warm_calls},
        )
        assert controller.windows[0].deinstrumented == ["warm"]
        # Next window the hot path cooled off: overhead well below the
        # floor, and warm's estimated cost fits back under the ceiling.
        hot_calls = int(window_base * 0.10) // PER_CALL
        feed_window(
            controller, tool, 1000, hot_calls * PER_CALL, {"hot": hot_calls}
        )
        w = controller.windows[1]
        assert w.reinstrumented == ["warm"]
        assert "warm" not in controller.actuator.deinstrumented
        assert all(
            p.enabled
            for p in tool.probes.values()
            if p.target_symbol() == "warm"
        )
        assert controller.actuator.toggles_patch_only


class TestConvergence:
    def test_converged_within_band(self):
        tool, controller = make_controller()
        window_base = 1000 * controller.config.window
        for _ in range(3):
            feed_window(
                controller, tool, 1000, int(window_base * 0.25), {"hot": 5}
            )
        assert controller.converged

    def test_under_floor_fully_instrumented_counts_as_converged(self):
        # Full instrumentation cheaper than the budget: nothing to add,
        # so the fixed point below the band floor is still "converged".
        tool, controller = make_controller()
        for _ in range(3):
            feed_window(controller, tool, 1000, 0, {})
        assert controller.converged
        assert not controller.actuator.deinstrumented

    def test_not_converged_above_band(self):
        tool, controller = make_controller(
            BudgetConfig(
                target_overhead=0.25,
                window=4,
                protected=frozenset({"main", "hot", "warm"}),
            )
        )
        window_base = 1000 * controller.config.window
        for _ in range(3):
            feed_window(
                controller, tool, 1000, int(window_base * 0.80), {}
            )
        assert not controller.converged
