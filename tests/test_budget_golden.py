"""Golden trajectories of the budget loops behind ``repro partisan`` and
``repro profile``.

Every run here is deterministic (seeded dispatch, cycle-exact VM), so a
refactor of the budget loop must reproduce each window bit for bit: the
exact ``achieved_overhead`` float, the mix, the de-/re-instrumented
symbols, the rebuild tier, and the whole ``report.to_dict()``.  Each run
de-instruments at least once; libpng and woff2 only need it under a
tighter budget, and woff2 also runs at the default budget to pin the
"fully instrumented below the band floor" fixed point.

Window records are read field by field with defaults (a single symbol or
a list, mix and tier optional), so the pin does not depend on how the
window record is shaped.

Regenerate the golden file with
``PYTHONPATH=src python tests/test_budget_golden.py`` — only for an
intended behaviour change.
"""

import json
import pathlib

import pytest

from repro.profile import run_profile
from repro.programs.registry import get_program
from repro.variants import run_partisan

GOLDEN = pathlib.Path(__file__).with_name("budget_golden.json")


def _partisan(name, mode="per-call"):
    return lambda: run_partisan(
        get_program(name), executions=60, window=20, seed=5, mode=mode
    )


def _profile(name, budget=0.25):
    return lambda: run_profile(
        get_program(name), budget=budget, executions=60, window=20, seed=5
    )


CASES = {
    "partisan/json": _partisan("json"),
    "partisan/lcms": _partisan("lcms"),
    "partisan/libjpeg": _partisan("libjpeg"),
    "partisan/json/per-execution": _partisan("json", "per-execution"),
    "profile/json": _profile("json"),
    "profile/lcms": _profile("lcms"),
    "profile/libpng@0.02": _profile("libpng", 0.02),
    "profile/woff2@0.02": _profile("woff2", 0.02),
    "profile/woff2": _profile("woff2"),
}
#: The one run that must not steer: full instrumentation is under budget.
FIXED_POINT = "profile/woff2"


def _symbols(value):
    if value is None:
        return []
    return [value] if isinstance(value, str) else list(value)


def trajectory(run) -> dict:
    windows = [
        {
            "index": w.index,
            "executions": w.executions,
            "achieved_overhead": w.achieved_overhead,
            "mix": getattr(w, "mix", None),
            "deinstrumented": _symbols(w.deinstrumented),
            "reinstrumented": _symbols(getattr(w, "reinstrumented", None)),
            "rebuild_tier": getattr(w, "rebuild_tier", None),
        }
        for w in run.controller.windows
    ]
    # JSON round trip: tuples become lists, floats keep their exact repr.
    return json.loads(
        json.dumps({"windows": windows, "report": run.report.to_dict()})
    )


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_trajectory_matches_golden(case, golden):
    got = trajectory(CASES[case]())
    want = golden[case]
    steered = any(w["deinstrumented"] for w in want["windows"])
    assert steered == (case != FIXED_POINT)
    assert got["windows"] == want["windows"]
    assert got["report"] == want["report"]


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(
            {case: trajectory(CASES[case]()) for case in sorted(CASES)},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {GOLDEN}")
