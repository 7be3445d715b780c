"""repro.profile — on-the-fly performance profiling as a probe family.

The Score-P / CaPI workload (PAPERS.md): call-path timing probes whose
overhead is held under a budget by de-instrumenting hot symbols at run
time.  Odin's patch tier services every flip without touching the
middle end, so the controller's toggles cost probe-site patches, not
recompiles.
"""

from repro.profile.probes import (
    PROF_ENTER_RUNTIME,
    PROF_EXIT_RUNTIME,
    ProfEnterProbe,
    ProfExitProbe,
)
from repro.profile.runner import (
    ProfileReport,
    ToggleActuator,
    run_profile,
)
from repro.profile.runtime import FunctionStats, PathNode, ProfilingRuntime
from repro.profile.tool import Profiler

__all__ = [
    "PROF_ENTER_RUNTIME",
    "PROF_EXIT_RUNTIME",
    "FunctionStats",
    "PathNode",
    "ProfEnterProbe",
    "ProfExitProbe",
    "ProfileReport",
    "Profiler",
    "ProfilingRuntime",
    "ToggleActuator",
    "run_profile",
]
