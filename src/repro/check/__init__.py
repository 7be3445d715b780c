"""``repro check``, ``repro chaos`` and ``repro cluster``: one differential
replay kernel behind every rebuild-correctness check.

Odin's central claim — an incremental rebuild is semantically identical
to recompiling the world (§3.3, Algorithm 2) — is made falsifiable here,
in the spirit of FuzzyFlow's cutout-based differential testing.  Every
check runs the same pipeline, schedule → subject → compare → report:

* :mod:`repro.check.schedules` — seeded probe-state schedules
  (enable/disable/remove/prune), optionally with a fault plan;
* :mod:`repro.check.oracle` — the kernel: the op resolver, the replay
  loop, the comparator (fragment set, object bytes, linked image,
  behaviour), the from-scratch reference and the report family;
* :mod:`repro.check.subjects` — what a schedule replays on, and the
  configuration each command runs:

  - ``repro check``: the engine, or with ``--service`` the healthy
    service, against a from-scratch build after every step;
  - ``repro check --tiers``: patch, memo and full engines, the fast
    tiers against the full-tier subject after every step;
  - ``repro chaos``: the faulted service, against a from-scratch build
    once the fault plan has run;
  - ``repro cluster``: the faulted multi-tenant cluster, every tenant
    against a from-scratch build at the end;
  - clean dispatch (``repro check`` and ``repro partisan``): the
    clean-pinned variant image against the uninstrumented baseline;

* :mod:`repro.check.faults` — persistent-cache faults (truncated
  objects, torn writes, corrupt/stale index) must degrade to a miss;
* :mod:`repro.check.invariants` — direct checks of the scheduler's
  stage-3 back propagation and content-key determinism.
"""

from repro.check.faults import run_fault_checks
from repro.check.invariants import (
    RecordingCache,
    check_backpropagation,
    check_content_key_determinism,
    run_invariant_checks,
)
from repro.check.oracle import (
    DifferentialOracle,
    Outcome,
    Replay,
    Report,
    Step,
    compare,
)
from repro.check.schedules import (
    FAULT_KINDS,
    STEP_DISABLE,
    STEP_ENABLE,
    STEP_KINDS,
    STEP_PRUNE,
    STEP_REMOVE,
    FaultEvent,
    ProbeSchedule,
    ScheduleStep,
    generate_chaos_schedules,
    generate_cluster_chaos_schedules,
    generate_schedules,
    pick_targets,
)
from repro.check.subjects import (
    check_clean_dispatch,
    chaos_replay,
    cluster_replay,
    rebuild_replay,
    tier_replay,
)

__all__ = [
    "DifferentialOracle",
    "FAULT_KINDS",
    "FaultEvent",
    "Outcome",
    "ProbeSchedule",
    "RecordingCache",
    "Replay",
    "Report",
    "STEP_DISABLE",
    "STEP_ENABLE",
    "STEP_KINDS",
    "STEP_PRUNE",
    "STEP_REMOVE",
    "ScheduleStep",
    "Step",
    "chaos_replay",
    "check_backpropagation",
    "check_clean_dispatch",
    "check_content_key_determinism",
    "cluster_replay",
    "compare",
    "generate_chaos_schedules",
    "generate_cluster_chaos_schedules",
    "generate_schedules",
    "pick_targets",
    "rebuild_replay",
    "run_fault_checks",
    "run_invariant_checks",
    "tier_replay",
]
