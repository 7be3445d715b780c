"""repro.variants — run-time partitioned sanitization.

PartiSan-style co-resident variants on top of Odin's fragment engine:
every function exists once per variant family (clean / coverage /
sanitized) inside one merged image, a seeded selector routes each call,
and a budget controller holds a target slowdown by shifting the mix and
de-instrumenting persistently hot functions with on-the-fly fragment
recompiles.
"""

from repro.variants.builder import FamilyBuild, VariantBuilder
from repro.variants.dispatch import (
    MODE_PER_CALL,
    MODE_PER_EXECUTION,
    VariantSelector,
)
from repro.variants.runner import (
    MixActuator,
    PartisanReport,
    run_partisan,
)
from repro.variants.spec import (
    FAMILY_CLEAN,
    FAMILY_COVERAGE,
    FAMILY_SANITIZED,
    VariantFamily,
    VariantSpec,
    default_spec,
)

__all__ = [
    "FAMILY_CLEAN", "FAMILY_COVERAGE", "FAMILY_SANITIZED", "FamilyBuild",
    "MixActuator", "MODE_PER_CALL", "MODE_PER_EXECUTION",
    "PartisanReport",
    "VariantBuilder", "VariantFamily", "VariantSelector", "VariantSpec",
    "default_spec", "run_partisan",
]
