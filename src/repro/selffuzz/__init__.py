"""repro.selffuzz — the toolchain turned on itself.

Composition-steered MiniC program generation (FuzzyFlow / grammar-level
composition-style testing), a differential -O0-vs--O2 harness over the
existing verifier + probe-integrity sanitizer, a dataflow-guided
auto-minimizer, and pass-level bisection.  ``repro selffuzz`` drives the
whole loop and reports per-style / per-pass bug tallies.
"""

from repro.selffuzz.generator import (
    ALL_STYLES,
    GeneratedProgram,
    ProgramGenerator,
    parse_style_mix,
)
from repro.selffuzz.harness import (
    STATUS_BACKEND,
    STATUS_DIVERGENCE,
    STATUS_FRONTEND,
    STATUS_O0_CRASH,
    STATUS_OK,
    STATUS_PASS_CRASH,
    STATUS_SANITIZER,
    STATUS_VERIFIER,
    STATUS_VM_DIVERGENCE,
    CampaignReport,
    SelfFuzzCampaign,
    SelfFuzzHarness,
    Verdict,
)
from repro.selffuzz.bisect import (
    AttributedFailure,
    BisectResult,
    apply_o2_prefix,
    bisect_divergence,
    run_o2_with_attribution,
)
from repro.selffuzz.minimize import MinimizeResult, Minimizer

__all__ = [
    "ALL_STYLES",
    "GeneratedProgram",
    "ProgramGenerator",
    "parse_style_mix",
    "STATUS_BACKEND",
    "STATUS_DIVERGENCE",
    "STATUS_FRONTEND",
    "STATUS_O0_CRASH",
    "STATUS_OK",
    "STATUS_PASS_CRASH",
    "STATUS_SANITIZER",
    "STATUS_VERIFIER",
    "STATUS_VM_DIVERGENCE",
    "CampaignReport",
    "SelfFuzzCampaign",
    "SelfFuzzHarness",
    "Verdict",
    "AttributedFailure",
    "BisectResult",
    "apply_o2_prefix",
    "bisect_divergence",
    "run_o2_with_attribution",
    "MinimizeResult",
    "Minimizer",
]
