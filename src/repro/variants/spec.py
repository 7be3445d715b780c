"""Variant families for run-time partitioned sanitization.

PartiSan's premise (Lettner et al., see PAPERS.md): instead of deciding
at build time whether a binary is sanitized, compile *every* function in
several co-resident variants and choose between them at run time.  A
:class:`VariantSpec` enumerates the families to build; each family is a
recipe turning one :class:`~repro.core.engine.Odin` engine into an
instrumented (or deliberately uninstrumented) build of the same program:

* ``clean`` — no probes at all; the behaviour/performance baseline and
  the family hot functions are steered to when the overhead budget is
  spent;
* ``coverage`` — OdinCov block probes (cheap, always useful signal);
* ``sanitized`` — ASan access checks plus UBSan overflow checks, both in
  recording mode (``trap=False`` by default) so a finding is logged
  instead of killing the "production" run.

Families are data, not subclasses: a :class:`VariantFamily` bundles a
name, an initial dispatch weight, and an installer returning the probe
tools it planted.  Anything satisfying
:class:`~repro.instrument.base.SanitizerTool` slots in, so adding a
fourth family (e.g. cmplog) is one table entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.core.engine import Odin
from repro.instrument.base import SanitizerTool

FAMILY_CLEAN = "clean"
FAMILY_COVERAGE = "coverage"
FAMILY_SANITIZED = "sanitized"

#: (engine, trap) -> probe tools installed on the engine (not yet built).
ToolInstaller = Callable[[Odin, bool], List[SanitizerTool]]


def _install_clean(engine: Odin, trap: bool) -> List[SanitizerTool]:
    return []


def _install_coverage(engine: Odin, trap: bool) -> List[SanitizerTool]:
    from repro.instrument.coverage import OdinCov

    tool = OdinCov(engine, prune=False)  # the controller flips, never prunes
    tool.add_all_block_probes()
    return [tool]


def _install_sanitized(engine: Odin, trap: bool) -> List[SanitizerTool]:
    from repro.instrument.asan import ASanTool
    from repro.instrument.ubsan import UBSanTool

    asan = ASanTool(engine, trap=trap)
    asan.add_all_access_probes()
    ubsan = UBSanTool(engine, trap=trap)
    ubsan.add_all_overflow_probes()
    return [asan, ubsan]


@dataclass(frozen=True)
class VariantFamily:
    """One co-resident build flavour of the whole program."""

    name: str
    #: Initial share in the dispatch mix (relative weight, normalized by
    #: the selector).
    weight: float
    #: Whether the family carries probes.  Only instrumented families are
    #: scaled by the budget controller; the clean family absorbs whatever
    #: share they give up.
    instrumented: bool
    installer: ToolInstaller

    def install(self, engine: Odin, *, trap: bool = False) -> List[SanitizerTool]:
        """Plant this family's probes on *engine*; returns the tools."""
        return self.installer(engine, trap)


@dataclass(frozen=True)
class VariantSpec:
    """The set of families one partitioned-sanitization image carries."""

    families: Tuple[VariantFamily, ...]
    #: Family linked at offset 0 of the merged image — the one an
    #: undirected call lands on and the behaviour baseline.
    default: str = FAMILY_CLEAN

    def __post_init__(self):
        if not self.families:
            raise ValueError("VariantSpec needs at least one family")
        names = [f.name for f in self.families]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate family names: {names}")
        if self.default not in names:
            raise ValueError(
                f"default family {self.default!r} not in {names}"
            )
        for family in self.families:
            if family.weight < 0:
                raise ValueError(
                    f"family {family.name!r} has negative weight {family.weight}"
                )

    def initial_mix(self) -> Dict[str, float]:
        """Starting dispatch weights, family name -> weight."""
        return {f.name: f.weight for f in self.families}


def default_spec(
    *,
    clean_weight: float = 0.5,
    coverage_weight: float = 0.2,
    sanitized_weight: float = 0.3,
) -> VariantSpec:
    """The stock three-family spec: clean / coverage / sanitized."""
    return VariantSpec(
        families=(
            VariantFamily(FAMILY_CLEAN, clean_weight, False, _install_clean),
            VariantFamily(
                FAMILY_COVERAGE, coverage_weight, True, _install_coverage
            ),
            VariantFamily(
                FAMILY_SANITIZED, sanitized_weight, True, _install_sanitized
            ),
        ),
        default=FAMILY_CLEAN,
    )
