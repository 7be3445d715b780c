"""VM-side profiling runtime: shadow call stack + call-path tree.

``__odin_prof_enter``/``__odin_prof_exit`` events drive a shadow stack
whose frames carry the VM's deterministic cycle counter at entry.  On
exit the frame's inclusive cycles (everything since entry) and exclusive
cycles (inclusive minus instrumented callees) are folded into

* per-symbol :class:`FunctionStats` (the flat profile),
* a :class:`PathNode` context tree (the call-path profile; exported as
  an :class:`~repro.obs.tracer.Span` tree for Chrome traces),
* caller -> callee edge counts.

Partial instrumentation is the normal case here — the overhead
controller de-instruments hot symbols mid-run — so the stack tolerates
missing frames: an uninstrumented callee simply attributes its cycles to
the nearest instrumented ancestor's exclusive time, and a :class:`VMTrap`
that aborts mid-call leaves frames that :meth:`finish_execution` unwinds
against the execution's final cycle count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.backend.costmodel import PROBE_COST
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Span
from repro.vm.interpreter import ProbeRuntime, VM

#: Modelled per-event cycle cost of the profiling probes; the controller
#: uses these for exact per-symbol overhead attribution.
PROF_ENTER_COST = PROBE_COST["prof_enter"]
PROF_EXIT_COST = PROBE_COST["prof_exit"]

ROOT_SYMBOL = "<root>"

#: Span category for profiling call-path trees.
CAT_PROFILE = "profile"


@dataclass
class FunctionStats:
    """Flat per-symbol profile."""

    symbol: str
    calls: int = 0
    incl_cycles: int = 0
    excl_cycles: int = 0


@dataclass
class PathNode:
    """One node of the call-path (context) tree."""

    symbol: str
    calls: int = 0
    incl_cycles: int = 0
    excl_cycles: int = 0
    children: Dict[str, "PathNode"] = field(default_factory=dict)

    def child(self, symbol: str) -> "PathNode":
        node = self.children.get(symbol)
        if node is None:
            node = self.children[symbol] = PathNode(symbol)
        return node

    def walk(self):
        yield self
        for child in self.children.values():
            yield from child.walk()


@dataclass
class _Frame:
    symbol: str
    entry_cycles: int
    node: PathNode
    child_incl: int = 0


class ProfilingRuntime(ProbeRuntime):
    """Receives prof_enter/prof_exit events; aggregates the profile."""

    def __init__(self, metrics: Optional[MetricsRegistry] = None):
        self.metrics = metrics
        # Probe id -> (symbol, "enter"|"exit"), registered by the tool.
        self.symbol_of: Dict[int, str] = {}
        self.kind_of: Dict[int, str] = {}
        # Aggregates.
        self.stats: Dict[str, FunctionStats] = {}
        self.edges: Dict[Tuple[str, str], int] = {}
        self.root = PathNode(ROOT_SYMBOL)
        # Per-probe event counts since the last sync (profile_counts).
        self.events: Dict[int, int] = {}
        # Lifetime per-symbol [enter, exit] event counts — the exact
        # per-symbol overhead ledger the controller windows over.
        self.symbol_events: Dict[str, List[int]] = {}
        self._stack: List[_Frame] = []

    # -- registration (tool-side) ----------------------------------------------

    def register_probe(self, probe_id: int, symbol: str, kind: str) -> None:
        self.symbol_of[probe_id] = symbol
        self.kind_of[probe_id] = kind

    # -- event handling ---------------------------------------------------------

    def on_probe(
        self, kind: str, probe_id: int, args: Tuple[int, ...], vm: VM
    ) -> None:
        if kind == "prof_enter":
            self._on_enter(probe_id, vm.cycles)
        elif kind == "prof_exit":
            self._on_exit(probe_id, vm.cycles)

    def _on_enter(self, probe_id: int, cycles: int) -> None:
        symbol = self.symbol_of.get(probe_id)
        if symbol is None:
            return
        self.events[probe_id] = self.events.get(probe_id, 0) + 1
        self.symbol_events.setdefault(symbol, [0, 0])[0] += 1
        caller = self._stack[-1].symbol if self._stack else ROOT_SYMBOL
        self.edges[(caller, symbol)] = self.edges.get((caller, symbol), 0) + 1
        parent_node = self._stack[-1].node if self._stack else self.root
        node = parent_node.child(symbol)
        node.calls += 1
        self._flat(symbol).calls += 1
        self._stack.append(_Frame(symbol, cycles, node))

    def _on_exit(self, probe_id: int, cycles: int) -> None:
        symbol = self.symbol_of.get(probe_id)
        if symbol is None:
            return
        self.events[probe_id] = self.events.get(probe_id, 0) + 1
        self.symbol_events.setdefault(symbol, [0, 0])[1] += 1
        # Normally the exit matches the top frame.  A mismatch means
        # intervening frames never saw their exit (callee trapped and was
        # caught upstream, or probes flipped mid-window): unwind down to
        # the matching frame, attributing each abandoned frame up to now.
        if not any(frame.symbol == symbol for frame in self._stack):
            return  # enter was not recorded (flipped mid-call); drop
        while self._stack and self._stack[-1].symbol != symbol:
            self._retire(self._stack.pop(), cycles)
        if self._stack:
            self._retire(self._stack.pop(), cycles)

    def finish_execution(self, final_cycles: int) -> None:
        """Unwind frames an aborted execution (VMTrap/exit) left behind."""
        while self._stack:
            self._retire(self._stack.pop(), final_cycles)

    def _retire(self, frame: _Frame, cycles: int) -> None:
        incl = max(0, cycles - frame.entry_cycles)
        excl = max(0, incl - frame.child_incl)
        stats = self._flat(frame.symbol)
        stats.incl_cycles += incl
        stats.excl_cycles += excl
        frame.node.incl_cycles += incl
        frame.node.excl_cycles += excl
        if self._stack:
            self._stack[-1].child_incl += incl
        if self.metrics is not None:
            self.metrics.observe(f"profile.call.{frame.symbol}", float(incl))

    def _flat(self, symbol: str) -> FunctionStats:
        stats = self.stats.get(symbol)
        if stats is None:
            stats = self.stats[symbol] = FunctionStats(symbol)
        return stats

    # -- the profile-sync hooks -------------------------------------------------

    def event_counts(self) -> Dict[int, int]:
        return dict(self.events)

    def clear_event_counts(self) -> None:
        self.events.clear()

    # -- overhead accounting ----------------------------------------------------

    def symbol_overhead_cycles(self) -> Dict[str, int]:
        """Lifetime probe-event cycles charged per symbol (exact: the
        cost model prices every prof event deterministically)."""
        return {
            symbol: enters * PROF_ENTER_COST + exits * PROF_EXIT_COST
            for symbol, (enters, exits) in self.symbol_events.items()
        }

    def overhead_cycles(self) -> int:
        return sum(self.symbol_overhead_cycles().values())

    # -- export -----------------------------------------------------------------

    def publish(self, metrics: Optional[MetricsRegistry] = None) -> None:
        """Push the aggregate profile into a metrics registry as gauges."""
        metrics = metrics if metrics is not None else self.metrics
        if metrics is None:
            return
        for symbol, stats in self.stats.items():
            metrics.set_gauge(f"profile.calls.{symbol}", float(stats.calls))
            metrics.set_gauge(
                f"profile.incl_cycles.{symbol}", float(stats.incl_cycles)
            )
            metrics.set_gauge(
                f"profile.excl_cycles.{symbol}", float(stats.excl_cycles)
            )

    def span_tree(self, name: str = "profile") -> Span:
        """The context tree as a span tree (1 simulated ms == 1 cycle).

        Children tile their parent sequentially — the tree is a call-path
        *aggregate*, not a timeline, but the layout keeps every child
        inside its parent so Chrome trace viewers render the nesting.
        """

        def build(node: PathNode, start: float) -> Span:
            span = Span(
                node.symbol,
                cat=CAT_PROFILE,
                sim_start_ms=start,
                sim_ms=float(node.incl_cycles),
                args={
                    "calls": node.calls,
                    "excl_cycles": node.excl_cycles,
                },
            )
            cursor = start
            for child in node.children.values():
                span.add(build(child, cursor))
                cursor += float(child.incl_cycles)
            return span

        total = float(sum(c.incl_cycles for c in self.root.children.values()))
        root = Span(
            name,
            cat=CAT_PROFILE,
            sim_start_ms=0.0,
            sim_ms=total,
            args={"symbols": len(self.stats)},
        )
        cursor = 0.0
        for child in self.root.children.values():
            root.add(build(child, cursor))
            cursor += float(child.incl_cycles)
        return root

    def clear(self) -> None:
        """Reset every aggregate (not the probe registrations)."""
        self.stats.clear()
        self.edges.clear()
        self.root = PathNode(ROOT_SYMBOL)
        self.events.clear()
        self.symbol_events.clear()
        self._stack.clear()
