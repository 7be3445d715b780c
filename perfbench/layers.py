"""Per-layer tracing for the benchmark, done from outside the program.

:class:`LayerTracer` wraps the public entry point of every layer the
benchmark measures (Score-P style: each region is timed from its entry
and exit, never from inside) and restores the originals on exit.  The
wrappers are installed on the defining module *and* on every loaded
``repro`` module that bound the same object at import time (``engine.py``
imports ``optimize``, ``lower_module``, ``link`` ...); a wrapper on the
defining module alone would read zero for those call sites.

Time accounting.  Every wrapped call opens a frame on a per-thread stack.
A layer's busy time is the wall time of its calls minus the time of the
wrapped calls of *other* layers nested inside them; a call nested
directly in a call of the same layer is already part of the outer one.
Sub-layers (``opt.pass.<name>``) also get their own self time while
still counting towards their parent layer (``opt``).  Work done on a
service dispatcher thread is attributed there, and the client-side
``ClusterClient.rebuild`` frame subtracts it (plus the queue wait), so
``cluster.route.busy_ms`` is the router's own share of a reply.

Every number is kept per program (the benchmark names the program its
client is working on; service threads take it from the target name).
The sim-vs-real calibration table reads both of its columns from the
span tree the engine attaches to each ``RebuildReport``: every span
carries the cost model's simulated ms and the real ms the engine
measured for the same work.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

PASS_NAMES = (
    "mem2reg", "internalize", "early-cse", "instcombine", "simplifycfg",
    "inline", "dae", "jump-threading", "loop-unroll", "dce", "globaldce",
)
PASS_CLASSES = (
    ("repro.opt.mem2reg", "PromoteMem2Reg"),
    ("repro.opt.internalize", "Internalize"),
    ("repro.opt.cse", "EarlyCSE"),
    ("repro.opt.instcombine", "InstCombine"),
    ("repro.opt.simplifycfg", "SimplifyCFG"),
    ("repro.opt.inline", "FunctionInlining"),
    ("repro.opt.dae", "DeadArgumentElimination"),
    ("repro.opt.jump_threading", "JumpThreading"),
    ("repro.opt.loop_unroll", "LoopUnroll"),
    ("repro.opt.dce", "DeadCodeElimination"),
    ("repro.opt.internalize", "GlobalDCE"),
)
TIERS = ("full", "memo", "cache", "patch", "noop")

# (defining module, function, layer)
FUNCTIONS = (
    ("repro.frontend.codegen", "compile_source", "frontend"),
    ("repro.core.partition", "partition", "core.partition"),
    ("repro.core.engine", "compile_fragment", "core.engine"),
    ("repro.ir.printer", "print_module", "ir.print"),
    ("repro.ir.parser", "parse_module", "ir.parse"),
    ("repro.ir.verifier", "verify_module", "ir.verify"),
    ("repro.ir.clone", "extract_module", "ir.clone"),
    ("repro.ir.clone", "extract_module_ex", "ir.clone"),
    ("repro.opt.pipeline", "optimize", "opt"),
    ("repro.backend.isel", "lower_module", "backend.isel"),
    ("repro.backend.patching", "toggle_object", "backend.patching"),
    ("repro.linker.linker", "link", "linker.link"),
    ("repro.linker.linker", "patch_image", "linker.patch_image"),
)
# (defining module, class, method, layer); layer None = count only.
METHODS = (
    ("repro.core.manager", "PatchManager", "schedule", "core.schedule"),
    ("repro.core.scheduler", "Scheduler", "apply_probes", "core.scheduler"),
    ("repro.core.scheduler", "Scheduler", "rebuild", "core.scheduler"),
    ("repro.core.engine", "Odin", "rebuild", "core.engine"),
    ("repro.core.engine", "Odin", "rebuild_if_needed", "core.engine"),
    # The engine body runs under Scheduler.rebuild; wrapping it keeps the
    # scheduler's share apart from the engine's.
    ("repro.core.engine", "Odin", "_rebuild_from", "core.engine"),
    ("repro.core.engine", "Odin", "_noop_rebuild", "core.engine"),
    ("repro.linker.cache", "LinkCache", "get", "linker.cache"),
    ("repro.vm.interpreter", "VM", "run", "vm"),
    ("repro.instrument.coverage", "CoverageRuntime", "on_probe", None),
    ("repro.instrument.coverage", "OdinCov", "prune_covered", "instrument.prune"),
    ("repro.fuzz.mutator", "Mutator", "mutate", "fuzz.mutator"),
    ("repro.fuzz.corpus", "Corpus", "consider", "fuzz.corpus"),
    ("repro.fuzz.corpus", "Corpus", "pick", "fuzz.corpus"),
    ("repro.fuzz.executor", "OdinCovExecutor", "execute", "fuzz.executor"),
    ("repro.service.server", "RecompilationService", "_execute_batch", "service"),
    ("repro.cluster.router", "CompileCluster", "register_target", "cluster.register"),
    ("repro.cluster.client", "ClusterClient", "rebuild", "cluster.route"),
)

ALL = "*"  # program key of the whole-run totals


class _Frame:
    __slots__ = ("layer", "family", "start", "child", "mark")

    def __init__(self, layer: str, family: str, mark: float):
        self.layer = layer
        self.family = family
        # Service time accrued on other threads when the frame opened.
        self.mark = mark
        self.child = 0.0
        self.start = time.perf_counter()


def _repro_modules() -> List[object]:
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _unwrapped(cls, name: str):
    """*cls*'s own or inherited attribute, minus any wrapper of ours."""
    fn = getattr(cls, name)
    return getattr(fn, "__wrapped__", fn)


def _family(layer: str) -> str:
    return "opt" if layer.startswith("opt.pass.") else layer


class LayerTracer:
    """Installs the layer wrappers and accumulates what they record."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        # (name, program) -> value; names are layer busy times (ms),
        # call counts ("<layer>#calls") and counters.
        self.values: Dict[Tuple[str, str], float] = defaultdict(float)
        # (layer, program) -> [real ms, simulated ms] inside engine
        # rebuilds, both read off the rebuild's span tree.
        self.calibration: Dict[Tuple[str, str], List[float]] = defaultdict(lambda: [0.0, 0.0])
        self._service_inclusive_ms = 0.0
        self._service_in_flight = 0
        self._restore: List[Tuple[object, str, object, bool]] = []
        self._originals: Dict[int, object] = {}  # id(wrapper) -> original

    # -- context ----------------------------------------------------------------

    @property
    def program(self) -> str:
        return getattr(self._local, "program", "-")

    @contextmanager
    def working_on(self, program: str):
        """Attribute everything this thread does meanwhile to *program*."""
        previous = self.program
        self._local.program = program
        try:
            yield
        finally:
            self._local.program = previous

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, amount: float) -> None:
        with self._lock:
            self.values[(name, self.program)] += amount

    # -- installation -----------------------------------------------------------

    def install(self) -> "LayerTracer":
        if self._restore:
            return self  # already installed
        for module_name, attr, layer in FUNCTIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            wrapper = self._wrap(original, layer, _HOOKS.get((attr, layer)))
            self._originals[id(wrapper)] = original
            for loaded in _repro_modules():
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._set(loaded, key, wrapper)
        for module_name, cls_name, method, layer in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = _unwrapped(cls, method)
            hook = _HOOKS.get((method, layer or cls_name))
            if layer is None:
                wrapper = self._count_only(original, hook)
            else:
                wrapper = self._wrap(original, layer, hook)
            self._set(cls, method, wrapper)
        for module_name, cls_name in PASS_CLASSES:
            cls = getattr(importlib.import_module(module_name), cls_name)
            layer = f"opt.pass.{cls.name}"
            self._set(cls, "run", self._wrap(_unwrapped(cls, "run"), layer, _count_pass))
        return self

    def uninstall(self) -> None:
        for owner, key, original, owned in reversed(self._restore):
            if owned:
                setattr(owner, key, original)
            else:
                delattr(owner, key)
        self._restore.clear()
        # Modules first imported while tracing bound a wrapper by name.
        for loaded in _repro_modules():
            for key, value in list(vars(loaded).items()):
                original = self._originals.get(id(value))
                if original is not None and getattr(value, "__wrapped__", None) is original:
                    setattr(loaded, key, original)
        self._originals.clear()

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _set(self, owner, key: str, wrapper) -> None:
        owned = key in vars(owner)
        self._restore.append((owner, key, vars(owner).get(key), owned))
        setattr(owner, key, wrapper)

    def _wrap(self, fn, layer: str, hook):
        tracer = self
        family = _family(layer)

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            frame = _Frame(layer, family, tracer._service_inclusive_ms)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
            elapsed = (time.perf_counter() - frame.start) * 1000.0
            if hook is not None:
                hook(tracer, frame, args, result, elapsed)
            tracer._close(frame, parent, elapsed)
            return result

        if layer == "service":
            # Dispatcher threads learn the program from the target key
            # ("tenant:program") of the batch they execute.
            timed = wrapper

            def wrapper(service, target, batch):
                with tracer._lock:
                    tracer._service_in_flight += 1
                try:
                    with tracer.working_on(target.split(":", 1)[-1]):
                        return timed(service, target, batch)
                finally:
                    with tracer._lock:
                        tracer._service_in_flight -= 1

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_only(self, fn, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(tracer, None, args, result, 0.0)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _close(self, frame: _Frame, parent: Optional[_Frame], elapsed: float) -> None:
        own = elapsed - frame.child
        program = self.program
        with self._lock:
            values = self.values
            values[(frame.layer + "#calls", program)] += 1
            if parent is None or parent.family != frame.family:
                values[(frame.family, program)] += own
                if parent is not None:
                    parent.child += elapsed
            else:
                parent.child += frame.child
            if frame.layer != frame.family:
                values[(frame.layer, program)] += own

    # -- reading ----------------------------------------------------------------

    def total(self, name: str, program: str = ALL) -> float:
        return sum(
            value for (key, prog), value in self.values.items()
            if key == name and (program == ALL or prog == program)
        )

    def calls(self, layer: str, program: str = ALL) -> int:
        return int(self.total(layer + "#calls", program))

    def programs(self) -> List[str]:
        return sorted({prog for _k, prog in self.values if prog != "-"})

    def note_calibration(self, layer: str, real_ms: float, sim_ms: float) -> None:
        with self._lock:
            cell = self.calibration[(layer, self.program)]
            cell[0] += real_ms
            cell[1] += sim_ms


# -- hooks: counters recorded where the work happens -----------------------------


def _count_pass(tracer, frame, args, result, elapsed):
    tracer.add("opt.pass_invocations", 1)


def _partition(tracer, frame, args, result, elapsed):
    tracer.add("core.partition.fragments", len(result.fragments))


def _compile_fragment(tracer, frame, args, result, elapsed):
    tracer.add("core.engine.fragments_compiled", 1)


def _lower(tracer, frame, args, result, elapsed):
    tracer.add("backend.isel.machine_insts", result.code_size)


def _rebuild_report(tracer, frame, args, report, elapsed):
    """One finished (or no-op) rebuild: tier count + real and simulated
    ms per stage, fragment and pass from the rebuild's span tree."""
    tracer.add(f"core.engine.tier.{report.tier}", 1)
    root = report.trace
    if root is None:
        return
    note = tracer.note_calibration
    note("core.engine.rebuild", root.real_ms, root.sim_ms)
    patch_only = bool(report.fragment_tiers) and all(
        tier == "patch" for tier in report.fragment_tiers.values()
    )
    for stage in root.children:
        if stage.name == "link":
            note("linker.patch_image" if patch_only else "linker.link", stage.real_ms, stage.sim_ms)
        if stage.name != "compile":
            continue
        if patch_only:
            # Patched fragments carry no real time of their own; the
            # compile stage holds the patching of all of them.
            note("backend.patching", stage.real_ms, stage.sim_ms)
            continue
        for fragment in stage.children:
            phases = {phase.name: phase for phase in fragment.children}
            if "optimize" not in phases:
                continue  # cache hit or patched fragment
            passes = phases["optimize"].children
            passes_real = sum(span.real_ms for span in passes)
            note("opt", passes_real, phases["optimize"].sim_ms)
            for span in passes:
                note(f"opt.pass.{span.name}", span.real_ms, span.sim_ms)
            # The rest of the fragment's compile: canonicalization,
            # verification and isel, which the cost model prices as isel.
            note("backend.isel+ir", fragment.real_ms - passes_real, phases["isel"].sim_ms)


def _vm_run(tracer, frame, args, result, elapsed):
    tracer.add("vm.steps", result.steps)


def _on_probe(tracer, frame, args, result, elapsed):
    tracer.add("vm.probe_hits", 1)


def _link_cache(tracer, frame, args, result, elapsed):
    if result is not None:
        tracer.add("linker.cache.hits", 1)


def _prune(tracer, frame, args, result, elapsed):
    tracer.add("instrument.probes_pruned", result.pruned)


def _consider(tracer, frame, args, result, elapsed):
    if result is not None:
        tracer.add("fuzz.corpus.kept", 1)


def _execute(tracer, frame, args, result, elapsed):
    tracer.add("fuzz.executions", 1)


def _service_batch(tracer, frame, args, result, elapsed):
    with tracer._lock:
        tracer._service_inclusive_ms += elapsed


def _route(tracer, frame, args, reply, elapsed):
    # The reply was computed on a dispatcher thread: take that work and
    # the queue wait out of the client frame's own time.  The reply wakes
    # the client before the dispatcher's wrapper has booked the batch.
    deadline = time.monotonic() + 1.0
    while tracer._service_in_flight and time.monotonic() < deadline:
        time.sleep(0)
    service_ms = tracer._service_inclusive_ms - frame.mark
    frame.child += service_ms + reply.queue_wait_ms
    tracer.add("service.queue_wait_ms", reply.queue_wait_ms)


_HOOKS = {
    ("partition", "core.partition"): _partition,
    ("compile_fragment", "core.engine"): _compile_fragment,
    ("lower_module", "backend.isel"): _lower,
    ("_rebuild_from", "core.engine"): _rebuild_report,
    ("_noop_rebuild", "core.engine"): _rebuild_report,
    ("run", "vm"): _vm_run,
    ("on_probe", "CoverageRuntime"): _on_probe,
    ("get", "linker.cache"): _link_cache,
    ("prune_covered", "instrument.prune"): _prune,
    ("consider", "fuzz.corpus"): _consider,
    ("execute", "fuzz.executor"): _execute,
    ("_execute_batch", "service"): _service_batch,
    ("rebuild", "cluster.route"): _route,
}
