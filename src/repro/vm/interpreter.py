"""The virtual machine: executes linked executables with cycle accounting.

This stands in for the paper's hardware: every figure that reports
"execution duration" reports :attr:`ExecutionResult.cycles` from this
VM.  Determinism is total — same executable, same input, same cycle
count.

Execution does not interpret instruction by instruction.  The first call
of each linked function translates it into one Python function
(:mod:`repro.vm.translate`), cached on the function object and shared by
every VM over the same image; steps and cycles are charged once per
straight-line segment, with fix-ups that keep them exact at every point
where a runtime, hook or error can observe them.
:class:`repro.vm.reference.ReferenceVM` is the per-instruction loop the
translations must match bit for bit; only tests and the selffuzz harness
run it.

Instrumentation hooks:

* ``probe`` instructions dispatch to a :class:`ProbeRuntime` (compiler-
  based instrumentation: OdinCov, SanitizerCoverage analogue, CmpLog...)
  through ``on_probe(kind, id, args, vm)``;
* ``bb`` markers optionally invoke a ``block_hook`` and charge
  ``block_tax`` extra cycles — that is how the DynamoRIO/DynInst-style
  *binary* instrumentation baselines are modelled: they pay per-block
  dispatch/trampoline overhead on top of the native code.
* a ``variant_selector`` routes every call through a
  :class:`~repro.linker.variants.VariantExecutable`'s per-function
  dispatch table (run-time partitioned sanitization): the selector picks
  which co-resident sanitization family of the callee executes, charging
  ``dispatch_tax`` extra cycles per dispatched call — the PartiSan-style
  indirection cost.

These settings are read when :meth:`VM.run` starts, so they may be set
after construction (``DrCov.make_vm`` installs its hook that way).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.errors import VMError, VMTrap
from repro.linker.linker import Executable
from repro.vm.runtime import BuiltinRuntime, ExitProgram
from repro.vm.translate import translate, translation_key

MEM_SIZE = 1 << 22  # 4 MiB: data + heap + stack
DEFAULT_MAX_STEPS = 50_000_000


class ProbeRuntime:
    """Receives probe events; instrumentation schemes subclass this."""

    def on_probe(self, kind: str, probe_id: int, args: Tuple[int, ...], vm: "VM") -> None:
        """Handle one probe firing.  May raise :class:`VMTrap` to abort."""


class CompositeProbeRuntime(ProbeRuntime):
    """Fan out probe events to several runtimes (e.g. coverage + CmpLog)."""

    def __init__(self, *runtimes: ProbeRuntime):
        self.runtimes = list(runtimes)

    def on_probe(self, kind: str, probe_id: int, args: Tuple[int, ...], vm: "VM") -> None:
        for runtime in self.runtimes:
            runtime.on_probe(kind, probe_id, args, vm)


@dataclass
class ExecutionResult:
    exit_code: int = 0
    stdout: bytes = b""
    cycles: int = 0
    steps: int = 0
    trap: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.trap is None


class VM:
    """Executes a linked executable; each function runs as its translation.

    See :mod:`repro.vm.translate` for how a function is translated and how
    steps and cycles stay exact; :class:`repro.vm.reference.ReferenceVM`
    is the per-instruction loop the translations are tested against.
    """

    def __init__(
        self,
        executable: Executable,
        *,
        probe_runtime: Optional[ProbeRuntime] = None,
        block_hook: Optional[Callable[[int, int], None]] = None,
        block_tax: int = 0,
        variant_selector=None,
        dispatch_tax: int = 0,
        max_steps: int = DEFAULT_MAX_STEPS,
        mem_size: int = MEM_SIZE,
    ):
        self.exe = executable
        self.probe_runtime = probe_runtime
        self.block_hook = block_hook
        self.block_tax = block_tax
        # Run-time partitioned sanitization: every call is remapped
        # through the executable's per-function dispatch table to the
        # family the selector picks (see repro.variants.dispatch).
        if variant_selector is not None and not hasattr(executable, "dispatch"):
            raise VMError(
                "variant_selector needs a VariantExecutable with a dispatch table"
            )
        self.variant_selector = variant_selector
        self.dispatch_tax = dispatch_tax
        self.max_steps = max_steps
        self.mem_size = mem_size
        if executable.data_end + 0x10000 > mem_size:
            raise VMError("memory too small for data image")
        self.memory = bytearray(mem_size)
        self.heap_base = (executable.data_end + 0xFFF) & ~0xFFF
        self.builtins = BuiltinRuntime()
        # Translated functions by index for the current settings; picked
        # when run() starts (settings such as block_hook may be set after
        # construction).
        self._key: Optional[tuple] = None
        self._code: List[Optional[Callable]] = []
        self._on_probe: Optional[Callable] = None
        self.reset()

    # -- state management ------------------------------------------------------

    def reset(self) -> None:
        """Restore initial memory/heap state for a fresh run."""
        base = self.exe.data_base
        image = self.exe.data_image
        self.memory[base : base + len(image)] = image
        self.heap_ptr = self.heap_base
        self.stack_ptr = self.mem_size
        self.cycles = 0
        self.steps = 0
        self.builtins.reset()

    # -- memory helpers ------------------------------------------------------------

    def alloc(self, size: int) -> int:
        """Bump-allocate heap memory (used by malloc and input injection)."""
        size = max(1, (size + 7) & ~7)
        addr = self.heap_ptr
        if addr + size > self.stack_ptr - 0x10000:
            raise VMTrap("out of heap memory", "oom")
        self.heap_ptr += size
        return addr

    def write_bytes(self, addr: int, data: bytes) -> None:
        """Write *data* at *addr*, with the range and const checks of a guest store."""
        self._check_range(addr, len(data), write=True)
        self.memory[addr : addr + len(data)] = data

    def read_bytes(self, addr: int, size: int) -> bytes:
        self._check_range(addr, size, write=False)
        return bytes(self.memory[addr : addr + size])

    def read_cstring(self, addr: int, limit: int = 1 << 16) -> bytes:
        self._check_range(addr, 1, write=False)
        end = self.memory.find(b"\x00", addr, addr + limit)
        if end < 0:
            raise VMTrap(f"unterminated string at {addr:#x}", "bad-memory")
        return bytes(self.memory[addr:end])

    def _check_range(self, addr: int, size: int, write: bool) -> None:
        if addr < self.exe.data_base or addr + size > self.mem_size:
            kind = "write" if write else "read"
            raise VMTrap(f"invalid {kind} at {addr:#x} (+{size})", "bad-memory")
        if write:
            for lo, hi in self.exe.const_ranges:
                if lo <= addr < hi:
                    raise VMTrap(f"write to const data at {addr:#x}", "bad-memory")

    # -- execution -------------------------------------------------------------------

    def run(
        self,
        entry: str = "main",
        args: Tuple[int, ...] = (),
        reset: bool = True,
    ) -> ExecutionResult:
        """Run *entry* with integer/pointer arguments; returns the result.

        Pass ``reset=False`` when state was prepared beforehand (e.g. an
        input buffer injected with :meth:`alloc`/:meth:`write_bytes`) —
        a reset would reclaim that heap allocation.
        """
        if reset:
            self.reset()
        if self.variant_selector is not None:
            # Per-execution selection modes re-draw their family here.
            self.variant_selector.begin_execution()
        index = self.exe.function_index(entry)
        self._prepare()
        try:
            value = self._invoke(index, tuple(args))
            result = ExecutionResult(exit_code=value & 0xFFFFFFFF)
        except ExitProgram as exit_:
            result = ExecutionResult(exit_code=exit_.code & 0xFFFFFFFF)
        except VMTrap as trap:
            result = ExecutionResult(exit_code=-1, trap=trap.kind)
        result.stdout = self.builtins.stdout_bytes()
        result.cycles = self.cycles
        result.steps = self.steps
        return result

    def _prepare(self) -> None:
        """Pick the translations for the settings this run uses."""
        key = translation_key(self)
        if key != self._key:
            self._key = key
            self._code = self.exe.code_tables.setdefault(
                key, [None] * len(self.exe.functions)
            )
        runtime = self.probe_runtime
        self._on_probe = runtime.on_probe if runtime is not None else None

    def _invoke(self, index: int, args: Tuple[int, ...]) -> int:
        """Call function *index*, through the variant dispatch table if any."""
        if self.variant_selector is not None:
            index = self._route(index)
        return (self._code[index] or self._load(index))(self, *args)

    def _route(self, index: int) -> int:
        """The family of function *index* the variant selector picks.

        Direct calls, indirect calls and the entry point all go through
        here, so one remap covers every control transfer.
        """
        exe = self.exe
        family = self.variant_selector.select(exe.functions[index].name, exe.family_of[index])
        index = exe.dispatch(index, family)
        self.cycles += self.dispatch_tax
        return index

    def _load(self, index: int) -> Callable:
        """Translate function *index* on its first call under this key."""
        fn = translate(self.exe, index, self._key)
        self._code[index] = fn
        return fn


def run_program(
    executable: Executable,
    entry: str = "main",
    args: Tuple[int, ...] = (),
    **vm_kwargs,
) -> ExecutionResult:
    """One-shot convenience runner."""
    return VM(executable, **vm_kwargs).run(entry, args)
