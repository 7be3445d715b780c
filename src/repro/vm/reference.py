"""The reference VM: one instruction at a time, for differential tests only.

:class:`ReferenceVM` is the straightforward interpreter the fast path in
:mod:`repro.vm.translate` must match bit for bit: it decodes every
instruction as it reaches it, charges one step and the instruction's
cycles before executing it, checks ``max_steps`` on every step and
evaluates arithmetic through :mod:`repro.ir.semantics`.  It shares
everything else (memory, builtins, ``run``) with :class:`VM`.

Nothing in production selects it: the tests in ``tests/vm`` and the
selffuzz harness run programs on both VMs and compare exit code, stdout,
cycles, steps, trap, memory and runtime state.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

from repro.errors import VMError, VMTrap
from repro.ir.semantics import eval_binary, eval_cast, eval_icmp
from repro.ir.types import IntType
from repro.vm.interpreter import VM


@lru_cache(maxsize=None)
def _decode(op: str) -> tuple:
    """Split an op string into its head and typed operands."""
    parts = op.split(".")
    head = parts[0]
    if head in ("bin", "bini", "cmp", "cmpi"):
        return (head, parts[1], IntType(int(parts[2])))
    if head == "cast":
        return (head, parts[1], IntType(int(parts[2])), IntType(int(parts[3])))
    if head in ("ld", "st"):
        return (head, int(parts[1]) // 8)
    return (head,)


class ReferenceVM(VM):
    """The per-instruction interpreter loop (the fast path's oracle)."""

    def _prepare(self) -> None:
        """Nothing to translate."""

    def _load_int(self, addr: int, size: int) -> int:
        self._check_range(addr, size, write=False)
        return int.from_bytes(self.memory[addr : addr + size], "little")

    def _store_int(self, addr: int, size: int, value: int) -> None:
        self._check_range(addr, size, write=True)
        self.memory[addr : addr + size] = (value & ((1 << (8 * size)) - 1)).to_bytes(
            size, "little"
        )

    def _invoke(self, func_index: int, args: Tuple[int, ...]) -> int:
        """Execute one function to completion; recursion implements calls."""
        if self.variant_selector is not None:
            func_index = self._route(func_index)
        lf = self.exe.functions[func_index]
        mf = lf.mf

        regs: List[int] = [0] * max(mf.num_regs, len(args))
        for i, value in enumerate(args):
            if i < mf.num_regs:
                regs[i] = value
        frame_base = self.stack_ptr - mf.frame_size
        if frame_base < self.heap_ptr + 0x1000:
            raise VMTrap("stack overflow", "stack-overflow")
        saved_sp = self.stack_ptr
        self.stack_ptr = frame_base

        insts = mf.insts
        resolution = lf.resolution
        pc = 0
        n = len(insts)
        try:
            while pc < n:
                inst = insts[pc]
                self.steps += 1
                if self.steps > self.max_steps:
                    raise VMError(
                        f"execution exceeded {self.max_steps} steps in @{mf.name}"
                    )
                self.cycles += inst.cost
                dec = _decode(inst.op)
                head = dec[0]

                if head == "bb":
                    if self.block_hook is not None:
                        self.block_hook(func_index, inst.imm)
                    self.cycles += self.block_tax
                    pc += 1
                elif head == "movi":
                    regs[inst.dst] = inst.imm
                    pc += 1
                elif head in ("mov", "freeze"):
                    regs[inst.dst] = regs[inst.srcs[0]]
                    pc += 1
                elif head in ("bin", "bini"):
                    b = regs[inst.srcs[1]] if head == "bin" else inst.imm
                    try:
                        regs[inst.dst] = eval_binary(dec[1], dec[2], regs[inst.srcs[0]], b)
                    except ZeroDivisionError:
                        raise VMTrap("integer division by zero", "div-by-zero")
                    pc += 1
                elif head in ("cmp", "cmpi"):
                    b = regs[inst.srcs[1]] if head == "cmp" else inst.imm
                    regs[inst.dst] = eval_icmp(dec[1], dec[2], regs[inst.srcs[0]], b)
                    pc += 1
                elif head == "cast":
                    regs[inst.dst] = eval_cast(dec[1], dec[2], dec[3], regs[inst.srcs[0]])
                    pc += 1
                elif head == "sel":
                    c, a, b = inst.srcs
                    regs[inst.dst] = regs[a] if regs[c] else regs[b]
                    pc += 1
                elif head == "ld":
                    regs[inst.dst] = self._load_int(regs[inst.srcs[0]], dec[1])
                    pc += 1
                elif head == "st":
                    self._store_int(regs[inst.srcs[0]], dec[1], regs[inst.srcs[1]])
                    pc += 1
                elif head == "addsc":
                    base, index = inst.srcs
                    idx = regs[index]
                    if idx >= 1 << 63:  # negative index in unsigned rep
                        idx -= 1 << 64
                    regs[inst.dst] = (regs[base] + idx * inst.imm) & ((1 << 64) - 1)
                    pc += 1
                elif head == "lea":
                    kind, value = resolution[inst.sym]
                    if kind == "data":
                        regs[inst.dst] = value
                    elif kind == "func":
                        regs[inst.dst] = self.exe.function_address(value)
                    else:
                        raise VMTrap(f"cannot take address of builtin {value}", "bad-call")
                    pc += 1
                elif head == "leaf":
                    regs[inst.dst] = frame_base + inst.imm
                    pc += 1
                elif head == "jmp":
                    pc = inst.targets[0]
                elif head == "brt":
                    pc = inst.targets[0] if regs[inst.srcs[0]] else inst.targets[1]
                elif head == "switch":
                    value = regs[inst.srcs[0]]
                    signed = value - (1 << 64) if value >= 1 << 63 else value
                    target = inst.targets[0]
                    for case_value, case_target in inst.table:
                        if case_value == signed or case_value == value:
                            target = case_target
                            break
                    pc = target
                elif head == "call":
                    kind, value = resolution[inst.sym]
                    call_args = tuple(regs[r] for r in inst.args)
                    if kind == "func":
                        result = self._invoke(value, call_args)
                    elif kind == "builtin":
                        result = self.builtins.call(self, value, call_args)
                    else:
                        raise VMTrap(f"call to data symbol @{inst.sym}", "bad-call")
                    if inst.dst >= 0:
                        regs[inst.dst] = result
                    pc += 1
                elif head == "icall":
                    target_index = self.exe.index_from_address(regs[inst.srcs[0]])
                    call_args = tuple(regs[r] for r in inst.args)
                    result = self._invoke(target_index, call_args)
                    if inst.dst >= 0:
                        regs[inst.dst] = result
                    pc += 1
                elif head == "probe":
                    if self.probe_runtime is not None:
                        self.probe_runtime.on_probe(
                            inst.probe_kind,
                            inst.probe_id,
                            tuple(regs[r] for r in inst.args),
                            self,
                        )
                    pc += 1
                elif head == "ret":
                    return regs[inst.srcs[0]] if inst.srcs else 0
                elif head == "trap":
                    raise VMTrap(f"unreachable executed in @{mf.name}", "unreachable")
                else:
                    raise VMError(f"unknown machine op {inst.op!r}")
            raise VMTrap(f"fell off the end of @{mf.name}", "bad-code")
        finally:
            self.stack_ptr = saved_sp
