"""Translate-once fast path: each linked function becomes one Python function.

The first time the VM calls a :class:`~repro.linker.linker.LinkedFunction`
it generates Python source for the whole function, compiles it with
:func:`compile` and caches the result on the function object
(``LinkedFunction.translations``).  Everything the per-instruction loop
of :mod:`repro.vm.reference` looks up on every step is bound into the
source instead:

* registers are Python locals (``r0``, ``r1``, ...); the ones some path
  may read before writing them are parameters defaulting to 0, which is
  exactly the zero-filled register file plus argument copy of a call;
* operand masks, widths, immediates, branch targets, frame offsets and
  symbol resolutions are literals;
* hot operations run inline; only rare ones (signed division and
  remainder, arithmetic shift, unknown opcodes) call
  :mod:`repro.ir.semantics`.

Control flow is a ``while True`` loop over a binary ``if pc < N`` tree
with one label per branch target: a branch sets ``pc`` and continues the
loop, straight-line code within a block runs without dispatch.

**Accounting.**  Steps and cycles are charged once per *segment*: a
straight-line run of instructions that ends at the first instruction
where something outside the function can observe the counters — a call,
an indirect call, a probe (when a probe runtime is installed), a ``bb``
marker (when a block hook is installed), or a terminator.  A segment is
charged at its start, so at every observation point the counters hold
what the per-instruction loop holds there.  Two fix-ups keep them exact
everywhere else:

* a trap inside a segment first takes back the charge of the segment's
  instructions after the trapping one;
* a segment whose charge would cross ``max_steps`` does not run; a
  guarded copy of just that segment (one step check per instruction,
  generated on first use) runs from the same registers instead, so the
  step-limit :class:`VMError`, and any trap that comes before it, happen
  at the same instruction as in the reference loop.

**Cache key.**  A translation depends on the function and on the VM
settings that change the generated code (:func:`translation_key`): probe
runtime installed or not, block hook installed or not, ``block_tax``,
variant selector installed or not, ``mem_size``, the image's data base
and const ranges, and, with a block hook, the function's index, which the
hook receives.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import VMError, VMTrap
from repro.ir.semantics import eval_binary, eval_cast, eval_icmp
from repro.ir.types import IntType

_M64 = (1 << 64) - 1
_HALF64 = 1 << 63

# Multi-byte little-endian accesses (widths are 8, 16, 32 or 64 bits).
_LOADS = {2: struct.Struct("<H").unpack_from, 4: struct.Struct("<I").unpack_from,
          8: struct.Struct("<Q").unpack_from}
_STORES = {2: struct.Struct("<H").pack_into, 4: struct.Struct("<I").pack_into,
           8: struct.Struct("<Q").pack_into}

_TERMINATORS = frozenset(("jmp", "brt", "switch", "ret", "trap"))
_ARITH = {"add": "+", "sub": "-", "mul": "*"}
_BITWISE = {"and": "&", "or": "|", "xor": "^"}
_CMP_OPS = {"eq": "==", "ne": "!=", "ult": "<", "ule": "<=", "ugt": ">", "uge": ">=",
            "slt": "<", "sle": "<=", "sgt": ">", "sge": ">="}
_DIVISIONS = frozenset(("udiv", "urem", "sdiv", "srem"))


def translation_key(vm) -> tuple:
    """The VM settings a translation depends on (read when ``run`` starts)."""
    exe = vm.exe
    return (
        vm.probe_runtime is not None,
        vm.block_hook is not None,
        vm.block_tax,
        vm.variant_selector is not None,
        vm.mem_size,
        exe.data_base,
        tuple(exe.const_ranges),
    )


def translate(exe, index: int, key: tuple) -> Callable:
    """The translation of ``exe.functions[index]`` under *key* (cached)."""
    lf = exe.functions[index]
    full_key = key + (index,) if key[1] else key
    fn = lf.translations.get(full_key)
    if fn is None:
        addresses = {
            value: exe.function_address(value)
            for kind, value in lf.resolution.values() if kind == "func"
        }
        spec = _Spec(lf.mf.name, lf.mf.insts, lf.mf.frame_size, lf.resolution,
                     addresses, index, key)
        fn = lf.translations.setdefault(full_key, _Translator(spec).build())
    return fn


@dataclass(frozen=True)
class _Spec:
    """Everything a translation reads; holds no reference back to the image."""

    name: str
    insts: Sequence
    frame_size: int
    resolution: Mapping[str, Tuple[str, object]]
    addresses: Mapping[int, int]  # function index -> address, for ``lea``
    index: int
    key: tuple


# -- helpers the generated code calls on cold paths -------------------------------


def _undo(vm, steps: int, cycles: int) -> None:
    vm.steps -= steps
    vm.cycles -= cycles


def _trap(vm, steps: int, cycles: int, message: str, kind: str) -> VMTrap:
    """Take back the rest of the segment's charge; the trap to raise."""
    _undo(vm, steps, cycles)
    return VMTrap(message, kind)


def _bad_access(vm, steps: int, cycles: int, write: bool, addr: int, size: int) -> VMTrap:
    kind = "write" if write else "read"
    return _trap(vm, steps, cycles, f"invalid {kind} at {addr:#x} (+{size})", "bad-memory")


def _const_write(vm, steps: int, cycles: int, addr: int) -> VMTrap:
    return _trap(vm, steps, cycles, f"write to const data at {addr:#x}", "bad-memory")


def _step_limit(vm, name: str) -> VMError:
    return VMError(f"execution exceeded {vm.max_steps} steps in @{name}")


def _switch_wide(table: Tuple[Tuple[int, int], ...], value: int, default: int) -> int:
    """Switch dispatch for a value whose signed and unsigned views differ."""
    signed = value - (1 << 64) if value >= _HALF64 else value
    for case_value, case_target in table:
        if case_value == signed or case_value == value:
            return case_target
    return default


_HELPERS = {
    "VMTrap": VMTrap, "VMError": VMError, "_undo": _undo, "_trap": _trap,
    "_bad_access": _bad_access, "_const_write": _const_write,
    "_step_limit": _step_limit, "_switch_wide": _switch_wide,
    "_eval_binary": eval_binary, "_eval_icmp": eval_icmp, "_eval_cast": eval_cast,
}


# -- control-flow analysis ------------------------------------------------------------


def _head(inst) -> str:
    return inst.op.split(".", 1)[0]


def _branch_targets(inst) -> Tuple[int, ...]:
    head = _head(inst)
    if head == "jmp":
        return (inst.targets[0],)
    if head == "brt":
        return tuple(inst.targets[:2])
    if head == "switch":
        return (inst.targets[0],) + tuple(target for _, target in inst.table)
    return ()


def _uses(inst) -> Tuple[int, ...]:
    return tuple(inst.srcs) + tuple(inst.args)


def _upward_exposed(insts) -> Set[int]:
    """Registers some path from the entry may read before writing them."""
    n = len(insts)
    live: List[Set[int]] = [set() for _ in range(n + 1)]
    changed = True
    while changed:
        changed = False
        for pc in range(n - 1, -1, -1):
            inst = insts[pc]
            head = _head(inst)
            if head in _TERMINATORS:
                succs = _branch_targets(inst)
            else:
                succs = (pc + 1,)
            out: Set[int] = set()
            for succ in succs:
                out |= live[min(max(succ, 0), n)]
            out.discard(inst.dst)
            out.update(_uses(inst))
            if out != live[pc]:
                live[pc] = out
                changed = True
    return live[0] if n else set()


# -- code generation ---------------------------------------------------------------------


class _Translator:
    """Generates and compiles the Python function for one linked function."""

    def __init__(self, spec: _Spec):
        self.spec = spec
        (self.probes, self.hooked, self.block_tax, self.dispatched,
         self.mem_size, self.data_base, self.const_ranges) = spec.key
        self.insts = spec.insts
        self.n = len(spec.insts)
        # Globals of the generated code, and the prologue's locals in use.
        self.namespace: Dict[str, object] = dict(_HELPERS, _NAME=self.spec.name)
        self._bound: Dict[tuple, str] = {}
        self.uses: Set[str] = set()
        if self.const_ranges:
            ranges = self.const_ranges
            self.const_lo = min(lo for lo, _ in ranges)
            self.const_hi = max(hi for _, hi in ranges)
            self.namespace["_in_const"] = lambda addr: any(
                lo <= addr < hi for lo, hi in ranges
            )

    def bind(self, value: object, prefix: str) -> str:
        """Make *value* a global of the generated code; returns its name."""
        key = (prefix, id(value) if isinstance(value, dict) else value)
        name = self._bound.get(key)
        if name is None:
            name = f"_{prefix}{len(self._bound)}"
            self._bound[key] = name
            self.namespace[name] = value
        return name

    def cycle_charge(self, inst) -> int:
        """Cycles charged with the instruction's own step."""
        if inst.op == "bb" and not self.hooked:
            return inst.cost + self.block_tax
        return inst.cost

    def ends_segment(self, inst) -> bool:
        head = _head(inst)
        if head in _TERMINATORS or head in ("call", "icall"):
            return True
        if head == "probe":
            return self.probes
        if head == "bb":
            return self.hooked
        return False

    def target(self, pc: int) -> int:
        """Branch target; past the end (falling off) is label ``n``."""
        return pc if 0 <= pc < self.n else self.n

    # -- whole function -----------------------------------------------------

    def build(self) -> Callable:
        code = compile(self.source(), f"<vm:{self.spec.name}>", "exec")
        exec(code, self.namespace)
        return self.namespace["fn"]

    def source(self) -> str:
        # The entry and every branch target (falling off the end is label n).
        self.labels = {0}
        for inst in self.insts:
            self.labels.update(self.target(t) for t in _branch_targets(inst))
        body = ["pc = 0", "while True:"]
        self._emit_tree(sorted(self.labels), body, 1)

        spec = self.spec
        params = sorted(_upward_exposed(self.insts))
        count = params[-1] + 1 if params else 0
        signature = ", ".join(["vm"] + [f"r{i}=0" for i in range(count)] + ["*_"])
        lines = [f"def fn({signature}):", "    lim = vm.max_steps"]
        if "mem" in self.uses:
            lines.append("    mem = vm.memory")
        if "T" in self.uses:
            lines.append("    T = vm._code")
        if "on_probe" in self.uses:
            lines.append("    on_probe = vm._on_probe")
        if "hook" in self.uses:
            lines.append("    hook = vm.block_hook")
        lines.append("    sp = vm.stack_ptr")
        lines.append(f"    fb = sp - {spec.frame_size}" if spec.frame_size else "    fb = sp")
        lines.append("    if fb < vm.heap_ptr + 4096:")
        lines.append("        raise VMTrap('stack overflow', 'stack-overflow')")
        if spec.frame_size:
            lines.append("    vm.stack_ptr = fb")
            lines.append("    try:")
            lines.extend("        " + line for line in body)
            lines.append("    finally:")
            lines.append("        vm.stack_ptr = sp")
        else:
            lines.extend("    " + line for line in body)
        return "\n".join(lines) + "\n"

    def _emit_tree(self, labels: Sequence[int], out: List[str], depth: int) -> None:
        if len(labels) == 1:
            self._emit_region(labels[0], out, depth)
            return
        pad = "    " * depth
        mid = len(labels) // 2
        out.append(f"{pad}if pc < {labels[mid]}:")
        self._emit_tree(labels[:mid], out, depth + 1)
        out.append(f"{pad}else:")
        self._emit_tree(labels[mid:], out, depth + 1)

    def _fall_off(self) -> str:
        message = f"fell off the end of @{self.spec.name}"
        return f"raise VMTrap({message!r}, 'bad-code')"

    # -- straight-line code ---------------------------------------------------

    def _emit_region(self, start: int, out: List[str], depth: int) -> None:
        """Code from block start *start* up to its terminator."""
        insts, n = self.insts, self.n
        pad = "    " * depth
        pos = start
        while pos < n:
            end = pos + 1
            while not self.ends_segment(insts[end - 1]) and end < n and end not in self.labels:
                end += 1
            costs = [self.cycle_charge(inst) for inst in insts[pos:end]]
            self._emit_charge(pos, end, sum(costs), out, pad)
            for offset in range(end - pos):
                inst = insts[pos + offset]
                if _head(inst) in _TERMINATORS:
                    self._emit_terminator(inst, out, pad)
                    return
                rest = (end - pos - 1 - offset, sum(costs[offset + 1:]))
                out.extend(pad + line for line in self.op_lines(inst, *rest))
            pos = end
            if pos in self.labels:
                # Straight on into a labelled block.
                out.append(f"{pad}pc = {pos}")
                out.append(f"{pad}continue")
                return
        out.append(pad + self._fall_off())

    def _emit_charge(self, start: int, end: int, cycles: int, out: List[str], pad: str) -> None:
        live = _read_first(self.insts[start:end - 1])
        guard = self.bind(_SegmentGuard(self.spec, start, end, live), "guard")
        regs = "".join(f"r{reg}, " for reg in live)
        out.append(f"{pad}s = vm.steps + {end - start}")
        out.append(f"{pad}if s > lim:")
        out.append(f"{pad}    {guard}(vm, fb, ({regs}))")
        out.append(f"{pad}vm.steps = s")
        if cycles:
            out.append(f"{pad}vm.cycles += {cycles}")

    def _emit_terminator(self, inst, out: List[str], pad: str) -> None:
        head = _head(inst)
        if head == "ret":
            out.append(f"{pad}return r{inst.srcs[0]}" if inst.srcs else f"{pad}return 0")
        elif head == "trap":
            message = f"unreachable executed in @{self.spec.name}"
            out.append(f"{pad}raise VMTrap({message!r}, 'unreachable')")
        elif head == "jmp":
            out.append(f"{pad}pc = {self.target(inst.targets[0])}")
            out.append(f"{pad}continue")
        elif head == "brt":
            taken, other = (self.target(t) for t in inst.targets[:2])
            out.append(f"{pad}pc = {taken} if r{inst.srcs[0]} else {other}")
            out.append(f"{pad}continue")
        else:  # switch
            value = f"r{inst.srcs[0]}"
            default = self.target(inst.targets[0])
            table = tuple((case, self.target(target)) for case, target in inst.table)
            cases: Dict[int, int] = {}
            for case, target in table:
                cases.setdefault(case, target)
            out.append(
                f"{pad}pc = {self.bind(cases, 'cases')}.get({value}, {default}) "
                f"if {value} < {_HALF64} "
                f"else _switch_wide({self.bind(table, 'table')}, {value}, {default})"
            )
            out.append(f"{pad}continue")

    # -- one instruction -----------------------------------------------------------

    def op_lines(self, inst, rest_steps: int, rest_cycles: int) -> List[str]:
        """Python lines for one non-terminator instruction.

        *rest_steps*/*rest_cycles* is the charge of the segment's later
        instructions, which a trap here takes back.
        """
        parts = inst.op.split(".")
        head = parts[0]
        dst = f"r{inst.dst}"
        srcs = [f"r{src}" for src in inst.srcs]
        undo = (rest_steps, rest_cycles)
        if head == "bb":
            if not self.hooked:
                return []
            self.uses.add("hook")
            lines = [f"hook({self.spec.index}, {inst.imm})"]
            if self.block_tax:
                lines.append(f"vm.cycles += {self.block_tax}")
            return lines
        if head == "movi":
            return [f"{dst} = {inst.imm!r}"]
        if head in ("mov", "freeze"):
            return [f"{dst} = {srcs[0]}"]
        if head in ("bin", "bini"):
            b = srcs[1] if head == "bin" else repr(inst.imm)
            return self._binary(parts[1], int(parts[2]), dst, srcs[0], b, head == "bini", undo)
        if head in ("cmp", "cmpi"):
            b = srcs[1] if head == "cmp" else repr(inst.imm)
            return [f"{dst} = {self._compare(parts[1], int(parts[2]), srcs[0], b, head == 'cmpi')}"]
        if head == "cast":
            return [f"{dst} = {self._cast(parts[1], int(parts[2]), int(parts[3]), srcs[0])}"]
        if head == "sel":
            cond, a, b = srcs
            return [f"{dst} = {a} if {cond} else {b}"]
        if head == "ld":
            return self._load(int(parts[1]) // 8, dst, srcs[0], undo)
        if head == "st":
            return self._store(int(parts[1]) // 8, srcs[0], srcs[1], undo)
        if head == "addsc":
            # Scaling the index as signed or unsigned is the same mod 2**64.
            base, index = srcs
            scaled = index if inst.imm == 1 else f"{index} * {inst.imm!r}"
            return [f"{dst} = ({base} + {scaled}) & {_M64}"]
        if head == "leaf":
            return [f"{dst} = fb + {inst.imm!r}"]
        if head == "lea":
            return self._lea(inst, dst, undo)
        if head == "call":
            return self._call(inst, dst, undo)
        if head == "icall":
            return [f"i = vm.exe.index_from_address({srcs[0]})"] + self._invoke(inst, dst, "i")
        if head == "probe":
            if not self.probes:
                return []
            self.uses.add("on_probe")
            args = "".join(f"r{reg}, " for reg in inst.args)
            return [f"on_probe({inst.probe_kind!r}, {inst.probe_id!r}, ({args}), vm)"]
        return [f"_undo(vm, {rest_steps}, {rest_cycles})",
                f"raise VMError({f'unknown machine op {inst.op!r}'!r})"]

    def _raise(self, undo: Tuple[int, int], message: str, kind: str) -> str:
        if any(undo):
            return f"raise _trap(vm, {undo[0]}, {undo[1]}, {message!r}, {kind!r})"
        return f"raise VMTrap({message!r}, {kind!r})"

    def _binary(self, opcode: str, bits: int, dst: str, a: str, b: str, imm: bool,
                undo: Tuple[int, int]) -> List[str]:
        mask = (1 << bits) - 1
        lines: List[str] = []
        if opcode in _DIVISIONS:
            lines.append(f"if {b} == 0:")
            lines.append("    " + self._raise(undo, "integer division by zero", "div-by-zero"))
        if opcode in _ARITH:
            expr = f"({a} {_ARITH[opcode]} {b}) & {mask}"
        elif opcode in _BITWISE:
            expr = f"{a} {_BITWISE[opcode]} {b}"
        elif opcode in ("shl", "lshr"):
            shifted = f"({a} << {b}) & {mask}" if opcode == "shl" else f"{a} >> {b}"
            if imm:
                expr = shifted if int(b) < bits else "0"
            else:
                expr = f"{shifted} if {b} < {bits} else 0"
        elif opcode == "udiv":
            expr = f"({a} // {b}) & {mask}"
        elif opcode == "urem":
            expr = f"({a} % {b}) & {mask}"
        else:
            expr = f"_eval_binary({opcode!r}, {self.bind(IntType(bits), 'i')}, {a}, {b})"
        lines.append(f"{dst} = {expr}")
        return lines

    def _compare(self, predicate: str, bits: int, a: str, b: str, imm: bool) -> str:
        symbol = _CMP_OPS.get(predicate)
        if symbol is None:
            return f"_eval_icmp({predicate!r}, {self.bind(IntType(bits), 'i')}, {a}, {b})"
        if predicate[0] == "s":
            # Signed order is unsigned order with the sign bit flipped.
            mask = (1 << bits) - 1
            flip = 1 << (bits - 1) if bits > 1 else 0
            a = f"(({a} & {mask}) ^ {flip})"
            b = repr((int(b) & mask) ^ flip) if imm else f"(({b} & {mask}) ^ {flip})"
        return f"1 if {a} {symbol} {b} else 0"

    def _cast(self, opcode: str, from_bits: int, to_bits: int, a: str) -> str:
        to_mask = (1 << to_bits) - 1
        if opcode == "zext":
            return a
        if opcode == "trunc":
            return f"{a} & {to_mask}"
        if opcode == "sext":
            if from_bits == 1:
                return f"{a} & 1"
            from_mask = (1 << from_bits) - 1
            sign = 1 << (from_bits - 1)
            return f"((({a} & {from_mask}) ^ {sign}) - {sign}) & {to_mask}"
        from_type = self.bind(IntType(from_bits), "i")
        to_type = self.bind(IntType(to_bits), "i")
        return f"_eval_cast({opcode!r}, {from_type}, {to_type}, {a})"

    def _range_check(self, size: int, addr: str, write: bool, undo: Tuple[int, int]) -> List[str]:
        self.uses.add("mem")
        return [
            f"if {addr} < {self.data_base} or {addr} > {self.mem_size - size}:",
            f"    raise _bad_access(vm, {undo[0]}, {undo[1]}, {write}, {addr}, {size})",
        ]

    def _load(self, size: int, dst: str, addr: str, undo: Tuple[int, int]) -> List[str]:
        lines = self._range_check(size, addr, False, undo)
        if size == 1:
            lines.append(f"{dst} = mem[{addr}]")
        else:
            lines.append(f"{dst} = {self.bind(_LOADS[size], 'ld')}(mem, {addr})[0]")
        return lines

    def _store(self, size: int, addr: str, value: str, undo: Tuple[int, int]) -> List[str]:
        lines = self._range_check(size, addr, True, undo)
        if self.const_ranges:
            lines.append(f"if {self.const_lo} <= {addr} < {self.const_hi} and _in_const({addr}):")
            lines.append(f"    raise _const_write(vm, {undo[0]}, {undo[1]}, {addr})")
        if size == 1:
            lines.append(f"mem[{addr}] = {value} & 255")
        else:
            mask = (1 << (8 * size)) - 1
            lines.append(f"{self.bind(_STORES[size], 'st')}(mem, {addr}, {value} & {mask})")
        return lines

    def _lea(self, inst, dst: str, undo: Tuple[int, int]) -> List[str]:
        kind, value = self.spec.resolution[inst.sym]
        if kind == "data":
            return [f"{dst} = {value!r}"]
        if kind == "func":
            return [f"{dst} = {self.spec.addresses[value]!r}"]
        return [self._raise(undo, f"cannot take address of builtin {value}", "bad-call")]

    def _call(self, inst, dst: str, undo: Tuple[int, int]) -> List[str]:
        kind, value = self.spec.resolution[inst.sym]
        if kind == "func":
            return self._invoke(inst, dst, repr(value))
        if kind == "builtin":
            args = "".join(f"r{reg}, " for reg in inst.args)
            call = f"vm.builtins.call(vm, {value!r}, ({args}))"
            return [f"{dst} = {call}" if inst.dst >= 0 else call]
        return [self._raise(undo, f"call to data symbol @{inst.sym}", "bad-call")]

    def _invoke(self, inst, dst: str, index: str) -> List[str]:
        """Call the function at *index* (an expression) with the args."""
        lines = []
        if self.dispatched:
            lines.append(f"i = vm._route({index})")
            index = "i"
        self.uses.add("T")
        args = "".join(f"r{reg}, " for reg in inst.args)
        call = f"(T[{index}] or vm._load({index}))(vm, {args})"
        return lines + [f"{dst} = {call}" if inst.dst >= 0 else call]


def _read_first(insts) -> List[int]:
    """Registers straight-line *insts* read before writing them."""
    written: Set[int] = set()
    live: Set[int] = set()
    for inst in insts:
        live.update(reg for reg in _uses(inst) if reg not in written)
        if inst.dst >= 0:
            written.add(inst.dst)
    return sorted(live)


class _SegmentGuard:
    """Cold path for a segment whose charge would cross ``max_steps``.

    Runs a guarded copy of the segment — one step check per instruction,
    compiled on first use — from the registers the segment reads.  The
    copy always ends in the step-limit :class:`VMError` or in a trap that
    comes before it: the limit falls at or before the segment's last
    instruction, whose operation the copy therefore never needs.
    """

    def __init__(self, spec: _Spec, start: int, end: int, live: List[int]):
        self.spec = spec
        self.start = start
        self.end = end
        self.live = live
        self.fn: Optional[Callable] = None

    def __call__(self, vm, fb: int, regs: Tuple[int, ...]) -> None:
        if self.fn is None:
            self.fn = self._build()
        self.fn(vm, fb, *regs)
        raise AssertionError("guarded segment ran past its step limit")

    def _build(self) -> Callable:
        tr = _Translator(self.spec)
        params = "".join(f", r{reg}" for reg in self.live)
        lines = [f"def guarded(vm, fb{params}):", "    mem = vm.memory"]
        last = self.end - 1
        for pc in range(self.start, self.end):
            inst = tr.insts[pc]
            lines += ["    s = vm.steps + 1", "    vm.steps = s",
                      "    if s > vm.max_steps:", "        raise _step_limit(vm, _NAME)"]
            if pc == last:
                break
            charge = tr.cycle_charge(inst)
            if charge:
                lines.append(f"    vm.cycles += {charge}")
            lines.extend("    " + line for line in tr.op_lines(inst, 0, 0))
        code = compile("\n".join(lines) + "\n", f"<vm:{self.spec.name}:guard>", "exec")
        exec(code, tr.namespace)
        return tr.namespace["guarded"]
