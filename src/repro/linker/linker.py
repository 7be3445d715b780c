"""Linker: object files -> executable image.

Responsibilities mirror a real static linker's:

* merge data symbols into one memory image (internal symbols stay
  object-private, exported names must be unique)
* build the function table; resolve direct calls, ``lea`` references and
  aliases per object file
* leave object files untouched so the Odin machine-code cache can reuse
  them across relinks (§3.3: "all cached machine code is then linked to
  an executable")

Resolution is stored in per-object maps instead of patched into the
instructions, which is the moral equivalent of a relocation table and is
what lets one cached object participate in many links.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.backend.costmodel import image_patch_cost_ms, link_cost_ms
from repro.backend.machine import MachineFunction, ObjectFile
from repro.errors import LinkError

DATA_BASE = 0x10000
FUNC_BASE = 0x8000_0000
FUNC_STRIDE = 16

# Builtins provided by the VM runtime; resolvable without a definition.
RUNTIME_BUILTINS = (
    "printf", "puts", "putchar", "malloc", "free", "memcpy", "memset",
    "strlen", "strcmp", "abort", "exit",
)

# Resolution entries: ("data", address) | ("func", index) | ("builtin", name)
Resolution = Tuple[str, object]


@dataclass
class LinkedFunction:
    """A function in the executable: machine code + its resolution map."""

    mf: MachineFunction
    object_name: str
    resolution: Dict[str, Resolution]
    # The VM's translations of this function, by translation key
    # (repro.vm.translate); a patched image reuses them with the function.
    translations: Dict[tuple, Callable] = field(
        default_factory=dict, compare=False, repr=False
    )

    @property
    def name(self) -> str:
        return self.mf.name


@dataclass
class Executable:
    """A fully linked program image."""

    functions: List[LinkedFunction] = field(default_factory=list)
    entry_points: Dict[str, int] = field(default_factory=dict)  # exported fns
    data_image: bytes = b""
    data_base: int = DATA_BASE
    symbol_addresses: Dict[str, int] = field(default_factory=dict)  # exported data
    const_ranges: List[Tuple[int, int]] = field(default_factory=list)
    link_ms: float = 0.0
    # The VM's per-key tables of translated functions, indexed like
    # ``functions`` and filled on first call (repro.vm.interpreter).
    code_tables: Dict[tuple, List[Optional[Callable]]] = field(
        default_factory=dict, compare=False, repr=False
    )

    @property
    def data_end(self) -> int:
        return self.data_base + len(self.data_image)

    def function_index(self, name: str) -> int:
        try:
            return self.entry_points[name]
        except KeyError:
            raise LinkError(f"no exported function @{name}") from None

    def function_address(self, index: int) -> int:
        return FUNC_BASE + index * FUNC_STRIDE

    def index_from_address(self, address: int) -> int:
        if address < FUNC_BASE or (address - FUNC_BASE) % FUNC_STRIDE:
            raise LinkError(f"bad function address {address:#x}")
        index = (address - FUNC_BASE) // FUNC_STRIDE
        if index >= len(self.functions):
            raise LinkError(f"function address {address:#x} out of range")
        return index

    def canonical_bytes(self) -> bytes:
        """Deterministic serialization of the linked image.

        Everything the VM can observe is included — code, resolution
        maps, data image, entry points — while link timing is not.  Two
        executables with equal canonical bytes behave identically on
        every input, which is the property the ``repro check``
        differential oracle asserts between incremental and from-scratch
        builds.
        """
        parts = []
        for lf in self.functions:
            parts.append(f"func {lf.name} from {lf.object_name}")
            parts.append(lf.mf.canonical_dump())
            for sym in sorted(lf.resolution):
                kind, value = lf.resolution[sym]
                parts.append(f"  {sym} -> {kind}:{value}")
        parts.append(
            "entry " + " ".join(f"{n}:{i}" for n, i in sorted(self.entry_points.items()))
        )
        parts.append(f"data_base {self.data_base}")
        parts.append("data " + self.data_image.hex())
        parts.append(
            "symbols "
            + " ".join(f"{n}:{a}" for n, a in sorted(self.symbol_addresses.items()))
        )
        parts.append(
            "const " + " ".join(f"{a}:{b}" for a, b in sorted(self.const_ranges))
        )
        return "\n".join(parts).encode()

    def fingerprint(self) -> str:
        return hashlib.sha256(self.canonical_bytes()).hexdigest()


def link(objects: List[ObjectFile]) -> Executable:
    """Link *objects* into an executable."""
    exe = Executable()
    image = bytearray()

    # -- pass 1: place data, register functions ------------------------------
    # local_syms[obj_name][sym] -> Resolution; exports[sym] -> Resolution
    local_syms: Dict[str, Dict[str, Resolution]] = {o.name: {} for o in objects}
    exports: Dict[str, Resolution] = {}
    export_origin: Dict[str, str] = {}

    def place_data(obj: ObjectFile, name: str, data: bytes, is_const: bool) -> int:
        # 8-byte alignment for every symbol.
        while len(image) % 8:
            image.append(0)
        addr = DATA_BASE + len(image)
        image.extend(data)
        if is_const:
            exe.const_ranges.append((addr, addr + len(data)))
        return addr

    for obj in objects:
        for name, sym in obj.data.items():
            addr = place_data(obj, name, sym.data, sym.is_const)
            res: Resolution = ("data", addr)
            local_syms[obj.name][name] = res
            if sym.linkage != "internal":
                _export(exports, export_origin, obj.name, name, res)
                exe.symbol_addresses[name] = addr
        for name, mf in obj.functions.items():
            index = len(exe.functions)
            exe.functions.append(LinkedFunction(mf, obj.name, {}))
            res = ("func", index)
            local_syms[obj.name][name] = res
            if mf.linkage != "internal":
                _export(exports, export_origin, obj.name, name, res)
                exe.entry_points[name] = index

    # Aliases resolve to whatever their target resolved to, in-object first.
    for obj in objects:
        for alias, (target, linkage) in obj.aliases.items():
            res = local_syms[obj.name].get(target) or exports.get(target)
            if res is None:
                raise LinkError(
                    f"alias @{alias} in {obj.name} targets undefined @{target}"
                )
            local_syms[obj.name][alias] = res
            if linkage != "internal":
                _export(exports, export_origin, obj.name, alias, res)
                if res[0] == "func":
                    exe.entry_points[alias] = res[1]
                else:
                    exe.symbol_addresses[alias] = res[1]

    # -- pass 2: build per-object resolution maps ------------------------------
    per_object_resolution: Dict[str, Dict[str, Resolution]] = {}
    for obj in objects:
        resolution: Dict[str, Resolution] = dict(local_syms[obj.name])
        for name in _referenced_symbols(obj):
            if name in resolution:
                continue
            hit = exports.get(name)
            if hit is not None:
                resolution[name] = hit
            elif name in RUNTIME_BUILTINS:
                resolution[name] = ("builtin", name)
            else:
                raise LinkError(f"undefined symbol @{name} referenced from {obj.name}")
        per_object_resolution[obj.name] = resolution

    for lf in exe.functions:
        lf.resolution = per_object_resolution[lf.object_name]

    exe.data_image = bytes(image)
    num_symbols = sum(len(o.defined_symbols()) for o in objects)
    code_size = sum(o.code_size for o in objects)
    exe.link_ms = link_cost_ms(num_symbols, code_size)
    return exe


def patch_image(
    exe: Executable, objects_by_name: Dict[str, ObjectFile]
) -> Executable:
    """Splice patched objects into an existing image without relinking.

    Stage-1 probe patching only deletes/restores probe instructions inside
    already-linked functions: the function set, symbol addresses, data
    image and every resolution map are unchanged, so a full symbol
    resolution pass would recompute exactly what *exe* already holds.
    This swaps the machine code of the affected functions (sharing each
    old :class:`LinkedFunction`'s resolution map) and charges the far
    cheaper image-patch cost.

    *exe* is never mutated — cached executables stay valid.
    """
    replaced_functions = 0
    functions: List[LinkedFunction] = []
    for lf in exe.functions:
        obj = objects_by_name.get(lf.object_name)
        if obj is None:
            functions.append(lf)
            continue
        mf = obj.functions.get(lf.name)
        if mf is None:
            raise LinkError(
                f"patched object {obj.name} dropped function @{lf.name}; "
                f"a stage-1 patch cannot change the function set"
            )
        if mf is lf.mf:
            functions.append(lf)
        else:
            functions.append(LinkedFunction(mf, lf.object_name, lf.resolution))
            replaced_functions += 1
    patched = Executable(
        functions=functions,
        entry_points=dict(exe.entry_points),
        data_image=exe.data_image,
        data_base=exe.data_base,
        symbol_addresses=dict(exe.symbol_addresses),
        const_ranges=list(exe.const_ranges),
        link_ms=image_patch_cost_ms(replaced_functions),
    )
    return patched


def _export(
    exports: Dict[str, Resolution],
    origin: Dict[str, str],
    obj_name: str,
    name: str,
    res: Resolution,
) -> None:
    if name in exports:
        raise LinkError(
            f"duplicate exported symbol @{name} "
            f"(defined in {origin[name]} and {obj_name})"
        )
    exports[name] = res
    origin[name] = obj_name


def _referenced_symbols(obj: ObjectFile) -> List[str]:
    names: List[str] = []
    seen = set()
    for mf in obj.functions.values():
        for inst in mf.insts:
            if inst.sym is not None and inst.sym not in seen:
                seen.add(inst.sym)
                names.append(inst.sym)
    for target, _linkage in obj.aliases.values():
        if target not in seen:
            seen.add(target)
            names.append(target)
    return names
