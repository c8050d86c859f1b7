"""Reference interpreter for the mini-LLVM IR.

Serves as the functional-equivalence oracle: the adaptor flow and the HLS-C++
flow must compute the same results as each other (and as the NumPy reference
semantics in :mod:`repro.workloads`).

Memory is modelled as byte-addressable buffers; pointers are
``(buffer, offset)`` handles, so out-of-object accesses fault loudly instead
of corrupting neighbouring state.  Scalar loads/stores go through ``struct``
pack/unpack with the IR type's layout; float ops round to the IR precision.

Execution is decode-once: the first call of a function turns it into
per-block lists of closures over integer register slots (see
:class:`_Decoded`), cached on the :class:`Interpreter` by
``Function.version``.  The value-level semantics (wrapping, rounding, the
rare binops, casts, comparisons, intrinsics, loads and stores) live in the
module-level helpers below; a decoded fast path only ever inlines what the
helper would compute and falls back to the helper for anything else, so
results, error messages and ``steps`` counts match one set of rules.
"""

from __future__ import annotations

import math
import operator
import re
import struct as _struct
import weakref
from functools import partial
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .instructions import (
    Alloca,
    BinaryOperator,
    Branch,
    Call,
    Cast,
    CondBranch,
    ExtractValue,
    FCmp,
    Freeze,
    GetElementPtr,
    ICmp,
    InsertValue,
    Load,
    Phi,
    Return,
    Select,
    Store,
    Switch,
    Unreachable,
)
from ..observability import get_statistics, get_tracer
from .analysis.dominators import DominatorTree, dominator_tree
from .module import BasicBlock, Function, Module
from .types import (
    ArrayType,
    FloatType,
    IntegerType,
    PointerType,
    StructType,
    Type,
    VectorType,
)
from .values import (
    ConstantAggregate,
    ConstantAggregateZero,
    ConstantFloat,
    ConstantInt,
    ConstantPointerNull,
    GlobalVariable,
    PoisonValue,
    UndefValue,
    Value,
)

__all__ = [
    "Interpreter",
    "MemoryBuffer",
    "Pointer",
    "InterpreterError",
    "run_kernel",
    "run_descriptor_kernel",
]


class InterpreterError(Exception):
    pass


class MemoryBuffer:
    """One allocation: a named bytearray with bounds-checked access."""

    __slots__ = ("name", "data")

    def __init__(self, size: int, name: str = "buf"):
        self.name = name
        self.data = bytearray(size)

    def __len__(self) -> int:
        return len(self.data)

    def check(self, offset: int, size: int) -> None:
        if offset < 0 or offset + size > len(self.data):
            raise InterpreterError(
                f"out-of-bounds access to {self.name}: offset {offset} size "
                f"{size} in buffer of {len(self.data)} bytes"
            )


class Pointer:
    __slots__ = ("buffer", "offset")

    def __init__(self, buffer: MemoryBuffer, offset: int = 0):
        self.buffer = buffer
        self.offset = offset

    def added(self, delta: int) -> "Pointer":
        return Pointer(self.buffer, self.offset + delta)

    def __repr__(self) -> str:
        return f"<Pointer {self.buffer.name}+{self.offset}>"


# -- value-level semantics ------------------------------------------------------

_SCALAR_FMT = {
    ("int", 1): "<b",
    ("int", 8): "<b",
    ("int", 16): "<h",
    ("int", 32): "<i",
    ("int", 64): "<q",
    ("float", 16): "<e",
    ("float", 32): "<f",
    ("float", 64): "<d",
}
_F32 = _struct.Struct("<f")
_F16 = _struct.Struct("<e")


def _scalar_format(type: Type) -> Tuple[str, int]:
    if isinstance(type, IntegerType):
        width = max(8, type.byte_size() * 8)
        return _SCALAR_FMT[("int", min(width, 64))], type.byte_size()
    if isinstance(type, FloatType):
        return _SCALAR_FMT[("float", type.bit_width())], type.byte_size()
    raise InterpreterError(f"no scalar layout for type {type}")


def _exact_layout(type: Type) -> Optional[_struct.Struct]:
    """The ``struct`` layout of ``type`` when a raw pack/unpack is exactly
    :func:`_load`/:func:`_store` (the format's width is the type's width);
    None otherwise."""
    if isinstance(type, FloatType) or (
        isinstance(type, IntegerType) and type.width in (8, 16, 32, 64)
    ):
        return _struct.Struct(_scalar_format(type)[0])
    return None


def _trunc_div(l: int, r: int) -> int:
    """C-style truncating integer division (LLVM sdiv)."""
    q = abs(l) // abs(r)
    return -q if (l < 0) != (r < 0) else q


def _round_float(value: float, type: FloatType) -> float:
    if type.kind == "float":
        return _F32.unpack(_F32.pack(value))[0]
    if type.kind == "half":
        return _F16.unpack(_F16.pack(value))[0]
    return float(value)


def buffer_from_numpy(array: np.ndarray, name: str = "arg") -> MemoryBuffer:
    buf = MemoryBuffer(array.nbytes, name)
    buf.data[:] = np.ascontiguousarray(array).tobytes()
    return buf


def numpy_from_buffer(buf: MemoryBuffer, dtype, shape) -> np.ndarray:
    return np.frombuffer(bytes(buf.data), dtype=dtype).reshape(shape).copy()


def _zero(type: Type) -> object:
    if isinstance(type, IntegerType):
        return 0
    if isinstance(type, FloatType):
        return 0.0
    if isinstance(type, PointerType):
        return None
    if isinstance(type, ArrayType):
        return [_zero(type.element) for _ in range(type.count)]
    if isinstance(type, StructType):
        return [_zero(e) for e in type.elements]
    if isinstance(type, VectorType):
        return [_zero(type.element) for _ in range(type.count)]
    raise InterpreterError(f"no zero value for type {type}")


def _constant(value: Value, globals_: Dict[str, Pointer]) -> object:
    """The runtime value of a constant operand."""
    if isinstance(value, (ConstantInt, ConstantFloat)):
        return value.value
    if isinstance(value, ConstantPointerNull):
        return None
    if isinstance(value, (UndefValue, PoisonValue, ConstantAggregateZero)):
        return _zero(value.type)
    if isinstance(value, ConstantAggregate):
        return [_constant(m, globals_) for m in value.members]
    if isinstance(value, GlobalVariable):
        return globals_[value.name]
    if isinstance(value, Function):
        return value
    raise InterpreterError(f"use of undefined value {value!r}")


def _deep_copy(value):
    if isinstance(value, list):
        return [_deep_copy(v) for v in value]
    return value


def _coerce(value, type: Type):
    if isinstance(type, IntegerType) and isinstance(value, (int, np.integer)):
        return type.wrap(int(value))
    if isinstance(type, FloatType) and isinstance(value, (int, float, np.floating)):
        return _round_float(float(value), type)
    return value


def _binop(op: str, ty: Type, l, r) -> object:
    if op in ("fadd", "fsub", "fmul", "fdiv", "frem"):
        if op == "fadd":
            result = l + r
        elif op == "fsub":
            result = l - r
        elif op == "fmul":
            result = l * r
        elif op == "fdiv":
            result = l / r if r != 0 else math.copysign(math.inf, l) if l else math.nan
        else:
            result = math.fmod(l, r) if r != 0 else math.nan
        return _round_float(result, ty)  # type: ignore[arg-type]
    width = ty.width  # type: ignore[attr-defined]
    unsigned_l = l & ty.max_unsigned  # type: ignore[attr-defined]
    unsigned_r = r & ty.max_unsigned  # type: ignore[attr-defined]
    wrap = ty.wrap  # type: ignore[attr-defined]
    if op == "add":
        return wrap(l + r)
    if op == "sub":
        return wrap(l - r)
    if op == "mul":
        return wrap(l * r)
    if op == "sdiv":
        if r == 0:
            raise InterpreterError("sdiv by zero")
        return wrap(_trunc_div(l, r))
    if op == "udiv":
        if unsigned_r == 0:
            raise InterpreterError("udiv by zero")
        return wrap(unsigned_l // unsigned_r)
    if op == "srem":
        if r == 0:
            raise InterpreterError("srem by zero")
        return wrap(l - r * _trunc_div(l, r))
    if op == "urem":
        if unsigned_r == 0:
            raise InterpreterError("urem by zero")
        return wrap(unsigned_l % unsigned_r)
    if op == "shl":
        return wrap(l << (unsigned_r % width))
    if op == "lshr":
        return wrap(unsigned_l >> (unsigned_r % width))
    if op == "ashr":
        return wrap(l >> (unsigned_r % width))
    if op == "and":
        return wrap(l & r)
    if op == "or":
        return wrap(l | r)
    if op == "xor":
        return wrap(l ^ r)
    raise InterpreterError(f"unhandled binop {op}")


def _icmp(pred: str, ty: Type, l, r) -> int:
    """``ty`` is the operand type."""
    if isinstance(ty, PointerType):
        lid = (id(l.buffer), l.offset) if isinstance(l, Pointer) else None
        rid = (id(r.buffer), r.offset) if isinstance(r, Pointer) else None
        if pred == "eq":
            return int(lid == rid)
        if pred == "ne":
            return int(lid != rid)
        raise InterpreterError("ordered pointer comparison unsupported")
    ul = l & ty.max_unsigned  # type: ignore[attr-defined]
    ur = r & ty.max_unsigned  # type: ignore[attr-defined]
    table = {
        "eq": l == r,
        "ne": l != r,
        "sgt": l > r,
        "sge": l >= r,
        "slt": l < r,
        "sle": l <= r,
        "ugt": ul > ur,
        "uge": ul >= ur,
        "ult": ul < ur,
        "ule": ul <= ur,
    }
    return int(table[pred])


def _fcmp(pred: str, l, r) -> int:
    unordered = math.isnan(l) or math.isnan(r)
    if pred == "false":
        return 0
    if pred == "true":
        return 1
    if pred == "ord":
        return int(not unordered)
    if pred == "uno":
        return int(unordered)
    base = pred[1:]
    ordered = pred.startswith("o")
    table = {
        "eq": l == r,
        "gt": l > r,
        "ge": l >= r,
        "lt": l < r,
        "le": l <= r,
        "ne": l != r,
    }
    result = table[base] if not unordered else False
    if not ordered and unordered:
        return 1
    if ordered and unordered:
        return 0
    return int(result)


def _load(type: Type, pointer) -> object:
    if not isinstance(pointer, Pointer):
        raise InterpreterError(f"load through non-pointer {pointer!r}")
    fmt, size = _scalar_format(type)
    pointer.buffer.check(pointer.offset, size)
    raw = bytes(pointer.buffer.data[pointer.offset : pointer.offset + size])
    value = _struct.unpack(fmt, raw)[0]
    if isinstance(type, IntegerType):
        return type.wrap(int(value))
    return float(value)


def _store(type: Type, pointer, value) -> None:
    if not isinstance(pointer, Pointer):
        raise InterpreterError(f"store through non-pointer {pointer!r}")
    fmt, size = _scalar_format(type)
    pointer.buffer.check(pointer.offset, size)
    if isinstance(type, IntegerType):
        packed = _struct.pack(fmt, type.wrap(int(value)))
    else:
        packed = _struct.pack(fmt, float(value))
    pointer.buffer.data[pointer.offset : pointer.offset + size] = packed


def _gep(source_type: Type, base, indices: Sequence[int]) -> Pointer:
    """``base`` is already checked to be a :class:`Pointer`."""
    offset = 0
    type = source_type
    if indices:
        offset += indices[0] * type.byte_size()
    for raw_idx, idx in enumerate(indices[1:]):
        if isinstance(type, ArrayType):
            type = type.element
            offset += idx * type.byte_size()
        elif isinstance(type, StructType):
            offset += sum(e.byte_size() for e in type.elements[:idx])
            type = type.elements[idx]
        elif isinstance(type, VectorType):
            type = type.element
            offset += idx * type.byte_size()
        else:
            raise InterpreterError(f"gep index {raw_idx + 1} into scalar {type}")
    return base.added(offset)


def _array_strides(source_type: Type, count: int) -> Optional[List[int]]:
    """Byte strides of ``count`` GEP indices when every index past the
    first steps into an array or vector; None otherwise."""
    if not count:
        return []
    try:
        type = source_type
        strides = [type.byte_size()]
        for _ in range(count - 1):
            if not isinstance(type, (ArrayType, VectorType)):
                return None
            type = type.element
            strides.append(type.byte_size())
    except TypeError:
        return None
    return strides


def _cast(op: str, to: Type, src: Type, value) -> object:
    if op in ("sext", "trunc"):
        return to.wrap(int(value))  # type: ignore[attr-defined]
    if op == "zext":
        return to.wrap(int(value) & src.max_unsigned)  # type: ignore[attr-defined]
    if op in ("fptrunc", "fpext"):
        return _round_float(float(value), to)  # type: ignore[arg-type]
    if op == "fptosi":
        return to.wrap(int(value))  # type: ignore[attr-defined]
    if op == "fptoui":
        return to.wrap(max(0, int(value)))  # type: ignore[attr-defined]
    if op == "sitofp":
        return _round_float(float(int(value)), to)  # type: ignore[arg-type]
    if op == "uitofp":
        return _round_float(float(int(value) & src.max_unsigned), to)  # type: ignore
    if op == "bitcast":
        return value  # pointers only in our subset
    if op == "ptrtoint":
        if isinstance(value, Pointer):
            return to.wrap(id(value.buffer) + value.offset)  # type: ignore
        return 0
    if op == "inttoptr":
        raise InterpreterError("inttoptr has no meaning in the buffer memory model")
    raise InterpreterError(f"unhandled cast {op}")


_LIBM_UNARY = {
    "sqrt": math.sqrt, "sqrtf": math.sqrt,
    "fabs": abs, "fabsf": abs,
    "exp": math.exp, "expf": math.exp,
    "log": math.log, "logf": math.log,
    "sin": math.sin, "sinf": math.sin,
    "cos": math.cos, "cosf": math.cos,
    "floor": math.floor, "floorf": math.floor,
    "ceil": math.ceil, "ceilf": math.ceil,
}


def _memset(args: List) -> None:
    dest: Pointer = args[0]
    value, length = int(args[1]) & 0xFF, int(args[2])
    dest.buffer.check(dest.offset, length)
    dest.buffer.data[dest.offset : dest.offset + length] = bytes([value] * length)


def _memcpy(args: List) -> None:
    dest, src, length = args[0], args[1], int(args[2])
    dest.buffer.check(dest.offset, length)
    src.buffer.check(src.offset, length)
    chunk = bytes(src.buffer.data[src.offset : src.offset + length])
    dest.buffer.data[dest.offset : dest.offset + length] = chunk


def _extern(name: str, ret: Type) -> Callable[[List], object]:
    """Resolve the semantics of a call to the external ``@name`` returning
    ``ret``: a function from the argument values to the call's value."""
    if name in _LIBM_UNARY:
        fn = _LIBM_UNARY[name]
        return lambda args: _round_float(fn(args[0]), ret)  # type: ignore[arg-type]
    if name in ("pow", "powf"):
        return lambda args: _round_float(math.pow(args[0], args[1]), ret)  # type: ignore
    if name.startswith("llvm."):
        kind = name.split(".")[1]
        if kind in ("sqrt", "fabs", "exp", "log", "sin", "cos", "floor", "ceil"):
            fn = {"fabs": abs}.get(kind) or getattr(math, kind)
            return lambda args: _round_float(fn(args[0]), ret)  # type: ignore
        if kind == "pow":
            return lambda args: _round_float(math.pow(args[0], args[1]), ret)  # type: ignore
        if kind in ("fmuladd", "fma"):
            return lambda args: _round_float(args[0] * args[1] + args[2], ret)  # type: ignore
        if kind in ("minnum", "minimum"):
            return lambda args: _round_float(min(args[0], args[1]), ret)  # type: ignore
        if kind in ("maxnum", "maximum"):
            return lambda args: _round_float(max(args[0], args[1]), ret)  # type: ignore
        if kind == "copysign":
            return lambda args: _round_float(math.copysign(args[0], args[1]), ret)  # type: ignore
        if kind in ("smax", "smin", "umax", "umin"):
            pick = max if kind.endswith("max") else min
            return lambda args: ret.wrap(pick(args[0], args[1]))  # type: ignore
        if kind == "abs":
            return lambda args: ret.wrap(abs(args[0]))  # type: ignore
        if kind == "memset":
            return _memset
        if kind in ("memcpy", "memmove"):
            return _memcpy
        if kind == "expect":
            return lambda args: args[0]
        if kind in ("lifetime", "assume", "dbg"):
            return lambda args: None

    def unknown(args: List) -> object:
        raise InterpreterError(f"no semantics for external @{name}")

    return unknown


# -- decoding ---------------------------------------------------------------------

#: Register contents before the defining instruction has run.
_UNSET = object()

#: Slot 0 of every register file receives the returned value.
_RET = 0

_TERMINATORS = (Return, CondBranch, Branch, Switch, Unreachable)

_ICMP_SIGNED = {
    "eq": operator.eq, "ne": operator.ne,
    "sgt": operator.gt, "sge": operator.ge, "slt": operator.lt, "sle": operator.le,
}
_ICMP_UNSIGNED = {
    "ugt": operator.gt, "uge": operator.ge, "ult": operator.lt, "ule": operator.le,
}

Op = Callable[[list], None]


class _Decoded:
    """One function decoded for one :class:`Interpreter`.

    Every operand value gets a register slot; slot 0 receives the returned
    value.  Constants (and functions) are prefilled in the ``template``
    register list; arguments and globals are filled per call; an
    instruction's slot is written when it executes.  A read is unchecked
    only when its value is certain to be there: a constant, an argument,
    or an instruction whose definition dominates the use.  Every other
    read checks for :data:`_UNSET` and raises the error the value would
    have raised.

    ``blocks[i]`` is ``(copies, ops, steps, stepped, term)``:

    * ``copies``: None when the block has no phis; otherwise, per
      predecessor block index, the parallel copy for that edge (None when
      some phi lacks an incoming for it);
    * ``ops``: one closure per non-phi instruction before the terminator;
    * ``steps``: ``len(ops)`` plus one if the block has a terminator;
    * ``stepped``: the block may call a defined function, so it is always
      stepped one instruction at a time;
    * ``term``: the terminator, returning the next block index, or -1
      after putting the returned value in slot 0.
    """

    def __init__(self, interp: "Interpreter", fn: Function, trust_arguments: bool = True):
        # Closures reach the interpreter through a weak proxy and never
        # reference this object, so a finished run is freed by reference
        # counting alone, without waiting for the cycle collector.
        self.interp = weakref.proxy(interp)
        self.globals = interp.globals
        self.fn = fn
        self.version = fn.version
        self.template: List[object] = [None]
        self.values: List[object] = [None]
        self.slots: Dict[int, int] = {}
        self.failures: Dict[int, Exception] = {}
        self.global_slots: List[Tuple[int, str]] = []
        self.filled: set = set()
        self.arguments = {id(a) for a in fn.arguments} if trust_arguments else set()
        self.block_objs: List[BasicBlock] = list(fn.blocks)
        self.index = {id(b): i for i, b in enumerate(self.block_objs)}
        self.defs: Dict[int, Tuple[int, int]] = {}
        self.externs: List[Tuple[Function, str]] = []
        self._layout()
        self.fused = self._fused_geps()
        self.blocks = []
        for bi in range(len(self.block_objs)):
            self.stepped = False
            copies = self._phi_copies(bi)
            ops = [self._op(inst, bi, pos) for pos, inst in enumerate(self.bodies[bi])]
            term = self._terminator(bi)
            steps = len(ops) + (self.terms[bi] is not None)
            self.blocks.append((copies, ops, steps, self.stepped, term))
        self.arg_slots = [self.slot(a) for a in fn.arguments]

    # -- slots ------------------------------------------------------------------
    def slot(self, value) -> int:
        key = id(value)
        s = self.slots.get(key)
        if s is None:
            s = len(self.template)
            self.slots[key] = s
            self.values.append(value)
            self.template.append(self._initial(value, s))
        return s

    def scratch(self) -> int:
        self.template.append(None)
        self.values.append(None)
        return len(self.template) - 1

    def _initial(self, value, s: int) -> object:
        if isinstance(value, GlobalVariable):
            if value.name in self.globals:
                self.global_slots.append((s, value.name))
                self.filled.add(s)
            else:
                self.failures[s] = KeyError(value.name)
            return _UNSET
        if isinstance(value, Function):
            return value
        if isinstance(value, (
            ConstantInt, ConstantFloat, ConstantPointerNull, UndefValue,
            PoisonValue, ConstantAggregateZero, ConstantAggregate,
        )):
            try:
                return _constant(value, self.globals)
            except Exception as exc:  # raised again at the use, like before
                self.failures[s] = exc
        return _UNSET

    def ready(self, value, block: int, pos: int) -> bool:
        """Is ``value`` certainly in its slot before position ``pos`` of
        block ``block``?"""
        s = self.slot(value)
        if self.template[s] is not _UNSET or s in self.filled:
            return True
        key = id(value)
        if key in self.arguments:
            return True
        where = self.defs.get(key)
        if where is None:
            return False
        def_block, def_pos = where
        if def_block == block:
            return def_pos < pos
        return self.dominates(def_block, block)

    def read(self, value, block: int, pos: int) -> Callable[[list], object]:
        """A reader of ``value`` at a use site: unchecked when ready."""
        s = self.slot(value)
        if self.ready(value, block, pos):
            return itemgetter(s)
        failures, values = self.failures, self.values

        def checked(R):
            v = R[s]
            if v is _UNSET:
                raise _unset_error(failures, values, s)
            return v

        return checked

    # -- CFG --------------------------------------------------------------------
    def block_index(self, block: BasicBlock) -> int:
        i = self.index.get(id(block))
        if i is None:  # a branch out of the function: run that block too
            i = self.index[id(block)] = len(self.block_objs)
            self.block_objs.append(block)
        return i

    def _layout(self) -> None:
        """Split blocks into leading phis, executed body and first
        terminator; record definition sites and successors."""
        self.phis: List[List[Phi]] = []
        self.bodies: List[list] = []
        self.terms: List[object] = []
        self.tree: Optional[DominatorTree] = None
        well_formed = True
        i = 0
        while i < len(self.block_objs):
            insts = self.block_objs[i].instructions
            k = 0
            while k < len(insts) and isinstance(insts[k], Phi):
                self.defs[id(insts[k])] = (i, -1)
                k += 1
            body, term = [], None
            for inst in insts[k:]:
                if isinstance(inst, _TERMINATORS):
                    term = inst
                    break
                if not isinstance(inst, Phi):
                    self.defs[id(inst)] = (i, len(body))
                body.append(inst)
            if term is not None:
                for target in term.successors:
                    self.block_index(target)
            well_formed = well_formed and (term is None or term is insts[-1])
            self.phis.append(insts[:k])
            self.bodies.append(body)
            self.terms.append(term)
            i += 1
        # The dominator tree follows each block's last instruction; it
        # describes the walk above only when that is the first terminator
        # and no branch leaves the function.  Otherwise nothing is elided.
        if well_formed and len(self.block_objs) == len(self.fn.blocks):
            self.tree = dominator_tree(self.fn)

    def dominates(self, a: int, b: int) -> bool:
        if self.tree is None:
            return False
        try:
            return self.tree.dominates(self.block_objs[a], self.block_objs[b])
        except KeyError:  # unreachable blocks never run
            return False

    def _phi_copies(self, bi: int) -> Optional[List[Optional[Op]]]:
        phis = self.phis[bi]
        if not phis:
            return None
        copies: List[Optional[Op]] = [None] * len(self.block_objs)
        for _value, pred in phis[0].incoming:
            p = self.index.get(id(pred))
            if p is None or copies[p] is not None:
                continue
            sources = [phi.incoming_value_for(pred) for phi in phis]
            if any(v is None for v in sources):
                continue
            dests = [self.slot(phi) for phi in phis]
            if all(self.ready(v, p, len(self.bodies[p])) for v in sources):
                copies[p] = _parallel_copy(dests, [self.slot(v) for v in sources])
            else:
                readers = [self.read(v, p, len(self.bodies[p])) for v in sources]
                copies[p] = _checked_copy(dests, readers)
        for phi in phis:  # slots for the missing-incoming error path
            for value, _pred in phi.incoming:
                self.slot(value)
        return copies

    def phi_error(self, bi: int, prev: int, R: list) -> Exception:
        """The error of entering block ``bi`` from ``prev`` when some phi
        has no incoming for that edge: phis are evaluated in order, so an
        earlier phi's undefined incoming value wins."""
        pred = self.block_objs[prev]
        for phi in self.phis[bi]:
            incoming = phi.incoming_value_for(pred)
            if incoming is None:
                return InterpreterError(
                    f"phi {phi.ref()} missing incoming for %{pred.name}"
                )
            s = self.slots[id(incoming)]
            if R[s] is _UNSET:
                return _unset_error(self.failures, self.values, s)
        raise AssertionError("phi edge decoded as missing but every incoming exists")

    def _fused_geps(self) -> Dict[int, int]:
        """GEPs whose every executed use is the pointer of a fast load or
        store it dominates, mapped to a scratch slot.  Such a GEP keeps its
        result as a (buffer, offset) register pair, buffer in its own slot
        and offset in the scratch slot, instead of allocating a Pointer."""
        users: Dict[int, Tuple[int, int, object]] = {}
        for bi, body in enumerate(self.bodies):
            for inst in (*self.phis[bi], self.terms[bi]):
                users[id(inst)] = (bi, -1, inst)
            for pos, inst in enumerate(body):
                users[id(inst)] = (bi, pos, inst)
        fused: Dict[int, int] = {}
        for body in self.bodies:
            for inst in body:
                if not isinstance(inst, GetElementPtr) or not self._stride_sum(inst):
                    continue
                ok = True
                for use in inst.uses:
                    site = users.get(id(use.user))
                    if site is None:
                        continue  # never executed in this function
                    bi, pos, user = site
                    if isinstance(user, Load) and use.index == 0:
                        ok = _exact_layout(user.type) is not None
                    elif isinstance(user, Store) and use.index == 1:
                        ok = (
                            _exact_layout(user.value.type) is not None
                            and self.ready(user.value, bi, pos)
                        )
                    else:
                        ok = False
                    if not ok or not self.ready(inst, bi, pos):
                        ok = False
                        break
                if ok:
                    fused[id(inst)] = self.scratch()
        return fused

    def _stride_sum(self, inst: GetElementPtr) -> bool:
        bi, pos = self.defs[id(inst)]
        return _array_strides(inst.source_type, len(inst.indices)) is not None and all(
            self.ready(v, bi, pos) for v in inst.operands
        )

    # -- instructions ---------------------------------------------------------------
    def _apply(self, inst, bi: int, pos: int, fn: Callable, *operands) -> Op:
        """The generic form of ``inst``: read ``operands`` (default: all of
        them) in order, checked where not ready, and store ``fn`` of them."""
        d = self.slot(inst)
        readers = [self.read(v, bi, pos) for v in operands or inst.operands]

        def op(R):
            R[d] = fn(*[r(R) for r in readers])

        return op

    def _op(self, inst, bi: int, pos: int) -> Op:
        for cls, decode in _DECODERS:
            if isinstance(inst, cls):
                return decode(self, inst, bi, pos)

        def no_semantics(R):
            raise InterpreterError(f"no semantics for {inst!r}")

        return no_semantics

    def _binop(self, inst: BinaryOperator, bi: int, pos: int) -> Op:
        opcode, ty, d = inst.opcode, inst.type, self.slot(inst)
        if self.ready(inst.lhs, bi, pos) and self.ready(inst.rhs, bi, pos):
            fast = _fast_binop(opcode, ty, d, self.slot(inst.lhs), self.slot(inst.rhs))
            if fast is not None:
                return fast
        return self._apply(inst, bi, pos, partial(_binop, opcode, ty))

    def _icmp(self, inst: ICmp, bi: int, pos: int) -> Op:
        pred, ty, d = inst.predicate, inst.lhs.type, self.slot(inst)
        if (
            isinstance(ty, IntegerType)
            and self.ready(inst.lhs, bi, pos)
            and self.ready(inst.rhs, bi, pos)
        ):
            return _int_icmp(pred, ty, d, self.slot(inst.lhs), self.slot(inst.rhs))
        return self._apply(inst, bi, pos, partial(_icmp, pred, ty))

    def _fcmp(self, inst: FCmp, bi: int, pos: int) -> Op:
        return self._apply(inst, bi, pos, partial(_fcmp, inst.predicate))

    def _alloca(self, inst: Alloca, bi: int, pos: int) -> Op:
        allocated = inst.allocated_type

        def allocate(*count):
            n = int(count[0]) if count else 1
            return Pointer(MemoryBuffer(allocated.byte_size() * n, inst.name or "alloca"))

        return self._apply(inst, bi, pos, allocate)

    def _load(self, inst: Load, bi: int, pos: int) -> Op:
        ty, d = inst.type, self.slot(inst)
        layout = _exact_layout(ty)
        if layout is None or not self.ready(inst.pointer, bi, pos):
            return self._apply(inst, bi, pos, partial(_load, ty))
        unpack_from, size = layout.unpack_from, layout.size
        a = self.slot(inst.pointer)
        if id(inst.pointer) in self.fused:
            off_slot = self.fused[id(inst.pointer)]

            def fused(R):
                buf = R[a]
                off = R[off_slot]
                data = buf.data
                if 0 <= off and off + size <= len(data):
                    R[d] = unpack_from(data, off)[0]
                else:
                    R[d] = _load(ty, Pointer(buf, off))

            return fused

        def op(R):
            p = R[a]
            if p.__class__ is Pointer:
                off = p.offset
                data = p.buffer.data
                if 0 <= off and off + size <= len(data):
                    R[d] = unpack_from(data, off)[0]
                    return
            R[d] = _load(ty, p)

        return op

    def _store(self, inst: Store, bi: int, pos: int) -> Op:
        ty = inst.value.type
        layout = _exact_layout(ty)
        if (
            layout is None
            or not self.ready(inst.pointer, bi, pos)
            or not self.ready(inst.value, bi, pos)
        ):
            # Operands are (value, pointer); the pointer is read first.
            return self._apply(
                inst, bi, pos, lambda p, v: _store(ty, p, v), inst.pointer, inst.value
            )
        pack_into, size = layout.pack_into, layout.size
        a, v = self.slot(inst.pointer), self.slot(inst.value)
        if id(inst.pointer) in self.fused:
            off_slot = self.fused[id(inst.pointer)]

            def fused(R):
                buf = R[a]
                off = R[off_slot]
                data = buf.data
                if 0 <= off and off + size <= len(data):
                    try:
                        pack_into(data, off, R[v])
                        return
                    except Exception:  # the helper converts or raises exactly
                        pass
                _store(ty, Pointer(buf, off), R[v])

            return fused

        def op(R):
            p = R[a]
            if p.__class__ is Pointer:
                off = p.offset
                data = p.buffer.data
                if 0 <= off and off + size <= len(data):
                    try:
                        pack_into(data, off, R[v])
                        return
                    except Exception:  # the helper converts or raises exactly
                        pass
            _store(ty, p, R[v])

        return op

    def _gep(self, inst: GetElementPtr, bi: int, pos: int) -> Op:
        d, source = self.slot(inst), inst.source_type
        rb = self.read(inst.pointer, bi, pos)
        readers = [self.read(i, bi, pos) for i in inst.indices]

        def generic(R) -> Pointer:
            base = rb(R)
            if not isinstance(base, Pointer):
                raise InterpreterError(f"gep through non-pointer {base!r}")
            return _gep(source, base, [int(r(R)) for r in readers])

        if not self._stride_sum(inst):
            def op(R):
                R[d] = generic(R)

            return op
        strides = _array_strides(source, len(inst.indices))
        const, terms = 0, []
        for idx, stride in zip(inst.indices, strides):
            if isinstance(idx, ConstantInt):
                const += idx.value * stride
            else:
                terms.append((self.slot(idx), stride))
        return _stride_gep(
            d, self.slot(inst.pointer), const, terms, generic,
            self.fused.get(id(inst)),
        )

    def _cast(self, inst: Cast, bi: int, pos: int) -> Op:
        opcode, to, src, d = inst.opcode, inst.type, inst.value.type, self.slot(inst)
        if self.ready(inst.value, bi, pos):
            fast = _fast_cast(opcode, to, src, d, self.slot(inst.value))
            if fast is not None:
                return fast
        return self._apply(inst, bi, pos, partial(_cast, opcode, to, src))

    def _select(self, inst: Select, bi: int, pos: int) -> Op:
        d = self.slot(inst)
        rc = self.read(inst.condition, bi, pos)
        rt = self.read(inst.true_value, bi, pos)
        rf = self.read(inst.false_value, bi, pos)
        if all(isinstance(r, itemgetter) for r in (rc, rt, rf)):
            c, t, f = (self.slot(v) for v in inst.operands)

            def fast(R):
                R[d] = R[t] if R[c] else R[f]

            return fast

        def op(R):
            R[d] = rt(R) if rc(R) else rf(R)

        return op

    def _call(self, inst: Call, bi: int, pos: int) -> Op:
        d, callee = self.slot(inst), inst.callee
        readers = [self.read(a, bi, pos) for a in inst.args]
        if isinstance(callee, Function) and callee.is_declaration:
            self.externs.append((callee, callee.name))
            impl = _extern(callee.name, inst.type)

            def extern(R):
                R[d] = impl([r(R) for r in readers])

            return extern
        self.stepped = True
        interp = self.interp

        def op(R):
            args = [r(R) for r in readers]
            if not callee.is_declaration:
                R[d] = interp._call(callee, args)
            else:
                R[d] = _extern(callee.name, inst.type)(args)

        return op

    def _freeze(self, inst: Freeze, bi: int, pos: int) -> Op:
        return self._apply(inst, bi, pos, lambda v: v)

    def _extract(self, inst: ExtractValue, bi: int, pos: int) -> Op:
        indices = inst.indices

        def extract(agg):
            for idx in indices:
                agg = agg[idx]
            return agg

        return self._apply(inst, bi, pos, extract)

    def _insert(self, inst: InsertValue, bi: int, pos: int) -> Op:
        d, indices = self.slot(inst), inst.indices
        ra, rv = self.read(inst.aggregate, bi, pos), self.read(inst.value, bi, pos)

        def op(R):
            agg = _deep_copy(ra(R))
            target = agg
            for idx in indices[:-1]:
                target = target[idx]
            target[indices[-1]] = rv(R)
            R[d] = agg

        return op

    # -- terminators ---------------------------------------------------------------
    def _terminator(self, bi: int) -> Callable[[list], int]:
        term, block, pos = self.terms[bi], self.block_objs[bi], len(self.bodies[bi])
        if term is None:
            def fell_through(R):
                raise InterpreterError(f"block %{block.name} fell through")

            return fell_through
        if isinstance(term, Return):
            if term.value is None:
                return lambda R: -1
            rv = self.read(term.value, bi, pos)

            def ret(R):
                R[_RET] = rv(R)
                return -1

            return ret
        if isinstance(term, Branch):
            target = self.block_index(term.target)
            return lambda R: target
        if isinstance(term, CondBranch):
            rc = self.read(term.condition, bi, pos)
            t, f = self.block_index(term.true_target), self.block_index(term.false_target)
            if isinstance(rc, itemgetter):
                c = self.slot(term.condition)
                return lambda R: t if R[c] else f
            return lambda R: t if rc(R) else f
        if isinstance(term, Switch):
            rv = self.read(term.value, bi, pos)
            default = self.block_index(term.default)
            cases = [(const.value, self.block_index(target)) for const, target in term.cases]

            def switch(R):
                value = rv(R)
                for const, target in cases:
                    if const == value:
                        return target
                return default

            return switch
        fn = self.fn

        def unreachable(R):
            raise InterpreterError(f"reached 'unreachable' in @{fn.name}")

        return unreachable


def _unset_error(failures: Dict[int, Exception], values: List[object], s: int) -> Exception:
    """The error of reading slot ``s`` before anything was put in it."""
    failure = failures.get(s)
    if failure is not None:
        return type(failure)(*failure.args)
    return InterpreterError(f"use of undefined value {values[s]!r}")


_DECODERS: List[Tuple[type, Callable]] = [
    (BinaryOperator, _Decoded._binop),
    (ICmp, _Decoded._icmp),
    (FCmp, _Decoded._fcmp),
    (Alloca, _Decoded._alloca),
    (Load, _Decoded._load),
    (Store, _Decoded._store),
    (GetElementPtr, _Decoded._gep),
    (Cast, _Decoded._cast),
    (Select, _Decoded._select),
    (Call, _Decoded._call),
    (Freeze, _Decoded._freeze),
    (ExtractValue, _Decoded._extract),
    (InsertValue, _Decoded._insert),
]


# -- fast closures ----------------------------------------------------------------
# Each computes exactly what its helper computes for well-typed values and
# defers to the helper otherwise.


def _parallel_copy(dests: List[int], sources: List[int]) -> Op:
    if len(dests) == 1:
        d, s = dests[0], sources[0]

        def copy1(R):
            R[d] = R[s]

        return copy1
    get, pairs = itemgetter(*sources), list(enumerate(dests))

    def copy(R):
        values = get(R)
        for i, d in pairs:
            R[d] = values[i]

    return copy


def _checked_copy(dests: List[int], readers: List[Callable]) -> Op:
    def copy(R):
        values = [r(R) for r in readers]
        for d, v in zip(dests, values):
            R[d] = v

    return copy


_INT_ARITH = {
    "add": operator.add, "sub": operator.sub, "mul": operator.mul,
    "and": operator.and_, "or": operator.or_, "xor": operator.xor,
}


def _fast_binop(opcode: str, ty: Type, d: int, a: int, b: int) -> Optional[Op]:
    if isinstance(ty, FloatType) and ty.kind in ("float", "double"):
        return _fast_float_binop(opcode, ty.kind == "float", d, a, b)
    fn = _INT_ARITH.get(opcode)
    if fn is None or not isinstance(ty, IntegerType):
        return None
    sign, mask = 1 << (ty.width - 1), ty.max_unsigned

    def wrapped(R):
        try:
            R[d] = ((fn(R[a], R[b]) + sign) & mask) - sign
        except Exception:  # not two ints: the helper raises exactly
            R[d] = _binop(opcode, ty, R[a], R[b])

    return wrapped


def _fast_float_binop(opcode: str, single: bool, d: int, a: int, b: int) -> Optional[Op]:
    # The arithmetic is spelled out, as in the helper, rather than taken
    # from `operator`: CPython's specialised float opcodes and the generic
    # float methods propagate different NaN payloads.
    pack, unpack = _F32.pack, _F32.unpack
    if opcode == "fadd":
        def fadd32(R):
            R[d] = unpack(pack(R[a] + R[b]))[0]

        def fadd64(R):
            R[d] = float(R[a] + R[b])

        return fadd32 if single else fadd64
    if opcode == "fsub":
        def fsub32(R):
            R[d] = unpack(pack(R[a] - R[b]))[0]

        def fsub64(R):
            R[d] = float(R[a] - R[b])

        return fsub32 if single else fsub64
    if opcode == "fmul":
        def fmul32(R):
            R[d] = unpack(pack(R[a] * R[b]))[0]

        def fmul64(R):
            R[d] = float(R[a] * R[b])

        return fmul32 if single else fmul64
    return None


def _int_icmp(pred: str, ty: IntegerType, d: int, a: int, b: int) -> Op:
    if pred in _ICMP_SIGNED:
        cmp = _ICMP_SIGNED[pred]

        def signed(R):
            l, r = R[a], R[b]
            if int is l.__class__ is r.__class__:
                R[d] = 1 if cmp(l, r) else 0
            else:
                R[d] = _icmp(pred, ty, l, r)

        return signed
    cmp, mask = _ICMP_UNSIGNED[pred], ty.max_unsigned

    def unsigned(R):
        l, r = R[a], R[b]
        if int is l.__class__ is r.__class__:
            R[d] = 1 if cmp(l & mask, r & mask) else 0
        else:
            R[d] = _icmp(pred, ty, l, r)

    return unsigned


def _fast_cast(opcode: str, to: Type, src: Type, d: int, a: int) -> Optional[Op]:
    if opcode in ("sext", "trunc") and isinstance(to, IntegerType):
        sign, mask = 1 << (to.width - 1), to.max_unsigned

        def wrap(R):
            try:
                R[d] = ((R[a] + sign) & mask) - sign
            except TypeError:  # not an int: the helper converts or raises
                R[d] = _cast(opcode, to, src, R[a])

        return wrap
    if opcode == "bitcast":
        def bitcast(R):
            R[d] = R[a]

        return bitcast
    return None


def _stride_gep(
    d: int, a: int, const: int, terms: List[Tuple[int, int]],
    generic: Callable[[list], Pointer], off_slot: Optional[int],
) -> Op:
    """A GEP whose offset is ``const`` plus index × stride ``terms``.  With
    ``off_slot`` the result is kept fused: buffer in ``d``, offset in
    ``off_slot``; otherwise a :class:`Pointer` goes in ``d``.  Anything but
    a Pointer base and integer indices takes ``generic``."""
    if off_slot is None:
        def op(R):
            p = R[a]
            if p.__class__ is Pointer:
                off = p.offset + const
                try:
                    for s, k in terms:
                        off += R[s] * k
                except TypeError:  # a non-number index: the helper raises
                    off = None
                if off.__class__ is int:
                    R[d] = Pointer(p.buffer, off)
                    return
            R[d] = generic(R)

        return op
    o = off_slot

    def fused(R):
        p = R[a]
        if p.__class__ is Pointer:
            off = p.offset + const
            try:
                for s, k in terms:
                    off += R[s] * k
            except TypeError:  # a non-number index: the helper raises
                off = None
            if off.__class__ is int:
                R[d] = p.buffer
                R[o] = off
                return
        q = generic(R)
        R[d] = q.buffer
        R[o] = q.offset

    return fused


# -- execution ----------------------------------------------------------------------


class Interpreter:
    def __init__(self, module: Module, max_steps: int = 50_000_000):
        self.module = module
        self.max_steps = max_steps
        self.steps = 0
        self.globals: Dict[str, Pointer] = {}
        # Decoded functions, keyed by function and checked against
        # ``Function.version``; they live and die with this interpreter.
        self._codes: Dict[Function, _Decoded] = {}
        self._init_globals()

    def _init_globals(self) -> None:
        for g in self.module.globals:
            buf = MemoryBuffer(g.value_type.byte_size(), f"@{g.name}")
            if g.initializer is not None:
                self._store_constant(buf, 0, g.value_type, g.initializer)
            self.globals[g.name] = Pointer(buf, 0)

    def _store_constant(self, buf: MemoryBuffer, offset: int, type: Type, const) -> None:
        if isinstance(const, ConstantAggregateZero) or isinstance(
            const, (UndefValue, PoisonValue)
        ):
            return  # buffer already zeroed
        if isinstance(const, ConstantInt):
            fmt, size = _scalar_format(type)
            value = const.value if type.bit_width() > 1 else const.value & 1
            buf.data[offset : offset + size] = _struct.pack(fmt, value)
            return
        if isinstance(const, ConstantFloat):
            fmt, size = _scalar_format(type)
            buf.data[offset : offset + size] = _struct.pack(fmt, const.value)
            return
        if isinstance(const, ConstantAggregate):
            if isinstance(type, ArrayType):
                elem_size = type.element.byte_size()
                for i, member in enumerate(const.members):
                    self._store_constant(buf, offset + i * elem_size, type.element, member)
                return
            if isinstance(type, StructType):
                off = offset
                for member, etype in zip(const.members, type.elements):
                    self._store_constant(buf, off, etype, member)
                    off += etype.byte_size()
                return
        raise InterpreterError(f"cannot materialise constant {const!r}")

    # -- public API ------------------------------------------------------------
    def run(self, function: Union[str, Function], args: Sequence) -> object:
        """Execute ``function`` with ``args``.

        Arguments may be Python scalars (for int/float params), ``Pointer``,
        ``MemoryBuffer`` or ``numpy.ndarray`` (converted in place semantics:
        mutations are visible via :func:`numpy_from_buffer` on the returned
        buffers — use :func:`run_kernel` for the ergonomic wrapper).
        """
        fn = (
            self.module.get_function(function)
            if isinstance(function, str)
            else function
        )
        if fn is None or fn.is_declaration:
            raise InterpreterError(f"no defined function {function!r}")
        if len(args) != len(fn.arguments):
            raise InterpreterError(
                f"@{fn.name} expects {len(fn.arguments)} args, got {len(args)}"
            )
        converted = []
        for arg, param in zip(args, fn.arguments):
            if isinstance(arg, np.ndarray):
                converted.append(Pointer(buffer_from_numpy(arg, param.name)))
            elif isinstance(arg, MemoryBuffer):
                converted.append(Pointer(arg, 0))
            else:
                converted.append(arg)
        # Constant aggregates are shared by every run of the decoded form.
        return _deep_copy(self._call(fn, converted))

    # -- execution engine ----------------------------------------------------------
    def _decoded(self, fn: Function, nargs: int) -> _Decoded:
        if nargs < len(fn.arguments):
            # Unsupplied arguments stay unset: decode with every read checked.
            return _Decoded(self, fn, trust_arguments=False)
        code = self._codes.get(fn)
        if (
            code is None
            or code.version != fn.version
            or any(c.blocks or c.name != name for c, name in code.externs)
        ):
            code = self._codes[fn] = _Decoded(self, fn)
        return code

    def _call(self, fn: Function, args: List) -> object:
        code = self._decoded(fn, len(args))
        R = code.template[:]
        for slot, param, value in zip(code.arg_slots, fn.arguments, args):
            R[slot] = _coerce(value, param.type)
        globals_ = self.globals
        for slot, name in code.global_slots:
            R[slot] = globals_[name]
        blocks = code.blocks
        limit = self.max_steps
        if blocks[0][0] is not None:
            raise InterpreterError(
                f"phi in entry-reached block %{code.block_objs[0].name} with no predecessor"
            )
        bi = prev = 0
        while True:
            copies, ops, n, stepped, term = blocks[bi]
            if copies is not None:
                copy = copies[prev]
                if copy is None:
                    raise code.phi_error(bi, prev, R)
                copy(R)
            steps = self.steps + n
            if steps <= limit and not stepped:
                # The whole block fits the budget: count it once.
                self.steps = steps
                try:
                    for op in ops:
                        op(R)
                except BaseException:
                    self.steps = steps - n + ops.index(op) + 1
                    raise
            else:
                for op in ops:
                    self.steps += 1
                    if self.steps > limit:
                        raise self._budget_error(fn)
                    op(R)
                if n > len(ops):
                    self.steps += 1
                    if self.steps > limit:
                        raise self._budget_error(fn)
            prev = bi
            bi = term(R)
            if bi < 0:
                return R[_RET]

    def _budget_error(self, fn: Function) -> InterpreterError:
        return InterpreterError(
            f"step budget exceeded ({self.max_steps}); "
            f"possible infinite loop in @{fn.name}"
        )


def _interpret(
    interp: Interpreter,
    fn: Function,
    call_args: List[object],
    buffers: Dict[str, Tuple[MemoryBuffer, np.dtype, tuple]],
) -> Dict[str, np.ndarray]:
    """Run ``fn`` under the ``interpret:<name>`` span, bump the
    ``interpreter.runs``/``interpreter.steps`` counters and read the array
    arguments back."""
    with get_tracer().span(f"interpret:{fn.name}", category="interpreter") as span:
        interp.run(fn, call_args)
        span.set(steps=interp.steps)
    registry = get_statistics()
    registry.bump("interpreter", "runs")
    registry.bump("interpreter", "steps", interp.steps)
    return {
        key: numpy_from_buffer(buf, dtype, shape)
        for key, (buf, dtype, shape) in buffers.items()
    }


def run_kernel(
    module: Module,
    name: str,
    arrays: Dict[str, np.ndarray],
    scalars: Optional[Dict[str, object]] = None,
    max_steps: int = 50_000_000,
) -> Dict[str, np.ndarray]:
    """Run a kernel whose pointer args are named arrays; returns the (possibly
    mutated) arrays keyed by argument name.

    ``arrays`` maps argument name → numpy array; ``scalars`` maps argument
    name → Python scalar.  Unknown argument names raise.
    """
    scalars = scalars or {}
    fn = module.get_function(name)
    if fn is None:
        raise InterpreterError(f"no function @{name} in module")
    interp = Interpreter(module, max_steps=max_steps)
    buffers: Dict[str, Tuple[MemoryBuffer, np.dtype, tuple]] = {}
    call_args: List[object] = []
    for arg in fn.arguments:
        if arg.name in arrays:
            array = arrays[arg.name]
            buf = buffer_from_numpy(array, arg.name)
            buffers[arg.name] = (buf, array.dtype, array.shape)
            call_args.append(Pointer(buf, 0))
        elif arg.name in scalars:
            call_args.append(scalars[arg.name])
        else:
            raise InterpreterError(
                f"argument {arg.name!r} of @{name} not supplied "
                f"(have arrays={list(arrays)}, scalars={list(scalars)})"
            )
    return _interpret(interp, fn, call_args, buffers)


_DESCRIPTOR_SUFFIX = re.compile(r"^(?P<base>.+?)_(?P<field>aligned|offset|size(?P<sdim>\d+)|stride(?P<tdim>\d+))$")


def run_descriptor_kernel(
    module: Module,
    name: str,
    arrays: Dict[str, np.ndarray],
    scalars: Optional[Dict[str, object]] = None,
    max_steps: int = 50_000_000,
) -> Dict[str, np.ndarray]:
    """Run a *pre-adaptor* kernel that follows the MLIR memref-descriptor
    convention: each array argument ``X`` is expanded to ``X`` (allocated
    pointer), ``X_aligned``, ``X_offset`` and per-dimension
    ``X_sizeN``/``X_strideN`` i64 scalars.

    Fills the descriptor fields from the NumPy shapes (row-major,
    contiguous, zero offset) so the same ``arrays``/``scalars`` a
    :func:`run_kernel` call takes can drive the modern module too — the
    differential pre/post-adaptor sweep depends on exactly this.
    """
    scalars = scalars or {}
    fn = module.get_function(name)
    if fn is None:
        raise InterpreterError(f"no function @{name} in module")
    interp = Interpreter(module, max_steps=max_steps)
    buffers: Dict[str, Tuple[MemoryBuffer, np.dtype, tuple]] = {}
    call_args: List[object] = []

    def strides_of(shape: tuple) -> List[int]:
        out = [1] * len(shape)
        for i in range(len(shape) - 2, -1, -1):
            out[i] = out[i + 1] * shape[i + 1]
        return out

    for arg in fn.arguments:
        if arg.name in arrays:
            array = arrays[arg.name]
            if arg.name not in buffers:
                buffers[arg.name] = (
                    buffer_from_numpy(array, arg.name),
                    array.dtype,
                    array.shape,
                )
            call_args.append(Pointer(buffers[arg.name][0], 0))
            continue
        if arg.name in scalars:
            call_args.append(scalars[arg.name])
            continue
        m = _DESCRIPTOR_SUFFIX.match(arg.name)
        base = m.group("base") if m else None
        if m and base in arrays:
            field = m.group("field")
            shape = arrays[base].shape
            if field == "aligned":
                if base not in buffers:
                    array = arrays[base]
                    buffers[base] = (
                        buffer_from_numpy(array, base), array.dtype, array.shape
                    )
                call_args.append(Pointer(buffers[base][0], 0))
            elif field == "offset":
                call_args.append(0)
            elif field.startswith("size"):
                call_args.append(shape[int(m.group("sdim"))])
            else:
                call_args.append(strides_of(shape)[int(m.group("tdim"))])
            continue
        raise InterpreterError(
            f"argument {arg.name!r} of @{name} not supplied and not a "
            f"descriptor field of any array (have arrays={list(arrays)}, "
            f"scalars={list(scalars)})"
        )
    return _interpret(interp, fn, call_args, buffers)
