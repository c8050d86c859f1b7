"""Parser for the ``.ll``-subset emitted by :mod:`repro.ir.printer`.

Implements a tokenizer plus recursive-descent parser covering everything the
printer produces: module header, globals, define/declare, the full
instruction set, and bottom-of-module metadata with instruction attachments.
Forward references (branches to later blocks, phi back-edges) are resolved
with placeholder values patched on definition.

A block label's ``; preds = ...`` comment is read back, not skipped: it
fixes the order of the block's terminator uses, as LLVM's ``uselistorder``
directives do, so print∘parse is a fixed point even when transforms left
a use list out of textual order.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from .instructions import (
    CAST_OPS,
    FCMP_PREDICATES,
    FLOAT_BINOPS,
    ICMP_PREDICATES,
    INT_BINOPS,
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
    Instruction,
    Load,
    Phi,
    Return,
    Select,
    Store,
    Switch,
    Unreachable,
)
from .metadata import MDNode, MDString, Metadata, ValueAsMetadata
from .module import BasicBlock, Function, Module
from .types import (
    ArrayType,
    FloatType,
    FunctionType,
    IntegerType,
    PointerType,
    StructType,
    Type,
    VectorType,
    f32,
    f64,
    half,
    i1,
    void,
)
from .values import (
    Argument,
    ConstantAggregate,
    ConstantAggregateZero,
    ConstantFloat,
    ConstantInt,
    ConstantPointerNull,
    PoisonValue,
    UndefValue,
    Value,
)

__all__ = ["parse_module", "ParseError"]


class ParseError(Exception):
    def __init__(self, message: str, line: Optional[int] = None):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


_TOKEN_RE = re.compile(
    r"""
    (?P<WS>[ \t\r\n]+)
  | (?P<COMMENT>;[^\n]*)
  | (?P<LOCAL>%[A-Za-z0-9$._-]+)
  | (?P<GLOBAL>@[A-Za-z0-9$._-]+)
  | (?P<MDSTRING>!"(?:[^"\\]|\\.)*")
  | (?P<MDNAME>![A-Za-z$._][A-Za-z0-9$._-]*)
  | (?P<MDID>![0-9]+)
  | (?P<MDBANG>!)
  | (?P<STRING>"(?:[^"\\]|\\.)*")
  | (?P<HEXFP>0xH?[0-9A-Fa-f]+)
  | (?P<FLOAT>-?[0-9]+\.[0-9]*(?:[eE][+-]?[0-9]+)?|-?[0-9]+[eE][+-]?[0-9]+)
  | (?P<INT>-?[0-9]+)
  | (?P<ELLIPSIS>\.\.\.)
  | (?P<WORD>[A-Za-z$._][A-Za-z0-9$._]*)
  | (?P<PUNCT>[()\[\]{}<>,=*:])
""",
    re.VERBOSE,
)


class Token:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind: str, text: str, line: int):
        self.kind = kind
        self.text = text
        self.line = line

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r})"


_PREDS_PREFIX = "; preds = "


def _tokenize(source: str, preds: Dict[int, List[str]]) -> List[Token]:
    """The token list of ``source``.  Each ``; preds = %a, %b`` comment's
    block names land in ``preds`` under the comment's line number."""
    tokens: List[Token] = []
    line = 1
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", line)
        kind = m.lastgroup
        text = m.group()
        if kind == "WS":
            line += text.count("\n")
        elif kind != "COMMENT":
            tokens.append(Token(kind, text, line))
        elif text.startswith(_PREDS_PREFIX):
            preds[line] = [
                name.strip().lstrip("%")
                for name in text[len(_PREDS_PREFIX):].split(",")
            ]
        pos = m.end()
    tokens.append(Token("EOF", "", line))
    return tokens


_PARAM_ATTRS = {
    "noalias",
    "nocapture",
    "readonly",
    "readnone",
    "writeonly",
    "nonnull",
    "byval",
    "signext",
    "zeroext",
}
_FN_ATTRS = {"nounwind", "willreturn", "hls_top", "noinline", "alwaysinline", "optnone"}
_FASTMATH = {"fast", "nnan", "ninf", "nsz", "contract", "reassoc", "arcp", "afn"}


class _Parser:
    def __init__(self, source: str):
        # Line -> block names of the ``; preds =`` comment on that line.
        self._preds: Dict[int, List[str]] = {}
        self.tokens = _tokenize(source, self._preds)
        self.pos = 0
        self.module = Module()
        self._md_nodes: Dict[int, MDNode] = {}
        self._md_attachments: List[Tuple[Instruction, str, int]] = []
        self._pointer_seen_typed = False
        self._pointer_seen_opaque = False

    # -- token helpers --------------------------------------------------------
    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        tok = self.peek()
        if tok.kind == kind and (text is None or tok.text == text):
            return self.next()
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.next()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise ParseError(f"expected {want!r}, got {tok.text!r}", tok.line)
        return tok

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.peek().line)

    # -- types -------------------------------------------------------------------
    def parse_type(self) -> Type:
        tok = self.peek()
        base: Type
        if tok.kind == "WORD":
            word = tok.text
            if word == "void":
                self.next()
                base = void
            elif word == "ptr":
                self.next()
                base = PointerType()
                self._pointer_seen_opaque = True
                if self.accept("WORD", "addrspace"):
                    self.expect("PUNCT", "(")
                    space = int(self.expect("INT").text)
                    self.expect("PUNCT", ")")
                    base = PointerType(None, space)
            elif re.fullmatch(r"i[0-9]+", word):
                self.next()
                base = IntegerType(int(word[1:]))
            elif word in ("half", "float", "double"):
                self.next()
                base = FloatType(word)
            elif word == "label":
                self.next()
                from .types import LabelType

                base = LabelType()
            elif word == "metadata":
                self.next()
                from .types import MetadataType

                base = MetadataType()
            else:
                raise self.error(f"unknown type {word!r}")
        elif tok.text == "[":
            self.next()
            count = int(self.expect("INT").text)
            self.expect("WORD", "x")
            element = self.parse_type()
            self.expect("PUNCT", "]")
            base = ArrayType(element, count)
        elif tok.text == "{":
            self.next()
            elems = []
            if self.peek().text != "}":
                elems.append(self.parse_type())
                while self.accept("PUNCT", ","):
                    elems.append(self.parse_type())
            self.expect("PUNCT", "}")
            base = StructType(elems)
        elif tok.text == "<":
            self.next()
            if self.peek().text == "{":
                self.next()
                elems = []
                if self.peek().text != "}":
                    elems.append(self.parse_type())
                    while self.accept("PUNCT", ","):
                        elems.append(self.parse_type())
                self.expect("PUNCT", "}")
                self.expect("PUNCT", ">")
                base = StructType(elems, packed=True)
            else:
                count = int(self.expect("INT").text)
                self.expect("WORD", "x")
                element = self.parse_type()
                self.expect("PUNCT", ">")
                base = VectorType(element, count)
        else:
            raise self.error(f"expected type, got {tok.text!r}")
        while self.accept("PUNCT", "*"):
            base = PointerType(base)
            self._pointer_seen_typed = True
            if self.accept("WORD", "addrspace"):
                self.expect("PUNCT", "(")
                space = int(self.expect("INT").text)
                self.expect("PUNCT", ")")
                base = PointerType(base.pointee, space)
        return base

    # -- constants ------------------------------------------------------------------
    def parse_constant(self, type: Type) -> Value:
        tok = self.peek()
        if tok.kind == "INT":
            self.next()
            if not isinstance(type, IntegerType):
                raise self.error(f"integer literal for non-integer type {type}")
            return ConstantInt(type, int(tok.text))
        if tok.kind == "FLOAT":
            self.next()
            if not isinstance(type, FloatType):
                raise self.error(f"float literal for non-float type {type}")
            return ConstantFloat(type, float(tok.text))
        if tok.kind == "HEXFP":
            self.next()
            import struct as _struct

            if tok.text.startswith("0xH"):
                bits = int(tok.text[3:], 16)
                value = _struct.unpack("<e", _struct.pack("<H", bits))[0]
            else:
                bits = int(tok.text[2:], 16)
                value = _struct.unpack("<d", _struct.pack("<Q", bits))[0]
            if not isinstance(type, FloatType):
                raise self.error(f"float literal for non-float type {type}")
            return ConstantFloat(type, value)
        if tok.kind == "WORD":
            if tok.text == "true":
                self.next()
                return ConstantInt(i1, 1)
            if tok.text == "false":
                self.next()
                return ConstantInt(i1, 0)
            if tok.text == "null":
                self.next()
                if not isinstance(type, PointerType):
                    raise self.error("null literal for non-pointer type")
                return ConstantPointerNull(type)
            if tok.text == "undef":
                self.next()
                return UndefValue(type)
            if tok.text == "poison":
                self.next()
                return PoisonValue(type)
            if tok.text == "zeroinitializer":
                self.next()
                return ConstantAggregateZero(type)
        if tok.text in ("[", "{", "<"):
            open_tok = self.next().text
            close = {"[": "]", "{": "}", "<": ">"}[open_tok]
            members = []
            if self.peek().text != close:
                while True:
                    mtype = self.parse_type()
                    members.append(self.parse_constant(mtype))
                    if not self.accept("PUNCT", ","):
                        break
            self.expect("PUNCT", close)
            return ConstantAggregate(type, members)
        raise self.error(f"expected constant, got {tok.text!r}")

    # -- module --------------------------------------------------------------------
    def parse(self) -> Module:
        while True:
            tok = self.peek()
            if tok.kind == "EOF":
                break
            if tok.kind == "WORD" and tok.text == "target":
                self.next()
                self.expect("WORD", "triple")
                self.expect("PUNCT", "=")
                triple = self.expect("STRING").text.strip('"')
                self.module.target_triple = triple
            elif tok.kind == "GLOBAL":
                self._parse_global()
            elif tok.kind == "WORD" and tok.text in ("define", "declare"):
                self._parse_function(tok.text == "define")
            elif tok.kind == "MDID":
                self._parse_metadata_def()
            else:
                raise self.error(f"unexpected top-level token {tok.text!r}")
        self._resolve_md_attachments()
        # Pointer regime: typed pointers anywhere mean the module is in
        # adapted (typed) mode.
        if self._pointer_seen_typed and not self._pointer_seen_opaque:
            self.module.opaque_pointers = False
        return self.module

    def _parse_global(self) -> None:
        name = self.next().text[1:]
        self.expect("PUNCT", "=")
        linkage = "external"
        if self.peek().kind == "WORD" and self.peek().text in (
            "internal",
            "external",
            "private",
        ):
            linkage = self.next().text
        kind = self.expect("WORD").text
        if kind not in ("global", "constant"):
            raise self.error(f"expected global/constant, got {kind!r}")
        value_type = self.parse_type()
        initializer = None
        tok = self.peek()
        if tok.kind in ("INT", "FLOAT", "HEXFP") or tok.text in (
            "true",
            "false",
            "null",
            "undef",
            "zeroinitializer",
            "[",
            "{",
            "<",
        ):
            initializer = self.parse_constant(value_type)
        g = self.module.add_global(name, value_type, initializer, kind == "constant")
        g.linkage = linkage
        if self.accept("PUNCT", ","):
            self.expect("WORD", "align")
            g.align = int(self.expect("INT").text)

    def _parse_function(self, is_definition: bool) -> None:
        self.next()  # define/declare
        return_type = self.parse_type()
        name = self.expect("GLOBAL").text[1:]
        self.expect("PUNCT", "(")
        param_types: List[Type] = []
        param_names: List[str] = []
        param_attrs: List[set] = []
        vararg = False
        if self.peek().text != ")":
            while True:
                if self.accept("ELLIPSIS"):
                    vararg = True
                    break
                ptype = self.parse_type()
                attrs = set()
                while self.peek().kind == "WORD" and self.peek().text in _PARAM_ATTRS:
                    attrs.add(self.next().text)
                pname = ""
                if self.peek().kind == "LOCAL":
                    pname = self.next().text[1:]
                param_types.append(ptype)
                param_names.append(pname)
                param_attrs.append(attrs)
                if not self.accept("PUNCT", ","):
                    break
        self.expect("PUNCT", ")")
        ftype = FunctionType(return_type, param_types, vararg)
        fn = self.module.get_function(name)
        if fn is None:
            fn = self.module.add_function(name, ftype, param_names)
        for arg, attrs in zip(fn.arguments, param_attrs):
            arg.attributes |= attrs
        while self.peek().kind == "WORD" and self.peek().text in _FN_ATTRS:
            fn.attributes.add(self.next().text)
        if not is_definition:
            return
        self.expect("PUNCT", "{")
        self._parse_body(fn)
        self.expect("PUNCT", "}")

    # -- function body ------------------------------------------------------------
    def _parse_body(self, fn: Function) -> None:
        values: Dict[str, Value] = {}
        placeholders: Dict[str, Value] = {}
        for arg in fn.arguments:
            values[arg.name] = arg

        def lookup_block(name: str) -> BasicBlock:
            existing = values.get(name)
            if isinstance(existing, BasicBlock):
                return existing
            block = BasicBlock(name)
            block.parent = fn
            values[name] = block
            return block

        def lookup_value(name: str, type: Type) -> Value:
            existing = values.get(name)
            if existing is not None:
                return existing
            ph = placeholders.get(name)
            if ph is None:
                ph = Value(type, name)
                placeholders[name] = ph
            return ph

        def define(name: str, value: Value) -> None:
            value.name = name
            values[name] = value
            ph = placeholders.pop(name, None)
            if ph is not None:
                ph.replace_all_uses_with(value)

        current: Optional[BasicBlock] = None
        declared_preds: List[Tuple[BasicBlock, List[str]]] = []
        while self.peek().text != "}":
            tok = self.peek()
            # Block label: WORD/INT followed by ':'
            if tok.kind in ("WORD", "INT") and self.peek(1).text == ":":
                label = self.next().text
                self.expect("PUNCT", ":")
                current = lookup_block(label)
                if current not in fn.blocks:
                    fn.blocks.append(current)
                if tok.line in self._preds:
                    declared_preds.append((current, self._preds[tok.line]))
                continue
            if current is None:
                # Entry block without an explicit label.
                current = lookup_block("entry")
                fn.blocks.append(current)
            inst = self._parse_instruction(fn, current, lookup_value, lookup_block, define)
            current.append(inst)
        for block, names in declared_preds:
            _restore_pred_order(block, names)

    def _parse_operand(self, type: Type, lookup_value) -> Value:
        tok = self.peek()
        if tok.kind == "LOCAL":
            self.next()
            return lookup_value(tok.text[1:], type)
        if tok.kind == "GLOBAL":
            self.next()
            name = tok.text[1:]
            g = self.module.get_global(name) or self.module.get_function(name)
            if g is None:
                raise self.error(f"reference to unknown global @{name}")
            return g
        return self.parse_constant(type)

    def _parse_typed_operand(self, lookup_value) -> Value:
        type = self.parse_type()
        while self.peek().kind == "WORD" and self.peek().text in _PARAM_ATTRS:
            self.next()
        return self._parse_operand(type, lookup_value)

    def _parse_instruction(
        self, fn: Function, block: BasicBlock, lookup_value, lookup_block, define
    ) -> Instruction:
        result_name: Optional[str] = None
        if self.peek().kind == "LOCAL" and self.peek(1).text == "=":
            result_name = self.next().text[1:]
            self.expect("PUNCT", "=")
        op_tok = self.expect("WORD")
        opcode = op_tok.text
        inst = self._dispatch_instruction(opcode, lookup_value, lookup_block)
        if result_name is not None:
            define(result_name, inst)
        # Trailing metadata attachments: ", !kind !N"
        while self.peek().text == "," and self.peek(1).kind in ("MDNAME", "MDSTRING"):
            self.next()
            kind_tok = self.next()
            kind = kind_tok.text[1:]
            id_tok = self.expect("MDID")
            self._md_attachments.append((inst, kind, int(id_tok.text[1:])))
        return inst

    def _dispatch_instruction(self, opcode: str, lookup_value, lookup_block) -> Instruction:
        if opcode in INT_BINOPS or opcode in FLOAT_BINOPS:
            flags = {"nsw": False, "nuw": False, "exact": False}
            fast = set()
            while self.peek().kind == "WORD" and (
                self.peek().text in flags or self.peek().text in _FASTMATH
            ):
                flag = self.next().text
                if flag in flags:
                    flags[flag] = True
                else:
                    fast.add(flag)
            type = self.parse_type()
            lhs = self._parse_operand(type, lookup_value)
            self.expect("PUNCT", ",")
            rhs = self._parse_operand(type, lookup_value)
            inst = BinaryOperator(opcode, lhs, rhs)
            inst.nsw, inst.nuw, inst.exact = flags["nsw"], flags["nuw"], flags["exact"]
            inst.fast_math = fast
            return inst
        if opcode == "icmp":
            pred = self.expect("WORD").text
            type = self.parse_type()
            lhs = self._parse_operand(type, lookup_value)
            self.expect("PUNCT", ",")
            rhs = self._parse_operand(type, lookup_value)
            return ICmp(pred, lhs, rhs)
        if opcode == "fcmp":
            fast = set()
            while self.peek().kind == "WORD" and self.peek().text in _FASTMATH:
                fast.add(self.next().text)
            pred = self.expect("WORD").text
            type = self.parse_type()
            lhs = self._parse_operand(type, lookup_value)
            self.expect("PUNCT", ",")
            rhs = self._parse_operand(type, lookup_value)
            inst = FCmp(pred, lhs, rhs)
            inst.fast_math = fast
            return inst
        if opcode == "alloca":
            allocated = self.parse_type()
            array_size = None
            align = None
            while self.accept("PUNCT", ","):
                if self.accept("WORD", "align"):
                    align = int(self.expect("INT").text)
                else:
                    size_type = self.parse_type()
                    array_size = self._parse_operand(size_type, lookup_value)
            return Alloca(
                allocated,
                array_size,
                align=align,
                opaque_pointers=self.module.opaque_pointers,
            )
        if opcode == "load":
            type = self.parse_type()
            self.expect("PUNCT", ",")
            ptr_type = self.parse_type()
            pointer = self._parse_operand(ptr_type, lookup_value)
            align = None
            if self.peek().text == "," and self.peek(1).text == "align":
                self.next()
                self.next()
                align = int(self.expect("INT").text)
            return Load(type, pointer, align=align)
        if opcode == "store":
            value = self._parse_typed_operand(lookup_value)
            self.expect("PUNCT", ",")
            pointer = self._parse_typed_operand(lookup_value)
            align = None
            if self.peek().text == "," and self.peek(1).text == "align":
                self.next()
                self.next()
                align = int(self.expect("INT").text)
            return Store(value, pointer, align)
        if opcode == "getelementptr":
            inbounds = bool(self.accept("WORD", "inbounds"))
            source_type = self.parse_type()
            self.expect("PUNCT", ",")
            pointer = self._parse_typed_operand(lookup_value)
            indices = []
            while self.accept("PUNCT", ","):
                indices.append(self._parse_typed_operand(lookup_value))
            return GetElementPtr(
                source_type,
                pointer,
                indices,
                inbounds=inbounds,
                opaque_pointers=self.module.opaque_pointers,
            )
        if opcode in CAST_OPS:
            value = self._parse_typed_operand(lookup_value)
            self.expect("WORD", "to")
            to_type = self.parse_type()
            return Cast(opcode, value, to_type)
        if opcode == "phi":
            type = self.parse_type()
            phi = Phi(type)
            while True:
                self.expect("PUNCT", "[")
                value = self._parse_operand(type, lookup_value)
                self.expect("PUNCT", ",")
                block_name = self.expect("LOCAL").text[1:]
                self.expect("PUNCT", "]")
                phi.add_incoming(value, lookup_block(block_name))
                if not self.accept("PUNCT", ","):
                    break
            return phi
        if opcode == "select":
            cond = self._parse_typed_operand(lookup_value)
            self.expect("PUNCT", ",")
            tval = self._parse_typed_operand(lookup_value)
            self.expect("PUNCT", ",")
            fval = self._parse_typed_operand(lookup_value)
            return Select(cond, tval, fval)
        if opcode == "call" or opcode == "tail":
            if opcode == "tail":
                self.expect("WORD", "call")
            fast = set()
            while self.peek().kind == "WORD" and self.peek().text in _FASTMATH:
                fast.add(self.next().text)
            ret_type = self.parse_type()
            callee_name = self.expect("GLOBAL").text[1:]
            self.expect("PUNCT", "(")
            args = []
            if self.peek().text != ")":
                while True:
                    args.append(self._parse_typed_operand(lookup_value))
                    if not self.accept("PUNCT", ","):
                        break
            self.expect("PUNCT", ")")
            callee = self.module.get_function(callee_name)
            if callee is None:
                ftype = FunctionType(ret_type, [a.type for a in args])
                callee = self.module.declare_function(callee_name, ftype)
            inst = Call(callee, args)
            inst.fast_math = fast
            inst.tail = opcode == "tail"
            return inst
        if opcode == "freeze":
            value = self._parse_typed_operand(lookup_value)
            return Freeze(value)
        if opcode == "extractvalue":
            agg = self._parse_typed_operand(lookup_value)
            indices = []
            while self.accept("PUNCT", ","):
                indices.append(int(self.expect("INT").text))
            return ExtractValue(agg, indices)
        if opcode == "insertvalue":
            agg = self._parse_typed_operand(lookup_value)
            self.expect("PUNCT", ",")
            value = self._parse_typed_operand(lookup_value)
            indices = []
            while self.accept("PUNCT", ","):
                indices.append(int(self.expect("INT").text))
            return InsertValue(agg, value, indices)
        if opcode == "ret":
            if self.accept("WORD", "void"):
                return Return()
            return Return(self._parse_typed_operand(lookup_value))
        if opcode == "br":
            if self.accept("WORD", "label"):
                target = self.expect("LOCAL").text[1:]
                return Branch(lookup_block(target))
            type = self.parse_type()
            cond = self._parse_operand(type, lookup_value)
            self.expect("PUNCT", ",")
            self.expect("WORD", "label")
            t_name = self.expect("LOCAL").text[1:]
            self.expect("PUNCT", ",")
            self.expect("WORD", "label")
            f_name = self.expect("LOCAL").text[1:]
            return CondBranch(cond, lookup_block(t_name), lookup_block(f_name))
        if opcode == "switch":
            value = self._parse_typed_operand(lookup_value)
            self.expect("PUNCT", ",")
            self.expect("WORD", "label")
            default = lookup_block(self.expect("LOCAL").text[1:])
            self.expect("PUNCT", "[")
            cases = []
            while self.peek().text != "]":
                ctype = self.parse_type()
                const = self.parse_constant(ctype)
                self.expect("PUNCT", ",")
                self.expect("WORD", "label")
                cases.append((const, lookup_block(self.expect("LOCAL").text[1:])))
            self.expect("PUNCT", "]")
            return Switch(value, default, cases)
        if opcode == "unreachable":
            return Unreachable()
        raise self.error(f"unknown instruction opcode {opcode!r}")

    # -- metadata --------------------------------------------------------------------
    def _md_node(self, nid: int) -> MDNode:
        node = self._md_nodes.get(nid)
        if node is None:
            node = MDNode([])
            self._md_nodes[nid] = node
        return node

    def _parse_metadata_def(self) -> None:
        nid = int(self.next().text[1:])
        self.expect("PUNCT", "=")
        distinct = bool(self.accept("WORD", "distinct"))
        node = self._md_node(nid)
        node.distinct = distinct
        self.expect("MDBANG")
        self.expect("PUNCT", "{")
        operands: List[Optional[Metadata]] = []
        if self.peek().text != "}":
            while True:
                operands.append(self._parse_metadata_operand(nid))
                if not self.accept("PUNCT", ","):
                    break
        self.expect("PUNCT", "}")
        node.operands = operands

    def _parse_metadata_operand(self, self_id: int) -> Optional[Metadata]:
        tok = self.peek()
        if tok.kind == "MDSTRING":
            self.next()
            return MDString(tok.text[2:-1])
        if tok.kind == "MDID":
            self.next()
            ref_id = int(tok.text[1:])
            if ref_id == self_id:
                return None  # self-reference slot
            return self._md_node(ref_id)
        # Otherwise a typed constant: "i32 4" etc.
        type = self.parse_type()
        const = self.parse_constant(type)
        return ValueAsMetadata(const)

    def _resolve_md_attachments(self) -> None:
        # Canonicalize first: forward references are resolved by now, so
        # non-distinct nodes re-intern (parsing two identical ``!N`` defs
        # yields one shared object) and attachments point at the canonical
        # instances.
        from .metadata import intern_mdnode

        canon = {nid: intern_mdnode(node) for nid, node in self._md_nodes.items()}
        for inst, kind, nid in self._md_attachments:
            inst.metadata[kind] = canon[nid]


def _restore_pred_order(block: BasicBlock, names: List[str]) -> None:
    """Permute ``block``'s terminator uses so its predecessors come in the
    order ``names`` lists them; other uses keep their slots."""
    rank = {name: i for i, name in enumerate(names)}
    slots = [
        i for i, use in enumerate(block.uses)
        if isinstance(use.user, Instruction) and use.user.is_terminator
    ]
    ordered = sorted(
        (block.uses[i] for i in slots),
        key=lambda use: rank.get(use.user.parent.name, len(rank)),
    )
    for i, use in zip(slots, ordered):
        block.uses[i] = use


def parse_module(source: str) -> Module:
    parser = _Parser(source)
    # Module identity and flow provenance travel in header comments.
    name_match = re.search(r";\s*ModuleID\s*=\s*'([^']*)'", source)
    if name_match:
        parser.module.name = name_match.group(1)
    flow_match = re.search(r";\s*source-flow:\s*(\S+)", source)
    if flow_match:
        parser.module.source_flow = flow_match.group(1)
    mode_match = re.search(r";\s*pointer-mode:\s*(\S+)", source)
    if mode_match:
        # Must be known before parsing: instruction result pointer types
        # (alloca/gep) depend on the module's pointer regime.
        parser.module.opaque_pointers = mode_match.group(1) == "opaque"
    module = parser.parse()
    if mode_match:
        module.opaque_pointers = mode_match.group(1) == "opaque"
    return module
