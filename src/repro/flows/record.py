"""JSON compile records: result dataclasses as plain JSON values and back.

A :class:`~repro.flows.FlowComparison` leaves its process as a *record*:
nested dicts, lists, strings and numbers that ``json`` writes as they
are.  The compile cache stores records and the compile daemon sends them;
neither ever unpickles, so a hostile cache file or socket peer can at
worst be refused.  MLIR and LLVM exchange IR the same way, as text: a
flow's final module travels as its printed IR (:class:`ModuleText`) and
is parsed back only when someone asks for it.

The encoder and decoder of a dataclass are derived from its fields and
their annotations, once per class:

* dataclasses become objects keyed by field name;
* lists, tuples, sequences and sets become arrays (sets sorted), dicts
  stay objects, enums travel by member name;
* ``Any`` values must already be JSON values (decoding copies them);
* a field whose metadata names a :class:`FieldCodec` uses that instead.

Decoding checks every value against its annotation and raises
:class:`RecordError` on the first mismatch, missing field or unknown key:
the decoder doubles as the schema check of everything that reads records
from outside the process.  Annotations stay ``typing`` generics
(``Optional[X]``, ``Dict[str, X]``), which Python 3.9 can evaluate.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import itertools
import json
import operator
import typing
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..ir import Module
from ..ir.parser import parse_module
from ..ir.printer import print_module

__all__ = [
    "FieldCodec",
    "ModuleText",
    "RecordError",
    "FIXED_WIDTH_FLOAT",
    "MODULE_TEXT",
    "to_record",
    "from_record",
    "canonical_json",
    "copy_json",
]


class RecordError(ValueError):
    """A JSON value does not have the shape its record type requires."""


class ModuleText:
    """One flow's final IR module, held live, as printed text, or both.

    A module computed in this process stays live: :attr:`text` prints it
    on demand.  A module read from a record starts as text:
    :attr:`module` parses it once, on first use, and from then on the
    parsed module is what :attr:`text` prints.  print∘parse is a fixed
    point, so both views agree.  Equality compares the printed text.
    """

    __slots__ = ("_module", "_text")

    def __init__(self, module: Optional[Module] = None, text: Optional[str] = None):
        if module is None and text is None:
            raise ValueError("ModuleText needs a module or its text")
        self._module = module
        self._text = text

    @property
    def module(self) -> Module:
        if self._module is None:
            self._module = parse_module(self._text)
        return self._module

    @property
    def text(self) -> str:
        if self._module is not None:
            return print_module(self._module)
        return self._text

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ModuleText):
            return NotImplemented
        return self.text == other.text

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        state = "live" if self._module is not None else "text"
        return f"<ModuleText {state}>"


class FieldCodec:
    """How one field is written in a record, overriding its annotation:
    ``encode(value) -> JSON value`` and ``decode(JSON value) -> value``
    (``decode`` raises :class:`RecordError` on a bad value)."""

    __slots__ = ("encode", "decode")

    def __init__(self, encode: Callable[[Any], Any], decode: Callable[[Any], Any]):
        self.encode = encode
        self.decode = decode


def _decode_module_text(data: Any) -> ModuleText:
    if not isinstance(data, str):
        raise RecordError(f"expected printed IR text, got {type(data).__name__}")
    return ModuleText(text=data)


#: A :class:`ModuleText` field travels as its printed IR.
MODULE_TEXT = FieldCodec(lambda value: value.text, _decode_module_text)


def _decode_fixed_float(data: Any) -> float:
    if not isinstance(data, str):
        raise RecordError(f"expected a fixed-width float, got {type(data).__name__}")
    try:
        return float(data)
    except ValueError:
        raise RecordError(f"not a float: {data!r}") from None


#: A float written as fixed-width exact text (``%.17e``: 18 significant
#: digits, enough to round-trip any double).  For values that change on
#: every serving of one record, so the record's size does not.
FIXED_WIDTH_FLOAT = FieldCodec(lambda value: "%.17e" % value, _decode_fixed_float)

#: ``metadata`` key naming a field's :class:`FieldCodec`.
CODEC_KEY = "record_codec"

_Converter = Callable[[Any], Any]
_JSON_SCALARS = frozenset({str, int, float, bool, type(None)})
#: ``typing.Sequence[X]`` fields travel as arrays and decode to tuples.
_SEQUENCE = typing.get_origin(typing.Sequence[int])


def to_record(value: Any) -> Any:
    """``value`` (a record dataclass) as a JSON value."""
    return _encoder(type(value))(value)


def from_record(cls: type, data: Any) -> Any:
    """The ``cls`` instance a :func:`to_record` value describes; raises
    :class:`RecordError` on any departure from ``cls``'s shape."""
    return _decoder(cls)(data)


def canonical_json(value: Any) -> str:
    """The one text of a JSON value that its digests are taken over:
    compact, keys sorted, ASCII only."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


# -- encoders ---------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _encoder(cls: type) -> _Converter:
    plan: List[Tuple[str, Optional[_Converter]]] = []
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        codec = f.metadata.get(CODEC_KEY)
        plan.append((f.name, codec.encode if codec else _type_encoder(hints[f.name])))

    def encode(value: Any) -> Dict[str, Any]:
        out = {}
        for name, convert in plan:
            item = getattr(value, name)
            out[name] = item if convert is None or item is None else convert(item)
        return out

    return encode


def _type_encoder(tp: Any) -> Optional[_Converter]:
    """A converter for values of annotation ``tp``; None = already JSON."""
    origin = typing.get_origin(tp)
    args = typing.get_args(tp)
    if origin is typing.Union:
        inner = [a for a in args if a is not type(None)]
        if len(inner) != 1:
            raise TypeError(f"record fields support only Optional unions, not {tp}")
        return _type_encoder(inner[0])
    if origin in (list, set) or origin is _SEQUENCE:
        item = _type_encoder(args[0])
        if origin is set:
            return sorted if item is None else lambda value: sorted(map(item, value))
        return list if item is None else lambda value: [item(v) for v in value]
    if origin is dict:
        item = _type_encoder(args[1])
        return None if item is None else lambda value: {k: item(v) for k, v in value.items()}
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        return lambda value: value.name
    if dataclasses.is_dataclass(tp):
        return _encoder(tp)
    if tp in _JSON_SCALARS or tp is Any or tp is object:
        return None
    raise TypeError(f"no record encoding for {tp!r}")


# -- decoders ---------------------------------------------------------------
#: JSON value types each scalar annotation admits.  ``type(x) in`` rather
#: than ``isinstance``: bool is an int subclass, but a flag is never a
#: count, nor the reverse.
_SCALAR_TYPES = {
    str: frozenset({str}),
    int: frozenset({int}),
    float: frozenset({int, float}),
    bool: frozenset({bool}),
}
_NONE = frozenset({type(None)})


@functools.lru_cache(maxsize=None)
def _decoder(cls: type) -> _Converter:
    scalars: List[Tuple[str, frozenset]] = []
    nested: List[Tuple[str, _Converter]] = []
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        tp = hints[f.name]
        codec = f.metadata.get(CODEC_KEY)
        allowed = None if codec else _scalar_types(tp)
        if allowed is not None:
            scalars.append((f.name, allowed))
        elif codec is None:
            nested.append((f.name, _type_decoder(tp)))
        else:
            convert = codec.decode
            nested.append((f.name, _or_none(convert) if _is_optional(tp) else convert))
    names = frozenset(f.name for f in dataclasses.fields(cls))
    label = cls.__name__
    # The scalar fields are checked at once: the tuple of their types must
    # be one of the admitted combinations.  ``itemgetter`` returns a tuple
    # only for two or more names, so a lone scalar is fetched twice.
    checked = scalars * 2 if len(scalars) == 1 else scalars
    getter = (
        operator.itemgetter(*(name for name, _ in checked))
        if checked
        else (lambda data: ())
    )
    combinations = frozenset(itertools.product(*(allowed for _, allowed in checked)))

    def decode(data: Any) -> Any:
        if type(data) is not dict or data.keys() != names:
            raise _shape_error(label, names, data)
        if tuple(map(type, getter(data))) not in combinations:
            raise _scalar_error(label, scalars, data)
        # Fill the instance as pickle does, without running __init__:
        # every field is checked, and frozen classes allow it.
        obj = cls.__new__(cls)
        values = obj.__dict__
        values.update(data)
        for name, convert in nested:
            try:
                values[name] = convert(data[name])
            except RecordError as exc:
                raise RecordError(f"{label}.{name}: {exc}") from None
        return obj

    return decode


def _shape_error(label: str, names: frozenset, data: Any) -> RecordError:
    if type(data) is not dict:
        return RecordError(f"{label} record must be an object, got {type(data).__name__}")
    missing = sorted(names - data.keys())
    unknown = sorted(data.keys() - names)
    return RecordError(f"{label} record: missing fields {missing}, unknown fields {unknown}")


def _scalar_error(label: str, scalars: List[Tuple[str, frozenset]], data: dict) -> RecordError:
    """Names the first scalar field whose type is not admitted."""
    for name, allowed in scalars:
        if type(data[name]) not in allowed:
            return RecordError(f"{label}.{name}: unexpected {type(data[name]).__name__}")
    raise AssertionError("no scalar field is at fault")


def _scalar_types(tp: Any) -> Optional[frozenset]:
    """The JSON types a scalar (or optional scalar) annotation admits;
    None for every other annotation."""
    if _is_optional(tp):
        inner = _scalar_types(_strip_optional(tp))
        return inner | _NONE if inner is not None else None
    return _SCALAR_TYPES.get(tp)


def _is_optional(tp: Any) -> bool:
    return typing.get_origin(tp) is typing.Union and type(None) in typing.get_args(tp)


def _strip_optional(tp: Any) -> Any:
    return next(a for a in typing.get_args(tp) if a is not type(None))


def _or_none(convert: _Converter) -> _Converter:
    return lambda data: None if data is None else convert(data)


def _type_decoder(tp: Any) -> _Converter:
    """A checking converter for a JSON value of annotation ``tp``."""
    if _is_optional(tp):
        return _or_none(_type_decoder(_strip_optional(tp)))
    origin = typing.get_origin(tp)
    args = typing.get_args(tp)
    if origin in (list, set) or origin is _SEQUENCE:
        build = {list: list, set: set}.get(origin, tuple)
        item_types = _scalar_types(args[0])
        item = None if item_types is not None else _type_decoder(args[0])

        def decode_items(data: Any) -> Any:
            if type(data) is not list:
                raise RecordError(f"expected an array, got {type(data).__name__}")
            if item is not None:
                return build(map(item, data))
            for v in data:
                if type(v) not in item_types:
                    raise RecordError(f"unexpected {type(v).__name__} in an array")
            return build(data)

        return decode_items
    if origin is dict:
        if args[0] is not str:
            raise TypeError(f"record dict keys must be str, not {args[0]!r}")
        if args[1] in (Any, object):
            return _json_object
        value_types = _scalar_types(args[1])
        if value_types is None:
            raise TypeError(f"record dict values must be scalars or Any, not {args[1]!r}")

        def decode_dict(data: Any) -> Dict[str, Any]:
            if type(data) is not dict:
                raise RecordError(f"expected an object, got {type(data).__name__}")
            for v in data.values():
                if type(v) not in value_types:
                    raise RecordError(f"unexpected {type(v).__name__} in an object")
            return dict(data)

        return decode_dict
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        members = tp.__members__

        def decode_enum(data: Any) -> Any:
            if type(data) is not str or data not in members:
                raise RecordError(f"expected a {tp.__name__} name, got {data!r}")
            return members[data]

        return decode_enum
    if dataclasses.is_dataclass(tp):
        return _decoder(tp)
    if tp is Any or tp is object:
        return copy_json
    raise TypeError(f"no record decoding for {tp!r}")


def _json_object(data: Any) -> Dict[str, Any]:
    if type(data) is not dict:
        raise RecordError(f"expected an object, got {type(data).__name__}")
    return copy_json(data)


def copy_json(data: Any) -> Any:
    """An ``Any`` field: a JSON value, copied so the decoded object shares
    no container with the value it came from."""
    if type(data) is dict:
        return {k: copy_json(v) for k, v in data.items()}
    if type(data) is list:
        return [copy_json(v) for v in data]
    if type(data) not in _JSON_SCALARS:
        raise RecordError(f"{type(data).__name__} is not a JSON value")
    return data

