"""One typed codec for the JSON config documents.

A config class is a dataclass that mixes in `Codec`; its document is derived
from its fields and their annotations: `int` (not a JSON bool), `float` (a
JSON int is read as a float; NaN and the infinities are refused), `bool`,
`str`, a `Literal`, a union such as `X | None`, `tuple[X, ...]` or
`tuple[X, Y]` (from a JSON list), or a nested `Codec` class.

Decoding refuses a non-object document, an unknown key, a missing required
key and a value of the wrong type, each with a ValueError that names the
dotted path, such as `mixture.components[0].box[1]`. Ranges and relations
between fields are left to each class's `__post_init__`; a ValueError it
raises for a nested document is prefixed with that document's path, as in
`mixture: weights must be nonnegative and sum to 1`.
"""

from __future__ import annotations

import dataclasses
import sys
import types
import typing
from typing import ClassVar, Literal

__all__ = ["Codec", "decode"]


class Codec:
    """Mixin: `to_dict` and `from_dict` derived from the dataclass fields.

    `_keys` maps a field to its document key, where the two differ.
    `_kind`, when set, is written as the document's "kind" key; on reading
    it may be left out, and must match when given. `from_dict`'s `path`
    names a nested document inside its parent, for the error messages.
    """

    _keys: ClassVar[dict[str, str]] = {}
    _kind: ClassVar[str | None] = None

    def to_dict(self) -> dict:
        doc = {} if self._kind is None else {"kind": self._kind}
        for f in dataclasses.fields(self):
            doc[self._keys.get(f.name, f.name)] = _encode(getattr(self, f.name))
        return doc

    @classmethod
    def from_dict(cls, doc, path: str = ""):
        if not isinstance(doc, dict):
            raise ValueError(f"{path or 'config'} must be a JSON object, got {type(doc).__name__}")
        fields = {cls._keys.get(f.name, f.name): f for f in dataclasses.fields(cls)}
        hints = typing.get_type_hints(cls)
        values = {}
        for key, value in doc.items():
            where = _join(path, key)
            if key == "kind" and cls._kind is not None:
                if value != cls._kind:
                    raise ValueError(f"{where} must be {cls._kind!r}, got {value!r}")
            elif key in fields:
                values[fields[key].name] = decode(hints[fields[key].name], value, where)
            else:
                raise ValueError(f"unknown config key {where!r}")
        for key, f in fields.items():
            if f.name not in values and f.default is f.default_factory is dataclasses.MISSING:
                raise ValueError(f"missing required config key {_join(path, key)!r}")
        try:
            return cls(**values)
        except ValueError as exc:
            if not path:
                raise
            raise ValueError(f"{path}: {exc}") from exc


def decode(tp, value, path: str):
    """`value` read from JSON as type `tp`; a ValueError names `path` if it is not one."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        arms = [arm for arm in args if arm is not type(None)]
        if isinstance(value, dict):  # an object is read as the class its "kind" tag names
            arms = [arm for arm in arms if getattr(arm, "_kind", None) == value.get("kind")] or arms
        if len(arms) == 1:
            return decode(arms[0], value, path)
        for arm in arms:
            try:
                return decode(arm, value, path)
            except ValueError:
                pass
    elif origin is tuple:
        if isinstance(value, (list, tuple)):
            items = args[:1] * len(value) if args[1:] == (...,) else args
            if len(items) == len(value):
                return tuple(decode(t, v, f"{path}[{i}]") for i, (t, v) in enumerate(zip(items, value)))
    elif origin is Literal:
        if value in args:
            return value
    elif issubclass(tp, Codec):
        return tp.from_dict(value, path)
    elif isinstance(value, bool):
        if tp is bool:
            return value
    elif tp is float and isinstance(value, (int, float)):
        if abs(value) <= sys.float_info.max:  # finite, and an int that fits a float
            return float(value)
    elif isinstance(value, tp):
        return value
    raise ValueError(f"{path} must be {_describe(tp)}, got {value!r}")


def _encode(value):
    if isinstance(value, Codec):
        return value.to_dict()
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    return value


def _describe(tp) -> str:
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        return " or ".join(dict.fromkeys(map(_describe, args)))
    if origin is tuple:
        return "a list" if args[1:] == (...,) else f"a list of {len(args)}"
    if origin is Literal:
        return " or ".join(map(repr, args))
    names = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string"}
    return names.get(tp, "null" if tp is type(None) else "an object")


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key
