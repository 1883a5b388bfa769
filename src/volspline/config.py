"""Declared JSON configs and the one reader that checks them.

A declaration is a ``Kind``: ``obj`` declares an object's ``Field``s, each
with a kind, a default or ``REQUIRED``, and where needed a range ``Check``;
``tagged`` declares an object whose fields depend on a tag such as ``type``.
``read`` returns a value read against its declaration: numbers as floats,
integers (an integral float such as ``40.0`` too) as ints, lists of numbers
as float arrays, objects as dicts of every declared field, an absent one at
its default.  A missing required field, a value of the wrong kind (``true``
and ``"100"`` are not numbers, ``10.7`` is not an integer), a value out of
range, a section that is not an object and an unknown field are each a
``ConfigError`` that names the field by its section, name and dotted path.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "ConfigError", "Kind", "Check", "Field", "REQUIRED", "NUMBER", "INTEGER", "BOOLEAN", "STRING", "POSITIVE",
    "at_least", "enum", "array", "list_of", "obj", "tagged", "either", "read",
]


class ConfigError(ValueError):
    """A JSON configuration that does not match its declaration."""


def _error(path: str, problem: str) -> ConfigError:
    """The error of the field at the dotted ``path``."""
    parent, _, name = path.rpartition(".")
    where = f"{parent or 'config'} field {name!r}" if path else "the config"
    return ConfigError(f"{where} {problem}" + (f" (at {path!r})" if parent else ""))


@dataclass(frozen=True)
class Kind:
    """A value's kind: its name in messages, a test of the values it takes, and ``convert(value, path)``;
    a composite kind names its ``parts``: ``fields``, ``tag`` and ``variants``, ``kinds``, or ``item``."""

    what: str
    accepts: Callable[[object], bool]
    convert: Callable[[object, str], object] = lambda value, path: value
    parts: dict = field(default_factory=dict)

    def read(self, value, path: str):
        if not self.accepts(value):
            raise _error(path, f"must be {self.what}, got {value!r}")
        return self.convert(value, path)


class Check(NamedTuple):
    """A range ``test(value, section)`` and the text that completes "must ..."; braces name section fields."""

    test: Callable[[object, dict], bool]
    need: str


REQUIRED = object()  # the default of a field that has none


@dataclass(frozen=True)
class Field:
    """A declared field; a ``None`` default leaves an absent field ``None``."""

    kind: Kind
    default: object = REQUIRED
    check: Check | None = None


def _of(*types) -> Callable[[object], bool]:
    """Instances of ``types``; ``true`` and ``false`` only where ``bool`` is named."""
    return lambda v: isinstance(v, types) and (bool in types or not isinstance(v, bool))


_number = _of(int, float)
NUMBER = Kind("a number", _number, lambda v, path: float(v))
INTEGER = Kind("an integer", lambda v: _number(v) and (isinstance(v, int) or v.is_integer()), lambda v, path: int(v))
BOOLEAN = Kind("true or false", _of(bool))
STRING = Kind("a string", _of(str))
POSITIVE = Check(lambda v, s: bool(np.all(np.asarray(v) > 0.0)), "be positive")


def at_least(low) -> Check:
    return Check(lambda v, s: bool(np.all(np.asarray(v) >= low)), f"be at least {low}")


def enum(*names: str) -> Kind:
    return Kind("one of " + ", ".join(map(repr, names)), lambda v: isinstance(v, str) and v in names)


def _numbers(value) -> bool:
    return isinstance(value, (list, np.ndarray)) and all(_number(v) or _numbers(v) for v in value)


def array(cols: int | None = None) -> Kind:
    """A list of numbers, or with ``cols`` a list of rows of ``cols`` numbers, read as a float array."""

    def accepts(value) -> bool:
        try:
            a = np.asarray(value, dtype=float) if _numbers(value) else None
        except ValueError:  # rows of unequal length
            return False
        return a is not None and (a.shape[1:] == (cols,) if cols else a.ndim == 1)

    what = f"a list of rows of {cols} numbers" if cols else "a list of numbers"
    return Kind(what, accepts, lambda v, path: np.asarray(v, dtype=float))


def list_of(kind: Kind) -> Kind:
    return Kind("a list", _of(list), lambda v, p: [kind.read(x, f"{p}[{i}]") for i, x in enumerate(v)], {"item": kind})


def _fields(value: dict, fields: dict[str, Field], path: str) -> dict:
    """The object ``value`` read against its ``fields``; ranges are checked once every field is read."""
    at = {name: f"{path}.{name}" if path else name for name in {**value, **fields}}
    for name in value:
        if name not in fields:
            close = difflib.get_close_matches(name, fields, 1)
            hint = f"did you mean {close[0]!r}?" if close else f"expected one of {list(fields)}"
            raise _error(at[name], f"is unknown; {hint}")
    out = {}
    for name, decl in fields.items():
        if name not in value and decl.default is REQUIRED:
            raise _error(at[name], "is required")
        raw = value.get(name, decl.default)
        out[name] = None if raw is None and name not in value else decl.kind.read(raw, at[name])
    for name, decl in fields.items():
        if decl.check and out[name] is not None and not decl.check.test(out[name], out):
            raise _error(at[name], f"must {decl.check.need.format(**out)}, got {value.get(name, decl.default)!r}")
    return out


def obj(fields: dict[str, Field]) -> Kind:
    return Kind("an object", _of(dict), lambda v, path: _fields(v, fields, path), {"fields": fields})


def tagged(tag: str, variants: dict[str, dict[str, Field]]) -> Kind:
    """An object whose ``tag`` field names the variant that declares its other fields; in an object
    without the tag, a field that no variant declares is named before the missing tag."""
    names = Field(enum(*variants))
    known = {tag: names, **{name: decl for fields in variants.values() for name, decl in fields.items()}}

    def convert(value: dict, path: str) -> dict:
        head = _fields({tag: value[tag]}, {tag: names}, path) if tag in value else _fields(value, known, path)
        return _fields(value, {tag: names, **variants[head[tag]]}, path)

    return Kind("an object", _of(dict), convert, {"tag": tag, "variants": variants})


def either(*kinds: Kind) -> Kind:
    """A value that one of ``kinds`` takes, read by the first that does."""

    def first(value) -> Kind | None:
        return next((k for k in kinds if k.accepts(value)), None)

    what = " or ".join(k.what for k in kinds)
    return Kind(what, lambda v: first(v) is not None, lambda v, p: first(v).read(v, p), {"kinds": kinds})


def read(value, kind: Kind, path: str = "", error: type[ValueError] = ConfigError):
    """``value`` read against its declaration (module docstring) at the dotted ``path``; a library
    whose callers expect its own error class names it as ``error``."""
    try:
        return kind.read(value, path)
    except ConfigError as exc:
        raise exc if error is ConfigError else error(str(exc)) from None
