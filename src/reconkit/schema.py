"""Each dataclass field's rule, written once in its type hint (a type, a `Literal`'s choices
or an `Annotated` `Bound`): `read_fields` reads a JSON object by it and `check` holds a built
dataclass to it. Each fault is raised as the caller's error class in one form, ``<path>
<fault>`` (``ellipses[2].ax must be a finite number, got 'x'``), and shows the offending
value through `shown`, so a message stays one short line whatever the input.
"""

from __future__ import annotations

import collections.abc
import functools
import math
import reprlib
import types
import typing
from dataclasses import MISSING, fields, is_dataclass

import numpy as np


def _finite_number(v) -> bool:
    try:
        return not isinstance(v, bool) and isinstance(v, (int, float)) and math.isfinite(v)
    except OverflowError:       # an integer too large for a float
        return False


# what a value of each plain type must be, and whether a JSON value is one (true is no number)
_PLAIN = {
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a finite number", _finite_number),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    dict: ("an object", lambda v: isinstance(v, dict)),
    collections.abc.Callable: ("a function", callable),
}


class Bound(typing.NamedTuple):
    """A number's lower bound in an `Annotated` hint: at least `low`, or above it if `strict`."""
    low: float
    strict: bool = False


Count = typing.Annotated[int, Bound(1)]       # a width, count, step or iteration number
Positive = typing.Annotated[float, Bound(0, strict=True)]
Seed = typing.Annotated[int, Bound(0)]        # a random generator's seed


SHOWN_MAX = 200        # characters of a value an error message shows
_SHOWN = reprlib.Repr()
_SHOWN.maxlevel, _SHOWN.maxlist, _SHOWN.maxdict, _SHOWN.maxstring = 3, 8, 8, 80


def shown(value) -> str:
    """`value`'s repr for an error message: long containers and strings are elided
    inside, and the whole is cut to at most SHOWN_MAX characters."""
    text = _SHOWN.repr(value)
    return text if len(text) <= SHOWN_MAX else text[:SHOWN_MAX - 3] + "..."


@functools.lru_cache(maxsize=None)
def _schema(cls) -> tuple[dict, tuple[str, ...]]:
    """A dataclass's hint per field, and the fields with no default, each in field order."""
    hints = typing.get_type_hints(cls, include_extras=True)
    return ({f.name: hints[f.name] for f in fields(cls)},
            tuple(f.name for f in fields(cls)
                  if f.default is MISSING and f.default_factory is MISSING))


def read_fields(cls, obj, error: type[Exception], where: str = "", **given):
    """Dataclass `cls` from the JSON object `obj` and the fields in `given`.

    `where` prefixes each field's path, and also an `error` the class itself raises.
    """
    if not isinstance(obj, dict):
        raise error(f"{where[:-1] or cls.__name__} must be an object, got {shown(obj)}")
    hints, required = _schema(cls)
    for key in obj:
        if key not in hints or key in given:
            names = ", ".join(name for name in hints if name not in given)
            raise error(f"{where}{key} is not a field (fields: {names})")
    for name in required:
        if name not in obj and name not in given:
            raise error(f"{where}{name} is missing")
    values = {key: read_value(hints[key], value, where + key, error)
              for key, value in obj.items()}
    try:
        return cls(**values, **given)
    except error as exc:      # a value the class's own check rejects
        raise error(f"{where}{exc}") from None


def check(obj, error: type[Exception]) -> None:
    """Hold each field of the built dataclass `obj` to its hint by `read_value`'s rules, and set
    it to what they give (a tuple for a list); a fault raises `error` as ``<field> <fault>``."""
    for name, hint in _schema(type(obj))[0].items():      # a frozen dataclass too
        object.__setattr__(obj, name, read_value(hint, getattr(obj, name), name, error))


def read_value(hint, value, path: str, error: type[Exception]):
    """`value` read as the type `hint` names: a tuple hint gives a tuple, an array hint a
    float64 array, and a number, a string, a `Literal`'s value, a function or an instance
    of a dataclass hint comes back as it is."""
    plain = _PLAIN.get(hint) if isinstance(hint, type) else None    # a Literal hashes slowly
    if plain is not None:
        what, fits = plain
        if not fits(value):
            raise error(f"{path} must be {what}, got {shown(value)}")
        return value
    if is_dataclass(hint):
        return value if isinstance(value, hint) else read_fields(hint, value, error, path + ".")
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Literal:
        if not any(type(value) is type(a) and value == a for a in args):
            raise error(f"{path} must be one of {list(args)}, got {shown(value)}")
        return value
    if origin is typing.Annotated:
        inner, (low, strict) = args
        value = read_value(inner, value, path, error)
        if value < low or strict and value == low:
            raise error(f"{path} must be {'above' if strict else 'at least'} {low}, "
                        f"got {shown(value)}")
        return value
    if origin in (types.UnionType, typing.Union):        # X | None
        (inner,) = [a for a in args if a is not type(None)]
        return None if value is None else read_value(inner, value, path, error)
    if origin in (list, tuple):
        n = len(args) if origin is tuple else 0
        if not isinstance(value, (list, tuple)) or n and len(value) != n:
            raise error(f"{path} must be a list{f' of {n} items' if n else ''}, got {shown(value)}")
        return origin(read_value(args[i] if n else args[0], v, f"{path}[{i}]", error)
                      for i, v in enumerate(value))
    if hint is np.ndarray:
        try:
            arr = np.asarray(value)
        except ValueError:       # ragged
            arr = None
        if arr is None or arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
            raise error(f"{path} must be an array of finite numbers, got {shown(value)}")
        return arr.astype(float, copy=False)
    raise TypeError(f"{path}: the reader has no rule for the hint {hint!r}")
