"""Types and value domains of dataclass fields, declared on the type hint
(``lr: Annotated[float, Finite, Pos] = 0.001``), and ``shape``, the one walk
over a hint that checks a value by it. A ``Checked`` dataclass runs that walk
at every construction, from YAML, in code or by ``dataclasses.replace``.
Imports nothing from the package, so every module can use it."""

from __future__ import annotations

import dataclasses
import functools
import math
import types
from typing import Annotated, Literal, Union, get_args, get_origin, get_type_hints


def domain(text: str, test, whole: bool = False):
    """A check that ``value`` passes ``test``, named ``text`` in its error; on a
    tuple or list it tests each element unless ``whole``."""
    def check(value, path: str):
        if not whole and isinstance(value, (tuple, list)):
            for i, v in enumerate(value):
                check(v, f"{path}[{i}]")
        elif not test(value):               # NaN fails every comparison
            raise ValueError(f"{path} must be {text}, got {value!r}")
    return check


Finite = domain("finite", lambda v: -math.inf < v < math.inf)
Pos = domain("> 0", lambda v: v > 0)
NonNeg = domain(">= 0", lambda v: v >= 0)
Unit = domain("in [0, 1]", lambda v: 0 <= v <= 1)
UnitOpen = domain("in [0, 1)", lambda v: 0 <= v < 1)
Increasing = domain("a pair with lo < hi", lambda v: v[0] < v[1], whole=True)
NonDecreasing = domain("a pair with lo <= hi", lambda v: v[0] <= v[1], whole=True)
NonEmpty = domain("non-empty", len, whole=True)


def Within(lo: float, hi: float):
    """In [lo, hi]: a magnitude that the code reading it handles only within bounds."""
    return domain(f"in [{lo:g}, {hi:g}]", lambda v: lo <= v <= hi)


# resolved field hints per class, Annotated metadata kept, in field order
type_hints = functools.cache(functools.partial(get_type_hints, include_extras=True))


def shape(value, hint, path: str):
    """``value`` checked against the type hint ``hint`` and shaped; raise
    TypeError (type, null, key) or ValueError (arity, domain, ``Literal``)
    naming ``path``. A scalar is checked by type without converting it (an
    int passes as a float, a bool as neither); a dataclass is built from a
    mapping or a positional list, and an instance passes (it was checked when
    built); a tuple or list is shaped element by element with its arity; only
    ``X | None`` may be null. The ``Annotated`` domains and the ``Literal``
    apply to the shaped value; other hints pass any value."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Annotated:
        value = shape(value, args[0], path)
        for check in args[1:]:
            check(value, path)
        return value
    if origin in (Union, types.UnionType):
        return None if value is None else \
            shape(value, next(a for a in args if a is not type(None)), path)
    if value is None:
        raise TypeError(f"{path} must not be null")
    if origin is Literal:
        if value not in args:
            raise ValueError(f"{path} must be one of {list(args)}, got {value!r}")
        return value
    if hint in (bool, int, float, str):
        if isinstance(value, bool) != (hint is bool) or \
                not isinstance(value, (int, float) if hint is float else hint):
            raise TypeError(f"{path}: expected {hint.__name__}, got {value!r}")
        return value
    if dataclasses.is_dataclass(hint):
        return value if isinstance(value, hint) else _build(hint, value, path)
    if origin not in (tuple, list):
        return value
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"{path}: expected a list, got {value!r}")
    if origin is list or args[-1] is Ellipsis:
        args = (args[0],) * len(value)
    elif len(args) != len(value):
        raise ValueError(f"{path}: expected {len(args)} items, got {len(value)}")
    return origin(shape(v, a, f"{path}[{i}]") for i, (v, a) in enumerate(zip(value, args)))


def _build(cls, value, path: str):
    """``cls`` from a mapping of its fields or a list of them in order."""
    names = list(type_hints(cls))
    if isinstance(value, (list, tuple)):
        if len(value) > len(names):
            raise ValueError(f"{path}: expected at most {len(names)} items "
                             f"({', '.join(names)}), got {len(value)}")
        value = dict(zip(names, value))
    if not isinstance(value, dict):
        raise TypeError(f"{path}: expected a mapping, got {type(value).__name__}")
    unknown = set(value) - set(names)
    if unknown:
        raise TypeError(f"{path}: unknown keys {sorted(unknown, key=str)}")
    try:
        return cls(**value)
    except (TypeError, ValueError) as e:
        raise type(e)(f"{path}: {e}") from None


class Checked:
    """Dataclass base that stores every field ``shape``d by its hint on
    construction; a subclass ``__post_init__`` calls it first, then checks
    cross-field rules."""

    def __post_init__(self):
        for name, hint in type_hints(type(self)).items():
            setattr(self, name, shape(getattr(self, name), hint, name))
