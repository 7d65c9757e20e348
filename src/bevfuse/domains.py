"""Value domains of config fields, declared as ``Annotated`` metadata on the
type hint (``lr: Annotated[float, Finite, Pos] = 0.001``). Imports nothing
from the package, so every module that defines a config can use it."""

from __future__ import annotations

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

# resolved field hints per class, Annotated metadata kept
type_hints = functools.cache(functools.partial(get_type_hints, include_extras=True))


def check_domains(obj) -> None:
    """Raise ValueError naming the field and element index of the first value
    of dataclass ``obj`` outside its hint's domains or ``Literal``."""
    for name, hint in type_hints(type(obj)).items():
        _check(getattr(obj, name), hint, name)


def _check(value, hint, path: str):
    origin, args = get_origin(hint), get_args(hint)
    if origin is Annotated:
        for domain in args[1:]:
            domain(value, path)
        _check(value, args[0], path)
    elif origin is Literal and value not in args:
        raise ValueError(f"{path} must be one of {list(args)}, got {value!r}")
    elif origin in (Union, types.UnionType) and value is not None:
        _check(value, args[0], path)                # the X of X | None
    elif origin in (tuple, list) and isinstance(value, (tuple, list)):
        if origin is list or args[-1] is Ellipsis:
            args = (args[0],) * len(value)
        for i, (v, a) in enumerate(zip(value, args)):
            _check(v, a, f"{path}[{i}]")


class Checked:
    """Dataclass base that checks every field's domain on construction; a
    subclass ``__post_init__`` calls it first, then checks cross-field rules."""

    def __post_init__(self):
        check_domains(self)
