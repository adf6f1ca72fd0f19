"""Field checks shared by the configuration dataclasses.

Each dataclass states its own ranges with these helpers, so a rule is
written once and holds wherever the type is built: from a run config, from
a checkpoint manifest or in code.
"""

from __future__ import annotations

import math
from dataclasses import fields

# annotation -> accepted types; bool is never an int or a float here
_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str,
          "list": list, "dict": dict}


# an int field holds a value numpy can size, index and add as an int64
INT_RANGE = (-2**63, 2**63)


def _want(annotation):
    return _TYPES.get(getattr(annotation, "__name__", annotation))


def _type_ok(value, want):
    if want is None:      # e.g. `object`: the field's own rule decides
        return True
    if isinstance(value, bool):
        return want is bool
    return isinstance(value, want)


def _problem(name, value, annotation):
    want = _want(annotation)
    if not _type_ok(value, want):
        return f"{name} must be of type {annotation}, got {value!r}"
    if isinstance(value, bool) or not isinstance(value, int):
        return None
    lo, hi = INT_RANGE
    if want is int and not lo <= value < hi:
        return f"{name} must be in [-2**63, 2**63), got {value}"
    if want is _TYPES["float"]:
        try:
            float(value)
        except OverflowError:
            return f"{name} must be a finite number, got {value}"
    return None


def type_problems(cls, values):
    """One message per entry of `values` whose type does not fit the field of
    dataclass `cls` it names: int and not bool for an int field, int or float
    for a float field. An int field also takes only values in int64's range,
    [-2**63, 2**63), and a float field only ints a float can hold. Names that
    are not fields are skipped."""
    types = {f.name: f.type for f in fields(cls)}
    found = (_problem(name, value, types[name])
             for name, value in values.items() if name in types)
    return [p for p in found if p is not None]


def is_number(x):
    """An int or a float, not a bool."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _finite(x):
    try:
        return math.isfinite(x)
    except OverflowError:   # an int beyond float's range
        return False


def positive(x):
    """x > 0 and finite; false for NaN and for an int beyond float's range."""
    return x > 0 and _finite(x)


def non_negative(x):
    """x >= 0 and finite; false for NaN and for an int beyond float's range."""
    return x >= 0 and _finite(x)
