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


def _type_ok(value, annotation):
    want = _TYPES.get(getattr(annotation, "__name__", annotation))
    if want is None:      # e.g. `object`: the field's own rule decides
        return True
    if isinstance(value, bool):
        return want is bool
    return isinstance(value, want)


def type_problems(cls, values):
    """One message per entry of `values` whose type does not fit the field of
    dataclass `cls` it names: int and not bool for an int field, int or float
    for a float field. Names that are not fields are skipped."""
    types = {f.name: f.type for f in fields(cls)}
    return [f"{name} must be of type {types[name]}, got {value!r}"
            for name, value in values.items()
            if name in types and not _type_ok(value, types[name])]


def is_number(x):
    """An int or a float, not a bool."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def positive(x):
    """x > 0 and finite; false for NaN."""
    return x > 0 and math.isfinite(x)


def non_negative(x):
    """x >= 0 and finite; false for NaN."""
    return x >= 0 and math.isfinite(x)
