"""The text of report.json, written by one writer in one pass.

The standard encoder has no C path under `indent`, and a JSON form built
first would copy the whole report, so `write_json` writes the text itself,
chunk by chunk.
"""

from __future__ import annotations

import math
from dataclasses import fields, is_dataclass
from fractions import Fraction
from itertools import repeat
from json.encoder import encode_basestring_ascii


def write_json(obj, write, decimals: dict, indent: str = "") -> None:
    """Write the report.json text of `obj`, nested at `indent`, in chunks:
    the bytes of `json.dumps(..., sort_keys=True, indent=2, allow_nan=False)`
    on its JSON form, which has one rule per type.  A float that is not
    finite becomes "inf", "-inf" or "nan", a Fraction its "num/den" string,
    a tuple a list, a dict key its str(), and a dataclass the dict of its
    fields; any other type is a TypeError.  `decimals` maps the id of a
    Fraction or int to its decimal text, when that was made beforehand."""
    if isinstance(obj, (list, tuple)):
        if not obj:
            write("[]")
            return
        run = _json_run(obj)
        if run is not None:
            inner = indent + "  "
            write(f"[\n{inner}" + f",\n{inner}".join(run) + f"\n{indent}]")
            return
        opener, closer, pairs = "[", "]", zip(repeat(""), obj)
    else:
        if isinstance(obj, dict):
            items = {str(k): v for k, v in obj.items()}.items()
        else:
            text = _json_scalar(obj, decimals)
            if text is not None:
                write(text)
                return
            if not is_dataclass(obj) or isinstance(obj, type):
                raise TypeError(f"Object of type {type(obj).__name__} "
                                f"is not JSON serializable")
            items = [(f.name, getattr(obj, f.name)) for f in fields(obj)]
        if not items:
            write("{}")
            return
        opener, closer = "{", "}"
        pairs = [(encode_basestring_ascii(key) + ": ", value)
                 for key, value in sorted(items)]
    inner = indent + "  "
    separator = f"{opener}\n{inner}"
    for key, value in pairs:
        write(separator + key)
        write_json(value, write, decimals, inner)
        separator = ",\n" + inner
    write(f"\n{indent}{closer}")


def _json_scalar(obj, decimals: dict):
    """The JSON text of a str, None, bool, int, float or Fraction; None for
    any other type."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or isinstance(obj, bool):
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return decimals.get(id(obj)) or int.__repr__(obj)
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return text if math.isfinite(obj) else f'"{text}"'
    if isinstance(obj, Fraction):
        return f'"{decimals.get(id(obj)) or obj}"'
    return None


_RUN_TEXT = {str: encode_basestring_ascii, int: int.__repr__,
             float: float.__repr__}


def _json_run(items):
    """The item texts of a list whose items are all str, all int or all
    finite floats, one C-level map; None for any other list."""
    kinds = set(map(type, items))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind not in _RUN_TEXT or (kind is float
                                  and not all(map(math.isfinite, items))):
        return None
    return map(_RUN_TEXT[kind], items)
