"""The text of report.json, written by one writer in one pass.

The standard encoder has no C path under `indent`, and a JSON form built
first would copy the whole report, so `write_json` writes the text itself,
chunk by chunk.  The shapes that reports repeat skip the walk per item: a
list of one scalar type is one join; a short str/int/bool list already
written at the same depth is written from its kept text, and a list of such
lists writes each with its separator in one chunk (a config's columns, a
witness spec's digit sets); a list of one record type (a class with
`FIELDS`) is written record by record from its field heads.

The texts that report.json shares with a CSV table are made beforehand,
once each, by `keep_decimals` (deep samples' scales and counts, in time
linear in their digits) and `column_blocks` (float columns, per block).
"""

from __future__ import annotations

import math
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, Rounded
from fractions import Fraction
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii


def write_json(obj, write, decimals: dict) -> None:
    """Write the report.json text of `obj` in chunks: the bytes of
    `json.dumps(..., sort_keys=True, indent=2, allow_nan=False)` on its
    JSON form, which has one rule per type.  A float that is not finite
    becomes "inf", "-inf" or "nan", a Fraction its "num/den" string, a tuple
    a list, a dict key its str(), and a record the dict of its `FIELDS`; any
    other type is a TypeError.  `decimals` holds texts made beforehand:
    the id of a Fraction or int maps to its decimal text, and the id of a
    list of floats to its item texts, "\\n"-joined in consecutive blocks."""
    _Writer(write, decimals).value(obj, "")


class _Writer:
    __slots__ = ("write", "decimals", "leaves")

    def __init__(self, write, decimals: dict):
        self.write = write
        self.decimals = decimals
        # (type, indent, items) -> text of a str/int/bool list; the type
        # keeps [true] apart from [1], which is equal as a tuple
        self.leaves = {}

    def value(self, obj, indent: str) -> None:
        if isinstance(obj, (list, tuple)):
            self.sequence(obj, indent)
            return
        if isinstance(obj, dict):
            items = {str(k): v for k, v in obj.items()}.items()
        else:
            text = _json_scalar(obj, self.decimals)
            if text is not None:
                self.write(text)
                return
            names = getattr(type(obj), "FIELDS", None)
            if names is None:
                raise TypeError(f"Object of type {type(obj).__name__} "
                                f"is not JSON serializable")
            items = [(name, getattr(obj, name)) for name in names]
        self.members("{", "}", [(encode_basestring_ascii(key) + ": ", value)
                                for key, value in sorted(items)], indent)

    def members(self, opener: str, closer: str, pairs, indent: str) -> None:
        """Each (head, value) pair on its own line, between opener and
        closer; `pairs` is a list, or an iterator over a nonempty list."""
        if not pairs:
            self.write(opener + closer)
            return
        inner = indent + "  "
        separator = f"{opener}\n{inner}"
        for head, value in pairs:
            self.write(separator + head)
            self.value(value, inner)
            separator = ",\n" + inner
        self.write(f"\n{indent}{closer}")

    def sequence(self, items, indent: str) -> None:
        if not items:
            self.write("[]")
            return
        held = self.decimals.get(id(items))
        if held is not None:
            inner = indent + "  "
            lead, separator = "[\n" + inner, ",\n" + inner
            for block in held:
                self.write(lead + block.replace("\n", separator))
                lead = separator
            self.write(f"\n{indent}]")
            return
        kind = _kind(items)
        text = self.run(kind, items, indent) if kind in _RUN_TEXT else None
        if text is not None:
            self.write(text)
        elif kind is list or kind is tuple:
            self.lists(items, indent)
        elif getattr(kind, "FIELDS", None):
            self.records(items, kind.FIELDS, indent)
        else:
            self.members("[", "]", zip(repeat(""), items), indent)

    def run(self, kind, items, indent: str):
        """The text of a nonempty list of one kind of `_RUN_TEXT`, one join;
        None for floats that are not all finite.  A short str/int/bool
        list's text is kept for its repeats."""
        if kind is float or len(items) > _LEAF_ITEMS:
            if kind is float and not all(map(math.isfinite, items)):
                return None
            return _run(kind, items, indent)
        key = (kind, indent, tuple(items))
        text = self.leaves.get(key)
        if text is None:
            text = self.leaves[key] = _run(kind, items, indent)
        return text

    def lists(self, items, indent: str) -> None:
        """A list of lists, each run among them written with its separator
        in one chunk: a config's columns, a spec's digit sets."""
        write = self.write
        inner = indent + "  "
        lead = "[\n" + inner
        for item in items:
            kind = _kind(item)
            text = self.run(kind, item, inner) if kind in _RUN_TEXT else None
            if text is None:
                write(lead)
                self.sequence(item, inner)
            else:
                write(lead + text)
            lead = ",\n" + inner
        write(f"\n{indent}]")

    def records(self, items, fields: tuple, indent: str) -> None:
        """A list of one record type with these `FIELDS`, each from the
        field heads made once; a record with a non-scalar field is walked."""
        inner = indent + "  "
        names = sorted(fields)
        heads = [f"{{\n{inner}  {encode_basestring_ascii(names[0])}: "] + [
            f",\n{inner}  {encode_basestring_ascii(name)}: "
            for name in names[1:]]
        end = f"\n{inner}}}"
        write, decimals = self.write, self.decimals
        separator = f"[\n{inner}"
        for record in items:
            texts = [_json_scalar(getattr(record, name), decimals)
                     for name in names]
            if None in texts:
                write(separator)
                self.value(record, inner)
            else:
                write(separator + "".join(chain.from_iterable(
                    zip(heads, texts))) + end)
            separator = ",\n" + inner
        write(f"\n{indent}]")


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


# item texts of the kinds a list of one kind is joined from; a bool
# indexes the pair as 0 or 1
_RUN_TEXT = {str: encode_basestring_ascii, int: int.__repr__,
             bool: ("false", "true").__getitem__, float: float.__repr__}
# the longest list whose text is kept for a repeat: a config's columns and
# a spec's digit sets are short, and a long list seldom recurs; floats are
# never kept, since equal floats can differ in text (0.0 == -0.0)
_LEAF_ITEMS = 16


def _kind(items):
    """The one type of the items, or None."""
    kinds = set(map(type, items))
    return kinds.pop() if len(kinds) == 1 else None


def _run(kind, items, indent: str) -> str:
    """The text of a nonempty list of one kind of `_RUN_TEXT`, one join."""
    inner = indent + "  "
    return (f"[\n{inner}" + f",\n{inner}".join(map(_RUN_TEXT[kind], items))
            + f"\n{indent}]")


# an exact product of two ints never rounds; the trap guards that
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact, Rounded])
# below this, str() is as fast as a Decimal product
_DIRECT = 1 << 1024
# the largest factor taken from the previous text: one Decimal word
_FACTOR = 10 ** 19


def running_decimals(values):
    """Yield str(x) for each int x of `values`, in order.  Where x is past
    2**1024 and a small multiple of the int before it, as in a running
    product, its text is that int's Decimal times the factor: linear in the
    digit count, where CPython's int -> str is quadratic.  Any other x takes
    str(), under the interpreter's int -> str digit limit."""
    last = 0
    digits = None
    for x in values:
        if x >= _DIRECT and last > 0:
            factor, rest = divmod(x, last)
            if not rest and factor < _FACTOR:
                digits = _EXACT.multiply(digits, factor)
                last = x
                yield str(digits)
                continue
        text = str(x)
        digits = Decimal(text)
        last = x
        yield text


def keep_decimals(values, decimals: dict) -> None:
    """Keep in `decimals`, by id, the str() of each int or Fraction of the
    list `values`.  A deep sample's scale or count runs to thousands of
    digits, and its numerator and denominator are running products of
    column factors, which `running_decimals` puts in decimal."""
    for x, num, den in zip(values,
                           running_decimals(x.numerator for x in values),
                           running_decimals(x.denominator for x in values)):
        decimals[id(x)] = num if den == "1" else f"{num}/{den}"


# float columns are put in decimal per block of rows: each text serves
# report.json and a CSV alike, and no text of a whole column is built
BLOCK_ROWS = 1024


def column_blocks(columns, decimals: dict):
    """Yield each block of `BLOCK_ROWS` rows: its first row's index and the
    str() texts of its items, one list a column.  Each all-float column also
    keeps its blocks' JSON texts in `decimals`, by its id, for `write_json`."""
    held = [decimals.setdefault(id(c), []) if set(map(type, c)) == {float}
            else None for c in columns]
    for start in range(0, max(map(len, columns), default=0), BLOCK_ROWS):
        blocks = [c[start:start + BLOCK_ROWS] for c in columns]
        texts = [list(map(str, block)) for block in blocks]
        for keep, block, block_texts in zip(held, blocks, texts):
            if keep is None:
                continue
            if not all(map(math.isfinite, block)):
                block_texts = [text if math.isfinite(x) else f'"{text}"'
                               for x, text in zip(block, block_texts)]
            keep.append("\n".join(block_texts))
        yield start, texts
