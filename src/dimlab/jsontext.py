"""The text of report.json, written by one writer in one pass.

The standard encoder has no C path under `indent`, and a JSON form built
first would copy the whole report, so `write_json` writes the text itself,
chunk by chunk.  The shapes that reports repeat skip the walk per item: a
list of one scalar type is one join; a short str/int/bool list already
written at the same depth is written from its kept text, and a list of such
lists writes each with its separator in one chunk (a config's columns, a
witness spec's digit sets), a repeated list object from the text made for
it the first time.

A list that report.json shares with a CSV table is put in text once, in
bounded blocks of rows that serve both outputs.  `column_blocks` does so
for float columns beforehand and keeps their blocks; `sample_blocks` does
so for an estimate's samples while report.json is written, handing each
block's texts to the tables, so no sample text outlives its block.  A
sample's scale and count run to thousands of digits; `running_decimals`
puts them in decimal in time linear in their digits.
"""

from __future__ import annotations

import math
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, Rounded
from fractions import Fraction
from functools import partial
from itertools import islice, repeat
from json.encoder import encode_basestring_ascii


def write_json(obj, write, held: dict) -> None:
    """Write the report.json text of `obj` in chunks: the bytes of
    `json.dumps(..., sort_keys=True, indent=2, allow_nan=False)` on its
    JSON form, which has one rule per type.  A float that is not finite
    becomes "inf", "-inf" or "nan", a Fraction its "num/den" string, a tuple
    a list, a dict key its str(), and a record the dict of its `FIELDS`; any
    other type is a TypeError.  `held` maps the id of a list to a function
    of its items' indent that yields their JSON text in consecutive blocks,
    each joined by ",\\n" and the indent (`column_blocks`, `sample_blocks`);
    the list is written from it once, and from its items after that."""
    _Writer(write, held).value(obj, "")


class _Writer:
    __slots__ = ("write", "held", "leaves")

    def __init__(self, write, held: dict):
        self.write = write
        self.held = held
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
            text = _json_scalar(obj)
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
        blocks = self.held.pop(id(items), None)
        if blocks is not None:
            inner = indent + "  "
            lead = "[\n" + inner
            for text in blocks(inner):
                self.write(lead)
                self.write(text)
                lead = ",\n" + inner
            self.write(f"\n{indent}]")
            return
        kind = _kind(items)
        text = self.run(kind, items, indent) if kind in _RUN_TEXT else None
        if text is not None:
            self.write(text)
        elif kind is list or kind is tuple:
            self.lists(items, indent)
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
        in one chunk: a config's columns, a spec's digit sets.  An item that
        is the object before it (a spec's interned digit sets, in runs), or
        equal to it where that one is a list of str (a config's repeated
        columns), is written from the text made for that one: equal strs
        have one text, and a str only equals a str."""
        write = self.write
        inner = indent + "  "
        lead = "[\n" + inner
        last = kind = text = None
        for item in items:
            if item is not last and (kind is not str or item != last):
                last = item
                kind = _kind(item)
                text = (self.run(kind, item, inner) if kind in _RUN_TEXT
                        else None)
            if text is None:
                write(lead)
                self.sequence(item, inner)
            else:
                write(lead + text)
            lead = ",\n" + inner
        write(f"\n{indent}]")


def _json_scalar(obj):
    """The JSON text of a str, None, bool, int, float or Fraction; None for
    any other type."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or isinstance(obj, bool):
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return text if math.isfinite(obj) else f'"{text}"'
    if isinstance(obj, Fraction):
        return f'"{obj}"'
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
    digit count, where CPython's int -> str is quadratic.  That Decimal is
    built from the int's text only then.  Any other x takes str(), under
    the interpreter's int -> str digit limit."""
    last = 0
    text = digits = None  # `last`'s text, and its Decimal once built
    for x in values:
        if x >= _DIRECT and last > 0:
            factor, rest = divmod(x, last)
            if not rest and factor < _FACTOR:
                digits = _EXACT.multiply(
                    Decimal(text) if digits is None else digits, factor)
                text = str(digits)
                last = x
                yield text
                continue
        text = str(x)
        digits = None
        last = x
        yield text


# an estimate's samples are put in text per block of rows: a deep sample's
# scale and count run to thousands of digits, so few rows make a block
SAMPLE_ROWS = 64


def sample_blocks(samples, tables: list, inner: str):
    """Yield the JSON text of the `ScaleSample`s `samples` at indent
    `inner`, a block of `SAMPLE_ROWS` at a time, joined by ",\\n" + inner.
    Each function of `tables` is first handed the block and the str() texts
    of its scales' numerators and denominators, counts and log_ratios, one
    list each.  The numerators, denominators and counts are running
    products of column factors, which `running_decimals` puts in decimal."""
    # a sample's record, its fields in sorted order
    record = (f'{{\n{inner}  "count": %s,\n{inner}  "log_ratio": %s,\n'
              f'{inner}  "scale": "%s"\n{inner}}}')
    texts = zip(running_decimals(x.scale.numerator for x in samples),
                running_decimals(x.scale.denominator for x in samples),
                running_decimals(x.count for x in samples))
    for start in range(0, len(samples), SAMPLE_ROWS):
        block = samples[start:start + SAMPLE_ROWS]
        nums, dens, counts = zip(*islice(texts, len(block)))
        ratios = [str(x.log_ratio) for x in block]
        for table in tables:
            table(block, nums, dens, counts, ratios)
        yield f",\n{inner}".join([record % (
            count, ratio if math.isfinite(x.log_ratio) else f'"{ratio}"',
            num if den == "1" else f"{num}/{den}")
            for x, num, den, count, ratio in zip(block, nums, dens, counts,
                                                 ratios)])


# float columns are put in decimal per block of rows: each text serves
# report.json and a CSV alike, and no text of a whole column is built
BLOCK_ROWS = 1024


def column_blocks(columns, held: dict):
    """Yield each block of `BLOCK_ROWS` rows: its first row's index and the
    str() texts of its items, one list a column.  Each all-float column also
    keeps its blocks' JSON texts, and `held` the function that yields them
    for `write_json`, by the column's id."""
    kept = [[] if set(map(type, c)) == {float} else None for c in columns]
    for column, keep in zip(columns, kept):
        if keep is not None:
            held[id(column)] = partial(_rejoined, keep)
    for start in range(0, max(map(len, columns), default=0), BLOCK_ROWS):
        blocks = [c[start:start + BLOCK_ROWS] for c in columns]
        texts = [list(map(str, block)) for block in blocks]
        for keep, block, block_texts in zip(kept, blocks, texts):
            if keep is None:
                continue
            if not all(map(math.isfinite, block)):
                block_texts = [text if math.isfinite(x) else f'"{text}"'
                               for x, text in zip(block, block_texts)]
            keep.append("\n".join(block_texts))
        yield start, texts


def _rejoined(blocks: list, inner: str):
    """Each block of "\\n"-joined item texts, joined by ",\\n" + inner."""
    separator = ",\n" + inner
    return (block.replace("\n", separator) for block in blocks)
