"""Deterministic CSV output: 17 significant digits, '.' decimal point,
'\\n' line endings, header always present, non-finite values refused.

``format_value`` is the rule for one cell.  ``render_csv`` applies it
through one ``%``-template per row (``%d`` for ints, ``%.17g`` for
floats) when every row has the same type signature of ints and floats;
there the float columns are checked for finiteness and cleared of
negative zero as one array.  Any other table, or one with a non-finite
float, goes cell by cell through ``format_value``, which raises the
error.  Both give the same bytes.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import CsvWriteError

# the %-conversion that formats a cell of each type as format_value does
_TEMPLATES = {int: "%d", float: "%.17g"}


def format_value(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        if not math.isfinite(v):
            raise CsvWriteError(f"non-finite value {v!r} refused")
        if v == 0.0:
            v = 0.0  # drop the sign of negative zero
        return f"{v:.17g}"
    if isinstance(v, str):
        if any(c in v for c in (",", '"', "\n", "\r")):
            return '"' + v.replace('"', '""') + '"'
        return v
    if isinstance(v, complex):
        raise CsvWriteError("split complex values into _re/_im columns")
    try:
        return format_value(float(v))
    except (TypeError, ValueError) as exc:
        raise CsvWriteError(f"cannot format {v!r} for CSV") from exc


def _template_lines(rows, width):
    """The lines of a table whose rows share one type signature of ints
    and floats and hold only finite floats; None for any other table."""
    if not rows:
        return []
    sig = tuple(map(type, rows[0]))
    if len(sig) != width or not sig or not set(sig) <= _TEMPLATES.keys():
        return None
    if any(tuple(map(type, row)) != sig for row in rows):
        return None
    cols = list(zip(*rows))
    fcols = [j for j, t in enumerate(sig) if t is float]
    if fcols:
        block = np.array([cols[j] for j in fcols])
        if not np.isfinite(block).all():
            return None
        block[block == 0.0] = 0.0  # drop the sign of negative zero
        for j, col in zip(fcols, block.tolist()):
            cols[j] = col
    template = ",".join(_TEMPLATES[t] for t in sig)
    return list(map(template.__mod__, zip(*cols)))


def render_csv(rows, schema) -> str:
    width = len(schema)
    rows = [tuple(row) for row in rows]
    lines = _template_lines(rows, width)
    if lines is None:
        lines = []
        for i, row in enumerate(rows):
            if len(row) != width:
                raise CsvWriteError(
                    f"row {i} has {len(row)} fields, schema has {width}"
                )
            lines.append(",".join(format_value(v) for v in row))
    return "\n".join([",".join(str(c) for c in schema), *lines]) + "\n"


def emit_csv(rows, schema, destination) -> None:
    """Write rows under the declared column schema.

    ``destination`` is a path or a writable text file object.
    """
    text = render_csv(rows, schema)
    if hasattr(destination, "write"):
        destination.write(text)
        return
    try:
        with open(Path(destination), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise CsvWriteError(f"cannot write {destination!r}: {exc}") from exc
