"""Deterministic CSV output: 17 significant digits, '.' decimal point,
'\\n' line endings, header always present, non-finite values refused.

A table is a list of columns, one per schema name, all of one length.
``format_value`` is the rule for one cell.  ``render_csv`` applies it
through one ``%``-template per row: every float column (an array of a
float dtype, or cells that are all ``float``) is checked for finiteness
and cleared of negative zero in one numpy block and takes ``%.17g``, a
column of ``int`` or ``bool`` cells takes ``%d``, and any other column
goes cell by cell through ``format_value``.  A table with a non-finite float goes cell by cell in
row order, so the error names the cell ``format_value`` meets first.
Both give the same bytes.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import CsvWriteError


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


def _conversion(col) -> str:
    """The %-conversion of every cell of ``col``; ``%s`` for a cell
    ``format_value`` turns into a string first."""
    if isinstance(col, np.ndarray):
        return "%.17g" if col.dtype.kind == "f" else "%s"
    types = set(map(type, col))
    return "%.17g" if types <= {float} else "%d" if types <= {int, bool} else "%s"


def render_csv(columns, schema) -> str:
    cols = [c if isinstance(c, np.ndarray) else list(c) for c in columns]
    if len(cols) != len(schema):
        raise CsvWriteError(f"table has {len(cols)} columns, schema has {len(schema)}")
    lengths = sorted({len(c) for c in cols})
    if len(lengths) > 1:
        raise CsvWriteError(f"columns have unequal lengths {lengths}")
    conv = list(map(_conversion, cols))
    fcols = [j for j, c in enumerate(conv) if c == "%.17g"]
    slow = [j for j, c in enumerate(conv) if c == "%s"]
    if fcols:
        block = np.array([cols[j] for j in fcols], dtype=float)
        if not np.isfinite(block).all():
            slow = range(len(cols))  # every cell, so the first bad one raises
        block += 0.0  # -0.0 + 0.0 is 0.0, and no other value changes
        for j, col in zip(fcols, block.tolist()):
            cols[j] = col
    cells = [format_value(v) for row in zip(*(cols[j] for j in slow)) for v in row]
    for k, j in enumerate(slow):
        cols[j] = cells[k::len(slow)]
    lines = map(",".join(conv).__mod__, zip(*cols))
    return "\n".join([",".join(str(c) for c in schema), *lines]) + "\n"


def emit_csv(columns, schema, destination) -> None:
    """Write columns under the declared column schema.

    ``destination`` is a path or a writable text file object.
    """
    text = render_csv(columns, schema)
    if hasattr(destination, "write"):
        destination.write(text)
        return
    try:
        with open(Path(destination), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise CsvWriteError(f"cannot write {destination!r}: {exc}") from exc
