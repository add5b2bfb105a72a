# artifacts.py
# The one artifact format: JSON with floats at 17 significant digits and
# sorted keys, CSV rows with the same floats, and the writer that puts a
# run's files into its output directory.  Every byte kderates writes comes
# from here, so the format is decided in one place.

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

__all__ = ["dumps_17g", "csv_text", "write_files"]


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def dumps_17g(obj, indent: int = 0) -> str:
    """JSON text with floats at 17 significant digits and sorted keys.

    Non-finite floats are emitted as the strings "inf"/"-inf"/"nan" to keep
    the output strict JSON.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{json.dumps(str(k))}: {dumps_17g(obj[k], indent + 1)}" for k in sorted(obj, key=str)]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{inner}{dumps_17g(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _csv_field(v) -> str:
    if isinstance(v, (bool, np.bool_, int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def csv_text(header, rows) -> str:
    """CSV text: ints and bools as integers, every other number at 17 significant digits."""
    lines = [",".join(header)]
    lines.extend(",".join(_csv_field(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def write_files(out_dir, files: dict[str, str]) -> None:
    """Write each {file name: text} into out_dir, creating it if needed."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8")
