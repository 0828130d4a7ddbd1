"""Small text formats: ``key=value`` metadata blocks and float formatting.

Every float this package writes is rendered with Python's shortest
round-trip ``repr`` of the float64 value: :func:`fmt_float` for one value,
:func:`fmt_vector` for a vector and :func:`fmt_rows` for a 2-D block.  That
keeps files byte-stable across repeated runs and lets a reader recover the
exact binary value.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError


def fmt_float(x) -> str:
    """Shortest decimal string that round-trips to the same float."""
    return repr(float(x))


def fmt_vector(vec) -> str:
    """Space-joined round-trip floats of a 1-D vector."""
    # float.__repr__ rather than repr: a 2-D input then raises TypeError on
    # its row lists instead of printing them.
    return " ".join(map(float.__repr__, np.asarray(vec, dtype=float).tolist()))


def fmt_rows(block) -> list[str]:
    """One comma-joined line of round-trip floats per row of a 2-D block.

    The same bytes as :func:`fmt_float` on each cell, but converted to
    Python floats once per block rather than once per cell.
    """
    return [",".join(map(repr, row)) for row in np.asarray(block, dtype=float).tolist()]


def parse_vector(text: str):
    return [float(tok) for tok in text.split()]


def format_metadata(items: dict) -> str:
    """Render an ordered mapping as ``key=value`` lines.

    Floats get round-trip precision; sequences become space-joined floats;
    everything else is rendered with ``str``.
    """
    lines = []
    for key, value in items.items():
        if isinstance(value, bool):
            rendered = "true" if value else "false"
        elif isinstance(value, float):
            rendered = fmt_float(value)
        elif isinstance(value, (list, tuple)) or type(value).__name__ == "ndarray":
            rendered = fmt_vector(value)
        else:
            rendered = str(value)
        lines.append(f"{key}={rendered}")
    return "\n".join(lines) + "\n"


def write_metadata(path, items: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(format_metadata(items))


def parse_metadata(text: str) -> dict:
    """Inverse of :func:`format_metadata` (values stay strings)."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out
