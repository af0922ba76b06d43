"""The one plain-text table format of every polarsim output file.

A table is a ``# polarsim <kind>`` line, ``# key = value`` header lines, an
optional ``# columns = ...`` line and the body.  Numbers are written with
``%.17g``, which reads back to the same double, so reruns are bit-identical
and a snapshot read back by a ``file`` initial condition is the state written.
"""
from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .errors import ConfigError

FMT = "%.17g"

_COMMENT = re.compile(r"#.*")  # a comment runs from '#' to the end of its line
_HEADER = re.compile(r"[# \t]*([^=]*?)[ \t]*=[ \t]*(.*?)[ \t]*")  # '# key = value'
_DATA = re.compile(r"^[ \t]*[^#\s]", re.M)


def fmt(x: float) -> str:
    return FMT % x


def format_rows(table, lead=()) -> str:
    """Rows of a 2-D numeric table as lines, by one % over a repeated row template.

    ``lead`` holds already-formatted leading columns, one string per row
    each, written before the numbers; a value repeated down a column is then
    formatted once, not once per row.
    """
    table = np.atleast_2d(np.asarray(table, dtype=float))
    columns = [*lead, *table.T.tolist()]
    row = " ".join(["%s"] * len(lead) + [FMT] * table.shape[1])
    cells = [None] * (table.shape[0] * len(columns))
    for j, column in enumerate(columns):  # interleave the columns row by row
        cells[j :: len(columns)] = column
    return "\n".join([row] * table.shape[0]) % tuple(cells)


def format_table(kind: str | None = None, meta=(), columns=None, body: str = "") -> str:
    """The kind line, a '# key = value' line per meta pair in order, the columns and the body.

    Each part is left out when not given.
    """
    lines = [] if kind is None else [f"# polarsim {kind}"]
    lines += [f"# {key} = {value}" for key, value in meta]
    if columns is not None:
        lines.append("# columns = " + " ".join(columns))
    return "\n".join(lines + [body] if body else lines)


def write_table(path: str | Path, kind: str, meta=(), columns=None, body: str = "") -> None:
    Path(path).write_text(format_table(kind, meta, columns, body) + "\n")


def read_table(path: str | Path) -> tuple[dict[str, str], np.ndarray]:
    """The '# key = value' header pairs and the rows (a 2-D float array) of a table.

    A comment runs from '#' to the end of its line, anywhere; a repeated key
    keeps its last value.  No rows give shape (0, 0).  An unreadable file, a
    token that is not a number or rows of unequal length raise ConfigError.
    """
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read table file {path}: {exc}") from None
    headers = (_HEADER.fullmatch(c) for c in _COMMENT.findall(text))
    meta = {m[1]: m[2] for m in headers if m}
    if not _DATA.search(text):
        return meta, np.empty((0, 0))
    try:  # from the file: a StringIO over ``text`` would hold several times its size
        return meta, np.loadtxt(path, comments="#", ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"malformed table file {path}: {exc}") from None
