"""The one plain-text table format of every polarsim output file.

A table is a ``# polarsim <kind>`` line, ``# key = value`` header lines, an
optional ``# columns = ...`` line and the body.  Numbers are written with
``%.17g``, which reads back to the same double, so reruns are bit-identical
and a snapshot read back by a ``file`` initial condition is the state written.

Neither direction holds the formatted file.  A write formats and writes a
numeric body ``BLOCK_ROWS`` rows at a time (:func:`row_blocks`); a read scans
the file line by line for its header and leaves the numbers to
``np.loadtxt``, which reads the file itself.
"""
from __future__ import annotations

import re
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import ConfigError

FMT = "%.17g"
BLOCK_ROWS = 1024  # rows formatted per write; a block of 5 columns is about 100 kB of text

_COMMENT = re.compile(r"#.*")  # a comment runs from '#' to the end of its line
_HEADER = re.compile(r"[# \t]*([^=]*?)[ \t]*=[ \t]*(.*?)[ \t]*")  # '# key = value'
_DATA = re.compile(r"[ \t]*[^#\s]")  # a line that holds a data row


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


def row_blocks(columns, lead=()):
    """:func:`format_rows` of each run of ``BLOCK_ROWS`` rows, as its text is needed.

    ``columns`` are 1-D numeric arrays of one length, one per number column;
    ``lead`` holds iterables of already-formatted strings, one per row each,
    read a block at a time.  Joined by newlines, the blocks are
    ``format_rows`` of the whole table.
    """
    lead = [iter(column) for column in lead]
    for start in range(0, len(columns[0]), BLOCK_ROWS):
        block = np.column_stack([c[start : start + BLOCK_ROWS] for c in columns])
        yield format_rows(block, lead=[list(islice(column, len(block))) for column in lead])


def format_table(kind: str | None = None, meta=(), columns=None, body: str = "") -> str:
    """The kind line, a '# key = value' line per meta pair in order, the columns and the body.

    Each part is left out when not given.
    """
    lines = [] if kind is None else [f"# polarsim {kind}"]
    lines += [f"# {key} = {value}" for key, value in meta]
    if columns is not None:
        lines.append("# columns = " + " ".join(columns))
    return "\n".join(lines + [body] if body else lines)


def write_table(path: str | Path, kind: str, meta=(), columns=None, body="") -> None:
    """Write :func:`format_table` and a newline to ``path``, the body block by block.

    ``body`` is a string, written as one block, or an iterable of blocks
    such as :func:`row_blocks`, each written as it comes.  A file that
    cannot be written raises ConfigError naming it.
    """
    try:
        with open(path, "w") as f:
            f.write(format_table(kind, meta, columns))
            for block in [body] if isinstance(body, str) else body:
                if block:
                    f.write("\n" + block)
            f.write("\n")
    except OSError as exc:
        raise ConfigError(f"cannot write table file {path}: {exc}") from None


def read_table(path: str | Path) -> tuple[dict[str, str], np.ndarray]:
    """The '# key = value' header pairs and the rows (a 2-D float array) of a table.

    A comment runs from '#' to the end of its line, anywhere; a repeated key
    keeps its last value.  No rows give shape (0, 0).  An unreadable file, a
    token that is not a number or rows of unequal length raise ConfigError.
    """
    meta, has_data = {}, False
    try:
        with open(path) as f:
            for line in f:
                has_data = has_data or _DATA.match(line) is not None
                if "#" in line:
                    header = _HEADER.fullmatch(_COMMENT.search(line)[0])
                    if header:
                        meta[header[1]] = header[2]
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read table file {path}: {exc}") from None
    if not has_data:
        return meta, np.empty((0, 0))
    try:  # the header scan held one line at a time; loadtxt reads the numbers from the file
        return meta, np.loadtxt(path, comments="#", ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"malformed table file {path}: {exc}") from None
