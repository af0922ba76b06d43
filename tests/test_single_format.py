"""The table format is spelled out in polarsim.tables and nowhere else.

Every writer and the snapshot reader go through that module, so a second
copy of the number format or of the table header line is a format that can
drift from the first.
"""

from pathlib import Path

import polarsim

SRC = Path(polarsim.__file__).resolve().parent


def test_table_format_is_defined_in_tables_only():
    offenders = [
        f"{path.name}: {needle}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "tables.py"
        for needle in ("%.17g", "# polarsim ")
        if needle in path.read_text()
    ]
    assert offenders == []
