"""The shared plain-text table format (polarsim.tables).

Reading a written table must give back the same bits, and the reader must
turn every malformed file into a ConfigError naming it.
"""

import re
import sys
import warnings

import numpy as np
import pytest

from polarsim.errors import ConfigError
from polarsim.tables import format_rows, format_table, read_table, write_table

# zero of both signs, the smallest subnormal and normal, the largest double
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]
EDGE_VALUES += [sys.float_info.max, -sys.float_info.max]


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def wide_values(rng, n):
    """Doubles spread over 1e-300 .. 1e300 in magnitude, both signs, plus the edge cases."""
    mags = 10.0 ** rng.uniform(-300, 300, n) * rng.uniform(1.0, 10.0, n)
    vals = mags * rng.choice([-1.0, 1.0], n)
    return np.concatenate([vals, EDGE_VALUES])


def loop_format_rows(table):
    """A per-value loop: the byte-level reference for format_rows."""
    return "\n".join(" ".join("%.17g" % val for val in row) for row in np.asarray(table))


class TestFormat:
    def test_format_rows_equals_per_value_loop(self):
        rng = np.random.default_rng(1)
        table = wide_values(rng, 7 * 429 - len(EDGE_VALUES)).reshape(-1, 7)
        table[0, :3] = [np.nan, np.inf, -np.inf]
        assert format_rows(table) == loop_format_rows(table)

    def test_leading_columns_come_first_unchanged(self):
        rng = np.random.default_rng(2)
        table = wide_values(rng, 3 * 40 - len(EDGE_VALUES)).reshape(-1, 3)
        xs = [f"x{i % 4}" for i in range(len(table))]
        ys = ["0.1", "2"] * (len(table) // 2)
        want = [f"{x} {y} {row}" for x, y, row in zip(xs, ys, loop_format_rows(table).splitlines())]
        assert format_rows(table, lead=(xs, ys)).splitlines() == want
        assert format_rows([(1.5,)], lead=(["a"],)) == "a 1.5"

    def test_format_rows_single_row_and_empty(self):
        assert format_rows([(1.0, 0.5, 3)]) == "1 0.5 3"
        assert format_rows([]) == ""

    def test_format_table_parts(self):
        text = format_table("demo", [("b", 2), ("a", "x = y")], ("c1", "c2"), "1 2")
        want = ["# polarsim demo", "# b = 2", "# a = x = y", "# columns = c1 c2", "1 2"]
        assert text.splitlines() == want
        assert format_table(columns=("t",)) == "# columns = t"
        assert format_table("demo") == "# polarsim demo"


class TestRoundTrip:
    @pytest.mark.parametrize(
        "shape", [(33, 4), (6 * 9, 5), (1, 5), (1, 1)], ids=["1d", "2d", "single-row", "single-value"]
    )
    def test_read_gives_written_bits(self, tmp_path, shape):
        rng = np.random.default_rng(sum(shape))
        table = rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.integers(-300, 300, shape)
        path = tmp_path / "t.txt"
        columns = [f"c{i}" for i in range(shape[1])]
        write_table(path, "demo", [("t", "0.5"), ("grid", "interval 1 33")], columns, format_rows(table))
        meta, rows = read_table(path)
        assert meta == {"t": "0.5", "grid": "interval 1 33", "columns": " ".join(columns)}
        assert same_bits(rows, table)

    def test_wide_range_of_doubles(self, tmp_path):
        vals = wide_values(np.random.default_rng(2), 20_000 - len(EDGE_VALUES))
        table = vals.reshape(-1, 4)
        path = tmp_path / "wide.txt"
        write_table(path, "demo", body=format_rows(table))
        meta, rows = read_table(path)
        assert same_bits(rows, table)
        # and each token read by loadtxt is the double float() reads
        tokens = [tok for line in format_rows(table).splitlines() for tok in line.split()]
        assert same_bits(rows.ravel(), [float(tok) for tok in tokens])

    def test_header_values_keep_inner_equals_and_last_wins(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("# polarsim x\n# params = P(D=4.0, tau=1.0)\n# t = 1\n\n1 2\n# t = 2\n3 4\n")
        meta, rows = read_table(path)
        assert meta == {"params": "P(D=4.0, tau=1.0)", "t": "2"}
        assert same_bits(rows, [[1.0, 2.0], [3.0, 4.0]])


class TestReaderErrors:
    def test_no_data_rows_gives_empty_table_without_warning(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# polarsim snapshot\n# t = 0\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            meta, rows = read_table(path)
        assert meta == {"t": "0"} and rows.size == 0

    @pytest.mark.parametrize(
        "text, match",
        [
            ("1 2\n3 x\n", "could not convert"),
            ("1 2\n3\n", "number of columns"),
        ],
        ids=["token", "ragged"],
    )
    def test_malformed_rows(self, tmp_path, text, match):
        path = tmp_path / "bad.txt"
        path.write_text("# t = 0\n" + text)
        with pytest.raises(ConfigError, match=f"malformed table file {re.escape(str(path))}: .*{match}"):
            read_table(path)

    def test_unreadable(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read table file"):
            read_table(tmp_path)
        path = tmp_path / "latin1.txt"
        path.write_bytes("# t = 0\n1 2 \xe9\n".encode("latin-1"))
        with pytest.raises(ConfigError, match=re.escape(str(path))):
            read_table(path)

