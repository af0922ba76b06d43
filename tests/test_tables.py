"""The shared plain-text table format (polarsim.tables).

Reading a written table must give back the same bits, and the reader must
turn every malformed file into a ConfigError naming it.
"""

import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarsim.errors import ConfigError
from polarsim.tables import BLOCK_ROWS, format_rows, format_table, read_table, row_blocks, write_table

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


def written_body(path):
    """The text after a table's header lines, without the final newline."""
    lines = path.read_text().splitlines()
    return "\n".join(line for line in lines if not line.startswith("#"))


# every row count at which a block boundary could shift a byte
BLOCK_EDGES = [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1]


class TestBlocks:
    @pytest.mark.parametrize("n_rows", BLOCK_EDGES)
    @pytest.mark.parametrize("with_lead", [False, True], ids=["numbers", "lead"])
    def test_written_body_equals_per_value_loop(self, tmp_path, n_rows, with_lead):
        rng = np.random.default_rng(n_rows)
        table = wide_values(rng, 3 * n_rows)[: 3 * n_rows].reshape(n_rows, 3)
        lead = ([f"x{i % 7}" for i in range(n_rows)],) if with_lead else ()
        want = loop_format_rows(table)
        if with_lead:
            want = "\n".join(f"{x} {row}" for x, row in zip(lead[0], want.splitlines()))
        assert format_rows(table, lead=lead) == want
        path = tmp_path / "t.txt"
        streamed = row_blocks(list(table.T), lead=lead)
        write_table(path, "demo", [("n", n_rows)], ("c1", "c2", "c3"), streamed)
        assert written_body(path) == want
        assert path.read_text().endswith("\n") and not path.read_text().endswith("\n\n")

    def test_blocks_hold_at_most_block_rows(self):
        column = np.arange(2 * BLOCK_ROWS + 1, dtype=float)
        sizes = [len(block.splitlines()) for block in row_blocks([column])]
        assert sizes == [BLOCK_ROWS, BLOCK_ROWS, 1]

    def test_string_body_is_one_block(self, tmp_path):
        path = tmp_path / "s.txt"
        write_table(path, "summary", [("config", "abc")], body="a = 1\nb = 2")
        assert path.read_text() == "# polarsim summary\n# config = abc\na = 1\nb = 2\n"
        write_table(path, "summary", [("config", "abc")])
        assert path.read_text() == "# polarsim summary\n# config = abc\n"


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


# The whole-text header reader that read_table's line scan replaced: the
# reference its meta and its empty-table verdict must equal.
REF_COMMENT = re.compile(r"#.*")
REF_HEADER = re.compile(r"[# \t]*([^=]*?)[ \t]*=[ \t]*(.*?)[ \t]*")
REF_DATA = re.compile(r"^[ \t]*[^#\s]", re.M)


def reference_header(text):
    headers = (REF_HEADER.fullmatch(c) for c in REF_COMMENT.findall(text))
    return {m[1]: m[2] for m in headers if m}, REF_DATA.search(text) is None


_KEYS = st.sampled_from(["t", "grid", "model", " t", "a b", "x=y", ""])
_VALUES = st.sampled_from(["1", "0.5 ", "interval 1 33", "P(D=4.0)", "", " # 2", "=", "\t3"])
_SPACE = st.sampled_from(["", " ", "\t", " \t "])
_LINES = st.one_of(
    st.builds(lambda a, k, b, v: f"{a}#{b}{k}{b}={b}{v}", _SPACE, _KEYS, _SPACE, _VALUES),  # header
    st.builds(lambda a, c: f"{a}#{c}", _SPACE, st.sampled_from(["", " note", "#", "# k = v"])),
    st.builds(lambda a, r: f"{a}{r}", _SPACE, st.sampled_from(["1 2", "-3.5e-300 4"])),  # data
    st.builds(lambda r, k, v: f"{r} # {k} = {v}", st.sampled_from(["1 2", "5 6"]), _KEYS, _VALUES),
    _SPACE,  # blank
)


class TestHeaderScan:
    @given(lines=st.lists(_LINES, max_size=12), final_newline=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_meta_and_emptiness_equal_whole_text_regexes(self, tmp_path_factory, lines, final_newline):
        text = "\n".join(lines) + ("\n" if final_newline else "")
        path = tmp_path_factory.mktemp("scan") / "t.txt"
        path.write_text(text)
        meta, rows = read_table(path)
        want_meta, want_empty = reference_header(text)
        assert meta == want_meta
        assert (rows.size == 0) == want_empty
        if not want_empty:
            assert rows.shape[1] == 2


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

