"""Float rendering: the column CSV writer writes exactly what the ``%.17g``
template writes, cell by cell."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curverl.ioutil import _CSV_BLOCK_ROWS, fmt_float, write_csv


def write_csv_per_cell(path, header, rows):
    """The oracle: rows, with isinstance and format on every cell."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt_float(c) if isinstance(c, float) else str(c) for c in row) + "\n")


class TestTemplateFormatting:
    @settings(max_examples=1000, deadline=None)
    @given(x=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
    @example(x=-0.0)
    @example(x=math.inf)
    @example(x=-math.inf)
    @example(x=math.nan)
    @example(x=5e-324)
    @example(x=2.225073858507201e-308)  # largest subnormal
    @example(x=1.7976931348623157e308)
    def test_percent_g_matches_format(self, x):
        assert "%.17g" % x == format(x, ".17g") == fmt_float(x)
        assert "%.17g" % np.float64(x) == fmt_float(np.float64(x))

    @given(v=st.one_of(st.integers(), st.booleans(), st.text()))
    def test_percent_s_matches_str(self, v):
        assert "%s" % (v,) == str(v)


# one strategy per column kind; a column keeps its kind in every row
CELL_KINDS = {
    "float": st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    "np_float": st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    "int": st.integers(),
    "np_int": st.integers(-(2**63), 2**63 - 1).map(np.int64),
    "bool": st.booleans(),
    "str": st.text(alphabet=st.characters(codec="utf-8")),
}


@st.composite
def tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(CELL_KINDS)), min_size=1, max_size=7))
    row = st.tuples(*(CELL_KINDS[k] for k in kinds))
    return [f"c{i}" for i in range(len(kinds))], draw(st.lists(row, max_size=20))


def as_columns(header, rows):
    """The columns of ``rows``, one list per header name."""
    return [list(col) for col in zip(*rows)] if rows else [[] for _ in header]


def as_array(col):
    """``col`` as the numpy array that holds its values exactly, else the list.

    A numpy string array would drop trailing NULs, and Python ints that no
    integer dtype spans become float64, so such columns stay lists.
    """
    if col and isinstance(col[0], str):
        return col
    a = np.asarray(col)
    return col if a.dtype == np.float64 and col and not isinstance(col[0], float) else a


def bits(x):
    return np.array([x], dtype=np.uint64).view(np.float64)[0]


class TestWriteCsv:
    @settings(max_examples=300, deadline=None)
    @given(table=tables(), as_arrays=st.booleans())
    # Python ints on both sides of 2**63 make a float64 array
    @example(table=(["c0", "c1"], [(0, 0.5), (2**63, -0.0)]), as_arrays=False)
    @example(table=(["c0", "c1"], [(0, 0.5), (2**63, -0.0)]), as_arrays=True)
    @example(table=(["c0"], [(-1,), (2**64,)]), as_arrays=True)
    def test_same_bytes_as_per_cell_writer(self, tmp_path_factory, table, as_arrays):
        header, rows = table
        columns = as_columns(header, rows)
        if as_arrays:
            columns = [as_array(col) for col in columns]
        tmp = tmp_path_factory.mktemp("csv")
        write_csv(tmp / "new.csv", header, columns)
        write_csv_per_cell(tmp / "old.csv", header, rows)
        assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()

    def test_hazards_across_block_seams(self, tmp_path):
        # more than two blocks; the planted values share blocks with their
        # near twins, and one value (and one int) sits on both sides of the
        # first seam
        n = 2 * _CSV_BLOCK_ROWS + 123
        rng = np.random.default_rng(0)
        floats = rng.choice([0.125, 0.5, 1 / 3, 2.0, 1e300], size=n)
        floats[::7] = rng.random(n)[::7]
        x = 0.1
        planted = [
            0.0, -0.0,
            5e-324, 2.225073858507201e-308,  # smallest and largest subnormal
            bits(0x7FF8000000000123),  # NaN with a payload
            bits(0xFFF8000000000000),  # -nan
            math.inf, -math.inf,
            x, float(np.nextafter(x, 2)),
        ]
        for start in (0, _CSV_BLOCK_ROWS + 40, n - len(planted)):
            floats[start:start + len(planted)] = planted
        floats[_CSV_BLOCK_ROWS - 1] = floats[_CSV_BLOCK_ROWS] = 0.7
        assert np.signbit(floats[1]) and not np.signbit(floats[0])
        header = ("i", "x", "neg", "tag")
        columns = [np.arange(n) // 7, floats, -floats, ["a", "b"] * (n // 2) + ["c"] * (n % 2)]
        rows = list(zip((np.arange(n) // 7).tolist(), floats.tolist(), (-floats).tolist(), columns[3]))
        write_csv(tmp_path / "new.csv", header, columns)
        write_csv_per_cell(tmp_path / "old.csv", header, rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        lines = (tmp_path / "new.csv").read_text().splitlines()
        assert len(lines) == n + 1
        assert lines[1].split(",")[1:3] == ["0", "-0"]
        assert lines[2].split(",")[1:3] == ["-0", "0"]

    def test_header_only(self, tmp_path):
        write_csv(tmp_path / "x.csv", ("a", "b"), ([], []))
        assert (tmp_path / "x.csv").read_text() == "a,b\n"

    def test_ragged_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "x.csv", ("a", "b"), ([1.0, 2.0], [1]))
