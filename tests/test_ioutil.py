"""Float rendering: the row renderer and the column CSV writer write exactly
what the ``%.17g`` template writes, cell by cell."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curverl.ioutil import _CSV_BLOCK_ROWS, _fast_rows, fmt_float, fmt_float_rows, write_csv


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


def template_rows(values):
    """The oracle: each row through one ``%`` template call."""
    template = ", ".join(["%.17g"] * values.shape[1])
    return [template % tuple(row) for row in values.tolist()]


def assert_rows_match_template(values):
    got, want = fmt_float_rows(values), template_rows(values)
    assert [row.split(", ") for row in got] == [row.split(", ") for row in want]
    assert got == want


ROW_WIDTHS = (1, 2, 7, 256)


def as_rows(values, width, filler=0.75):
    """``values`` in rows of ``width``, the last row topped up with ``filler``."""
    values = np.asarray(values, dtype=np.float64).ravel()
    rows = np.full(-(-values.size // width) * width, filler)
    rows[:values.size] = values
    return rows.reshape(-1, width)


def with_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


def exact_ties(rng, per_exponent=300):
    """Values halfway between two 17-digit decimals, so their rounding is a
    tie: odd multiples of 2**(E - 17) in [10**E, 10**(E + 1)), E in [-6, 7]."""
    ties = []
    for e in range(-6, 8):
        scale = 2.0 ** (17 - e)
        k = rng.integers(math.ceil(10.0**e * scale), math.floor(10.0 ** (e + 1) * scale),
                         size=per_exponent)
        ties.append((k | 1) / scale)
    return np.concatenate(ties)


def near_ties(rng, n=1000):
    """The doubles nearest to 18-digit decimals ending in 5, E in [-8, 8]."""
    digits = rng.integers(10**16, 10**17, size=n) * 10 + 5
    exponents = rng.integers(-8, 9, size=n)
    return np.array([float(f"{d}e{e - 17}") for d, e in zip(digits.tolist(), exponents.tolist())])


EDGE_VALUES = np.concatenate([
    [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
     math.inf, -math.inf, math.nan],
    # powers of ten and their neighbours; some, such as 1e-14, are doubles
    # below the power whose 17-digit rounding carries up to it
    with_neighbours([float(f"1e{k}") for k in range(-20, 23)]),
    # the fast range and where the exponent form starts
    with_neighbours([1e-6, 9.9999999999999995e-07, 1e-5, 1e-4, 1e7, 1e8, 99999999.999999985]),
    # integers, in and far out of the fast range
    [1.0, 12345678.0, 2.0**53 - 1, 2.0**53, 2.0**53 + 2, 2.0**54 + 4, -(2.0**53)],
])


@st.composite
def float_rows(draw):
    """Rows of doubles from raw bit patterns: most moved to binary exponents
    inside or around the fast range [1e-6, 1e8), up to three left anywhere
    (zeros, subnormals, huge values, infinities, NaN payloads)."""
    width = draw(st.sampled_from(ROW_WIDTHS))
    size = width * draw(st.integers(1, 2))
    raw = np.frombuffer(draw(st.binary(min_size=8 * size, max_size=8 * size)), dtype=np.uint64)
    # 2**-19 .. 2**26 lie inside the fast range, 2**-22 .. 2**28 around it
    lowest, span = draw(st.sampled_from([(1023 - 19, 46), (1023 - 22, 51)]))
    exponent = np.uint64(lowest) + (raw >> np.uint64(52)) % np.uint64(span)
    near = raw & ~np.uint64(0x7FF << 52) | exponent << np.uint64(52)
    for at in draw(st.lists(st.integers(0, size - 1), max_size=3)):
        near[at] = raw[at]
    return near.view(np.float64).reshape(-1, width)


class TestFloatRows:
    @settings(max_examples=300, deadline=None)
    @given(values=float_rows())
    def test_same_text_as_template_on_bit_patterns(self, values):
        assert_rows_match_template(values)

    @pytest.mark.parametrize("width", ROW_WIDTHS)
    def test_same_text_as_template_on_edge_values(self, width):
        assert_rows_match_template(as_rows(EDGE_VALUES, width))

    @pytest.mark.parametrize("width", ROW_WIDTHS)
    def test_same_text_as_template_on_ties(self, width):
        rng = np.random.default_rng(width)
        values = np.concatenate([with_neighbours(exact_ties(rng)), with_neighbours(near_ties(rng))])
        values[::2] *= -1
        assert_rows_match_template(as_rows(values, width))

    @pytest.mark.parametrize("width", ROW_WIDTHS)
    def test_same_text_as_template_on_mixed_rows(self, width):
        # rows in the fast range, each third one with an edge value in it
        rng = np.random.default_rng(100 + width)
        values = rng.standard_normal((60, width)) * 10.0 ** rng.integers(-6, 8, size=(60, 1))
        for i in range(0, 60, 3):
            values[i, rng.integers(width)] = EDGE_VALUES[i % len(EDGE_VALUES)]
        assert_rows_match_template(values)

    def test_fast_path_takes_its_range(self):
        # every value of [1e-6, 1e8) but the double nearest 1e-6, whose
        # exponent is -7, renders without the template
        rng = np.random.default_rng(7)
        values = np.concatenate([exact_ties(rng), 10.0 ** rng.uniform(-6, 8, 5000),
                                 with_neighbours([1e-5, 1e-4, 1e7]), [np.nextafter(1e-6, 1)]])
        values[::3] *= -1
        rows = as_rows(values, 8)
        assert None not in _fast_rows(rows)
        assert _fast_rows(np.array([[1e-6, 1.0]])) == [None]
        assert_rows_match_template(rows)

    def test_no_columns(self):
        assert fmt_float_rows(np.empty((2, 0))) == ["", ""]
        assert fmt_float_rows(np.empty((0, 3))) == []


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
