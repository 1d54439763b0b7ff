"""CSV writing: one template per row renders exactly what per-cell formatting did."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curverl.ioutil import fmt_float, write_csv


def write_csv_per_cell(path, header, rows):
    """The writer as it was before templates: isinstance and format on every cell."""
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


class TestWriteCsv:
    @settings(max_examples=300, deadline=None)
    @given(table=tables(), as_lists=st.booleans())
    def test_same_bytes_as_per_cell_writer(self, tmp_path_factory, table, as_lists):
        header, rows = table
        if as_lists:
            rows = [list(r) for r in rows]
        tmp = tmp_path_factory.mktemp("csv")
        write_csv(tmp / "new.csv", header, iter(rows))
        write_csv_per_cell(tmp / "old.csv", header, rows)
        assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()

    def test_header_only(self, tmp_path):
        write_csv(tmp_path / "x.csv", ("a", "b"), [])
        assert (tmp_path / "x.csv").read_text() == "a,b\n"
