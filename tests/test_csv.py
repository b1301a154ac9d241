"""The shared CSV writer: every cell reads back exactly."""

import math

import numpy as np
from hypothesis import given, strategies as st

from disqo._csv import write_csv

# Canonical nan only: a nan's sign and payload have no text form.
FLOATS = st.floats(allow_nan=False, allow_subnormal=True) | st.just(math.nan)
TEXT = st.text(alphabet="abcdefghijklmnopqrstuvwxyzABC0123456789_:.-+ ", max_size=12)
CELLS = st.one_of(FLOATS, FLOATS.map(np.float64), st.integers(), TEXT)


def _bits(v) -> int:
    return int(np.float64(v).view(np.uint64))


@given(st.lists(st.lists(CELLS, min_size=1, max_size=6), max_size=6))
def test_every_cell_reads_back_exactly(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_csv(path, ["a", "b"], rows)
    with open(path, newline="") as fh:
        lines = fh.read().split("\n")
    assert lines.pop() == ""  # every line ends in a newline
    back = [line.split(",") for line in lines]
    assert back[0] == ["a", "b"]
    assert len(back) == 1 + len(rows)
    for row, got in zip(rows, back[1:]):
        assert len(got) == len(row)
        for want, text in zip(row, got):
            if isinstance(want, str):
                assert text == want
            elif isinstance(want, int):
                assert int(text) == want and text == str(want)
            else:
                assert _bits(float(text)) == _bits(want)


def test_cell_text_is_pinned(tmp_path):
    cells = ["x", 7, np.int64(7), -0.0, 5e-324, math.inf, -math.inf, math.nan, np.float64(0.1), 1.7976931348623157e308]
    write_csv(tmp_path / "t.csv", ["h"], [cells])
    assert (tmp_path / "t.csv").read_text() == (
        "h\nx,7,7,-0,4.9406564584124654e-324,inf,-inf,nan,0.10000000000000001,1.7976931348623157e+308\n"
    )
