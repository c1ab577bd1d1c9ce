"""CSV writer: the chunked, column-formatted output must equal the per-cell
formatting it replaced (plus RFC 4180 quoting of text fields), streamed in
chunks of ``CSV_CHUNK_ROWS`` rows."""

import csv
import io
import math
import random
import sys

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from udwpair.sweep import (
    CSV_CHUNK_ROWS,
    GridAxis,
    SweepConfig,
    rows_to_csv,
    run_sweep,
    write_rows,
)


def _reference_cell(value):
    """The per-cell formatting of the earlier writer, with text fields
    quoted as RFC 4180 says."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    text = str(value)
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _lines(text):
    """``text`` split at each newline; a failing comparison of line lists
    reports the first differing line instead of diffing megabytes of text."""
    return text.split("\n")


def _reference_csv(rows):
    if not rows:
        return ""
    header = list(rows[0])
    lines = [",".join(map(_reference_cell, header))]
    for row in rows:
        lines.append(",".join(_reference_cell(row[k]) for k in header))
    return "\n".join(lines) + "\n"


class _CountingStream(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


_SPECIAL_FLOATS = [
    0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
    5e-324, -5e-324, sys.float_info.min / 3, sys.float_info.max, 1.0, 0.1,
]
_TEXT = st.text(alphabet=st.sampled_from('ab ,"\r\n:.-'), max_size=12)

#: a few values per column; rows draw from them, so values repeat
_POOLS = st.fixed_dictionaries({
    "f": st.lists(st.floats(), max_size=6).map(lambda xs: xs + _SPECIAL_FLOATS),
    "b": st.lists(st.booleans(), min_size=1, max_size=2),
    "i": st.lists(st.integers(), min_size=1, max_size=4),
    "s": st.lists(_TEXT, min_size=1, max_size=4),
    "m": st.lists(
        st.sampled_from(_SPECIAL_FLOATS) | st.booleans() | st.integers() | _TEXT,
        min_size=1, max_size=6,
    ),
})


@pytest.mark.parametrize(
    "n_rows", [0, 1, 2, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1]
)
# no shrinking: shrinking a two-thousand-row failure takes minutes, and the
# first differing line already says what went wrong
@settings(max_examples=30, deadline=None, phases=(Phase.explicit, Phase.generate))
@given(pools=_POOLS, seed=st.integers(0, 2**32 - 1))
def test_rows_to_csv_matches_per_cell_formatting(n_rows, pools, seed):
    rng = random.Random(seed)
    rows = [{key: rng.choice(pool) for key, pool in pools.items()} for _ in range(n_rows)]
    expected = _lines(_reference_csv(rows))
    assert _lines(rows_to_csv(rows)) == expected
    stream = io.StringIO()
    write_rows(rows, "csv", stream)
    assert _lines(stream.getvalue()) == expected


def test_signed_zero_and_nan_keep_their_texts():
    rows = [{"v": v} for v in (0.0, -0.0, math.nan, 0.0, -0.0, math.inf, -math.inf)]
    assert rows_to_csv(rows) == "v\n0\n-0\nnan\n0\n-0\ninf\n-inf\n"


def test_error_text_with_comma_and_quote_round_trips():
    error = 'ConvergenceError: quadrature did not stabilize on [0.0, 53.0]: "x" drifts'
    rows = [
        {"omega": 1.0, "passed": False, "error": error},
        {"omega": 2.0, "passed": True, "error": ""},
        {"omega": 3.0, "passed": False, "error": "two\nlines\r\n"},
    ]
    text = rows_to_csv(rows)
    assert '"ConvergenceError: quadrature did not stabilize on [0.0, 53.0]: ""x"" drifts"' in text
    back = list(csv.DictReader(io.StringIO(text, newline="")))
    assert [r["error"] for r in back] == [row["error"] for row in rows]
    assert [r["omega"] for r in back] == ["1", "2", "3"]


def test_grid_larger_than_one_chunk_is_written_in_chunks():
    config = SweepConfig(omega=GridAxis(-1.0, 1.0, 50), l=GridAxis(0.5, 5.0, 50))
    rows = run_sweep(config)
    assert len(rows) > CSV_CHUNK_ROWS
    stream = _CountingStream()
    write_rows(rows, "csv", stream)
    expected = _lines(_reference_csv(rows))
    assert _lines(stream.getvalue()) == _lines(rows_to_csv(rows)) == expected
    # the header, then one write per chunk of rows
    assert stream.writes == 1 + math.ceil(len(rows) / CSV_CHUNK_ROWS)


def test_rows_may_be_any_iterable():
    rng = random.Random(0)
    rows = [{"x": rng.random(), "k": rng.randrange(3)} for _ in range(CSV_CHUNK_ROWS + 1)]
    assert _lines(rows_to_csv(iter(rows))) == _lines(_reference_csv(rows))
