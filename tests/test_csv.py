"""Result tables and their writers: a ``Table``'s CSV must equal the
per-cell formatting of its rows (plus RFC 4180 quoting of text fields), its
JSONL must equal ``json.dumps`` of each row with NaN as null, both streamed
in chunks of ``CSV_CHUNK_ROWS`` rows, and its row view must agree with its
columns."""

import csv
import io
import json
import math
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from udwpair.errors import TruncationWarning
from udwpair.config import GridAxis, SweepConfig, TopologyKind
from udwpair.sweep import (
    CSV_CHUNK_ROWS,
    Table,
    rows_to_csv,
    rows_to_jsonl,
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


def _reference_jsonl(rows):
    """One ``json.dumps(row, allow_nan=False)`` line per row, NaN as null."""
    return "".join(
        json.dumps(
            {k: None if isinstance(v, float) and math.isnan(v) else v for k, v in row.items()},
            allow_nan=False,
        )
        + "\n"
        for row in rows
    )


def _table(rows, dtypes):
    """A Table of ``rows`` (dicts of Python values): one column per key of
    ``dtypes``, of that dtype."""
    return Table({
        key: np.array([row[key] for row in rows], dtype=dtype) for key, dtype in dtypes.items()
    })


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
_TEXT = st.text(alphabet=st.sampled_from('ab ,"\r\n:.-\\é'), max_size=12)
_INT64 = st.integers(-(2**63), 2**63 - 1)

#: column -> dtype: floats, bools, int64, text as object and as numpy str
_DTYPES = {"f": np.float64, "b": bool, "i": np.int64, "s": object, "u": str}


def _pools(floats, special):
    """A few values per column; rows draw from them, so values repeat."""
    return st.fixed_dictionaries({
        "f": st.lists(floats, max_size=6).map(lambda xs: xs + special),
        "b": st.lists(st.booleans(), min_size=1, max_size=2),
        "i": st.lists(_INT64, min_size=1, max_size=4),
        "s": st.lists(_TEXT, min_size=1, max_size=4),
        "u": st.lists(_TEXT, min_size=1, max_size=4),
    })


def _draw_rows(pools, n_rows, seed):
    rng = random.Random(seed)
    return [{key: rng.choice(pools[key]) for key in _DTYPES} for _ in range(n_rows)]


_ROW_COUNTS = [0, 1, 2, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1]
# no shrinking: shrinking a two-thousand-row failure takes minutes, and the
# first differing line already says what went wrong
_SETTINGS = settings(max_examples=30, deadline=None, phases=(Phase.explicit, Phase.generate))


@pytest.mark.parametrize("n_rows", _ROW_COUNTS)
@_SETTINGS
@given(pools=_pools(st.floats(), _SPECIAL_FLOATS), seed=st.integers(0, 2**32 - 1))
def test_rows_to_csv_matches_per_cell_formatting(n_rows, pools, seed):
    rows = _draw_rows(pools, n_rows, seed)
    table = _table(rows, _DTYPES)
    expected = _lines(_reference_csv(rows))
    assert _lines(rows_to_csv(table)) == expected
    stream = io.StringIO()
    write_rows(table, "csv", stream)
    assert _lines(stream.getvalue()) == expected


@pytest.mark.parametrize("n_rows", _ROW_COUNTS)
@_SETTINGS
@given(
    pools=_pools(
        st.floats(allow_infinity=False),
        [v for v in _SPECIAL_FLOATS if not math.isinf(v)],
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_rows_to_jsonl_matches_json_dumps_per_row(n_rows, pools, seed):
    rows = _draw_rows(pools, n_rows, seed)
    table = _table(rows, _DTYPES)
    expected = _lines(_reference_jsonl(rows))
    assert _lines(rows_to_jsonl(table)) == expected
    stream = io.StringIO()
    write_rows(table, "jsonl", stream)
    assert _lines(stream.getvalue()) == expected


def test_jsonl_rejects_infinities_as_json_dumps_does():
    table = Table({"v": np.array([1.0, math.inf])})
    with pytest.raises(ValueError):
        _reference_jsonl(list(table))
    with pytest.raises(ValueError):
        rows_to_jsonl(table)


def test_jsonl_keys_are_written_as_json_dumps_writes_them():
    table = Table({'50% "x"\n': np.array([1.5, -0.0]), "%s": np.array(["%d", "é"], dtype=object)})
    assert rows_to_jsonl(table) == _reference_jsonl(list(table))


def test_signed_zero_and_nan_keep_their_texts():
    table = Table({"v": np.array([0.0, -0.0, math.nan, 0.0, -0.0, math.inf, -math.inf])})
    assert rows_to_csv(table) == "v\n0\n-0\nnan\n0\n-0\ninf\n-inf\n"
    assert rows_to_jsonl(Table({"v": table.columns["v"][:5]})) == (
        '{"v": 0.0}\n{"v": -0.0}\n{"v": null}\n{"v": 0.0}\n{"v": -0.0}\n'
    )


def test_error_text_with_comma_and_quote_round_trips():
    error = 'ConvergenceError: quadrature did not stabilize on [0.0, 53.0]: "x" drifts'
    rows = [
        {"omega": 1.0, "passed": False, "error": error},
        {"omega": 2.0, "passed": True, "error": ""},
        {"omega": 3.0, "passed": False, "error": "two\nlines\r\n"},
    ]
    text = rows_to_csv(_table(rows, {"omega": float, "passed": bool, "error": object}))
    assert '"ConvergenceError: quadrature did not stabilize on [0.0, 53.0]: ""x"" drifts"' in text
    back = list(csv.DictReader(io.StringIO(text, newline="")))
    assert [r["error"] for r in back] == [row["error"] for row in rows]
    assert [r["omega"] for r in back] == ["1", "2", "3"]


#: a cylinder grid of more than one chunk whose points all succeed, so no
#: float column holds NaN (and rows compare equal as dicts)
_TWO_CHUNKS = SweepConfig(
    topology=TopologyKind.CYLINDER, ell=(1.0, 2.0),
    omega=GridAxis(-1.0, 1.0, 30), l=GridAxis(0.5, 5.0, 20),
)


@pytest.fixture(scope="module")
def two_chunks():
    # cylinder at the default nmax = 10: the image sums are truncated
    with pytest.warns(TruncationWarning):
        table = run_sweep(_TWO_CHUNKS)
    assert CSV_CHUNK_ROWS < len(table) < 2 * CSV_CHUNK_ROWS
    return table


def test_grid_larger_than_one_chunk_is_written_in_chunks(two_chunks):
    expected = _lines(_reference_csv(list(two_chunks)))
    stream = _CountingStream()
    write_rows(two_chunks, "csv", stream)
    assert _lines(stream.getvalue()) == _lines(rows_to_csv(two_chunks)) == expected
    # the header, then one write per chunk of rows
    assert stream.writes == 1 + math.ceil(len(two_chunks) / CSV_CHUNK_ROWS)

    stream = _CountingStream()
    write_rows(two_chunks, "jsonl", stream)
    assert _lines(stream.getvalue()) == _lines(_reference_jsonl(list(two_chunks)))
    assert stream.writes == math.ceil(len(two_chunks) / CSV_CHUNK_ROWS)


def test_row_view_agrees_with_columns(two_chunks):
    columns = two_chunks.columns
    n = 2 * 30 * 20
    assert len(two_chunks) == n
    assert all(col.shape == (n,) for col in columns.values())
    assert list(columns)[:2] == ["topology", "eta"] and list(columns)[-1] == "error"
    rows = list(two_chunks)
    assert len(rows) == n
    for i in (0, 1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, n - 1):
        assert two_chunks[i] == rows[i] == {k: col.tolist()[i] for k, col in columns.items()}
    assert two_chunks[-1] == rows[-1]
    with pytest.raises(IndexError):
        two_chunks[n]
    for key, col in columns.items():
        assert [row[key] for row in rows] == col.tolist()


def test_row_view_gives_python_values(two_chunks):
    types = {
        "topology": str, "eta": int, "ell": float, "nmax": int, "a": float,
        "harvested": bool, "error": str,
    }
    for row in (two_chunks[0], next(iter(two_chunks))):
        assert {key: type(row[key]) for key in types} == types
    harvested = [row["harvested"] for row in two_chunks]
    assert True in harvested and False in harvested
    assert all(h is True or h is False for h in harvested)
    assert two_chunks[0]["topology"] == "cylinder" and two_chunks[0]["error"] == ""


class _NullStream:
    def write(self, text):
        return len(text)


def test_writing_a_large_table_keeps_memory_small():
    # each chunk's float columns are deduplicated together, chunk by chunk:
    # one dedupe of the whole table would hold the text of every distinct
    # value of it at once
    config = SweepConfig(omega=GridAxis(-3.0, 3.0, 128), l=GridAxis(0.078125, 10.0, 128))
    table = run_sweep(config)
    assert len(table) == 16384
    for fmt in ("csv", "jsonl"):
        tracemalloc.start()
        try:
            write_rows(table, fmt, _NullStream())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, (fmt, peak)
