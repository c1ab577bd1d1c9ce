"""The CSV writer's float formatter: ``_g17`` must give ``"%.17g" % v`` for
every float64 v, byte for byte, on every bit pattern, on the values where
its digits are hardest to get right, and on a large random sample."""

import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udwpair.sweep import _g17


def _mismatches(values):
    """(value, got, want) of each float of ``values`` that ``_g17`` writes
    other than ``"%.17g"`` does."""
    values = np.asarray(values, dtype=np.float64)
    floats = values.tolist()
    want = list(map("%.17g".__mod__, floats))
    return [(v, g, w) for v, g, w in zip(floats, _g17(values).tolist(), want) if g != w]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_every_bit_pattern(bits):
    # NaN payloads, subnormals, +-0 and +-inf included
    assert _mismatches(np.array(bits, dtype=np.uint64).view(np.float64)) == []


def _powers_of_ten():
    """10**p for p in [-300, 300] and their neighbours one ulp away, both signs."""
    powers = np.array([float(f"1e{p}") for p in range(-300, 301)])
    near = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    return np.concatenate([near, -near])


def _ties(rng, count):
    """Exact binary fractions (2m + 1) 2**-j: %.17g of most of them ends in
    a tie or next to one."""
    odd = 2 * rng.integers(0, 2**52, count) + 1
    return np.ldexp(odd.astype(np.float64), rng.integers(1, 60, count))


def _rounding_into_the_next_decade():
    """The doubles nearest 10**p that lie below it and whose 17 digits
    round up to 10**p: 13 of p in [-300, 300]."""
    powers = {p: Fraction(10) ** p for p in range(-300, 301)}
    return np.array([
        v for p, power in powers.items()
        if Fraction(v := float(f"1e{p}")) < power and Fraction("%.17g" % v) == power
    ])


_CORPUS = {
    "powers of ten": _powers_of_ten(),
    # the switch from fixed to exponent notation, and from 17 integer digits
    "notation boundaries": np.array([
        9.9999999999999995e-5, 1e-4, 1.0000000000000001e-4, 1e16, 1e17,
        9.999999999999999e16, 99999999999999984.0, 1e16 - 2.0, 1e16 + 2.0,
    ]),
    "integers up to 2**53": np.concatenate([
        np.arange(0.0, 2049.0), np.random.default_rng(1).integers(0, 2**53, 20000) * 1.0,
        [2.0**53 - 1, 2.0**53],
    ]),
    "exact ties": _ties(np.random.default_rng(2), 50000),
    "rounding into the next decade": _rounding_into_the_next_decade(),
    "extremes": np.array([
        0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
        sys.float_info.min, sys.float_info.max, 1e-280, 1e280,
        np.nextafter(1e-280, 1.0), np.nextafter(1e280, 0.0),
    ]),
}


@pytest.mark.parametrize("name", list(_CORPUS))
def test_corpus(name):
    assert _CORPUS[name].size and _mismatches(_CORPUS[name]) == []


def test_seeded_million():
    rng = np.random.default_rng(20150101)
    values = np.concatenate([
        rng.integers(0, 2**64, 250_000, dtype=np.uint64).view(np.float64),
        rng.standard_normal(750_000) * 10.0 ** rng.uniform(-40, 40, 750_000),
    ])
    assert _mismatches(values) == []


def test_texts_are_str_in_input_order():
    values = np.array([1.5, -0.0, 2.5e-300, np.nan, 1.0 / 3.0])
    texts = _g17(values)
    assert texts.dtype == object and all(type(t) is str for t in texts)
    assert texts.tolist() == ["1.5", "-0", "2.5e-300", "nan", "0.33333333333333331"]
    assert _g17(np.array([])).tolist() == []
