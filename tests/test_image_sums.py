"""The stacked image pass against the per-image loop it replaced.

:func:`elements_batch` evaluates every image of a block at once, each
distinct separation once, in chunks of consecutive images; the reference
``loop_images`` evaluates one image per pass.  They must agree bit for bit:
the values, each point's first error (type and text) and the
``TruncationWarning``.  Peak memory must stay O(grid) at any nmax.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from loop_images import loop_elements_batch, loop_image_terms

from udwpair import elements
from udwpair.elements import elements_batch, image_terms, new_errors
from udwpair.entanglement import xstate_measures_batch
from udwpair.geometry import Topology, WorldlinePair

SHAPES = ("point", "block", "scattered")


def _bits(value) -> bytes:
    return np.ascontiguousarray(value).tobytes()


def _fields(state) -> tuple:
    """The stored values of an :class:`~udwpair.elements.XStateAB`."""
    return state.a, state.b, state.x, state.c, state.tail_bound


def _errors(errors: np.ndarray) -> list:
    return [None if e is None else (type(e), str(e)) for e in errors.reshape(-1)]


def _run(fn, *args):
    """(values, errors, warnings) of ``fn(*args, errors)``."""
    errors = new_errors(args[-1])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        values = fn(*args[:-1], errors)
    return values, _errors(errors), [(w.category, str(w.message)) for w in caught]


def _grid(shape: str, omegas, lengths, thetas, d_a: float, z_a: float):
    """(omega, pair, errors shape) of one batch: one point as elements_for
    builds it, gaps x points as a sweep block builds it, or points that
    each carry their own gap (no product grid)."""
    length = np.array(lengths)
    theta = np.array(thetas)
    if shape == "point":
        length, theta = float(length[0]), float(theta[0])
        omega = np.array(omegas[:1])
        errors = (1,)
    elif shape == "block":
        omega = np.array(omegas)[:, None]
        errors = (len(omegas), length.size)
    else:
        omega = np.resize(np.array(omegas), length.size)
        errors = (length.size,)
    pair = WorldlinePair(
        (d_a, 0.0),
        (d_a + length * np.cos(theta), 0.0),
        z_a,
        z_a + length * np.sin(theta),
    )
    return omega, pair, errors


def _case(twisted, eta, ell, nmax, d_a, shape, omegas, lengths, thetas) -> dict:
    """The arguments of one explicit example (z_a = 0)."""
    return dict(
        twisted=twisted, eta=eta, ell=ell, nmax=nmax, d_a=d_a, z_a=0.0, shape=shape,
        omegas=omegas, grid=(lengths, thetas),
    )


gaps = st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=5)
points = st.integers(1, 5).flatmap(
    lambda k: st.tuples(
        st.lists(st.floats(0.05, 10.0), min_size=k, max_size=k),
        st.lists(st.sampled_from([0.0]) | st.floats(0.0, math.pi), min_size=k, max_size=k),
    )
)


@settings(max_examples=120, deadline=None)
@given(
    twisted=st.booleans(),
    eta=st.sampled_from([1, -1]),
    ell=st.floats(0.2, 5.0),
    nmax=st.sampled_from([1, 2, 3, 10]),
    d_a=st.sampled_from([0.0]) | st.floats(-1.0, 1.0),
    z_a=st.sampled_from([0.0]) | st.floats(-2.0, 2.0),
    shape=st.sampled_from(SHAPES),
    omegas=gaps,
    grid=points,
)
# B on image n = -1 of A (theta = pi/2, L = ell): a coincident image
@example(**_case(False, 1, 1.0, 2, 0.0, "block", [0.5, -1.0], [1.0, 0.6], [math.pi / 2, 0.0]))
@example(**_case(True, -1, 1.0, 3, 0.1, "point", [0.5], [1.0], [math.pi / 2]))
# L = 0: a zero separation, before any image
@example(**_case(True, 1, 1.0, 2, 0.3, "block", [0.5, 2.0], [0.0, 1.0], [0.0, 0.0]))
# shifts beyond the float range: self images at an infinite separation
@example(**_case(True, 1, 1e308, 2, 0.3, "block", [0.5], [1.0, 2.0], [0.0, 0.3]))
def test_stacked_pass_matches_the_image_loop(
    twisted, eta, ell, nmax, d_a, z_a, shape, omegas, grid
):
    lengths, thetas = grid
    kind = Topology.twisted_cylinder if twisted else Topology.cylinder
    topology = kind(ell, eta)
    omega, pair, shape_ = _grid(shape, omegas, lengths, thetas, d_a, z_a)
    got = _run(elements_batch, omega, pair, topology, nmax, shape_)
    want = _run(loop_elements_batch, omega, pair, topology, nmax, shape_)
    assert [_bits(v) for v in _fields(got[0])] == [_bits(v) for v in _fields(want[0])]
    assert got[1:] == want[1:]


@pytest.mark.parametrize(
    "topology, pair",
    [
        # B exactly on image n = -1 of A: l_n = 0 is coincident before it is
        # a zero separation
        (Topology.cylinder(1.0), WorldlinePair((0.0, 0.0), (0.0, 0.0), 0.0, 1.0)),
        (Topology.twisted_cylinder(1.0), WorldlinePair((0.0, 0.0), (0.0, 0.0), 0.0, 2.0)),
        # the shift vanishes against z = 1e20, so A's odd self images sit at
        # 0; B's lie at 2 d_B = inf: A's check comes first
        (Topology.twisted_cylinder(1.0), WorldlinePair((0.0, 0.0), (1e308, 0.0), 1e20, 1e20)),
    ],
)
def test_first_error_of_a_point_matches_the_loop(topology, pair):
    got = _run(elements_batch, np.array([0.5, -1.0])[:, None], pair, topology, 3, (2, 1))
    want = _run(loop_elements_batch, np.array([0.5, -1.0])[:, None], pair, topology, 3, (2, 1))
    assert [_bits(v) for v in _fields(got[0])] == [_bits(v) for v in _fields(want[0])]
    assert got[1:] == want[1:]
    assert got[1][0] is not None


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("topology", [Topology.cylinder(1.0), Topology.twisted_cylinder(1.0, -1)])
def test_verification_images_match_the_loop(shape, topology):
    """``image_terms`` of the images n = 1, -1, 2, -2 at once equals one
    ``loop_image_terms`` call per image, errors included."""
    thetas = [0.0, 0.4, math.pi / 2, math.pi / 2]
    omega, pair, shape_ = _grid(shape, [-2.0, 0.5, 3.0], [0.7, 2.0, 1.0, 2.0], thetas, 0.1, 0.0)
    got, got_errors, _ = _run(image_terms, omega, pair, topology, (1, -1, 2, -2), shape_)

    def loop(omega, pair, topology, errors):
        return [loop_image_terms(omega, pair, topology, n, errors) for n in (1, -1, 2, -2)]

    want, want_errors, _ = _run(loop, omega, pair, topology, shape_)
    for k, terms in enumerate(want):
        for stacked, single in zip(got, terms):
            assert _bits(np.broadcast_to(stacked[k], shape_)) == _bits(np.broadcast_to(single, shape_))
    assert got_errors == want_errors
    if shape != "point":  # L = 2 at theta = pi/2: B sits on image n = -2
        assert any(e and "sits on image n = -2" in e[1] for e in got_errors)


@pytest.mark.parametrize("shape", ["block", "scattered"])
def test_chunks_and_slices_do_not_change_a_bit(monkeypatch, shape):
    """Sums split into chunks of one image or of three, with the kernels
    evaluated one table entry or seven at a time, equal the one-chunk,
    one-slice sum bit for bit."""
    omega, pair, shape_ = _grid(shape, [-1.0, 0.5, 2.0], [0.6, 1.3, 2.0], [0.0, 0.3, 1.0], 0.1, 0.0)
    topology = Topology.twisted_cylinder(0.9, -1)

    def run():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return elements_batch(omega, pair, topology, 10, new_errors(shape_))

    whole = [_bits(v) for v in _fields(run())]
    for chunk, entries in [(1, 1), (3 * math.prod(shape_), 7)]:
        monkeypatch.setattr(elements, "_IMAGE_CHUNK", chunk)
        monkeypatch.setattr(elements, "_KERNEL_SLICE", entries)
        assert [_bits(v) for v in _fields(run())] == whole


#: Peak traced memory allowed for a 64 x 64 cylinder block at nmax = 1000.
#: The per-image loop peaked at 1.1 MiB and the chunked pass at 11 MiB;
#: stacking all 2000 images at once peaked at 361 MiB.
PEAK_BOUND_MIB = 32.0


def test_peak_memory_stays_o_grid():
    omega = np.linspace(-3.0, 3.0, 64)[:, None]
    length = np.linspace(10.0 / 64.0, 10.0, 64)
    pair = WorldlinePair((0.0, 0.0), (length, 0.0), 0.0, 0.0 * length)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tracemalloc.start()
        try:
            elements_batch(omega, pair, Topology.cylinder(1.0), 1000, new_errors((64, 64)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak / 2**20 < PEAK_BOUND_MIB


@pytest.mark.parametrize(
    "topology",
    [
        Topology.minkowski(),
        Topology.cylinder(1.0),
        Topology.cylinder(1.0, -1),
        Topology.twisted_cylinder(1.0),
        Topology.twisted_cylinder(1.0, -1),
    ],
    ids=str,
)
def test_batch_of_no_points(topology):
    """Three gaps against no points: empty elements and measures of shape
    (3, 0) on every topology, not a division by the number of points."""
    none = np.empty(0)
    pair = WorldlinePair((none + 0.1, none), (none + 0.3, none), none, none)
    errors = new_errors((3, 0))
    state = elements_batch(np.array([-1.0, 0.0, 2.0])[:, None], pair, topology, 10, errors)
    measures = xstate_measures_batch(state, 0.01, errors)
    assert {np.shape(v) for v in (*_fields(state), *measures)} == {(3, 0)}
