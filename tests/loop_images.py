"""Reference image sums: one pass of numpy calls per image n.

This is the per-n loop that :func:`udwpair.elements.elements_batch` and
:func:`udwpair.elements.image_terms` replaced with one stacked pass over
all images.  It is kept, unchanged, as the reference the stacked pass must
match bit for bit: the same values, the same first error of each point and
the same ``TruncationWarning``.  It uses the library's kernels, so only the
order and grouping of the work differ.
"""

from __future__ import annotations

import warnings

import numpy as np

from udwpair.elements import (
    _COINCIDENT_ULPS,
    TRUNCATION_RTOL,
    XStateAB,
    _flag_separation,
    exchange_array,
    flag_errors,
    modulus,
    nonlocal_array,
    self_excitation_array,
)
from udwpair.config import TopologyKind
from udwpair.errors import GeometryError, TruncationWarning
from udwpair.geometry import (
    Topology,
    WorldlinePair,
    _distance,
    image_classes,
    self_pair,
    separation_array,
)


def loop_image_separation(topology: Topology, pair: WorldlinePair, n: int):
    """|x_A - J^n x_B| of one image n."""
    image = image_classes(topology, pair)[n % 2]
    return _distance(image.dx, image.dy, pair.z_a - (pair.z_b + n * topology.ell))


def _flag_coincident_image(
    errors: np.ndarray, topology: Topology, pair: WorldlinePair, n: int, l_n
) -> None:
    scale = abs(n) * topology.ell
    for coord in (*pair.d_a, *pair.d_b, pair.z_a, pair.z_b):
        scale = np.maximum(scale, np.abs(coord))
    roundoff = _COINCIDENT_ULPS * np.finfo(float).eps * scale
    flag_errors(
        errors,
        l_n <= roundoff,
        lambda r, tol: GeometryError(
            f"detector B sits on image n = {n} of detector A: separation {r!r} "
            f"is within the round-off {tol!r} of its coordinates"
        ),
        l_n,
        roundoff,
    )


def loop_image_terms(
    omega, pair: WorldlinePair, topology: Topology, n: int, errors: np.ndarray
):
    """(l_n, x_n, c_n) of one image n, with its checks recorded in ``errors``."""
    l_n = loop_image_separation(topology, pair, n)
    _flag_coincident_image(errors, topology, pair, n, l_n)
    _flag_separation(errors, l_n)
    return l_n, nonlocal_array(omega, l_n), exchange_array(omega, l_n)


def _loop_add_images(
    a, x, c, omega, pair: WorldlinePair, topology: Topology, nmax: int, errors: np.ndarray
) -> XStateAB:
    same_b = topology.kind is TopologyKind.CYLINDER
    weights = [image.weight for image in image_classes(topology, pair)]
    pair_a = self_pair(pair.d_a, pair.z_a)
    pair_b = self_pair(pair.d_b, pair.z_b)
    b = a
    last_a = last_b = last_x = last_c = 0.0
    for n in [*range(-nmax, 0), *range(1, nmax + 1)]:
        w = weights[n % 2]
        r_a = loop_image_separation(topology, pair_a, n)
        _flag_separation(errors, r_a)
        t_a = w * exchange_array(omega, r_a)
        a = a + t_a
        if not same_b:
            r_b = loop_image_separation(topology, pair_b, n)
            _flag_separation(errors, r_b)
            t_b = w * exchange_array(omega, r_b)
            b = b + t_b
        _, x_n, c_n = loop_image_terms(omega, pair, topology, n, errors)
        t_x = w * x_n
        t_c = w * c_n
        x = x + t_x
        c = c + t_c
        if abs(n) == nmax:
            last_a = last_a + np.abs(t_a)
            last_x = last_x + modulus(t_x)
            last_c = last_c + np.abs(t_c)
            if not same_b:
                last_b = last_b + np.abs(t_b)
    if same_b:
        b, last_b = a, last_a

    shape = errors.shape
    a, b, x, c = (np.broadcast_to(v, shape) for v in (a, b, x, c))
    last = [np.broadcast_to(v, shape) for v in (last_a, last_b, last_x, last_c)]
    tail = np.maximum(np.maximum(last[0], last[1]), np.maximum(last[2], last[3])) * nmax
    with np.errstate(divide="ignore", invalid="ignore"):
        worst = np.maximum.reduce(
            [lk / np.maximum(modulus(sk), 1e-300) for lk, sk in zip(last, (a, b, x, c))]
        )
    valid = np.array([err is None for err in errors.reshape(-1)]).reshape(shape)
    if np.any(valid & (worst > TRUNCATION_RTOL)):
        warnings.warn(
            f"image sum truncated at |n| <= {nmax} with last-term relative "
            f"size up to {np.max(worst[valid]):.2e}; estimated omitted tail up to "
            f"{np.max(tail[valid]):.2e} "
            "(principal-value parts decay only like 1/(n ell)^2)",
            TruncationWarning,
            stacklevel=3,
        )
    return XStateAB(a, b, x, c, tail_bound=tail)


def loop_elements_batch(
    omega, pair: WorldlinePair, topology: Topology, nmax: int, errors: np.ndarray
) -> XStateAB:
    """:func:`udwpair.elements.elements_batch` of a quotient, image by image."""
    omega = np.asarray(omega, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        length = separation_array(pair)
        _flag_separation(errors, length)
        a = self_excitation_array(omega)
        x = nonlocal_array(omega, length)
        c = exchange_array(omega, length)
        return _loop_add_images(a, x, c, omega, pair, topology, nmax, errors)
