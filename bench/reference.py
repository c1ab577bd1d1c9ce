"""High-precision reference values for sampled output rows.

Every element is evaluated in ``mpmath`` at 30 significant digits from the
closed forms, independently of the package's float64 code paths
(sigma = 1, W = Omega*sigma, y = r/2):

    a(W)    = [e^{-W^2} - sqrt(pi) W erfc(W)] / 4 pi
    c(W, r) = e^{-y^2} (Im[e^{iWr} erf(W + iy)] - sin(Wr)) / (4 sqrt(pi) r)
    x(W, r) = e^{-W^2} e^{-y^2} (i - erfi(y)) / (4 sqrt(pi) r)

For W >= 0 the exchange term is taken in the cancellation-free form
-Im[e^{-y^2 + iWr} erfc(W + iy)] / (4 sqrt(pi) r).

Image sums run over every n != 0.  Terms whose Gaussian parts still matter
are added directly; the remaining tail of each parity class is summed to
convergence by ``mpmath.nsum`` (Richardson extrapolation), which needs the
terms smooth in n.  Splitting by parity keeps them smooth for eta = -1 and
for the reflected odd images of the twisted cylinder.
"""

from __future__ import annotations

import functools
import math

import mpmath as mp

DIGITS = 30
#: Image terms with y^2 - W^2 above this exponent have Gaussian parts below
#: e^{-60} ~ 1e-26 and are smooth enough in n for Richardson extrapolation.
_SMOOTH_EXPONENT = 60.0
#: Richardson extrapolation cancels heavily; it needs this many bits, and
#: twice as many on the rare series where that is not enough.
_NSUM_PRECS = (360, 720)

_SQRT_PI = mp.sqrt(mp.pi)


def self_term(om):
    return (mp.exp(-om * om) - _SQRT_PI * om * mp.erfc(om)) / (4 * mp.pi)


def exchange_term(om, r):
    y = r / 2
    if om >= 0:
        v = -mp.im(mp.exp(mp.mpc(-y * y, om * r)) * mp.erfc(mp.mpc(om, y)))
    else:
        v = mp.im(mp.exp(mp.mpc(-y * y, om * r)) * mp.erf(mp.mpc(om, y))) - mp.exp(
            -y * y
        ) * mp.sin(om * r)
    return v / (4 * _SQRT_PI * r)


def nonlocal_term(om, r):
    y = r / 2
    return mp.exp(-om * om - y * y) * mp.mpc(-mp.erfi(y), 1) / (4 * _SQRT_PI * r)


class Quotient:
    """Cylinder or twisted cylinder of circumference ell with field weight eta.

    Detector A sits at (x_a, 0, 0) and B at (x_b, 0, z_b); the n-th image
    of B is (x_b, 0, z_b + n ell), with x_b -> -x_b for odd n on the
    twisted cylinder.
    """

    def __init__(self, twisted: bool, ell: float, eta: int):
        self.twisted = twisted
        self.ell = mp.mpf(ell)
        self.eta = eta

    def _distance(self, xa, xb, zb, n):
        xb_n = -xb if (self.twisted and n % 2) else xb
        return mp.sqrt((xa - xb_n) ** 2 + (zb + n * self.ell) ** 2)

    def _weight(self, n):
        return -1 if (self.eta == -1 and n % 2) else 1

    def image_sum(self, om, xa, xb, zb, pair: bool):
        """(sum of eta^n c_n, sum of eta^n x_n) over n != 0.

        With ``pair=False`` (a detector and its own images, x_a = x_b,
        z_b = 0) only the c sum is formed and x is returned as 0.
        """
        r_smooth = 2.0 * math.sqrt(_SMOOTH_EXPONENT + float(om) ** 2)
        n0 = int(math.ceil((r_smooth + abs(float(zb))) / float(self.ell)))
        c = mp.mpf(0)
        x = mp.mpc(0)
        for m in range(1, n0 + 1):
            cm, xm = self._terms(om, xa, xb, zb, m, pair)
            c += cm
            x += xm
        split = self.twisted or self.eta == -1
        strides = ((n0 + 1, 2), (n0 + 2, 2)) if split else ((n0 + 1, 1),)
        for first, stride in strides:
            rc, rx = self._tail(om, xa, xb, zb, first, stride, pair)
            c += rc
            x += rx
        return c, x

    def _terms(self, om, xa, xb, zb, m, pair):
        c = mp.mpf(0)
        x = mp.mpc(0)
        for n in (m, -m):
            r = self._distance(xa, xb, zb, n)
            w = self._weight(n)
            c += w * exchange_term(om, r)
            if pair:
                x += w * nonlocal_term(om, r)
        return c, x

    def _tail(self, om, xa, xb, zb, first, stride, pair):
        """Sum of the terms m = first, first + stride, ... to infinity.

        c and Re x are extrapolated together as one complex series; Im x
        carries only the Gaussian e^{-y^2}, negligible this far out.
        """

        def term(k):
            cm, xm = self._terms(om, xa, xb, zb, first + stride * (int(k) - 1), pair)
            return mp.mpc(cm, mp.re(xm))

        scale = abs(term(1))
        tol = scale * mp.mpf(10) ** -20
        for prec in _NSUM_PRECS:
            try:
                # strict: raise mpmath.NoConvergence instead of returning a guess
                total = mp.nsum(
                    term,
                    [1, mp.inf],
                    method="richardson",
                    workprec=prec,
                    tol=tol,
                    strict=True,
                )
                break
            except mp.NoConvergence:
                if prec == _NSUM_PRECS[-1]:
                    raise
        return mp.re(total), mp.mpc(mp.im(total), 0)


def _ctx():
    return mp.workdps(DIGITS + 10)


@functools.lru_cache(maxsize=4096)
def _self_sum(om: float, kind: str, ell: float, eta: int, d: float):
    """a for a detector at transverse offset d, images included."""
    with _ctx():
        omm = mp.mpf(om)
        a = self_term(omm)
        if kind != "minkowski":
            q = Quotient(kind == "twisted", ell, eta)
            dm = mp.mpf(d)
            c, _ = q.image_sum(omm, dm, dm, mp.mpf(0), pair=False)
            a += c
        return +a


def elements(row: dict) -> dict:
    """Reference a, b, x, c (per eps0^2) for the inputs of one output row."""
    kind = str(row["topology"])
    om = float(row["omega"])
    xa, xb, zb = (float(row[k]) for k in ("d_a", "d_b_x", "z_b"))
    ell = float(row["ell"]) if kind != "minkowski" else math.nan
    eta = int(row["eta"])
    with _ctx():
        omm = mp.mpf(om)
        xam, xbm, zbm = mp.mpf(xa), mp.mpf(xb), mp.mpf(zb)
        length = mp.sqrt((xam - xbm) ** 2 + zbm**2)
        c = exchange_term(omm, length)
        x = nonlocal_term(omm, length)
        a = _self_sum(om, kind, ell, eta, xa)
        b = a
        if kind != "minkowski":
            q = Quotient(kind == "twisted", ell, eta)
            dc, dx = q.image_sum(omm, xam, xbm, zbm, pair=True)
            c += dc
            x += dx
            if kind == "twisted":
                b = _self_sum(om, kind, ell, eta, xb)
        return {"a": +a, "b": +b, "x": +x, "c": +c}


def correlation(el: dict, eps0: float):
    """sigma_z correlation per eps0^2 from reference elements."""
    with _ctx():
        e2 = mp.mpf(eps0) ** 2
        a, b = el["a"] * e2, el["b"] * e2
        e = e2 * e2 * (abs(el["x"]) ** 2 + el["a"] * el["b"] + 2 * abs(el["c"]) ** 2)
        return (e - a * b) / mp.sqrt(a * (1 - a) * b * (1 - b)) / e2


def values(sub: str, inputs: dict) -> dict[str, str] | None:
    """Reference values of the compared columns of one row, as decimal text.

    None when an image-sum tail does not converge, so that row is skipped.
    """
    try:
        el = elements(inputs)
    except mp.NoConvergence:
        return None
    with _ctx():
        if sub == "sweep":
            out = {"a": el["a"], "b": el["b"], "x_abs": abs(el["x"]), "c_abs": abs(el["c"])}
        else:
            eps0 = float(inputs["eps0"])
            mink = elements({**inputs, "topology": "minkowski"})
            out = {
                "corr_minkowski": correlation(mink, eps0),
                "corr_topology": correlation(el, eps0),
            }
        return {k: mp.nstr(v, DIGITS + 5) for k, v in out.items()}
