"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them).

Criteria 3 and 4 assert Gaussian-level (1e-12) indistinguishability of
image-sum truncations and of quotient elements from their Minkowski values.
Both are marked strict-xfail: the quadrature oracle proves that every image
term carries a principal-value tail of size
sigma^2 e^{-sigma^2 Omega^2} / (2 pi L_n^2), so the sums converge only
polynomially and the 1e-12 thresholds are unreachable by roughly nine
orders of magnitude.  The assertions are kept exactly as stated rather than
weakened; see the test docstrings for the measured deviations.
"""

import math
import time
import warnings

import numpy as np
import pytest
from references import (
    hadamard_double_pole,
    oracle_ieps,
    pv_over_pole,
    sgn_delta_square,
)

from udwpair import (
    DetectorParams,
    GridAxis,
    SweepConfig,
    Topology,
    TopologyKind,
    TruncationWarning,
    WorldlinePair,
    elements_for,
    oracle_a,
    oracle_c,
    oracle_x,
    xstate_measures,
)
from udwpair.elements import self_excitation_array
from udwpair.sweep import run_difference_map, run_sweep

EPS0 = 0.01
GRID_L = (0.5, 1.0, 2.0, 4.0)
GRID_OMEGA = (-2.0, -1.0, 0.0, 1.0, 2.0)

FIG1_OMEGA = GridAxis(-3.0, 3.0, 64)
FIG1_L = GridAxis(10.0 / 64.0, 10.0, 64)


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _quiet(fn, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        return fn(*args, **kwargs)


def _minkowski(p: DetectorParams, length: float):
    return elements_for(p, WorldlinePair((0.0, 0.0), (length, 0.0)), Topology.minkowski())


def _state_fields(state) -> dict[str, complex]:
    return {"a": state.a, "b": state.b, "x": state.x, "c": state.c, "e": state.e}


def test_criterion_1_oracle_equivalence():
    """Closed forms vs both oracle regularizations on the reference grid."""
    t0 = time.perf_counter()
    worst_pv = 0.0
    worst_ieps = 0.0
    for om in GRID_OMEGA:
        p = DetectorParams(omega=om, sigma=1.0)
        a_closed = _minkowski(p, 1.0).a
        worst_pv = max(worst_pv, abs(a_closed - oracle_a(p)))
        worst_ieps = max(worst_ieps, abs(a_closed - oracle_ieps("A", p, 0.0).value))
        for length in GRID_L:
            closed = _minkowski(p, length)
            x_closed, c_closed = closed.x, closed.c
            worst_pv = max(
                worst_pv,
                abs(x_closed - oracle_x(p, length)),
                abs(c_closed - oracle_c(p, length)),
            )
            worst_ieps = max(
                worst_ieps,
                abs(x_closed - oracle_ieps("X", p, length).value),
                abs(c_closed - oracle_ieps("C", p, length).value),
            )
    elapsed = time.perf_counter() - t0
    ok = worst_pv < 1e-6 and worst_ieps < 1e-5 and elapsed < 120.0
    assert _report(
        1,
        ok,
        f"max |closed - PV oracle| = {worst_pv:.3e} (tol 1e-6), "
        f"max |closed - ieps oracle| = {worst_ieps:.3e} (tol 1e-5), "
        f"runtime {elapsed:.1f}s (budget 120s)",
    )


def test_criterion_2_forced_value():
    """A/eps0^2 at Omega = 0 equals 1/4 pi to 1e-12 in closed form and oracle."""
    p = DetectorParams(omega=0.0, sigma=1.0)
    target = 1.0 / (4.0 * math.pi)
    dev_closed = abs(_minkowski(p, 1.0).a - target)
    dev_oracle = abs(oracle_a(p) - target)
    ok = dev_closed < 1e-12 and dev_oracle < 1e-12
    assert _report(
        2,
        ok,
        f"|closed - 1/4pi| = {dev_closed:.3e}, |oracle - 1/4pi| = {dev_oracle:.3e} "
        "(tol 1e-12)",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "quotient elements approach their Minkowski values only polynomially: "
        "every image term carries a principal-value tail "
        "~ sigma^2 e^{-sigma^2 Omega^2}/(2 pi L_n^2) (verified term by term "
        "against the quadrature oracle), so at ell = 20 sigma the summed "
        "deviation is ~5e-4, nine orders of magnitude above the stated 1e-12"
    ),
)
def test_criterion_3_minkowski_limit():
    """At ell/sigma = 20 all quotient elements differ from Minkowski < 1e-12."""
    p = DetectorParams(omega=1.0, sigma=1.0)
    pair = WorldlinePair((0.3, 0.0), (0.8, 0.0), 0.0, 0.0)
    mink = _state_fields(_minkowski(p, 0.5))
    worst = 0.0
    for state in (
        _quiet(elements_for, p, pair, Topology.cylinder(20.0)),
        _quiet(elements_for, p, pair, Topology.twisted_cylinder(20.0)),
    ):
        for key, val in _state_fields(state).items():
            worst = max(worst, abs(val - mink[key]))
    ok = worst < 1e-12
    assert _report(
        3, ok, f"max |quotient - Minkowski| at ell=20 is {worst:.3e} (tol 1e-12)"
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "image terms decay like 1/(n ell)^2, not Gaussianly: the oracle "
        "confirms the Dawson/principal-value tails, so nmax = 10 vs 20 "
        "differ by up to ~5e-2 on the stated grid; 1e-12 "
        "indistinguishability would require Gaussian-decaying terms"
    ),
)
def test_criterion_4_truncation_adequacy():
    """nmax = 10 vs nmax = 20 agree to 1e-12 for ell/sigma >= 1."""
    pair = WorldlinePair((0.0, 0.0), (0.5, 0.0), 0.0, 0.0)
    worst = 0.0
    for ell in (1.0, 2.0, 4.0):
        top = Topology.cylinder(ell)
        for om in (-1.0, 0.0, 1.0):
            p = DetectorParams(omega=om, sigma=1.0)
            s10 = _state_fields(_quiet(elements_for, p, pair, top, nmax=10))
            s20 = _state_fields(_quiet(elements_for, p, pair, top, nmax=20))
            worst = max(worst, max(abs(s10[k] - s20[k]) for k in s10))
    ok = worst < 1e-12
    assert _report(4, ok, f"max |nmax10 - nmax20| = {worst:.3e} (tol 1e-12)")


@pytest.fixture(scope="module")
def fig1_rows():
    cfg = SweepConfig(omega=FIG1_OMEGA, l=FIG1_L, eps0=EPS0)
    return run_sweep(cfg)


def test_criterion_5_entanglement_consistency(fig1_rows):
    """Eigen-exact vs leading order on the figure grid; X-state closed forms
    vs eigen values and the concurrence >= 2 negativity bound on random
    states."""
    from references import concurrence_exact, negativity_exact

    tol_lead = 10.0 * EPS0**4
    e2 = EPS0 * EPS0
    worst_lead = 0.0
    for row in fig1_rows:
        neg_lead = e2 * row["concurrence_leading"] / 2.0
        worst_lead = max(
            worst_lead,
            abs(row["negativity"] - neg_lead),
            abs(row["concurrence"] - 2.0 * neg_lead),
        )

    from test_entanglement import closed_forms, random_density_matrix, random_xstate_matrix

    rng = np.random.default_rng(20260810)
    worst_xstate = 0.0
    for _ in range(10_000):
        rho = random_xstate_matrix(rng)
        neg_cf, conc_cf = closed_forms(rho)
        worst_xstate = max(
            worst_xstate,
            abs(neg_cf - negativity_exact(rho)),
            abs(conc_cf - concurrence_exact(rho)),
        )

    min_gap = math.inf
    for _ in range(10_000):
        rho = random_density_matrix(rng)
        min_gap = min(
            min_gap, concurrence_exact(rho) - 2.0 * negativity_exact(rho)
        )

    ok = worst_lead < tol_lead and worst_xstate < 1e-12 and min_gap > -1e-10
    assert _report(
        5,
        ok,
        f"max |exact - leading| = {worst_lead:.3e} (tol {tol_lead:.1e}); "
        f"max |X-state closed form - eigen| = {worst_xstate:.3e} (tol 1e-12, 1e4 states); "
        f"min(C - 2N) = {min_gap:.3e} over 1e4 random states",
    )


def test_criterion_6_vanishing_boundary(fig1_rows):
    """Leading-order concurrence is exactly zero iff |X| <= A on the grid."""
    ok = True
    for row in fig1_rows:
        if row["x_abs"] <= row["a"]:
            ok = ok and row["concurrence_leading"] == 0.0 and not row["harvested"]
        else:
            ok = ok and row["concurrence_leading"] > 0.0 and row["harvested"]
    n_harvest = sum(1 for r in fig1_rows if r["harvested"])
    assert _report(
        6,
        ok,
        f"exact zero/positive split matches the |X| vs A boundary on all "
        f"{len(fig1_rows)} grid points ({n_harvest} harvesting points)",
    )


def test_criterion_7_correlation_identity():
    """General and identical-detector correlation forms agree to O(eps0^2)."""
    from test_entanglement import identical_shortcut

    rel_tol = 100.0 * EPS0**2
    worst = 0.0
    for om in FIG1_OMEGA.values():
        p = DetectorParams(omega=float(om), sigma=1.0)
        for length in FIG1_L.values():
            state = _minkowski(p, float(length))
            assert state.a == state.b
            general = xstate_measures(state, EPS0).corr * EPS0**2
            leading = identical_shortcut(state, EPS0)
            scale = max(abs(leading), 1e-300)
            worst = max(worst, abs(general - leading) / scale)
    ok = worst < rel_tol
    assert _report(
        7, ok, f"max relative difference = {worst:.3e} (tol {rel_tol:.1e})"
    )


def test_criterion_8_figure_shapes():
    """Shape regressions on the emitted datasets."""
    # transition probability vs energy gap for several circumferences
    ells = (0.5, 1.0, 2.0, 4.0)
    cfg2 = SweepConfig(
        topology=TopologyKind.CYLINDER,
        ell=ells,
        omega=GridAxis(-3.0, 3.0, 121),
        l=GridAxis(1.0, 1.0, 1),
        eps0=EPS0,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        rows2 = run_sweep(cfg2)
    amplitudes = []
    crossing = {}
    wiggles = {}
    for ell in ells:
        rows = [r for r in rows2 if r["ell"] == ell]
        dev = np.array([r["a"] for r in rows]) - self_excitation_array(
            np.array([r["omega"] for r in rows])
        )
        amplitudes.append(np.max(np.abs(dev)))
        crossing[ell] = bool(dev.min() < 0.0 < dev.max())
        wiggles[ell] = int(np.sum(np.abs(np.diff(np.sign(np.diff(dev)))) > 0))
    fig2_ok = (
        all(a1 > a2 for a1, a2 in zip(amplitudes, amplitudes[1:]))
        and all(w >= 1 for w in wiggles.values())
        and crossing[2.0]
        and crossing[4.0]
        and wiggles[2.0] >= 2
        and wiggles[4.0] >= 2
    )

    # correlation difference maps carry both signs
    base = dict(omega=GridAxis(-2.0, 2.0, 9), l=GridAxis(0.3, 6.0, 12), eps0=EPS0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        diff_a = run_difference_map(
            SweepConfig(topology=TopologyKind.CYLINDER, ell=(1.0,), **base)
        )
        diff_b = run_difference_map(
            SweepConfig(
                topology=TopologyKind.TWISTED_CYLINDER, ell=(1.0,), d_a=0.1, **base
            )
        )
    fig3_ok = True
    for rows in (diff_a, diff_b):
        vals = [r["corr_diff"] for r in rows if r["error"] == ""]
        fig3_ok = fig3_ok and min(vals) < 0.0 < max(vals)

    # concurrence depends on the orientation relative to the identified axis
    cfg4 = SweepConfig(
        topology=TopologyKind.CYLINDER,
        ell=(1.0,),
        omega=GridAxis(0.5, 0.5, 1),
        l=GridAxis(0.6, 0.6, 1),
        theta=GridAxis(0.0, math.pi, 25),
        eps0=EPS0,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        rows4 = run_sweep(cfg4)
    conc4 = [r["concurrence_leading"] for r in rows4]
    fig4_ok = max(conc4) - min(conc4) > 1e-12

    ok = fig2_ok and fig3_ok and fig4_ok
    assert _report(
        8,
        ok,
        f"transition-probability deviation amplitudes decrease in ell "
        f"{[f'{a:.2e}' for a in amplitudes]}, oscillation/crossing structure ok={fig2_ok}; "
        f"difference maps carry both signs ok={fig3_ok}; "
        f"orientation anisotropy spread = {max(conc4) - min(conc4):.3e}",
    )


def test_criterion_9_distributional_identities():
    """The quadrature rules reproduce the defining distributional actions."""
    worst = 0.0

    # sgn(y) delta(y^2) acting as f -> f'(0) on analytic test functions
    cases = [
        (lambda y: math.exp(-((y - 0.8) ** 2)), 1.6 * math.exp(-0.64)),
        (lambda y: math.exp(-2.0 * y * y) * math.cos(1.5 * y), 0.0),
        (lambda y: (y + 3.0) * math.exp(-y * y), 1.0),
        (lambda y: math.sin(2.0 * y) * math.exp(-y * y / 2.0), 2.0),
    ]
    for f, want in cases:
        worst = max(worst, abs(complex(sgn_delta_square(f)).real - want))

    # Hadamard 1/x^2 rule against closed forms
    # <1/x^2, e^{-a x^2} cos(bx)> = -2 sqrt(pi a) e^{-b^2/4a} - pi b erf(b/2 sqrt(a))
    hadamard_cases = {
        (1.0, 0.0): -3.5449077018110320546,
        (0.5, 2.0): -6.3365339651092817219,
        (2.0, 1.3): -6.0365374560403995285,
    }
    for (a, b), want in hadamard_cases.items():

        def f(u, a=a, b=b):
            return np.exp(-a * u * u) * np.cos(b * u)

        worst = max(worst, abs(hadamard_double_pole(f, span=40.0) - want))

    # PV 1/x rule against the Gaussian Hilbert transform (Dawson closed form)
    pv_cases = {
        0.7: -1.8096897654475031058,
        1.5: -1.5181034303840497401,
        -2.2: 0.93766623016159318999,
    }
    for pole, want in pv_cases.items():
        got = pv_over_pole(lambda u: np.exp(-u * u), pole, span=abs(pole) + 40.0)
        worst = max(worst, abs(got - want))

    ok = worst < 1e-10
    assert _report(9, ok, f"max identity deviation = {worst:.3e} (tol 1e-10)")
