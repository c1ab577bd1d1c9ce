"""Span tracing of the udwpair layers, installed from outside the package.

Each public function of a layer is wrapped in the namespace where its
caller looks it up (``udwpair.sweep.xstate_measures``,
``udwpair.elements.phase_scaled_erf``, the ``udwpair.wightman`` module
attributes that ``sweep`` reads, ...).  A wrapper records one span (name,
layer, start, end, parent) in flat in-memory arrays; the spans are written
out once, after the run.  A layer's self time is the time of its spans
minus the time of their child spans.  Spans only see the calling process,
so a traced run must not use worker processes.
"""

from __future__ import annotations

import importlib
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("cli", "sweep", "elements", "geometry", "special", "entanglement", "wightman")

#: (module where the caller looks the name up, layer, public names).
#: Calls that cross a layer boundary, plus the per-state entry points and
#: coefficients inside ``elements``; helpers private to one layer
#: (``geometry.parity``, ``elements.joint_excitation``, ...) stay unwrapped.
WRAP = (
    ("udwpair.cli", "cli", ("main",)),
    ("udwpair.cli", "sweep", (
        "run_sweep", "run_difference_map", "run_verification", "write_rows",
        "parse_range", "config_from_mapping", "parse_config_file",
    )),
    ("udwpair.sweep", "sweep", ("rows_to_csv", "rows_to_jsonl")),
    ("udwpair.sweep", "elements", (
        "elements_for", "elements_minkowski", "exchange_coefficient", "nonlocal_coefficient",
    )),
    ("udwpair.sweep", "geometry", ("image_separation", "separation")),
    ("udwpair.sweep", "entanglement", ("xstate_measures",)),
    ("udwpair.wightman", "wightman", (
        "oracle_a", "oracle_x", "oracle_c", "oracle_ieps", "pv_over_pole",
        "hadamard_double_pole", "sgn_delta_square", "richardson_zero_limit",
    )),
    ("udwpair.elements", "elements", (
        "elements_minkowski", "elements_cylinder", "elements_twisted",
        "self_excitation_coefficient", "exchange_coefficient", "nonlocal_coefficient",
    )),
    ("udwpair.elements", "geometry", ("separation", "image_separation")),
    ("udwpair.elements", "special", ("phase_scaled_erf", "dawson", "erfc_real")),
    ("udwpair.entanglement", "elements", ("assemble_density_matrix",)),
    ("udwpair.entanglement", "entanglement", (
        "negativity_exact", "concurrence_exact", "xstate_entanglement",
        "entanglement_of_formation", "correlation", "partial_transpose_a",
    )),
)

#: entry points of the elements layer that produce one state each
POINT_FUNCTIONS = ("elements_for", "elements_minkowski")
COEFFICIENT_FUNCTIONS = ("self_excitation_coefficient", "exchange_coefficient", "nonlocal_coefficient")
ORACLE_FUNCTIONS = ("oracle_a", "oracle_x", "oracle_c")


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.layer_of: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.failed = array("h")  # 0, or 1 + index into self.exceptions
        self.exceptions: list[str] = []
        self._stack: list[int] = [-1]
        self.counters: dict[str, float] = {}
        self.tail_bound_max = 0.0

    def _name_id(self, name: str, layer: str) -> int:
        key = f"{layer}.{name}"
        if key not in self._name_ids:
            self._name_ids[key] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return self._name_ids[key]

    def wrap(self, layer: str, name: str, fn):
        nid = self._name_id(name, layer)
        stack = self._stack
        clock = time.perf_counter
        names, starts, ends, parents, failed = (
            self.name, self.start, self.end, self.parent, self.failed,
        )
        observe = self._observe_state if name.startswith("elements_") else None
        exc_id = self._exception_id

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            failed.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                failed[idx] = exc_id(type(exc).__name__)
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _exception_id(self, name: str) -> int:
        if name not in self.exceptions:
            self.exceptions.append(name)
        return 1 + self.exceptions.index(name)

    def _observe_state(self, state) -> None:
        tail = getattr(state, "tail_bound", None)
        if tail is not None:
            self.tail_bound_max = max(self.tail_bound_max, float(np.max(tail)))

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    # -- analysis -------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "failed": np.frombuffer(self.failed, dtype=np.int16).copy(),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            layers=np.array(self.layer_of),
            exceptions=np.array(self.exceptions),
            **self.arrays(),
        )


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    child = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], duration[has_parent])
    return duration - child


def entry_mask(parent: np.ndarray, layer_ids: np.ndarray, layer: int) -> np.ndarray:
    """Spans of ``layer`` whose parent is in another layer (or none)."""
    own = layer_ids == layer
    parent_layer = np.where(parent >= 0, layer_ids[np.maximum(parent, 0)], -1)
    return own & (parent_layer != layer)


@contextmanager
def installed(tracer: Tracer):
    """Wrap every function in WRAP (and count entanglement's linalg calls)."""
    saved = []
    try:
        for module_name, layer, names in WRAP:
            module = importlib.import_module(module_name)
            for name in names:
                fn = getattr(module, name, None)
                if fn is None or not callable(fn):
                    continue
                saved.append((module, name, fn))
                setattr(module, name, tracer.wrap(layer, name, fn))
        ent = importlib.import_module("udwpair.entanglement")
        if hasattr(ent, "np"):
            saved.append((ent, "np", ent.np))
            ent.np = _CountingNumpy(ent.np, tracer)
        yield tracer
    finally:
        for module, name, fn in reversed(saved):
            setattr(module, name, fn)


class _CountingNumpy:
    """numpy as seen from one module, counting its ``np.linalg`` calls."""

    def __init__(self, numpy_module, tracer: Tracer):
        self._np = numpy_module
        self.linalg = _CountingLinalg(numpy_module.linalg, tracer)

    def __getattr__(self, name):
        return getattr(self._np, name)


class _CountingLinalg:
    def __init__(self, linalg, tracer: Tracer):
        self._linalg = linalg
        self._tracer = tracer
        self._cache: dict = {}

    def __getattr__(self, name):
        attr = getattr(self._linalg, name)
        if not callable(attr) or isinstance(attr, type):
            return attr
        if name not in self._cache:
            tracer = self._tracer

            def counted(*args, **kwargs):
                tracer.count("entanglement.linalg_calls")
                return attr(*args, **kwargs)

            self._cache[name] = counted
        return self._cache[name]


def _pct(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if values.size else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers from the recorded spans (times in s, us where named)."""
    sp = tracer.arrays()
    layers = list(LAYERS)
    name_layer = np.array([layers.index(l) for l in tracer.layer_of], dtype=int)
    layer_ids = name_layer[sp["name"]] if len(name_layer) else np.zeros(0, dtype=int)
    fn = np.array(tracer.names + [""])[sp["name"]]
    dur = sp["end"] - sp["start"]
    own = self_times(sp["parent"], dur)
    root = sp["parent"] < 0
    total = float(dur[root].sum())
    out: dict[str, float] = {}
    for i, layer in enumerate(layers):
        out[f"{layer}.self_s"] = float(own[layer_ids == i].sum())
        out[f"{layer}.self_share"] = out[f"{layer}.self_s"] / total if total else 0.0

    def calls(*fnames) -> np.ndarray:
        return np.isin(fn, fnames)

    el = layers.index("elements")
    points = entry_mask(sp["parent"], layer_ids, el) & calls(*POINT_FUNCTIONS)
    n_points = int(points.sum())
    out["elements.points"] = n_points
    out["elements.us_per_point_p50"] = _pct(dur[points] * 1e6, 50)
    out["elements.us_per_point_p99"] = _pct(dur[points] * 1e6, 99)
    out["elements.coefficient_calls_per_point"] = (
        int(calls(*COEFFICIENT_FUNCTIONS).sum()) / n_points if n_points else 0.0
    )
    out["elements.tail_bound_max"] = tracer.tail_bound_max
    out["geometry.image_separation_calls"] = int(calls("image_separation").sum())
    out["special.phase_scaled_erf_calls"] = int(calls("phase_scaled_erf").sum())
    out["special.dawson_calls"] = int(calls("dawson").sum())
    states = calls("xstate_measures")
    n_states = int(states.sum())
    out["entanglement.states"] = n_states
    out["entanglement.us_per_state_p50"] = _pct(dur[states] * 1e6, 50)
    out["entanglement.us_per_state_p99"] = _pct(dur[states] * 1e6, 99)
    out["entanglement.linalg_calls_per_state"] = (
        tracer.counters.get("entanglement.linalg_calls", 0) / n_states if n_states else 0.0
    )
    out["entanglement.failures"] = int((states & (sp["failed"] > 0)).sum())
    oracle = calls(*ORACLE_FUNCTIONS)
    out["wightman.oracle_calls"] = int(oracle.sum())
    out["wightman.us_per_call_p50"] = _pct(dur[oracle] * 1e6, 50)
    out["wightman.us_per_call_p99"] = _pct(dur[oracle] * 1e6, 99)
    convergence = (
        1 + tracer.exceptions.index("ConvergenceError")
        if "ConvergenceError" in tracer.exceptions
        else -1
    )
    out["wightman.convergence_errors"] = int((oracle & (sp["failed"] == convergence)).sum())
    writes = calls("write_rows")
    out["sweep.write_s"] = float(dur[writes].sum())
    return out
