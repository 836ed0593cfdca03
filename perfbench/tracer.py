"""Spans around the calls into matprox's layers, recorded from outside.

The tracer swaps each traced function for a wrapper in every ``matprox``
module that bound it by name (``operator_norm`` alone is bound in
``matrix_algebra``, ``bridge``, ``lseminorm`` and ``fixed_point``), and puts
the originals back on ``uninstall``.  The scipy solvers are wrapped the same
way where matprox imported them, so ``linprog`` and ``minimize_scalar`` are
timed at their call sites and their results read for iteration counts and
status.  Nothing under ``src/`` changes.

Spans stay in memory as ``[name, start, end, parent, job, attrs]`` lists and
are written out once, at the end of a run.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _stack_attrs(args, kwargs, result) -> dict:
    shape = np.shape(_arg(args, kwargs, 0, "stack"))
    matrices = int(np.prod(shape[:-2]))
    return {"matrices": matrices, "bytes": matrices * shape[-1] * shape[-2] * 16}


def _action_attrs(args, kwargs, result) -> dict:
    q = _arg(args, kwargs, 0, "torus").q
    elements = int(np.shape(_arg(args, kwargs, 2, "stack"))[0])
    # The difference stack a - alpha^g(a) over all nontrivial g, complex128.
    return {"elements": elements, "q": q, "bytes": elements * (q * q - 1) * q * q * 16}


def _l_attrs(args, kwargs, result) -> dict:
    return {"elements": int(np.shape(_arg(args, kwargs, 1, "stack"))[0])}


def _samples_attrs(args, kwargs, result) -> dict:
    return {"samples": len(result)}


def _lp_attrs(args, kwargs, result) -> dict:
    return {"nit": int(result.nit), "status": int(result.status)}


def _scalar_attrs(args, kwargs, result) -> dict:
    return {"nfev": int(result.nfev), "status": int(result.status)}


# (span name, module that defines or imports the function, attribute, attrs).
TRACED = (
    ("matrix_algebra.operator_norms", "matprox.matrix_algebra", "operator_norms", _stack_attrs),
    ("matrix_algebra.operator_norm", "matprox.matrix_algebra", "operator_norm", None),
    ("lseminorm.l_seminorms", "matprox.lseminorm", "l_seminorms", _l_attrs),
    ("lseminorm.sample_unit_ball", "matprox.lseminorm", "sample_unit_ball", _samples_attrs),
    ("metric_core.mk_distance", "matprox.metric_core", "mk_distance", None),
    ("bridge.estimate_reach_lower", "matprox.bridge", "estimate_reach_lower", None),
    ("fixed_point.action_lip_seminorms", "matprox.fixed_point", "action_lip_seminorms", _action_attrs),
    ("fixed_point.expectation_gap", "matprox.fixed_point", "expectation_gap", None),
    ("fixed_point.fixed_point_bridge", "matprox.fixed_point", "fixed_point_bridge", None),
    ("lp", "matprox.metric_core", "linprog", _lp_attrs),
    ("scalar", "matprox.bridge", "minimize_scalar", _scalar_attrs),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.job: int | None = None
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, attrs=None):
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, open_[-1] if open_ else -1, self.job, None]
            open_.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                open_.pop()
            if attrs is not None:
                record[5] = attrs(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a matprox module bound it."""
        modules = [m for key, m in sys.modules.items() if key == "matprox" or key.startswith("matprox.")]
        for name, home, attr, attrs in TRACED:
            original = getattr(sys.modules[home], attr)
            wrapper = self.wrap(name, original, attrs)
            for module in modules:
                for key, value in vars(module).items():
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i, (name, start, end, parent, job, attrs) in enumerate(self.spans):
                row = {"id": i, "name": name, "start": start, "end": end, "parent": parent, "job": job}
                if attrs:
                    row["attrs"] = attrs
                fh.write(json.dumps(row) + "\n")


def layer_metrics(spans: list[list], jobs: int) -> dict[str, float]:
    """Per-layer totals divided by the number of traced jobs.

    Self time is a span's duration minus the time its child spans cover;
    spans of one thread nest, so the children of a span never overlap and
    their durations add up to the covered time.
    """
    child_time = defaultdict(float)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls = defaultdict(int)
    self_s = defaultdict(float)
    attr = defaultdict(float)
    norms_under_action = 0
    norms_under_scalar = 0
    lp_failed = 0
    largest = 0
    for i, (name, start, end, parent, _, attrs) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - child_time[i]
        if attrs is None:  # no function attrs, or the call raised
            attrs = {}
        for key, value in attrs.items():
            if key != "q":
                attr[f"{name}.{key}"] += value
        if name == "lp" and attrs.get("status") != 0:  # a solve that raised has no status
            lp_failed += 1
        if name == "fixed_point.action_lip_seminorms" and attrs:
            attr["action_norm_slots"] += attrs["elements"] * (attrs["q"] ** 2 - 1)
        if parent >= 0:
            parent_name = spans[parent][0]
            if name == "matrix_algebra.operator_norms" and parent_name == "fixed_point.action_lip_seminorms":
                norms_under_action += attrs.get("matrices", 0)
            if name == "matrix_algebra.operator_norm" and parent_name == "scalar":
                norms_under_scalar += 1
        largest = max(largest, attrs.get("bytes", 0))

    def per_job(value: float) -> float:
        return value / jobs if jobs else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {}
    for name in (
        "matrix_algebra.operator_norms", "matrix_algebra.operator_norm",
        "fixed_point.action_lip_seminorms", "bridge.estimate_reach_lower",
        "lseminorm.sample_unit_ball", "lseminorm.l_seminorms", "metric_core.mk_distance",
    ):
        out[f"{name}.calls"] = per_job(calls[name])
    for name in (
        "matrix_algebra.operator_norms", "matrix_algebra.operator_norm",
        "fixed_point.action_lip_seminorms", "fixed_point.expectation_gap",
        "fixed_point.fixed_point_bridge", "bridge.estimate_reach_lower",
        "lseminorm.sample_unit_ball", "lseminorm.l_seminorms", "metric_core.mk_distance",
        "lp", "scalar", "cli.main",
    ):
        out[f"{name}.self_s"] = per_job(self_s[name])
    out["matrix_algebra.operator_norms.matrices"] = per_job(attr["matrix_algebra.operator_norms.matrices"])
    out["matrix_algebra.operator_norms.bytes_computed"] = per_job(attr["matrix_algebra.operator_norms.bytes"])
    out["fixed_point.action_lip_seminorms.elements"] = per_job(attr["fixed_point.action_lip_seminorms.elements"])
    out["fixed_point.action_lip_seminorms.bytes_computed"] = per_job(attr["fixed_point.action_lip_seminorms.bytes"])
    out["fixed_point.action_lip_seminorms.exact_norm_ratio"] = ratio(norms_under_action, attr["action_norm_slots"])
    out["lseminorm.sample_unit_ball.samples"] = per_job(attr["lseminorm.sample_unit_ball.samples"])
    out["lseminorm.l_seminorms.elements"] = per_job(attr["lseminorm.l_seminorms.elements"])
    out["lp.solves"] = per_job(calls["lp"])
    out["lp.iterations"] = per_job(attr["lp.nit"])
    out["lp.failed"] = per_job(lp_failed)
    out["scalar.solves"] = per_job(calls["scalar"])
    out["scalar.evals"] = per_job(attr["scalar.nfev"])
    out["bridge.norms_per_solve"] = ratio(norms_under_scalar, calls["scalar"])
    out["largest_array_computed_bytes"] = float(largest)
    return out
