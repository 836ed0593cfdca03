"""Batch front-end: validated configs in, JSON/CSV certificates out.

Every run resolves its configuration (defaults, then an optional JSON
config file, then command-line flags), validates it fully before any
computation, and echoes the resolved configuration inside the result JSON
so certificates are self-describing.  Identical configuration and seed
produce byte-identical output except for the ``runtime_ms`` field.  Exit
codes: 0 success, 2 validation error (a machine-readable error object goes
to stderr), 3 acceptance failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .bridge import (
    approximate_compact_space,
    beta_delta_over_n,
    beta_fixed,
    beta_fraction_of_delta,
    convergence_experiment,
    estimate_reach_lower,
)
from .errors import CorollaryModeViolation, MatproxError, ScaleUnderflowError
from .fixed_point import (
    FuzzyTorus,
    LengthFunction,
    SPECIALIZATION_NOTE,
    TorusSubgroup,
    fixed_point_bridge,
    fixed_point_sweep,
)
from .lseminorm import ApproximationPair, quasi_leibniz_residuals
from .matrix_algebra import random_hermitian_stack
from .metric_core import (
    Circle,
    FiniteMetricSpace,
    FlatTorus,
    Interval,
    PointCloud,
    check_probability,
    load_space,
    min_separation,
    mk_distance,
    random_cloud_space,
)

OUTPUT_DIR_ENV = "MATPROX_OUTPUT_DIR"


class ValidationFailure(Exception):
    def __init__(self, field: str, message: str) -> None:
        super().__init__(message)
        self.field = field
        self.message = message


def _parse_scalar(token: str, field: str) -> float:
    text = token.strip().lower()
    if text == "pi":
        return math.pi
    if text == "2pi":
        return 2.0 * math.pi
    try:
        value = float(text)
    except ValueError:
        raise ValidationFailure(field, f"cannot parse number {token!r}") from None
    if not math.isfinite(value):
        raise ValidationFailure(field, f"number {token!r} is not finite")
    return value


def parse_generator(spec: str):
    """Parse a generator spec: circle(c), interval(l), torus(c1,c2,...),
    or cloud:<path-to-json-points-file>."""
    text = spec.strip()
    if text.startswith("cloud:"):
        path = Path(text[len("cloud:") :])
        if not path.exists():
            raise ValidationFailure("generator", f"point file {path} does not exist")
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            pts = np.asarray(payload["points"], dtype=float)
            labels = tuple(payload["labels"]) if "labels" in payload else None
            FiniteMetricSpace.from_points(pts, labels)
        except (KeyError, TypeError, ValueError, MatproxError) as exc:
            raise ValidationFailure(
                "generator", f"point file {path} needs a 'points' array of distinct points ({exc!r})"
            ) from None
        return PointCloud(pts, labels)
    for name, builder in (
        ("circle", lambda args: Circle(args[0])),
        ("interval", lambda args: Interval(args[0])),
        ("torus", lambda args: FlatTorus(tuple(args))),
    ):
        prefix = name + "("
        if text.startswith(prefix) and text.endswith(")"):
            inner = text[len(prefix) : -1]
            args = [_parse_scalar(tok, "generator") for tok in inner.split(",") if tok.strip()]
            if not args:
                raise ValidationFailure("generator", f"{name} needs at least one number")
            if any(a <= 0.0 for a in args):
                raise ValidationFailure("generator", f"{name} sizes must be positive")
            return builder(args)
    raise ValidationFailure(
        "generator",
        f"unknown generator {spec!r}; expected circle(..), interval(..), torus(..) or cloud:<path>",
    )


def parse_beta_rule(spec: str) -> Callable[[float, int], float]:
    text = spec.strip().lower()
    if text == "delta_over_n":
        return beta_delta_over_n
    try:
        if text.startswith("fixed(") and text.endswith(")"):
            return beta_fixed(_parse_scalar(text[6:-1], "beta_rule"))
        if text.startswith("fraction_of_delta(") and text.endswith(")"):
            return beta_fraction_of_delta(_parse_scalar(text[18:-1], "beta_rule"))
    except MatproxError as exc:
        raise ValidationFailure("beta_rule", str(exc)) from exc
    raise ValidationFailure(
        "beta_rule",
        f"unknown beta rule {spec!r}; expected delta_over_n, fixed(v) or fraction_of_delta(r)",
    )


def _resolve_config(args: argparse.Namespace, defaults: dict[str, Any]) -> dict[str, Any]:
    config = dict(defaults)
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ValidationFailure("config", f"config file {path} does not exist")
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValidationFailure("config", f"config file is not valid JSON: {exc}")
        if not isinstance(loaded, dict):
            raise ValidationFailure("config", "config file must hold a JSON object")
        unknown = set(loaded) - set(defaults)
        if unknown:
            raise ValidationFailure("config", f"unknown config keys {sorted(unknown)}")
        config.update(loaded)
    for key in defaults:
        flag = getattr(args, key, None)
        if flag is not None:
            config[key] = flag
    return config


def _int_field(config: dict, field: str, minimum: int | None = None) -> int:
    value = config[field]
    if type(value) is not int:
        raise ValidationFailure(field, f"{field} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationFailure(field, f"{field} must be at least {minimum}, got {value}")
    return value


def _bool_field(config: dict, field: str) -> bool:
    value = config[field]
    if not isinstance(value, bool):
        raise ValidationFailure(field, f"{field} must be true or false, got {value!r}")
    return value


def _list_field(config: dict, field: str, kind: type) -> list:
    """Finite ints or floats, from a JSON array or a comma-separated string."""
    raw = config[field]
    items = [tok for tok in raw.split(",") if tok.strip()] if isinstance(raw, str) else raw
    if not isinstance(items, list):
        raise ValidationFailure(field, f"{field} must be a list, got {raw!r}")
    accepted = (int, float) if kind is float else (int,)
    values = []
    for item in items:
        if isinstance(item, str):
            try:
                item = kind(item)
            except ValueError:
                raise ValidationFailure(field, f"cannot parse {field} entry {item!r}") from None
        if type(item) not in accepted or not math.isfinite(item):
            raise ValidationFailure(field, f"{field} entries must be finite {kind.__name__}s, got {item!r}")
        values.append(kind(item))
    return values


def _output_path(args: argparse.Namespace, default_name: str) -> Path:
    if getattr(args, "output", None):
        return Path(args.output)
    base = Path(os.environ.get(OUTPUT_DIR_ENV, "."))
    return base / default_name


def _write_text(path: Path, text: str) -> None:
    # Full results are assembled in memory first; the temp-file rename keeps
    # partially written artifacts from ever appearing under the final name.
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _emit_json(path: Path, payload: dict) -> None:
    _write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _emit_result(
    args: argparse.Namespace, default_name: str, config: dict, results: dict, start: float
) -> Path:
    """Write a subcommand's result JSON, timed from ``start``; returns its path."""
    payload = {
        "command": args.command,
        "resolved_config": config,
        "results": results,
        "runtime_ms": round(1000.0 * (time.perf_counter() - start), 3),
    }
    out = _output_path(args, default_name)
    _emit_json(out, payload)
    return out


def _error_exit(failure: ValidationFailure) -> int:
    envelope = {"error": {"field": failure.field, "message": failure.message}}
    print(json.dumps(envelope, sort_keys=True), file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# Subcommand handlers.
# ---------------------------------------------------------------------------


def _cmd_approximate(args: argparse.Namespace) -> int:
    defaults = {
        "generator": "circle(2pi)",
        "n": 8,
        "beta_rule": "delta_over_n",
        "corollary_mode": True,
        "seed": 0,
        "reach_samples": 8,
    }
    config = _resolve_config(args, defaults)
    generator = parse_generator(str(config["generator"]))
    n = _int_field(config, "n", 1)
    rule = parse_beta_rule(str(config["beta_rule"]))
    seed = _int_field(config, "seed", 0)
    reach_samples = _int_field(config, "reach_samples", 1)
    corollary_mode = _bool_field(config, "corollary_mode")

    start = time.perf_counter()
    try:
        pair, row = approximate_compact_space(
            generator, n, rule, corollary_mode=corollary_mode
        )
    except CorollaryModeViolation as exc:
        raise ValidationFailure("beta_rule", str(exc))
    except ScaleUnderflowError as exc:
        raise ValidationFailure("generator", str(exc))
    except MatproxError as exc:
        # The generator was validated when parsed; what remains is the net
        # size (too few points, not a grid, more than the cloud holds).
        raise ValidationFailure("n", str(exc))
    sampled_lower = estimate_reach_lower(pair, iters=reach_samples, seed=seed)
    results = {
        "generator": str(config["generator"]),
        "n": n,
        "delta": pair.delta,
        "beta": pair.beta,
        "haus": row.haus,
        "certified_bound": row.certified_bound,
        "sampled_lower": sampled_lower,
        "sampled_lower_certified": False,
        "D_constant": pair.leibniz_constant,
        "corollary_mode": corollary_mode,
        "seed": seed,
    }
    out = _emit_result(args, "approximate.json", config, results, start)
    print(f"wrote {out}")
    return 0


def _cmd_converge(args: argparse.Namespace) -> int:
    defaults = {
        "generator": "circle(2pi)",
        "n_list": [4, 8, 16, 32],
        "beta_rule": "delta_over_n",
        "seed": 0,
    }
    config = _resolve_config(args, defaults)
    generator = parse_generator(str(config["generator"]))
    rule = parse_beta_rule(str(config["beta_rule"]))
    n_list = _list_field(config, "n_list", int)
    if not n_list or sorted(set(n_list)) != n_list:
        raise ValidationFailure("n_list", "net sizes must be strictly increasing")
    _int_field(config, "seed", 0)

    start = time.perf_counter()
    try:
        report = convergence_experiment(generator, n_list, rule)
    except ScaleUnderflowError as exc:
        raise ValidationFailure("generator", str(exc))
    except MatproxError as exc:
        raise ValidationFailure("n_list", str(exc))
    results = {
        "rows": [dataclasses.asdict(r) for r in report.rows],
        "strictly_decreasing": report.strictly_decreasing,
        "nonincreasing": report.nonincreasing,
    }
    resolved = {**config, "n_list": n_list}
    out = _emit_result(args, "converge.json", resolved, results, start)
    csv_path = out.with_suffix(".csv")
    _write_text(csv_path, report.to_csv())
    print(f"wrote {out} and {csv_path}")
    return 0


def _cmd_leibniz(args: argparse.Namespace) -> int:
    defaults = {
        "sizes": [2, 3, 4, 5, 6, 7, 8],
        "ratios": [1.0, 3.0],
        "pairs": 500,
        "seed": 0,
        "include_raw": True,
    }
    config = _resolve_config(args, defaults)
    sizes = _list_field(config, "sizes", int)
    if any(x < 2 for x in sizes):
        raise ValidationFailure("sizes", "matrix sizes must be at least 2")
    ratios = _list_field(config, "ratios", float)
    if any(r <= 0.0 for r in ratios):
        raise ValidationFailure("ratios", "beta/delta ratios must be positive")
    pairs = _int_field(config, "pairs", 1)
    seed = _int_field(config, "seed", 0)
    include_raw = _bool_field(config, "include_raw")

    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    suites = []
    for ratio in ratios:
        for n in sizes:
            space = random_cloud_space(rng, n)
            delta = min_separation(space)
            pair = ApproximationPair(space, ratio * delta, corollary_mode=ratio <= 1.0)
            a = random_hermitian_stack(rng, pairs, n)
            b = random_hermitian_stack(rng, pairs, n)
            jres, lres = quasi_leibniz_residuals(pair, a, b)
            suite = {
                "n": n,
                "beta_over_delta": ratio,
                "D_constant": pair.leibniz_constant,
                "pairs": pairs,
                "min_jordan_residual": float(np.min(jres)),
                "min_lie_residual": float(np.min(lres)),
            }
            if include_raw:
                suite["jordan_residuals"] = jres.tolist()
                suite["lie_residuals"] = lres.tolist()
            suites.append(suite)
    resolved = {**config, "sizes": sizes, "ratios": ratios}
    out = _emit_result(args, "leibniz.json", resolved, {"suites": suites}, start)
    print(f"wrote {out}")
    return 0


def _cmd_mk(args: argparse.Namespace) -> int:
    defaults = {"space": None, "p": None, "q": None, "seed": 0}
    config = _resolve_config(args, defaults)
    _int_field(config, "seed", 0)
    if not config["space"]:
        raise ValidationFailure("space", "a space file is required")
    path = Path(str(config["space"]))
    if not path.exists():
        raise ValidationFailure("space", f"space file {path} does not exist")
    try:
        space = load_space(path.read_text(encoding="utf-8"))
    except (MatproxError, TypeError, ValueError) as exc:
        raise ValidationFailure("space", str(exc))

    def _measure(raw, field):
        if raw is None:
            return None
        try:
            weights = json.loads(raw) if isinstance(raw, str) else raw
            return check_probability(space, np.asarray(weights, dtype=float))
        except (TypeError, ValueError, MatproxError) as exc:
            raise ValidationFailure(
                field, f"{field} must be a JSON array of {space.n_points} probability weights: {exc}"
            ) from None

    p = _measure(config["p"], "p")
    q = _measure(config["q"], "q")
    if (p is None) != (q is None):
        raise ValidationFailure("q", "p and q must be given together")

    start = time.perf_counter()
    n = space.n_points
    eye = np.eye(n)
    # The transport LP is bitwise symmetric in its two measures, so each
    # unordered pair is solved once; Dirac masses at one point are 0 apart.
    dirac = np.zeros((n, n))
    for i, j in zip(*np.triu_indices(n, k=1)):
        dirac[i, j] = dirac[j, i] = mk_distance(space, eye[i], eye[j])
    residual = float(np.max(np.abs(dirac - space.dist)))
    results: dict[str, Any] = {
        "labels": list(space.labels),
        "dirac_distance_matrix": dirac.tolist(),
        "max_gap_to_ground_metric": residual,
    }
    if p is not None:
        results["mk_p_q"] = mk_distance(space, p, q)
    resolved = {**config, "space": str(config["space"])}
    out = _emit_result(args, "mk.json", resolved, results, start)
    print(f"wrote {out}")
    return 0


def _parse_generators(raw, field: str) -> list[tuple[int, int]]:
    if raw is None:
        return []
    if isinstance(raw, str):
        try:
            raw = json.loads(raw)
        except json.JSONDecodeError:
            raise ValidationFailure(field, f"{field} must be a JSON array of [j, k] pairs")
    try:
        pairs = [(j, k) for j, k in raw]
        if all(type(x) is int for pair in pairs for x in pair):
            return pairs
    except (TypeError, ValueError):
        pass
    raise ValidationFailure(field, f"{field} must be pairs of integers")


def _cmd_fixedpoint(args: argparse.Namespace) -> int:
    defaults = {
        "q": 12,
        "p": 1,
        "h_generators": [[1, 0]],
        "k_generators": [[1, 0], [0, 1]],
        "count": 48,
        "seed": 0,
        "sweep": None,
    }
    config = _resolve_config(args, defaults)
    seed = _int_field(config, "seed", 0)
    count = _int_field(config, "count", 1)

    start = time.perf_counter()
    if config["sweep"] is not None:
        sweep = _list_field(config, "sweep", int)
        if not sweep or min(sweep) < 2:
            raise ValidationFailure("sweep", "sweep needs one or more orders, each at least 2")
        rows = fixed_point_sweep(sweep, count=count, seed=seed)
        results = {"model": SPECIALIZATION_NOTE, "sweep_rows": rows}
        resolved = {**config, "sweep": sweep}
        out = _emit_result(args, "fixedpoint_sweep.json", resolved, results, start)
        csv_lines = ["q,m,haus_ell,gap_sampled,dim_fixed"]
        for r in rows:
            csv_lines.append(
                f"{r['q']},{r['m']},{r['haus_ell']!r},{r['gap_sampled']!r},{r['dim_fixed']}"
            )
        csv_path = out.with_suffix(".csv")
        _write_text(csv_path, "\n".join(csv_lines) + "\n")
        print(f"wrote {out} and {csv_path}")
        return 0

    q = _int_field(config, "q", 2)
    p = _int_field(config, "p")
    if math.gcd(p % q, q) != 1:
        raise ValidationFailure("p", f"p={p} must be coprime to q={q}")
    h_gens = _parse_generators(config["h_generators"], "h_generators")
    k_gens = _parse_generators(config["k_generators"], "k_generators")
    try:
        torus = FuzzyTorus(q, p)
        ell = LengthFunction.max_arc(q)
        sub_h = TorusSubgroup.from_generators(q, *h_gens) if h_gens else TorusSubgroup.trivial(q)
        sub_k = TorusSubgroup.from_generators(q, *k_gens) if k_gens else TorusSubgroup.trivial(q)
    except MatproxError as exc:
        raise ValidationFailure("h_generators", str(exc))
    report = fixed_point_bridge(torus, ell, sub_h, sub_k, count=count, seed=seed)
    results = {
        "model": report.model,
        "q": q,
        "p": p,
        "H_generators": [list(g) for g in sub_h.generators],
        "K_generators": [list(g) for g in sub_k.generators],
        "haus_ell": report.haus_ell,
        "gap_sampled": report.gap_sampled,
        "reach_report": {
            "worst_left_to_right": report.worst_left_to_right,
            "worst_right_to_left": report.worst_right_to_left,
            "reach_sampled": report.reach_sampled,
            "certified": report.certified,
        },
        "dims": {
            "fixed_left": report.dim_fixed_left,
            "fixed_right": report.dim_fixed_right,
            "ambient": q * q,
        },
        "seed": seed,
    }
    out = _emit_result(args, "fixedpoint.json", config, results, start)
    print(f"wrote {out}")
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    # Imported here: the acceptance suite sits above every other module.
    from .acceptance import all_passed, run_all

    results = run_all(stream=sys.stdout)
    if getattr(args, "output", None):
        payload = {
            "command": "selftest",
            "results": [
                {
                    "criterion": r.criterion,
                    "name": r.name,
                    "passed": r.passed,
                    "failures": r.failures,
                    "elapsed_s": round(r.elapsed_s, 3),
                }
                for r in results
            ],
        }
        _emit_json(Path(args.output), payload)
    return 0 if all_passed(results) else 3


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its keys")
    parser.add_argument("--output", help="output path (default from $%s)" % OUTPUT_DIR_ENV)
    parser.add_argument("--seed", type=int, default=None, help="deterministic seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matprox",
        description="matrix-algebra approximations of compact metric spaces with certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("approximate", help="one net: certified bound haus + beta")
    _add_common(p)
    p.add_argument("--generator", help="circle(c) | interval(l) | torus(c1,..) | cloud:<file>")
    p.add_argument("--n", type=int, help="net size")
    p.add_argument("--beta-rule", dest="beta_rule", help="delta_over_n | fixed(v) | fraction_of_delta(r)")
    p.add_argument("--reach-samples", dest="reach_samples", type=int)
    p.set_defaults(handler=_cmd_approximate)

    p = sub.add_parser("converge", help="sweep net sizes; CSV of certified bounds")
    _add_common(p)
    p.add_argument("--generator")
    p.add_argument("--n-list", dest="n_list", help="comma-separated net sizes")
    p.add_argument("--beta-rule", dest="beta_rule")
    p.set_defaults(handler=_cmd_converge)

    p = sub.add_parser("leibniz", help="residual suite for the product inequality")
    _add_common(p)
    p.add_argument("--sizes", help="comma-separated matrix sizes")
    p.add_argument("--ratios", help="comma-separated beta/delta ratios")
    p.add_argument("--pairs", type=int)
    p.set_defaults(handler=_cmd_leibniz)

    p = sub.add_parser("mk", help="transport distances on a space file")
    _add_common(p)
    p.add_argument("--space", help="JSON file with labels + dist or points")
    p.add_argument("--p", help="JSON array of weights")
    p.add_argument("--q", help="JSON array of weights")
    p.set_defaults(handler=_cmd_mk)

    p = sub.add_parser("fixedpoint", help="subgroup gap and bridge reports on a fuzzy torus")
    _add_common(p)
    p.add_argument("--q", type=int)
    p.add_argument("--p", type=int, dest="p")
    p.add_argument("--h-generators", dest="h_generators", help="JSON array of [j,k] pairs")
    p.add_argument("--k-generators", dest="k_generators", help="JSON array of [j,k] pairs")
    p.add_argument("--count", type=int)
    p.add_argument("--sweep", help="comma-separated torus orders for the gap sweep")
    p.set_defaults(handler=_cmd_fixedpoint)

    p = sub.add_parser("selftest", help="run the full acceptance suite")
    p.add_argument("--output", help="optional JSON result path")
    p.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValidationFailure as failure:
        return _error_exit(failure)
    except MatproxError as exc:
        return _error_exit(ValidationFailure("input", str(exc)))


if __name__ == "__main__":
    sys.exit(main())
