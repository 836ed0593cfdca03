"""Batch front-end: validated configs in, JSON/CSV certificates out.

Every run resolves its configuration (defaults, then an optional JSON
config file, then command-line flags), checks every key and its output
paths before anything runs, and echoes the resolved configuration inside
the result JSON so certificates are self-describing.  A fault that only
the run can find, such as a reach descent or a Leibniz ratio that
overflows, is a library error raised during the run, possibly after much
of it, and the command's faults name its key.  Each subcommand is declared
once, in :data:`COMMANDS`: its keys with their defaults, checks and flags;
its faults, the key each library error from its run names; and its files,
the JSON name and which results list, if any, is written as CSV.  A
handler is a plain function from checked values to its results.
Identical configuration and seed produce byte-identical output except for
the ``runtime_ms`` field.  Exit codes: 0 success, 2 validation error (a
machine-readable error object goes to stderr), 3 acceptance failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from .bridge import (
    approximate_compact_space,
    beta_delta_over_n,
    beta_fixed,
    beta_fraction_of_delta,
    convergence_experiment,
    estimate_reach_lower,
)
from .errors import (
    ConfigError,
    CorollaryModeViolation,
    MatproxError,
    ScaleOverflowError,
    ScaleUnderflowError,
)
from .fixed_point import (
    FuzzyTorus,
    LengthFunction,
    TorusSubgroup,
    fixed_point_bridge,
    fixed_point_sweep,
)
from .lseminorm import leibniz_suites
from .metric_core import (
    Circle,
    FiniteMetricSpace,
    FlatTorus,
    Interval,
    check_probability,
    dirac_distances,
    json_number_array,
    mk_distance,
    space_from_dict,
)

OUTPUT_DIR_ENV = "MATPROX_OUTPUT_DIR"
# The model every fixedpoint payload names: uniform averages stand in for Haar integrals.
SPECIALIZATION_NOTE = "finite model: q-torsion torus subgroup acting on a clock-shift matrix algebra"


class ValidationFailure(Exception):
    def __init__(self, field: str, message: str) -> None:
        super().__init__(message)
        self.field = field
        self.message = message


def _number(token: str, kind: type, field: str):
    """``kind(token)``, where ``kind`` is int or float, for a token of plain
    ASCII: Python's own parsers also take ``_`` separators and non-ASCII
    digits, which would coerce "1_0" to 10 and "١٦" to 16."""
    try:
        if token.isascii() and "_" not in token:
            return kind(token)
    except ValueError:
        pass
    raise ValidationFailure(field, f"cannot parse {field} number {token!r}")


def _parse_scalar(token: str, field: str) -> float:
    text = token.strip().lower()
    if text == "pi":
        return math.pi
    if text == "2pi":
        return 2.0 * math.pi
    value = _number(text, float, field)
    if not math.isfinite(value):
        raise ValidationFailure(field, f"number {token!r} is not finite")
    return value


def _read_file(path: Path, field: str, what: str) -> str:
    """The text of the file a key names; a missing or unreadable file (a
    directory, a name too long, bytes that are not UTF-8) is that key's
    fault."""
    try:
        if path.exists():
            return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationFailure(field, f"cannot read {what} {path}: {exc}") from None
    raise ValidationFailure(field, f"{what} {path} does not exist")


def _read_space(value, field: str, max_points: int | None = None) -> FiniteMetricSpace:
    """The space of a space file (a ``--space`` file or a ``cloud:`` file),
    with at most ``max_points`` points if given; every fault of the file is
    ``field``'s."""
    if not value:
        raise ValidationFailure(field, "a space file is required")
    try:
        payload = json.loads(_read_file(Path(str(value)), field, "space file"))
    except json.JSONDecodeError as exc:
        raise ValidationFailure(field, f"space input is not valid JSON: {exc}") from None
    # The point count is capped before any n x n array is built.
    rows = payload.get("points", payload.get("dist")) if isinstance(payload, dict) else None
    if max_points is not None and isinstance(rows, list) and len(rows) > max_points:
        raise ValidationFailure(field, f"space has {len(rows)} points, at most {max_points} are allowed")
    try:
        return space_from_dict(payload)
    except (MatproxError, TypeError, ValueError) as exc:
        raise ValidationFailure(field, str(exc)) from None


def parse_generator(spec: str):
    """Parse a generator spec: circle(c), interval(l), torus(c1,c2,...),
    or cloud:<path-to-json-space-file>."""
    text = spec.strip()
    if text.startswith("cloud:"):
        return _read_space(text[len("cloud:") :], "generator", max_points=_MAX_CLOUD)
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


# ---------------------------------------------------------------------------
# Checks.  Each takes a key's resolved value and the key's name, and returns
# what the handler gets or raises a ValidationFailure naming the key.
# ---------------------------------------------------------------------------

_Check = Callable[[Any, str], Any]


def _integer(minimum: int | None = None, maximum: int | None = None) -> _Check:
    def check(value, field: str) -> int:
        if type(value) is not int:
            raise ValidationFailure(field, f"{field} must be an integer, got {value!r}")
        if minimum is not None and value < minimum:
            raise ValidationFailure(field, f"{field} must be at least {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise ValidationFailure(field, f"{field} must be at most {maximum}, got {value}")
        return value

    return check


def _boolean(value, field: str) -> bool:
    if not isinstance(value, bool):
        raise ValidationFailure(field, f"{field} must be true or false, got {value!r}")
    return value


def _numbers(kind: type, rule: Callable[[list], Any], message: str, maximum: int | None = None,
             length: int | None = None) -> _Check:
    """Finite ints or floats, from a JSON array of JSON numbers or a comma-
    separated string, at most ``length`` of them, that satisfy ``rule``
    (else ``message``) and are at most ``maximum``."""

    def check(raw, field: str) -> list:
        if isinstance(raw, str):
            items = [_number(tok, kind, field) for tok in raw.split(",") if tok.strip()]
        elif isinstance(raw, list):
            items = raw
        else:
            raise ValidationFailure(field, f"{field} must be a list, got {raw!r}")
        if length is not None:
            _check_length(items, length, field)
        accepted = (int, float) if kind is float else (int,)
        values = []
        for item in items:
            if type(item) not in accepted or not math.isfinite(item):
                raise ValidationFailure(field, f"{field} entries must be finite {kind.__name__}s, got {item!r}")
            values.append(kind(item))
        if not rule(values):
            raise ValidationFailure(field, message)
        if maximum is not None and any(x > maximum for x in values):
            raise ValidationFailure(field, f"{field} entries must be at most {maximum}, got {max(values)}")
        return values

    return check


def _optional(check: _Check) -> _Check:
    return lambda value, field: None if value is None else check(value, field)


def _check_length(items: list, length: int, field: str) -> None:
    if len(items) > length:
        raise ValidationFailure(field, f"{field} takes at most {length} entries, got {len(items)}")


def _parse_generators(raw, field: str) -> list[tuple[int, int]]:
    if raw is None:
        return []
    try:
        raw = json.loads(raw) if isinstance(raw, str) else raw
        # A JSON object would iterate as its keys, so only an array passes.
        if isinstance(raw, list):
            pairs = [(j, k) for j, k in raw]
            if all(type(x) is int for pair in pairs for x in pair):
                _check_length(pairs, _MAX_LIST, field)
                return pairs
    except (TypeError, ValueError):
        pass
    raise ValidationFailure(field, f"{field} must be a JSON array of [j, k] integer pairs, got {raw!r}")


class _Files(NamedTuple):
    name: str  # default file name, without the .json suffix
    csv: str | None = None  # the results list written as a CSV next to the JSON


def _refuse_unwritable(path: Path) -> Path:
    """``path``, or exit 2 naming ``output`` if the path alone shows that no
    file can be written there: a directory where the file must go, or a
    non-directory where a directory must go."""
    if os.path.isdir(path):
        raise ValidationFailure("output", f"cannot write {path}: it is a directory")
    for folder in path.parents:
        if os.path.lexists(folder) and not os.path.isdir(folder):
            raise ValidationFailure("output", f"cannot write {path}: {folder} is not a directory")
    return path


def _output_paths(output: str | None, files: _Files) -> list[Path]:
    """The paths a run writes, decided and checked by
    :func:`_refuse_unwritable` before it runs: its JSON (``output``, or
    ``<name>.json`` in ``$MATPROX_OUTPUT_DIR``) and its CSV, if it writes
    one, next to the JSON as .csv.  An empty ``output`` or
    ``$MATPROX_OUTPUT_DIR``, which names no file or folder, and a JSON path
    ending in .csv, which the CSV would overwrite, exit 2 naming ``output``."""
    if output == "":
        raise ValidationFailure("output", "output path is empty")
    folder = os.environ.get(OUTPUT_DIR_ENV, ".")
    if output is None and not folder:
        raise ValidationFailure("output", f"${OUTPUT_DIR_ENV} is empty")
    default = Path(folder) / f"{files.name}.json"
    paths = [_refuse_unwritable(default if output is None else Path(output))]
    if files.csv is not None:
        if paths[0].suffix == ".csv":
            raise ValidationFailure(
                "output", f"cannot write {paths[0]}: the CSV would overwrite the JSON; "
                "name a path that does not end in .csv"
            )
        paths.append(_refuse_unwritable(paths[0].with_suffix(".csv")))
    return paths


def _write_outputs(paths: list[Path], texts: list[str]) -> None:
    """Write each text to its path, all or none: every temp file is written
    before any is renamed.  An ``OSError`` (a permission, or a file that
    appeared in the way) exits 2 naming ``output``, leaving no file behind."""
    done: list[Path] = []
    try:
        for path, body in zip(paths, texts):
            path.parent.mkdir(parents=True, exist_ok=True)
            done.append(path.with_name(path.name + ".tmp"))
            done[-1].write_text(body, encoding="utf-8")
        for path in paths:
            os.replace(path.with_name(path.name + ".tmp"), path)
            done.append(path)
    except OSError as exc:
        for path in done:
            with contextlib.suppress(OSError):
                path.unlink()
        raise ValidationFailure("output", f"cannot write {paths[0]}: {exc}") from None


def _json_text(payload: dict) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``, byte for
    byte, for any payload that call accepts; ``tests/test_cli.py``'s
    ``test_json_text_writes_the_bytes_of_json_dumps`` pins it.

    Any ``indent`` sends ``json.dumps`` to its pure-Python encoder, which
    takes about twice as long as the C encoder on a list of floats (the
    leibniz residuals are 7,000 of them).  This writer lays out
    dicts and lists in the same indented form directly, and hands each list
    of 8 or more plain scalars (as the leibniz residuals are) to the C
    encoder with ",\\n" plus the item indent as its item separator, which
    writes those items exactly as the indented encoder would.  A payload
    holding anything else, such as a non-string key, is handed to
    ``json.dumps`` whole."""
    out: list[str] = []
    try:
        _lay_out(payload, "\n", out)
    except _NotLaidOut:
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    out.append("\n")
    return "".join(out)


class _NotLaidOut(Exception):
    pass


_SCALARS = frozenset((str, int, float, bool, type(None)))
_encode_string = json.encoder.encode_basestring_ascii


@functools.cache
def _scalar_list_encoder(item_newline: str) -> Callable[[list], str]:
    return json.JSONEncoder(separators=("," + item_newline, ": ")).encode


def _lay_out(value: Any, newline: str, out: list[str]) -> None:
    """Append the indented JSON text of ``value`` to ``out``, where
    ``newline`` is a newline plus the indent of the line ``value`` sits on;
    the tests and their order are those of ``json.encoder``."""
    if isinstance(value, str):
        out.append(_encode_string(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        if value != value:
            out.append("NaN")
        elif value == math.inf:
            out.append("Infinity")
        elif value == -math.inf:
            out.append("-Infinity")
        else:
            out.append(float.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        if len(value) >= 8 and set(map(type, value)) <= _SCALARS:
            out += ("[", inner, _scalar_list_encoder(inner)(value)[1:-1], newline, "]")
            return
        separator = "[" + inner
        for item in value:
            out.append(separator)
            separator = "," + inner
            _lay_out(item, inner, out)
        out += (newline, "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        if not all(type(key) is str for key in value):
            raise _NotLaidOut
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(value):
            out += (separator, _encode_string(key), ": ")
            separator = "," + inner
            _lay_out(value[key], inner, out)
        out += (newline, "}")
    else:
        raise _NotLaidOut


def _csv(rows: list[dict]) -> str:
    """A header of the rows' keys, in the first row's order, then the repr of
    each row's cells: every cell is a Python int or float, whose repr is its
    shortest round-tripping text."""
    lines = [",".join(rows[0])] + [",".join(repr(row[c]) for c in rows[0]) for row in rows]
    return "\n".join(lines) + "\n"


def _error_exit(failure: ValidationFailure) -> int:
    envelope = {"error": {"field": failure.field, "message": failure.message}}
    print(json.dumps(envelope, sort_keys=True), file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each takes the checked values and the resolved config
# and returns its results; only checks that span keys are left to them.  A
# library error they raise is named by the command's faults in COMMANDS.
# ---------------------------------------------------------------------------


def _approximate(v: dict, config: dict) -> dict:
    pair, row = approximate_compact_space(v["generator"], v["n"], v["beta_rule"], corollary_mode=v["corollary_mode"])
    return {
        "generator": config["generator"],
        "n": v["n"],
        "delta": pair.delta,
        "beta": pair.beta,
        "haus": row.haus,
        "certified_bound": row.certified_bound,
        "sampled_lower": estimate_reach_lower(pair, iters=v["reach_samples"], seed=v["seed"]),
        "sampled_lower_certified": False,
        "D_constant": pair.leibniz_constant,
        "corollary_mode": v["corollary_mode"],
        "seed": v["seed"],
    }


def _converge(v: dict, config: dict) -> dict:
    report = convergence_experiment(v["generator"], v["n_list"], v["beta_rule"])
    return {
        "rows": [dataclasses.asdict(r) for r in report.rows],
        "strictly_decreasing": report.strictly_decreasing,
        "nonincreasing": report.nonincreasing,
    }


def _leibniz(v: dict, config: dict) -> dict:
    pairs = v["pairs"]
    suites = []
    for ratio, pair, jres, lres in leibniz_suites(np.random.default_rng(v["seed"]), v["sizes"], v["ratios"], pairs):
        suite = {
            "n": pair.dim,
            "beta_over_delta": ratio,
            "D_constant": pair.leibniz_constant,
            "pairs": pairs,
            "min_jordan_residual": float(np.min(jres)),
            "min_lie_residual": float(np.min(lres)),
        }
        if v["include_raw"]:
            suite["jordan_residuals"] = jres.tolist()
            suite["lie_residuals"] = lres.tolist()
        suites.append(suite)
    return {"suites": suites}


def _mk(v: dict, config: dict) -> dict:
    space = v["space"]

    def _measure(raw, field):
        if raw is None:
            return None
        try:
            weights = json.loads(raw) if isinstance(raw, str) else raw
            return check_probability(space, json_number_array(weights, field))
        except (TypeError, ValueError, MatproxError) as exc:
            raise ValidationFailure(
                field, f"{field} must be a JSON array of {space.n_points} probability weights: {exc}"
            ) from None

    p = _measure(v["p"], "p")
    q = _measure(v["q"], "q")
    if (p is None) != (q is None):
        raise ValidationFailure("q", "p and q must be given together")

    dirac = dirac_distances(space)
    results: dict[str, Any] = {
        "labels": list(space.labels),
        "dirac_distance_matrix": dirac.tolist(),
        "max_gap_to_ground_metric": float(np.max(np.abs(dirac - space.dist))),
    }
    if p is not None:
        results["mk_p_q"] = mk_distance(space, p, q)
    return results


def _fixedpoint(v: dict, config: dict) -> dict:
    q, p, count, seed = v["q"], v["p"], v["count"], v["seed"]
    if v["sweep"] is not None:
        # A sweep runs its own chains at twist 1, so a single-pair key it
        # would ignore is refused rather than echoed as if it had been used.
        for key in _SINGLE_PAIR:
            if v[key.name] != key.check(key.default, key.name):
                raise ValidationFailure(key.name, f"{key.name} does not apply to a sweep; leave it at its default")
        return {"model": SPECIALIZATION_NOTE, "sweep_rows": fixed_point_sweep(v["sweep"], count=count, seed=seed)}

    # With q >= 2 and integer generators, only FuzzyTorus can raise: a twist
    # p that is not coprime to q, which the faults name ``p``.
    h_gens, k_gens = v["h_generators"], v["k_generators"]
    torus = FuzzyTorus(q, p)
    ell = LengthFunction.max_arc(q)
    sub_h = TorusSubgroup.from_generators(q, *h_gens)
    sub_k = TorusSubgroup.from_generators(q, *k_gens)
    report = fixed_point_bridge(torus, ell, sub_h, sub_k, count=count, seed=seed)
    return {
        "model": SPECIALIZATION_NOTE,
        "q": q,
        "p": p,
        # The generators as given, mod q; none reads as the identity alone.
        "H_generators": [[j % q, k % q] for j, k in h_gens] or [[0, 0]],
        "K_generators": [[j % q, k % q] for j, k in k_gens] or [[0, 0]],
        "haus_ell": report.haus_ell,
        "gap_sampled": report.gap_sampled,
        "reach_report": {
            "worst_left_to_right": report.worst_left_to_right,
            "worst_right_to_left": report.worst_right_to_left,
            "reach_sampled": report.reach_sampled,
            "certified": False,
        },
        "dims": {
            "fixed_left": report.dim_fixed_left,
            "fixed_right": report.dim_fixed_right,
            "ambient": q * q,
        },
        "seed": seed,
    }


def _selftest(output: str | None) -> int:
    # Imported here: the acceptance suite sits above every other module.
    from .acceptance import all_passed, run_all

    paths = [] if output is None else _output_paths(output, _Files("selftest"))
    results = run_all(stream=sys.stdout)
    if paths:
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
        _write_outputs(paths, [_json_text(payload)])
    return 0 if all_passed(results) else 3


def _as_given(given, checked):
    return given


def _as_checked(given, checked):
    return checked


@dataclasses.dataclass(frozen=True)
class _Key:
    """A config key: its default, its check, its flag help, and what the
    resolved config echoes (the value as given unless ``show`` says else).
    The flag is the name with dashes; an integer default makes an integer
    flag, and a boolean key has no flag (config file only)."""

    name: str
    default: Any
    check: _Check
    help: str | None = None
    show: Callable[[Any, Any], Any] = _as_given


@dataclasses.dataclass(frozen=True)
class _Command:
    help: str
    run: Callable[[dict, dict], dict]  # checked values and resolved config to results
    keys: tuple[_Key, ...]  # in the order they are checked
    files: Callable[[dict], _Files]  # what a run writes, from its checked values
    # (library error types, key) pairs: a MatproxError from the run names the
    # key of the first pair it matches; an unmatched one names ``input``.
    faults: tuple[tuple[tuple[type[MatproxError], ...], str], ...] = ()


# The command table: every config key of every subcommand, once.  Matrix
# dimensions, net sizes and torus orders stay at the desk scale, and so do
# the sample counts: at q = 64 with a trivial H, 256 fixedpoint draws take
# about 7-8 s and 242 MiB, and 1000 leibniz pairs at size 64 about 5 s and
# 331 MiB, in a fresh process (2-vCPU box).
_MAX_DIM = 64
_MAX_SAMPLES = 256
_MAX_PAIRS = 1000
# Entries of each sizes, ratios, sweep and generator list: 64 leibniz suites
# at size 64 of 1000 pairs take about 215 s and 339 MiB, and a sweep of 8
# orders 64 at count 256 about 28 s and 220 MiB (2-vCPU box).
_MAX_LIST = 8
# A cloud: file is read whole, with an O(n^3) triangle check: 1000 points
# take about 2.1 s and 163 MiB for approximate --n 3 (2-vCPU box).
_MAX_CLOUD = 1000
_SEED = _Key("seed", 0, _integer(0), "deterministic seed")
_GENERATOR = _Key("generator", "circle(2pi)", lambda value, field: parse_generator(str(value)),
                  "circle(c) | interval(l) | torus(c1,..) | cloud:<file>")
_BETA_RULE = _Key("beta_rule", "delta_over_n", lambda value, field: parse_beta_rule(str(value)),
                  "delta_over_n | fixed(v) | fraction_of_delta(r)")
_WEIGHTS = "JSON array of weights"
_SUBGROUP = "JSON array of [j,k] pairs"
# The fixedpoint keys of a single subgroup pair, which a sweep leaves at
# their defaults.
_SINGLE_PAIR = (
    _Key("q", 12, _integer(2, _MAX_DIM), "torus order"),
    _Key("p", 1, _integer(), "twist, coprime to q"),
    _Key("h_generators", [[1, 0]], _parse_generators, _SUBGROUP),
    _Key("k_generators", [[1, 0], [0, 1]], _parse_generators, _SUBGROUP),
)
_SCALE = (ScaleUnderflowError, ScaleOverflowError)
# A net's faults: a beta above delta in corollary mode is the rule's, a net
# too fine or too wide for the floats the generator's, and any other is the
# net size's (too few points, not a grid, more than a cloud holds).
_NET_FAULTS = ((CorollaryModeViolation,), "beta_rule"), (_SCALE, "generator")

COMMANDS = {
    "approximate": _Command("one net: certified bound haus + beta", _approximate, (
        _GENERATOR,
        _Key("n", 8, _integer(1, _MAX_DIM), "net size"),
        _BETA_RULE,
        _SEED,
        _Key("reach_samples", 8, _integer(1, _MAX_SAMPLES), "random elements for the sampled reach"),
        _Key("corollary_mode", True, _boolean),
    ), lambda v: _Files("approximate"), (*_NET_FAULTS, ((MatproxError,), "n"))),
    "converge": _Command("sweep net sizes; CSV of certified bounds", _converge, (
        _GENERATOR,
        _BETA_RULE,
        _Key("n_list", [4, 8, 16, 32], _numbers(int, lambda xs: xs and sorted(set(xs)) == xs,
             "net sizes must be strictly increasing", _MAX_DIM), "comma-separated net sizes", _as_checked),
    ), lambda v: _Files("converge", "rows"), (*_NET_FAULTS, ((MatproxError,), "n_list"))),
    "leibniz": _Command("residual suite for the product inequality", _leibniz, (
        _Key("sizes", [2, 3, 4, 5, 6, 7, 8], _numbers(int, lambda xs: xs and min(xs) >= 2,
             "sizes needs one or more entries, each at least 2", _MAX_DIM, _MAX_LIST), "comma-separated matrix sizes", _as_checked),
        _Key("ratios", [1.0, 3.0], _numbers(float, lambda xs: xs and min(xs) > 0.0,
             "ratios needs one or more entries, each positive", length=_MAX_LIST), "comma-separated beta/delta ratios", _as_checked),
        _Key("pairs", 500, _integer(1, _MAX_PAIRS), "random element pairs per suite"),
        _SEED,
        _Key("include_raw", True, _boolean),
    ), lambda v: _Files("leibniz"), ((_SCALE, "ratios"),)),
    "mk": _Command("transport distances on a space file", _mk, (
        # mk solves an LP per pair of points, so its space is capped at the desk scale.
        _Key("space", None, functools.partial(_read_space, max_points=_MAX_DIM),
             "JSON file with labels + dist or points", lambda given, _: str(given)),
        # Checked against the space by the handler.
        _Key("p", None, lambda value, field: value, _WEIGHTS),
        _Key("q", None, lambda value, field: value, _WEIGHTS),
    ), lambda v: _Files("mk")),
    "fixedpoint": _Command("subgroup gap and bridge reports on a fuzzy torus", _fixedpoint, (
        _SEED,
        _Key("count", 48, _integer(1, _MAX_SAMPLES), "random elements per sample"),
        _Key("sweep", None, _optional(_numbers(int, lambda xs: xs and min(xs) >= 2,
             "sweep needs one or more orders, each at least 2", _MAX_DIM, _MAX_LIST)),
             "comma-separated torus orders for the gap sweep", _as_checked),
        *_SINGLE_PAIR,
    ), lambda v: _Files("fixedpoint") if v["sweep"] is None else _Files("fixedpoint_sweep", "sweep_rows"),
        (((ConfigError,), "p"),)),
}


# ---------------------------------------------------------------------------
# Argument parsing, config resolution and the run.
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are validation failures, so they reach
    stderr as the JSON error object instead of argparse's usage text."""

    def error(self, message: str):
        # Unrecognized arguments, a missing or unknown subcommand, a flag
        # without its value: the command line as a whole is at fault.
        raise ValidationFailure("argv", message)


def _integer_flag(field: str) -> Callable[[str], int]:
    def parse(text: str) -> int:
        return _number(text, int, field)

    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process from :data:`COMMANDS`:
    parsing reads it and never changes it, and each call of :func:`main` gets
    a fresh namespace."""
    parser = _Parser(
        prog="matprox",
        description="matrix-algebra approximations of compact metric spaces with certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="JSON config file; flags override its keys")
        p.add_argument("--output", help="output path (default from $%s)" % OUTPUT_DIR_ENV)
        for key in command.keys:
            if isinstance(key.default, bool):
                continue
            kind = _integer_flag(key.name) if type(key.default) is int else None
            p.add_argument("--" + key.name.replace("_", "-"), type=kind, help=key.help)
    p = sub.add_parser("selftest", help="run the full acceptance suite")
    p.add_argument("--output", help="optional JSON result path")
    return parser


def _resolve_config(args: argparse.Namespace, keys: tuple[_Key, ...]) -> dict[str, Any]:
    config = {key.name: key.default for key in keys}
    if args.config is not None:
        if not args.config:
            raise ValidationFailure("config", "config path is empty")
        try:
            loaded = json.loads(_read_file(Path(args.config), "config", "config file"))
        except json.JSONDecodeError as exc:
            raise ValidationFailure("config", f"config file is not valid JSON: {exc}")
        if not isinstance(loaded, dict):
            raise ValidationFailure("config", "config file must hold a JSON object")
        unknown = set(loaded) - set(config)
        if unknown:
            raise ValidationFailure("config", f"unknown config keys {sorted(unknown)}")
        config.update(loaded)
    for name in config:
        flag = getattr(args, name, None)
        if flag is not None:
            config[name] = flag
    return config


def _run(args: argparse.Namespace) -> int:
    """Check every key of the subcommand and the output path, run its
    handler, name the key at fault for a library error it raises, and write
    the result JSON (and CSV), timed from the end of the checks."""
    command = COMMANDS[args.command]
    given = _resolve_config(args, command.keys)
    checked = {key.name: key.check(given[key.name], key.name) for key in command.keys}
    config = {key.name: key.show(given[key.name], checked[key.name]) for key in command.keys}
    files = command.files(checked)
    paths = _output_paths(args.output, files)
    start = time.perf_counter()
    try:
        results = command.run(checked, config)
    except MatproxError as exc:
        field = next((key for types, key in command.faults if isinstance(exc, types)), None)
        if field is None:
            raise
        raise ValidationFailure(field, str(exc)) from None
    payload = {
        "command": args.command,
        "resolved_config": config,
        "results": results,
        "runtime_ms": round(1000.0 * (time.perf_counter() - start), 3),
    }
    texts = [_json_text(payload)] if files.csv is None else [_json_text(payload), _csv(results[files.csv])]
    _write_outputs(paths, texts)
    print("wrote " + " and ".join(map(str, paths)))
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _selftest(args.output) if args.command == "selftest" else _run(args)
    except ValidationFailure as failure:
        return _error_exit(failure)
    except MatproxError as exc:
        return _error_exit(ValidationFailure("input", str(exc)))


if __name__ == "__main__":
    sys.exit(main())
