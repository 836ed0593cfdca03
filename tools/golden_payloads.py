"""Write the CLI payloads of a fixed list of configs, for byte comparison.

Usage: ``PYTHONPATH=<tree>/src python tools/golden_payloads.py OUT_DIR``
or ``python tools/golden_payloads.py --compare OLD_DIR NEW_DIR``

Runs every config below in-process through ``matprox.cli.main``, with OUT_DIR
as the working directory, so the input files it writes there (two point
clouds, one by points and one by distances, the space files and the config
files) appear in the payloads as relative paths.
Each payload is kept as the CLI wrote it to ``OUT_DIR/<name>.json``, byte for
byte, except that the value of its ``runtime_ms`` field reads ``null``, and
each CSV next to it.  Two trees write the same bytes exactly when their
payloads agree apart from ``runtime_ms``, so

    PYTHONPATH=old/src python tools/golden_payloads.py /tmp/old
    PYTHONPATH=new/src python tools/golden_payloads.py /tmp/new
    diff -r /tmp/old /tmp/new

prints nothing when a change keeps every output.  Exits 1 naming the first
config that does not exit 0.

Then it runs every config of ``REJECTED``, which the CLI should refuse, and
writes ``OUT_DIR/<name>.error.json``: the argv, the exit code, the error
object the CLI printed to stderr (or null), and the type of an exception
that escaped ``main`` (or null).  Their outputs go under
``OUT_DIR/rejected/``, which is not compared, so what a tree wrongly leaves
there does not count.

``--compare OLD_DIR NEW_DIR`` names what moved instead: one line per field
that differs, ``<file>: <field> <largest relative move>``, where a field is
a JSON path (or CSV column) with list indices collapsed to ``[]``, so the
rows of a sweep make one field.  A non-numeric change reads ``changed``,
and a file or an object key in one directory only reads ``only in OLD_DIR``
or ``only in NEW_DIR``, as in ``<file>: <field>.<key> only in OLD_DIR``.
A file whose values agree but whose bytes do not (a change of layout, key
order or number spelling) reads ``<file>: bytes differ``.  Exits 0 if every
file is byte-identical, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import re
import sys
from pathlib import Path

INPUTS = {
    "points.json": {"points": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.25], [0.2, 0.8]]},
    "space_dist.json": {"labels": ["a", "b", "c"], "dist": [[0, 1, 2], [1, 0, 1.5], [2, 1.5, 0]]},
    "space_points.json": {"points": [[0, 0], [1, 0], [0, 1], [1, 2]]},
    # The two spaces above, far from unit scale, where the transport LP must
    # still meet the ground metric.
    "space_points_tiny.json": {"points": [[0, 0], [1e-9, 0], [0, 1e-9], [1e-9, 2e-9]]},
    "space_dist_huge.json": {"labels": ["a", "b", "c"], "dist": [[0, 1e200, 2e200], [1e200, 0, 1.5e200],
                                                                 [2e200, 1.5e200, 0]]},
    # The shortest-path metric of the graph a-b, b-c, b-d, c-e, d-e.
    "cloud_dist.json": {"labels": ["a", "b", "c", "d", "e"],
                        "dist": [[0, 1, 2, 2, 3], [1, 0, 1, 1, 2], [2, 1, 0, 2, 1], [2, 1, 2, 0, 1], [3, 2, 1, 1, 0]]},
    "space_labels_string.json": {"labels": "abc", "dist": [[0, 1, 2], [1, 0, 1.5], [2, 1.5, 0]]},
    "cloud_labels_numbers.json": {"labels": [1, 2, 3], "points": [[0, 0], [1, 0], [0, 1]]},
    # 1001 points on a line, one more than a cloud: file may hold.
    "cloud_over_cap.json": {"points": [[i, 0] for i in range(1001)]},
}
# Written as bytes: a space file that is not UTF-8.
NOT_UTF8 = "space_not_utf8.json"
# Written as text: JSON nested too deeply for Python's parser to read.
TOO_DEEP = "too_deep.json"

# (name, argv, config file contents or None).  Each subcommand runs with its
# defaults, with non-default values by flag and by config file, and with its
# input files.  approximate also runs a reach descent on a 32-point circle
# net, the size of the benchmark's reach jobs, and one on a 36-point torus net
# whose descent skips 30 stale sections (no section accepted since they last
# ran).  fixedpoint also runs a sweep each way, a pair of large subgroups so
# that haus_ell is compared over many elements, and a q = 64 sample of 96
# draws and 96 images, more elements than one normalization block of
# ``metric_core.BLOCK_BYTES`` holds at that order, and one pair both ways
# (fixedpoint_hk and fixedpoint_kh), whose directions swap bit for bit.
# The leibniz ratios of leibniz_screen_mix put seminorms on both sides of the
# Lipschitz screen in ``l_seminorms``.
CONFIGS = [
    ("approximate_defaults", ["approximate"], None),
    ("approximate_flags", ["approximate", "--generator", "interval(1.5)", "--n", "6",
                           "--beta-rule", "fixed(0.05)", "--reach-samples", "2", "--seed", "3"], None),
    ("approximate_config", ["approximate"], {"generator": "torus(6.28, 6.28)", "n": 9,
                                             "beta_rule": "fraction_of_delta(0.5)",
                                             "corollary_mode": False, "reach_samples": 2, "seed": 1}),
    ("approximate_cloud", ["approximate", "--generator", "cloud:points.json", "--n", "5",
                           "--reach-samples", "2"], None),
    ("approximate_circle_n32", ["approximate", "--n", "32", "--reach-samples", "1"], None),
    ("approximate_torus_n36_stale", ["approximate", "--generator", "torus(1,1)", "--n", "36",
                                     "--reach-samples", "1", "--seed", "1610351860"], None),
    ("converge_defaults", ["converge"], None),
    ("converge_flags", ["converge", "--generator", "interval(2)", "--n-list", "3,5,9",
                        "--beta-rule", "fixed(0.01)"], None),
    ("converge_config", ["converge", "--n-list", "4,16"], {"generator": "torus(1,1)", "n_list": [4, 9]}),
    ("converge_cloud", ["converge", "--generator", "cloud:points.json", "--n-list", "2,4,6"], None),
    ("approximate_cloud_dist", ["approximate", "--generator", "cloud:cloud_dist.json", "--n", "4",
                                "--reach-samples", "2"], None),
    ("converge_cloud_dist", ["converge", "--generator", "cloud:cloud_dist.json", "--n-list", "2,3,5"], None),
    ("leibniz_defaults", ["leibniz"], None),
    ("leibniz_flags", ["leibniz", "--sizes", "2,5", "--ratios", "0.5,2", "--pairs", "30", "--seed", "4"], None),
    ("leibniz_config", ["leibniz"], {"sizes": [3, 4], "ratios": "1.0", "pairs": 10, "include_raw": False}),
    ("leibniz_screen_mix", ["leibniz", "--sizes", "2,4,8", "--ratios", "0.01,10,1000", "--pairs", "40",
                            "--seed", "6"], None),
    ("mk_dist", ["mk", "--space", "space_dist.json"], None),
    ("mk_flags", ["mk", "--space", "space_dist.json", "--p", "[0.5, 0.5, 0]", "--q", "[0, 0.25, 0.75]"], None),
    ("mk_config", ["mk"], {"space": "space_points.json", "p": [0.25, 0.25, 0.25, 0.25],
                           "q": [1, 0, 0, 0]}),
    ("mk_points_tiny", ["mk", "--space", "space_points_tiny.json", "--p", "[0.25, 0.25, 0.25, 0.25]",
                        "--q", "[1, 0, 0, 0]"], None),
    ("mk_dist_huge", ["mk", "--space", "space_dist_huge.json", "--p", "[0.5, 0.5, 0]",
                      "--q", "[0, 0.25, 0.75]"], None),
    ("fixedpoint_defaults", ["fixedpoint"], None),
    ("fixedpoint_flags", ["fixedpoint", "--q", "6", "--p", "5", "--h-generators", "[[3, 0]]",
                          "--k-generators", "[[1, 0]]", "--count", "8", "--seed", "2"], None),
    ("fixedpoint_config", ["fixedpoint"], {"q": 8, "p": 3, "h_generators": [], "count": 6}),
    ("fixedpoint_sweep_flags", ["fixedpoint", "--sweep", "4,6", "--count", "6"], None),
    ("fixedpoint_sweep_config", ["fixedpoint", "--seed", "1"], {"sweep": [6, 12], "count": 4}),
    ("fixedpoint_trivial_h_q32", ["fixedpoint", "--q", "32", "--h-generators", "[]"], None),
    ("fixedpoint_sweep_12_24", ["fixedpoint", "--sweep", "12,24"], None),
    ("fixedpoint_large_pair_q32", ["fixedpoint", "--q", "32", "--h-generators", "[[1,0],[0,1]]",
                                   "--k-generators", "[[2,0],[0,1]]"], None),
    ("fixedpoint_trivial_h_q64", ["fixedpoint", "--q", "64", "--h-generators", "[]", "--count", "96"], None),
    ("fixedpoint_hk", ["fixedpoint", "--q", "6", "--h-generators", "[[0, 3]]",
                       "--k-generators", "[[3, 0], [2, 2]]", "--count", "8"], None),
    ("fixedpoint_kh", ["fixedpoint", "--q", "6", "--h-generators", "[[3, 0], [2, 2]]",
                       "--k-generators", "[[0, 3]]", "--count", "8"], None),
]

# Configs the CLI should refuse, as (name, argv, config file contents or
# None, the field its error must name), each run with
# ``--output rejected/<name>.json`` unless its argv names an output of its
# own.  ``rejected/`` is a directory and ``rejected/csv_onto_dir.csv`` is one
# too, so the output configs write onto a directory, into a regular file's
# "directory", a CSV onto a directory, and a CSV over its own JSON.
REJECTED = [
    ("rejected_n_65", ["approximate", "--n", "65"], None, "n"),
    ("rejected_h_generators_object", ["fixedpoint", "--h-generators", "{}"], None, "h_generators"),
    ("rejected_n_list_strings", ["converge"], {"n_list": ["4", "8"]}, "n_list"),
    ("rejected_n_arabic_digits", ["approximate", "--n", "\u0661\u0666"], None, "n"),
    ("rejected_ratios_underscore", ["leibniz", "--ratios", "1_0", "--pairs", "2"], None, "ratios"),
    ("rejected_output_onto_dir", ["fixedpoint", "--q", "4", "--count", "2", "--output", "rejected"], None,
     "output"),
    ("rejected_output_under_file", ["fixedpoint", "--q", "4", "--count", "2", "--output", "points.json/x.json"],
     None, "output"),
    ("rejected_csv_onto_dir", ["converge", "--n-list", "4,8", "--output", "rejected/csv_onto_dir.json"], None,
     "output"),
    ("rejected_output_csv", ["converge", "--n-list", "4,8", "--output", "rejected/r.csv"], None, "output"),
    ("rejected_space_not_utf8", ["mk", "--space", NOT_UTF8], None, "space"),
    ("rejected_labels_string", ["mk", "--space", "space_labels_string.json"], None, "space"),
    ("rejected_labels_numbers", ["approximate", "--generator", "cloud:cloud_labels_numbers.json", "--n", "2"],
     None, "generator"),
    # An empty path names no file, so it is refused rather than read as absent.
    ("rejected_output_empty", ["approximate", "--n", "4", "--output", ""], None, "output"),
    ("rejected_config_empty", ["approximate", "--n", "4", "--config", ""], None, "config"),
    ("rejected_selftest_output_empty", ["selftest", "--output", ""], None, "output"),
    # One point over the cloud cap, refused before any n x n array is built.
    ("rejected_cloud_over_cap", ["approximate", "--generator", "cloud:cloud_over_cap.json", "--n", "3"], None,
     "generator"),
    # One entry over the list cap of 8, refused before any suite or order runs.
    ("rejected_sizes_over_cap", ["leibniz", "--sizes", ",".join(["2"] * 9), "--pairs", "2"], None, "sizes"),
    ("rejected_ratios_over_cap", ["leibniz", "--ratios", ",".join(["1"] * 9), "--pairs", "2"], None, "ratios"),
    ("rejected_sweep_over_cap", ["fixedpoint", "--sweep", ",".join(["4"] * 9), "--count", "2"], None, "sweep"),
    ("rejected_h_generators_over_cap", ["fixedpoint", "--count", "2", "--h-generators", json.dumps([[1, 0]] * 9)],
     None, "h_generators"),
    ("rejected_k_generators_over_cap", ["fixedpoint", "--count", "2", "--k-generators", json.dumps([[0, 1]] * 9)],
     None, "k_generators"),
    # A spec takes exactly its numbers, and a list none that is empty; each
    # of these ran as the spec or list without the extra or empty entry.
    ("rejected_generator_extra_number", ["approximate", "--generator", "interval(1,5)", "--n", "4"], None,
     "generator"),
    ("rejected_generator_empty_number", ["approximate", "--generator", "torus(1,,1)", "--n", "4"], None,
     "generator"),
    ("rejected_n_list_empty_entry", ["converge", "--n-list", "4,,8"], None, "n_list"),
    ("rejected_sizes_empty_entry", ["leibniz", "--sizes", "2,3,", "--pairs", "2"], None, "sizes"),
    # A null generator list ran as the trivial subgroup.
    ("rejected_h_generators_null", ["fixedpoint", "--count", "2"], {"h_generators": None}, "h_generators"),
    # JSON too deep to parse escaped main as a RecursionError.
    ("rejected_space_too_deep", ["mk", "--space", TOO_DEEP], None, "space"),
    ("rejected_config_too_deep", ["approximate", "--config", TOO_DEEP], None, "config"),
]


def _with_config(name: str, argv: list[str], config: dict | None) -> list[str]:
    if config is None:
        return argv
    Path(f"{name}.config.json").write_text(json.dumps(config), encoding="utf-8")
    return argv + ["--config", f"{name}.config.json"]


def write_inputs() -> None:
    """The input files and directories of every config, in the working
    directory."""
    for name, payload in INPUTS.items():
        Path(name).write_text(json.dumps(payload), encoding="utf-8")
    Path(NOT_UTF8).write_bytes(b"\xff" + json.dumps(INPUTS["space_dist.json"]).encode())
    Path(TOO_DEEP).write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    Path("rejected/csv_onto_dir.csv").mkdir(parents=True, exist_ok=True)


def rejection(main, argv: list[str]) -> dict:
    """What ``main(argv)`` did: its exit code and the error object on its
    stderr's last line, or the type of the exception that escaped it."""
    err = io.StringIO()
    record = {"argv": argv, "exit_code": None, "error": None, "exception": None}
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            record["exit_code"] = main(argv)
        except Exception as exc:  # noqa: BLE001 -- an escape is what is recorded
            record["exception"] = type(exc).__name__
    lines = err.getvalue().splitlines()
    if lines:
        with contextlib.suppress(ValueError, AttributeError):  # not a JSON object
            record["error"] = json.loads(lines[-1]).get("error")
    return record


def write_rejections(main) -> None:
    """Run every config of ``REJECTED`` in the working directory and write
    its ``<name>.error.json``."""
    for name, argv, config, _ in REJECTED:
        argv = _with_config(name, argv, config)
        if "--output" not in argv:
            argv = argv + ["--output", f"rejected/{name}.json"]
        record = rejection(main, argv)
        Path(f"{name}.error.json").write_text(json.dumps(record, sort_keys=True, indent=2) + "\n",
                                              encoding="utf-8")


RUNTIME = re.compile(rb'^  "runtime_ms": [^,\n]*', re.MULTILINE)


def mask_runtime(text: bytes) -> bytes:
    """A payload's bytes as the CLI wrote them, with only the value of its
    top-level ``runtime_ms`` replaced by ``null``."""
    masked, count = RUNTIME.subn(b'  "runtime_ms": null', text)
    if count != 1:
        raise ValueError(f"expected one top-level runtime_ms line, found {count}")
    return masked


def run(out_dir: Path) -> int:
    from matprox.cli import main

    out_dir.mkdir(parents=True, exist_ok=True)
    os.chdir(out_dir)
    write_inputs()
    for name, argv, config in CONFIGS:
        argv = _with_config(name, argv, config)
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv + ["--output", f"{name}.json"])
        if code != 0:
            print(f"{name}: {' '.join(argv)} exited {code}", file=sys.stderr)
            return 1
        out = Path(f"{name}.json")
        out.write_bytes(mask_runtime(out.read_bytes()))
    write_rejections(main)
    return 0


def _load(path: Path):
    """A payload as JSON, or a CSV as a list of rows with numeric cells parsed."""
    text = path.read_text(encoding="utf-8")
    if path.suffix != ".csv":
        return json.loads(text)

    def cell(value: str):
        for kind in (int, float):
            try:
                return kind(value)
            except ValueError:
                pass
        return value

    return [{key: cell(value) for key, value in row.items()} for row in csv.DictReader(io.StringIO(text))]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _moves(old, new, field: str, out: dict[str, float], sides: dict[str, bool]) -> None:
    """Record in ``out`` the largest relative move of each field that differs,
    where a non-numeric change or a change of shape counts as infinite, and
    in ``sides`` each object key found on one side only, True if on the old."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in [*old, *(k for k in new if k not in old)]:
            path = f"{field}.{key}" if field else key
            if key in old and key in new:
                _moves(old[key], new[key], path, out, sides)
            else:
                sides[path] = key in old
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for a, b in zip(old, new):
            _moves(a, b, field + "[]", out, sides)
    elif _is_number(old) and _is_number(new):
        if old != new:
            move = abs(new - old) / max(abs(old), abs(new))
            out[field] = max(out.get(field, 0.0), move)
    elif old != new:
        out[field] = math.inf


def compare(old_dir: Path, new_dir: Path) -> int:
    names = sorted({p.name for d in (old_dir, new_dir) for p in d.glob("*") if p.suffix in (".json", ".csv")})
    differs = False
    for name in names:
        old, new = old_dir / name, new_dir / name
        if not (old.exists() and new.exists()):
            print(f"{name}: only in {old_dir if old.exists() else new_dir}")
            differs = True
            continue
        if old.read_bytes() == new.read_bytes():
            continue
        differs = True
        moved: dict[str, float] = {}
        sides: dict[str, bool] = {}
        _moves(_load(old), _load(new), "", moved, sides)
        for field, move in moved.items():
            print(f"{name}: {field or '(file)'} {'changed' if math.isinf(move) else f'{move:.3e}'}")
        for field, in_old in sides.items():
            print(f"{name}: {field} only in {old_dir if in_old else new_dir}")
        if not (moved or sides):
            print(f"{name}: bytes differ")
    return 1 if differs else 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        sys.exit(compare(Path(sys.argv[2]), Path(sys.argv[3])))
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(run(Path(sys.argv[1])))
