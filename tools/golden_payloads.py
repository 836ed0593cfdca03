"""Write the CLI payloads of a fixed list of configs, for byte comparison.

Usage: ``PYTHONPATH=<tree>/src python tools/golden_payloads.py OUT_DIR``
or ``python tools/golden_payloads.py --compare OLD_DIR NEW_DIR``

Runs every config below in-process through ``matprox.cli.main``, with OUT_DIR
as the working directory, so the input files it writes there (a point cloud,
two space files, the config files) appear in the payloads as relative paths.
Each payload is written to ``OUT_DIR/<name>.json`` without its ``runtime_ms``
field, and each CSV next to it.  Two trees write the same bytes exactly when
their payloads agree apart from ``runtime_ms``, so

    PYTHONPATH=old/src python tools/golden_payloads.py /tmp/old
    PYTHONPATH=new/src python tools/golden_payloads.py /tmp/new
    diff -r /tmp/old /tmp/new

prints nothing when a change keeps every output.  Exits 1 naming the first
config that does not exit 0.

``--compare OLD_DIR NEW_DIR`` names what moved instead: one line per field
that differs, ``<file>: <field> <largest relative move>``, where a field is
a JSON path (or CSV column) with list indices collapsed to ``[]``, so the
rows of a sweep make one field.  A non-numeric change reads ``changed``,
and a file or an object key in one directory only reads ``only in OLD_DIR``
or ``only in NEW_DIR``, as in ``<file>: <field>.<key> only in OLD_DIR``.
Exits 0 if nothing differs, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import sys
from pathlib import Path

INPUTS = {
    "points.json": {"points": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.25], [0.2, 0.8]]},
    "space_dist.json": {"labels": ["a", "b", "c"], "dist": [[0, 1, 2], [1, 0, 1.5], [2, 1.5, 0]]},
    "space_points.json": {"points": [[0, 0], [1, 0], [0, 1], [1, 2]]},
}

# (name, argv, config file contents or None).  Each subcommand runs with its
# defaults, with non-default values by flag and by config file, and with its
# input files.  approximate also runs a reach descent on a 32-point circle
# net, the size of the benchmark's reach jobs, and one on a 36-point torus net
# whose descent skips 30 stale sections (no section accepted since they last
# ran).  fixedpoint also runs a sweep each way, a pair of large subgroups so
# that haus_ell is compared over many elements, and a q = 64 sample of 96
# draws and 96 images, more elements than one normalization block of
# ``metric_core.BLOCK_BYTES`` holds at that order.
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
    ("leibniz_defaults", ["leibniz"], None),
    ("leibniz_flags", ["leibniz", "--sizes", "2,5", "--ratios", "0.5,2", "--pairs", "30", "--seed", "4"], None),
    ("leibniz_config", ["leibniz"], {"sizes": [3, 4], "ratios": "1.0", "pairs": 10, "include_raw": False}),
    ("leibniz_screen_mix", ["leibniz", "--sizes", "2,4,8", "--ratios", "0.01,10,1000", "--pairs", "40",
                            "--seed", "6"], None),
    ("mk_dist", ["mk", "--space", "space_dist.json"], None),
    ("mk_flags", ["mk", "--space", "space_dist.json", "--p", "[0.5, 0.5, 0]", "--q", "[0, 0.25, 0.75]"], None),
    ("mk_config", ["mk"], {"space": "space_points.json", "p": [0.25, 0.25, 0.25, 0.25],
                           "q": [1, 0, 0, 0]}),
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
]


def run(out_dir: Path) -> int:
    from matprox.cli import main

    out_dir.mkdir(parents=True, exist_ok=True)
    os.chdir(out_dir)
    for name, payload in INPUTS.items():
        Path(name).write_text(json.dumps(payload), encoding="utf-8")
    for name, argv, config in CONFIGS:
        if config is not None:
            Path(f"{name}.config.json").write_text(json.dumps(config), encoding="utf-8")
            argv = argv + ["--config", f"{name}.config.json"]
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv + ["--output", f"{name}.json"])
        if code != 0:
            print(f"{name}: {' '.join(argv)} exited {code}", file=sys.stderr)
            return 1
        out = Path(f"{name}.json")
        payload = json.loads(out.read_text(encoding="utf-8"))
        del payload["runtime_ms"]
        out.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")
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
        moved: dict[str, float] = {}
        sides: dict[str, bool] = {}
        _moves(_load(old), _load(new), "", moved, sides)
        for field, move in moved.items():
            print(f"{name}: {field or '(file)'} {'changed' if math.isinf(move) else f'{move:.3e}'}")
        for field, in_old in sides.items():
            print(f"{name}: {field} only in {old_dir if in_old else new_dir}")
        differs = differs or bool(moved) or bool(sides)
    return 1 if differs else 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        sys.exit(compare(Path(sys.argv[2]), Path(sys.argv[3])))
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(run(Path(sys.argv[1])))
