import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matprox import acceptance, cli, fixed_point, lseminorm, matrix_algebra, metric_core
from matprox.cli import build_parser, main, parse_beta_rule, parse_generator
from matprox.cli import ValidationFailure
from matprox.errors import (
    ConfigError,
    CorollaryModeViolation,
    InputShapeError,
    ScaleOverflowError,
    ScaleUnderflowError,
)
from matprox.matrix_algebra import operator_norms
from matprox.metric_core import Circle, FlatTorus, Interval


# Every config key of every subcommand; the boolean ones have no flag.
KEYS = {
    "approximate": ["generator", "n", "beta_rule", "seed", "reach_samples", "corollary_mode"],
    "converge": ["generator", "beta_rule", "n_list"],
    "leibniz": ["sizes", "ratios", "pairs", "seed", "include_raw"],
    "mk": ["space", "p", "q"],
    "fixedpoint": ["seed", "count", "sweep", "q", "p", "h_generators", "k_generators"],
}
BOOLEAN_KEYS = {"corollary_mode", "include_raw"}


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def strip_runtime(payload: dict) -> dict:
    clean = dict(payload)
    clean.pop("runtime_ms", None)
    return clean


# ---------------------------------------------------------------------------
# Spec string parsing.
# ---------------------------------------------------------------------------


def test_generator_parsing():
    circle = parse_generator("circle(2pi)")
    assert isinstance(circle, Circle)
    assert circle.circumference == pytest.approx(2 * np.pi)
    assert isinstance(parse_generator("interval(1.5)"), Interval)
    torus = parse_generator("torus(6.28, 3.14)")
    assert isinstance(torus, FlatTorus) and len(torus.circumferences) == 2
    with pytest.raises(ValidationFailure):
        parse_generator("sphere(1)")
    with pytest.raises(ValidationFailure):
        parse_generator("circle(-1)")


def test_beta_rule_parsing():
    assert parse_beta_rule("delta_over_n")(1.0, 4) == 0.25
    assert parse_beta_rule("fixed(0.125)")(99.0, 4) == 0.125
    assert parse_beta_rule("fraction_of_delta(0.5)")(2.0, 7) == 1.0
    with pytest.raises(ValidationFailure):
        parse_beta_rule("delta_squared")


# ---------------------------------------------------------------------------
# approximate / converge.
# ---------------------------------------------------------------------------


def test_approximate_writes_expected_fields(tmp_path):
    out = tmp_path / "approx.json"
    code = main(
        [
            "approximate",
            "--generator",
            "circle(2pi)",
            "--n",
            "8",
            "--beta-rule",
            "delta_over_n",
            "--seed",
            "3",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    payload = read_json(out)
    results = payload["results"]
    assert results["n"] == 8
    assert results["certified_bound"] == pytest.approx(np.pi / 8 + 2 * np.pi / 64)
    assert results["D_constant"] == 2.0
    assert results["sampled_lower"] <= results["beta"] + 1e-9
    assert results["sampled_lower_certified"] is False
    assert payload["resolved_config"]["seed"] == 3


def _bytes_without_runtime(path) -> bytes:
    lines = path.read_text(encoding="utf-8").splitlines()
    return "\n".join(l for l in lines if '"runtime_ms"' not in l).encode()


def test_converge_outputs_are_deterministic(tmp_path):
    args = [
        "converge",
        "--generator",
        "circle(2pi)",
        "--n-list",
        "4,8,16,32",
        "--beta-rule",
        "delta_over_n",
    ]
    out1 = tmp_path / "run1.json"
    out2 = tmp_path / "run2.json"
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    # Byte-identical apart from the runtime_ms line.
    assert _bytes_without_runtime(out1) == _bytes_without_runtime(out2)
    csv1 = out1.with_suffix(".csv").read_bytes()
    csv2 = out2.with_suffix(".csv").read_bytes()
    assert csv1 == csv2
    rows = read_json(out1)["results"]["rows"]
    bounds = [r["certified_bound"] for r in rows]
    assert bounds == sorted(bounds, reverse=True)
    assert read_json(out1)["results"]["strictly_decreasing"] is True


def test_default_output_directory_comes_from_env(tmp_path, monkeypatch):
    target = tmp_path / "artifacts"
    monkeypatch.setenv("MATPROX_OUTPUT_DIR", str(target))
    code = main(["approximate", "--generator", "circle(2pi)", "--n", "4"])
    assert code == 0
    assert (target / "approximate.json").exists()


def test_converge_rejects_non_increasing_sizes(tmp_path, capsys):
    out = tmp_path / "bad.json"
    code = main(
        ["converge", "--n-list", "8,4", "--output", str(out)]
    )
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["field"] == "n_list"
    assert not out.exists()  # no partial results on validation failure


def test_invalid_beta_rule_names_the_field(tmp_path, capsys):
    out = tmp_path / "bad.json"
    code = main(
        ["approximate", "--beta-rule", "fixed(-2)", "--output", str(out)]
    )
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["field"] == "beta_rule"
    assert not out.exists()


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"generator": "circle(2pi)", "n": 4, "beta_rule": "delta_over_n"}),
        encoding="utf-8",
    )
    out = tmp_path / "approx.json"
    code = main(
        ["approximate", "--config", str(config), "--n", "16", "--output", str(out)]
    )
    assert code == 0
    payload = read_json(out)
    assert payload["resolved_config"]["n"] == 16  # flag wins over the file


def test_unknown_config_key_rejected(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"surprise": 1}), encoding="utf-8")
    assert main(["approximate", "--config", str(config)]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["field"] == "config"


def _config_file(tmp_path, payload: dict):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _rejected_field(argv, out, capsys) -> str:
    assert main(argv + ["--output", str(out)]) == 2
    assert not out.exists()
    return json.loads(capsys.readouterr().err.strip())["error"]["field"]


def test_config_seed_must_be_an_integer(tmp_path, capsys):
    argv = ["approximate", "--config", _config_file(tmp_path, {"seed": "abc"})]
    assert _rejected_field(argv, tmp_path / "out.json", capsys) == "seed"


def test_config_n_is_not_truncated(tmp_path, capsys):
    argv = ["approximate", "--config", _config_file(tmp_path, {"n": 2.7})]
    assert _rejected_field(argv, tmp_path / "out.json", capsys) == "n"


def test_config_corollary_mode_must_be_a_json_boolean(tmp_path, capsys):
    argv = ["approximate", "--config", _config_file(tmp_path, {"corollary_mode": "false"})]
    assert _rejected_field(argv, tmp_path / "out.json", capsys) == "corollary_mode"


def test_config_include_raw_must_be_a_json_boolean(tmp_path, capsys):
    argv = ["leibniz", "--config", _config_file(tmp_path, {"include_raw": 0})]
    assert _rejected_field(argv, tmp_path / "out.json", capsys) == "include_raw"


def test_non_finite_generator_size_names_the_generator(tmp_path, capsys):
    with pytest.raises(ValidationFailure):
        parse_generator("circle(nan)")
    argv = ["approximate", "--generator", "circle(nan)"]
    assert _rejected_field(argv, tmp_path / "out.json", capsys) == "generator"


@pytest.mark.parametrize("command", ["approximate", "converge"])
def test_subnormal_net_spacing_names_the_generator(tmp_path, capsys, command):
    # circle(1e-320) ran to exit 0 with delta 1.25e-321 and overflowing
    # Lipschitz quotients; a beta that underflows is the generator's fault too.
    for spec in ("circle(1e-320)", "circle(1e-306)"):
        argv = [command, "--generator", spec]
        assert _rejected_field(argv, tmp_path / "out.json", capsys) == "generator"
    argv = [command, "--beta-rule", "fixed(1e-320)"]
    assert _rejected_field(argv, tmp_path / "out.json", capsys) == "beta_rule"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("spec", ["circle(1e150)", "circle(1e308)"])
def test_overflowing_net_names_the_generator(tmp_path, capsys, spec):
    # Both ran to exit 0 after overflow warnings in the reach descent.
    argv = ["approximate", "--generator", spec]
    assert _rejected_field(argv, tmp_path / "out.json", capsys) == "generator"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_large_net_below_the_overflow_range_still_runs(tmp_path):
    out = tmp_path / "out.json"
    assert main(["approximate", "--generator", "circle(1e100)", "--output", str(out)]) == 0
    assert read_json(out)["results"]["sampled_lower"] > 0.0


@pytest.mark.parametrize(
    "argv,field",
    [
        (["approximate", "--n", "abc"], "n"),
        (["fixedpoint", "--q", "abc"], "q"),
        (["approximate", "--reach-samples", "1.5"], "reach_samples"),
        (["approximate", "--bogus", "1"], "argv"),
        (["nosuch"], "argv"),
    ],
)
def test_argument_errors_are_json_errors(tmp_path, capsys, argv, field):
    assert _rejected_field(argv, tmp_path / "out.json", capsys) == field


def test_missing_subcommand_is_a_json_error(capsys):
    assert main([]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.err.strip())["error"]["field"] == "argv"
    assert captured.out == ""


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["approximate", "--help"])
    assert exc.value.code == 0
    assert "--reach-samples" in capsys.readouterr().out


@pytest.mark.parametrize("command", sorted(KEYS))
def test_help_lists_every_flag(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for key in KEYS[command]:
        flag = "--" + key.replace("_", "-")
        assert (flag in text) == (key not in BOOLEAN_KEYS), flag
    assert "--config" in text and "--output" in text


@pytest.mark.parametrize(
    "argv,field",
    [
        (["approximate", "--n", "{}"], "n"),
        (["converge", "--n-list", "4,{}"], "n_list"),
        (["leibniz", "--pairs", "2", "--sizes", "2,{}"], "sizes"),
        (["fixedpoint", "--q", "{}"], "q"),
        (["fixedpoint", "--sweep", "4,{}"], "sweep"),
    ],
)
@pytest.mark.parametrize("size", [65, 100000])
def test_matrix_dimensions_are_capped_at_64(tmp_path, capsys, argv, field, size):
    # 100000 ended in a MemoryError traceback (a 149 GiB array for fixedpoint).
    argv = argv[:-1] + [argv[-1].format(size)]
    out = tmp_path / "out.json"
    assert _rejected_field(argv, out, capsys) == field
    assert not out.with_suffix(".csv").exists()


@pytest.mark.parametrize(
    "argv,field,cap",
    [
        (["approximate", "--n", "2", "--reach-samples", "{}"], "reach_samples", 256),
        (["leibniz", "--sizes", "2", "--pairs", "{}"], "pairs", 1000),
        (["fixedpoint", "--q", "4", "--count", "{}"], "count", 256),
        (["fixedpoint", "--sweep", "4", "--count", "{}"], "count", 256),
    ],
)
@pytest.mark.parametrize("excess", [1, 10**9])
def test_sample_counts_are_capped(tmp_path, capsys, argv, field, cap, excess):
    # leibniz --pairs 1000000000 ended in a MemoryError traceback with exit 1.
    argv = argv[:-1] + [argv[-1].format(cap + excess)]
    out = tmp_path / "out.json"
    assert _rejected_field(argv, out, capsys) == field
    assert not out.with_suffix(".csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["approximate", "--n", "2", "--reach-samples", "256"],
        ["leibniz", "--sizes", "2", "--ratios", "1", "--pairs", "1000"],
        ["fixedpoint", "--q", "4", "--count", "256"],
    ],
)
def test_sample_count_caps_are_allowed(tmp_path, argv):
    assert main(argv + ["--output", str(tmp_path / "out.json")]) == 0


_LISTS = [
    (["leibniz", "--pairs", "1", "--sizes"], "2", "sizes"),
    (["leibniz", "--pairs", "1", "--ratios"], "1", "ratios"),
    (["fixedpoint", "--count", "1", "--sweep"], "2", "sweep"),
    (["fixedpoint", "--count", "1", "--h-generators"], "[1, 0]", "h_generators"),
    (["fixedpoint", "--count", "1", "--k-generators"], "[0, 1]", "k_generators"),
]


def _list_argv(argv, entry, count):
    entries = ",".join([entry] * count)
    return argv + [f"[{entries}]" if entry.startswith("[") else entries]


@pytest.mark.parametrize("argv,entry,field", _LISTS)
@pytest.mark.parametrize("count", [9, 200000])
def test_list_keys_are_capped_at_8_entries(tmp_path, capsys, argv, entry, field, count):
    # 20,000 ratios ran for 92 s at 4.0 GiB; 200,000 generators echoed 16 MB.
    out = tmp_path / "out.json"
    assert main(_list_argv(argv, entry, count) + ["--output", str(out)]) == 2
    assert not out.exists()
    error = json.loads(capsys.readouterr().err.strip())["error"]
    assert error == {"field": field, "message": f"{field} takes at most 8 entries, got {count}"}


@pytest.mark.parametrize("argv,entry,field", _LISTS)
def test_list_caps_are_allowed_with_repeats(tmp_path, argv, entry, field):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(_list_argv(argv, entry, 8) + ["--output", str(tmp_path / "out.json")]) == 0


def test_dimension_64_is_allowed(tmp_path):
    out = tmp_path / "out.json"
    assert main(["converge", "--n-list", "32,64", "--output", str(out)]) == 0
    assert [r["n"] for r in read_json(out)["results"]["rows"]] == [32, 64]


@pytest.mark.parametrize(
    "extra,field",
    [
        (["--q", "1"], "q"),
        (["--q", "65"], "q"),
        (["--p", "2"], "p"),
        (["--h-generators", "x"], "h_generators"),
        (["--k-generators", "[[1]]"], "k_generators"),
        # Valid values the sweep would ignore: it runs at twist 1 on its own
        # chains, and once echoed p = 5 while computing at p = 1.
        (["--q", "13"], "q"),
        (["--p", "5"], "p"),
        (["--h-generators", "[[7,7]]"], "h_generators"),
        (["--k-generators", "[[1,0]]"], "k_generators"),
        (["--p", "5", "--h-generators", "[]"], "p"),
        (["--h-generators", "{}"], "h_generators"),
    ],
)
def test_sweep_runs_check_every_key(tmp_path, capsys, extra, field):
    # A sweep ignored q, p and the generators, and ran with any of them.
    out = tmp_path / "sweep.json"
    argv = ["fixedpoint", "--sweep", "4,6", "--count", "2"] + extra
    assert _rejected_field(argv, out, capsys) == field
    assert not out.with_suffix(".csv").exists()


def test_sweep_accepts_the_single_pair_defaults_written_out(tmp_path):
    argv = ["fixedpoint", "--sweep", "4", "--count", "2"]
    defaults = ["--q", "12", "--p", "1", "--h-generators", "[[1,0]]", "--k-generators", "[[1,0],[0,1]]"]
    plain, spelled = tmp_path / "plain.json", tmp_path / "spelled.json"
    assert main(argv + ["--output", str(plain)]) == 0
    assert main(argv + defaults + ["--output", str(spelled)]) == 0
    assert read_json(plain)["results"] == read_json(spelled)["results"]


def test_cloud_generator_runs_on_a_points_file(tmp_path):
    points = tmp_path / "points.json"
    points.write_text(json.dumps({"points": [[0, 0], [1, 0], [0, 2], [3, 3]]}), encoding="utf-8")
    out = tmp_path / "out.json"
    argv = ["approximate", "--generator", f"cloud:{points}", "--n", "3", "--reach-samples", "1"]
    assert main(argv + ["--output", str(out)]) == 0
    assert read_json(out)["results"]["n"] == 3


@pytest.mark.parametrize("command", ["approximate", "converge"])
@pytest.mark.parametrize("size", [1000, 1001])
def test_cloud_files_are_capped_at_1000_points(tmp_path, capsys, monkeypatch, command, size):
    # A 6,000-point file ran out of memory in the n x n distance temporaries
    # and ended in a traceback; the cap is checked before any is built.
    def reached(payload):
        raise ConfigError("reached the space builder")

    monkeypatch.setattr("matprox.cli.space_from_dict", reached)
    points = tmp_path / "points.json"
    points.write_text(json.dumps({"points": [[i, 0] for i in range(size)]}), encoding="utf-8")
    out = tmp_path / "out.json"
    assert main([command, "--generator", f"cloud:{points}", "--output", str(out)]) == 2
    error = json.loads(capsys.readouterr().err.strip())["error"]
    assert not out.exists()
    built = "reached the space builder" if size == 1000 else "space has 1001 points, at most 1000 are allowed"
    assert (error["field"], error["message"]) == ("generator", built)


@pytest.mark.parametrize("command", ["approximate", "converge"])
def test_a_cloud_is_validated_once(tmp_path, monkeypatch, command):
    # The parsed cloud file is the space its nets are taken from: the O(N^3)
    # metric check runs once on the full cloud, not once more per net.
    cloud = np.random.default_rng(3).normal(size=(40, 2))
    points = tmp_path / "points.json"
    points.write_text(json.dumps({"points": cloud.tolist()}), encoding="utf-8")
    sizes = []
    post_init = metric_core.FiniteMetricSpace.__post_init__

    def recording(self):
        sizes.append(len(self.labels))
        post_init(self)

    monkeypatch.setattr(metric_core.FiniteMetricSpace, "__post_init__", recording)
    argv = {
        "approximate": ["approximate", "--n", "8", "--reach-samples", "1"],
        "converge": ["converge", "--n-list", "4,8,16,32"],
    }[command]
    argv += ["--generator", f"cloud:{points}", "--output", str(tmp_path / "out.json")]
    assert main(argv) == 0
    assert sizes.count(40) == 1


def test_a_dist_cloud_file_runs_as_its_points_twin(tmp_path):
    # A cloud file takes dist as well as points, like a --space file; the
    # distances of the points file, written out, give the same results.
    points = np.random.default_rng(5).normal(size=(7, 2))
    twins = {"points": {"points": points.tolist()},
             "dist": {"dist": metric_core.FiniteMetricSpace.from_points(points).dist.tolist()}}
    results = {}
    for form, payload in twins.items():
        path = tmp_path / f"{form}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        for argv in (["approximate", "--n", "5", "--reach-samples", "2"], ["converge", "--n-list", "2,4,7"]):
            out = tmp_path / f"{form}-{argv[0]}.json"
            assert main(argv + ["--generator", f"cloud:{path}", "--output", str(out)]) == 0
            payload = read_json(out)["results"]
            payload.pop("generator", None)
            results[form, argv[0]] = payload
            if argv[0] == "converge":
                results[form, "csv"] = out.with_suffix(".csv").read_text(encoding="utf-8")
    for key in ("approximate", "converge", "csv"):
        assert results["points", key] == results["dist", key]


_THREE_POINTS = [[0, 0], [1, 0], [0, 2]]


@pytest.mark.parametrize(
    "payload",
    [
        {"labels": "abc", "points": _THREE_POINTS},
        {"labels": [1, 2, 3], "points": _THREE_POINTS},
        {"labels": [True, None, 2.5], "points": _THREE_POINTS},
        {"points": 5},
        {"points": 5, "labels": []},
        {"dist": 5},
    ],
    ids=["labels-string", "labels-numbers", "labels-mixed", "points-number", "points-number-labels", "dist-number"],
)
@pytest.mark.parametrize("command", ["mk", "cloud"])
def test_bad_space_files_name_their_key(tmp_path, capsys, payload, command):
    # The labels ran: "abc" as the labels a, b and c, and every other entry
    # as its str(), so [1, 2, 3] read "1", "2", "3" and [true, null] "True",
    # "None".  {"points": 5} ended in an IndexError traceback.
    path = tmp_path / "space.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    if command == "mk":
        argv, field = ["mk", "--space", str(path)], "space"
    else:
        argv, field = ["approximate", "--generator", f"cloud:{path}", "--n", "2"], "generator"
    assert _rejected_field(argv, tmp_path / "out.json", capsys) == field


@pytest.mark.parametrize(
    "content",
    [None, "{not json", json.dumps({"labels": ["a"]}), json.dumps({"points": [[0, 0], [1, 1], [0, 0]]})],
    ids=["missing", "malformed", "no-points", "duplicate-points"],
)
def test_bad_cloud_files_name_the_generator(tmp_path, capsys, content):
    points = tmp_path / "points.json"
    if content is not None:
        points.write_text(content, encoding="utf-8")
    argv = ["approximate", "--generator", f"cloud:{points}", "--n", "2"]
    assert _rejected_field(argv, tmp_path / "out.json", capsys) == "generator"


def test_reused_parser_leaks_nothing_between_calls(tmp_path):
    first = ["fixedpoint", "--q", "4", "--count", "4", "--seed", "7", "--h-generators", "[]"]
    second = ["approximate", "--n", "4", "--reach-samples", "1"]
    assert build_parser() is build_parser()
    outs = [tmp_path / f"{i}.json" for i in range(3)]
    assert main(first + ["--output", str(outs[0])]) == 0
    assert main(second + ["--output", str(outs[1])]) == 0
    build_parser.cache_clear()
    assert main(second + ["--output", str(outs[2])]) == 0
    reused, fresh = (strip_runtime(read_json(out)) for out in outs[1:])
    assert reused == fresh
    assert reused["resolved_config"]["seed"] == 0


@pytest.mark.parametrize(
    "extra", [["--generator", "torus(1,1)", "--n", "5"], ["--n", "1"]]
)
def test_net_size_errors_name_n(tmp_path, capsys, extra):
    argv = ["approximate"] + extra
    assert _rejected_field(argv, tmp_path / "out.json", capsys) == "n"


@pytest.mark.parametrize(
    "argv, field, message",
    [
        (["converge", "--generator", "torus(1,1)", "--n-list", "4,5"], "n_list",
         "torus nets are grids: point count 5 is not m**2 for any integer m"),
        (["approximate", "--generator", "torus(1,1,1)", "--n", "10"], "n",
         "torus nets are grids: point count 10 is not m**3 for any integer m"),
    ],
)
def test_a_torus_net_size_off_the_grid_is_worded_as_m_to_the_d(tmp_path, capsys, argv, field, message):
    # The message read "must be a perfect 2-th power".
    assert main(argv + ["--output", str(tmp_path / "out.json")]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": {"field": field, "message": message}}


def test_corollary_mode_violation_names_the_beta_rule(tmp_path, capsys):
    for command in ("approximate", "converge"):
        argv = [command, "--beta-rule", "fixed(10)"]
        assert _rejected_field(argv, tmp_path / "out.json", capsys) == "beta_rule"


@pytest.mark.parametrize(
    "command,target,error,field",
    [
        ("approximate", "approximate_compact_space", CorollaryModeViolation, "beta_rule"),
        ("approximate", "estimate_reach_lower", ScaleOverflowError, "generator"),
        ("approximate", "approximate_compact_space", ConfigError, "n"),
        ("converge", "convergence_experiment", ScaleUnderflowError, "generator"),
        ("converge", "convergence_experiment", InputShapeError, "n_list"),
        ("leibniz", "leibniz_suites", ScaleOverflowError, "ratios"),
        ("leibniz", "leibniz_suites", ConfigError, "input"),
        ("fixedpoint", "fixed_point_bridge", ConfigError, "p"),
        ("fixedpoint", "fixed_point_bridge", InputShapeError, "input"),
    ],
)
def test_a_library_error_names_the_first_fault_it_matches(tmp_path, capsys, monkeypatch, command, target, error,
                                                          field):
    # A command's faults in COMMANDS name the key; an error none of them
    # matches is the input's as a whole.
    def fail(*args, **kwargs):
        raise error("boom")

    monkeypatch.setattr(f"matprox.cli.{target}", fail)
    assert main([command, "--output", str(tmp_path / "out.json")]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": {"field": field, "message": "boom"}}
    assert not any(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# mk.
# ---------------------------------------------------------------------------


def test_mk_dirac_matrix_is_exactly_symmetric_with_zero_diagonal(tmp_path):
    rng = np.random.default_rng(14)
    space_file = tmp_path / "cloud.json"
    space_file.write_text(
        json.dumps({"points": rng.uniform(size=(9, 2)).tolist()}), encoding="utf-8"
    )
    out = tmp_path / "mk.json"
    assert main(["mk", "--space", str(space_file), "--output", str(out)]) == 0
    dirac = np.asarray(read_json(out)["results"]["dirac_distance_matrix"])
    assert np.array_equal(dirac, dirac.T)
    assert np.all(np.diag(dirac) == 0.0)
    assert np.all(dirac[~np.eye(9, dtype=bool)] > 0.0)


def test_mk_command_recovers_ground_metric(tmp_path):
    space_file = tmp_path / "space.json"
    space_file.write_text(
        json.dumps({"labels": ["a", "b", "c"], "points": [[0, 0], [1, 0], [0, 1]]}),
        encoding="utf-8",
    )
    out = tmp_path / "mk.json"
    code = main(
        [
            "mk",
            "--space",
            str(space_file),
            "--p",
            "[0.5, 0.5, 0]",
            "--q",
            "[1, 0, 0]",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    results = read_json(out)["results"]
    assert results["max_gap_to_ground_metric"] <= 1e-9
    assert results["mk_p_q"] == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize(
    "space",
    [
        {"dist": [[0, 1e200, 1e200], [1e200, 0, 1e200], [1e200, 1e200, 0]]},
        {"points": (np.random.default_rng(1).normal(size=(6, 2)) * 1e-9).tolist()},
    ],
    ids=["dist-1e200", "points-1e-9"],
)
def test_mk_meets_the_ground_metric_far_from_unit_scale(tmp_path, space):
    # The transport LP ran at the input's own scale: the first ended in a
    # traceback ("transport LP failed: The problem is unbounded"), and the
    # second exited 0 with Dirac entries off by up to 136% of a distance.
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space), encoding="utf-8")
    out = tmp_path / "mk.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["mk", "--space", str(path), "--output", str(out)]) == 0
    diameter = np.max(metric_core.space_from_dict(space).dist)
    assert read_json(out)["results"]["max_gap_to_ground_metric"] <= acceptance.LOOSE * diameter


def test_mk_rejects_non_metric_space(tmp_path, capsys):
    space_file = tmp_path / "bad.json"
    space_file.write_text(
        json.dumps({"dist": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]}), encoding="utf-8"
    )
    assert main(["mk", "--space", str(space_file)]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["field"] == "space"


def test_mk_rejects_non_numeric_distances_and_nan_weights(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dist": [["a", 1], [1, 0]]}), encoding="utf-8")
    assert _rejected_field(["mk", "--space", str(bad)], tmp_path / "a.json", capsys) == "space"
    bad.write_text("{not json", encoding="utf-8")
    assert _rejected_field(["mk", "--space", str(bad)], tmp_path / "a.json", capsys) == "space"
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"points": [[0, 0], [1, 0], [0, 1]]}), encoding="utf-8")
    argv = ["mk", "--space", str(good), "--p", "[NaN, 0.5, 0.5]", "--q", "[1, 0, 0]"]
    assert _rejected_field(argv, tmp_path / "b.json", capsys) == "p"


@pytest.mark.parametrize(
    "p,q,field",
    [
        ("[true,false,false]", "[false,true,false]", "p"),
        ('["1","0","0"]', "[0,1,0]", "p"),
        ("[1,0,0]", "[0,true,0]", "q"),
        ("[1,0,0]", '[0,1.0,"0"]', "q"),
    ],
    ids=["bools", "strings", "one-bool", "one-string"],
)
def test_mk_weights_must_be_json_numbers(tmp_path, capsys, p, q, field):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"points": [[0, 0], [1, 0], [0, 2]]}), encoding="utf-8")
    argv = ["mk", "--space", str(good), "--p", p, "--q", q]
    assert _rejected_field(argv, tmp_path / "out.json", capsys) == field


@pytest.mark.parametrize(
    "payload",
    [
        {"points": [["0", "0"], [True, False], [0, 2]]},
        {"points": [[0, 0], [1, 0], [0, True]]},
        {"dist": [[0, 1], [True, 0]]},
        {"dist": [[0, "1"], [1, 0]]},
        {"dist": [[0, None], [1, 0]]},
    ],
    ids=["points-strings-and-bools", "points-bool", "dist-bool", "dist-string", "dist-null"],
)
def test_mk_space_entries_must_be_json_numbers(tmp_path, capsys, payload):
    space = tmp_path / "space.json"
    space.write_text(json.dumps(payload), encoding="utf-8")
    assert _rejected_field(["mk", "--space", str(space)], tmp_path / "out.json", capsys) == "space"


@pytest.mark.parametrize(
    "points",
    [[["0", "0"], [1, 0], [0, 2]], [[0, 0], [True, False], [0, 2]], [[0, 0], [1, 0], [0, None]]],
    ids=["strings", "bools", "null"],
)
def test_cloud_points_must_be_json_numbers(tmp_path, capsys, points):
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"points": points}), encoding="utf-8")
    argv = ["approximate", "--generator", f"cloud:{path}", "--n", "2"]
    assert _rejected_field(argv, tmp_path / "out.json", capsys) == "generator"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_mk_rejects_huge_weights_before_summing_them(tmp_path, capsys):
    # The weights' sum overflowed, and numpy's warning came before the error.
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"points": [[0, 0], [1, 0], [0, 1]]}), encoding="utf-8")
    argv = ["mk", "--space", str(good), "--p", "[1e308, 1e308, 0]", "--q", "[0, 0, 1]"]
    assert _rejected_field(argv, tmp_path / "out.json", capsys) == "p"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["mk", "approximate"])
def test_points_near_the_float_limit_name_their_field_without_warnings(tmp_path, capsys, command):
    # Their difference overflows to inf; numpy printed two overflow
    # warnings to stderr before the JSON error.
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"points": [[1e308, 0], [-1e308, 0], [0, 2]]}), encoding="utf-8")
    if command == "mk":
        argv, field = ["mk", "--space", str(path)], "space"
    else:
        argv, field = ["approximate", "--generator", f"cloud:{path}", "--n", "3"], "generator"
    assert _rejected_field(argv, tmp_path / "out.json", capsys) == field


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "points,delta",
    [([[0], [1e-200]], 1e-200), ([[0, 0], [3e-161, 4e-161]], 5e-161), ([[0], [1e200]], None)],
)
def test_clouds_far_from_unit_scale_keep_their_distances(tmp_path, capsys, points, delta):
    # Their squared differences underflowed or overflowed: the first exited 2
    # as coincident points, the second ran at delta 4.99997e-161, and the
    # third exited 2 for a non-finite distance instead of its diameter.
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"points": points}), encoding="utf-8")
    out = tmp_path / "out.json"
    argv = ["approximate", "--generator", f"cloud:{path}", "--n", "2", "--reach-samples", "1", "--output", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if delta is None:
        error = json.loads(capsys.readouterr().err.strip())["error"]
        assert code == 2 and error["field"] == "generator" and "diameter 1e+200" in error["message"]
    else:
        assert code == 0 and read_json(out)["results"]["delta"] == pytest.approx(delta, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("key", ["h_generators", "k_generators"])
@pytest.mark.parametrize("by_flag", [True, False], ids=["flag", "config"])
def test_generators_must_be_a_json_array(tmp_path, capsys, key, by_flag):
    # An empty JSON object was read as an empty list of generators, so the
    # run went ahead on the trivial subgroup.
    if by_flag:
        argv = ["fixedpoint", "--" + key.replace("_", "-"), "{}"]
    else:
        argv = ["fixedpoint", "--config", _config_file(tmp_path, {key: {}})]
    assert _rejected_field(argv + ["--q", "4", "--count", "2"], tmp_path / "out.json", capsys) == key


@pytest.mark.parametrize("form", ["points", "dist"])
def test_mk_spaces_are_capped_at_64_points(tmp_path, capsys, form):
    # A 400-point cloud ran past 14 minutes and reached 960 MiB.
    line = np.arange(65.0)
    payload = {"points": line[:, None].tolist()} if form == "points" else {
        "dist": np.abs(line[:, None] - line[None, :]).tolist()}
    space_file = tmp_path / "space.json"
    space_file.write_text(json.dumps(payload), encoding="utf-8")
    assert _rejected_field(["mk", "--space", str(space_file)], tmp_path / "mk.json", capsys) == "space"


# ---------------------------------------------------------------------------
# fixedpoint.
# ---------------------------------------------------------------------------


def test_fixedpoint_report(tmp_path):
    out = tmp_path / "fp.json"
    code = main(
        [
            "fixedpoint",
            "--q",
            "6",
            "--p",
            "1",
            "--h-generators",
            "[[3, 0]]",
            "--k-generators",
            "[[1, 0]]",
            "--count",
            "8",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    results = read_json(out)["results"]
    assert results["dims"]["ambient"] == 36
    assert results["gap_sampled"] > 0.0
    assert results["reach_report"]["certified"] is False
    assert results["haus_ell"] > 0.0


def test_fixedpoint_echoes_the_generators_as_given_mod_q(tmp_path):
    # A subgroup is its basis alone, so the echo comes from the checked keys;
    # no generators echo the identity, as the trivial subgroup always has.
    rng = np.random.default_rng(11)
    out = tmp_path / "fp.json"
    for _ in range(8):
        q = int(rng.integers(2, 17))
        given = {key: [rng.integers(-3 * q, 3 * q, size=2).tolist() for _ in range(rng.integers(0, 4))]
                 for key in ("H_generators", "K_generators")}
        argv = ["fixedpoint", "--q", str(q), "--h-generators", json.dumps(given["H_generators"]),
                "--k-generators", json.dumps(given["K_generators"]), "--count", "1", "--output", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        results = read_json(out)["results"]
        for key, gens in given.items():
            assert results[key] == ([[j % q, k % q] for j, k in gens] or [[0, 0]]), (q, key, gens)


def test_fixedpoint_rejects_bad_twist(tmp_path, capsys):
    assert main(["fixedpoint", "--q", "6", "--p", "2"]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["field"] == "p"


def test_fixedpoint_sweep_writes_csv(tmp_path):
    out = tmp_path / "sweep.json"
    code = main(
        ["fixedpoint", "--sweep", "4,6", "--count", "6", "--output", str(out)]
    )
    assert code == 0
    csv_lines = out.with_suffix(".csv").read_text(encoding="utf-8").splitlines()
    assert csv_lines[0] == "q,m,haus_ell,gap_sampled,dim_fixed"
    assert len(csv_lines) > 4


@pytest.mark.parametrize(
    "argv,rows,columns",
    [
        (["converge", "--n-list", "4,8,16,32"], "rows", "n,delta,beta,haus,certified_bound"),
        (["converge", "--generator", "torus(1,2)", "--n-list", "4,9"], "rows", "n,delta,beta,haus,certified_bound"),
        (["fixedpoint", "--sweep", "4,6", "--count", "6"], "sweep_rows", "q,m,haus_ell,gap_sampled,dim_fixed"),
    ],
)
def test_csv_lines_are_the_reprs_of_the_payload_rows(tmp_path, argv, rows, columns):
    out = tmp_path / "out.json"
    assert main(argv + ["--output", str(out)]) == 0
    payload_rows = read_json(out)["results"][rows]
    lines = out.with_suffix(".csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == columns
    assert lines[1:] == [",".join(repr(row[c]) for c in columns.split(",")) for row in payload_rows]
    assert len(lines) == 1 + len(payload_rows)


@pytest.mark.parametrize("argv", [["--q", "6", "--count", "4"], ["--sweep", "4,6", "--count", "4"]],
                         ids=["pair", "sweep"])
def test_fixedpoint_payloads_name_the_finite_model_and_certify_nothing(tmp_path, argv):
    out = tmp_path / "out.json"
    assert main(["fixedpoint", *argv, "--output", str(out)]) == 0
    results = read_json(out)["results"]
    assert results["model"] == "finite model: q-torsion torus subgroup acting on a clock-shift matrix algebra"
    labels = []
    pending = [results]
    while pending:
        item = pending.pop()
        if isinstance(item, dict):
            labels += [value for key, value in item.items() if key == "certified"]
            pending += item.values()
        elif isinstance(item, list):
            pending += item
    assert labels == ([False] if "--q" in argv else [])


def test_fixedpoint_normalizes_each_sample_once(tmp_path, monkeypatch):
    # One pass for the gap and both directions: each draw and each of its
    # images under E_H and E_K gets one action seminorm.
    sizes = []

    def recording(torus, ell, stack):
        sizes.append(len(stack))
        return seminorms(torus, ell, stack)

    seminorms = fixed_point.action_lip_seminorms
    monkeypatch.setattr(fixed_point, "action_lip_seminorms", recording)
    argv = ["fixedpoint", "--q", "12", "--h-generators", "[]", "--count", "8"]
    assert main(argv + ["--output", str(tmp_path / "fp.json")]) == 0
    lines = 143  # every nontrivial coefficient: H is trivial and K the full group
    assert 0 < sum(sizes) <= lines + 3 * 8


def test_fixedpoint_lines_take_no_numeric_seminorm(tmp_path, monkeypatch):
    # The 143 coefficient lines of a trivial H against the full group take
    # their seminorms in closed form: only the 8 draws and their 8 images
    # under E_H (K & ~H is empty) reach the numeric action seminorm, in one
    # call together.
    sizes = []

    def recording(torus, ell, stack):
        sizes.append(len(stack))
        return seminorms(torus, ell, stack)

    seminorms = fixed_point.action_lip_seminorms
    monkeypatch.setattr(fixed_point, "action_lip_seminorms", recording)
    argv = ["fixedpoint", "--q", "12", "--h-generators", "[]", "--count", "8"]
    assert main(argv + ["--output", str(tmp_path / "fp.json")]) == 0
    assert sizes == [16]


def test_action_seminorm_norms_are_bitwise_self_adjoint(tmp_path, monkeypatch):
    # Every difference stack that the default pair's action seminorms hand to
    # operator_norms is exactly self-adjoint, so it takes the eigenvalue path.
    inside = []
    seen = []

    def seminorms(torus, ell, stack):
        inside.append(True)
        try:
            return action_lip_seminorms(torus, ell, stack)
        finally:
            inside.pop()

    def norms(stack):
        if inside:
            seen.append(np.array_equal(stack, np.swapaxes(stack, -1, -2).conj()))
        return operator_norms(stack)

    action_lip_seminorms = fixed_point.action_lip_seminorms
    operator_norms = fixed_point.operator_norms
    monkeypatch.setattr(fixed_point, "action_lip_seminorms", seminorms)
    monkeypatch.setattr(fixed_point, "operator_norms", norms)
    assert main(["fixedpoint", "--output", str(tmp_path / "fp.json")]) == 0
    assert seen and all(seen)


@pytest.mark.parametrize(
    "argv",
    [["fixedpoint"], ["fixedpoint", "--q", "6", "--h-generators", "[[0, 3]]",
                      "--k-generators", "[[3, 0], [2, 2]]"], ["fixedpoint", "--sweep", "4,6,12"]],
    ids=["default", "both-directions", "sweep"],
)
def test_fixedpoint_takes_no_svd(tmp_path, monkeypatch, argv):
    # Every norm of a fixed-point run, the gap images (E_H - E_K) u included,
    # is taken of a bitwise self-adjoint stack, so none falls back to the SVD.
    def no_svd(*args, **kwargs):
        raise AssertionError("a fixed-point norm took the SVD")

    monkeypatch.setattr(matrix_algebra.np.linalg, "svd", no_svd)
    assert main(argv + ["--output", str(tmp_path / "fp.json")]) == 0


@pytest.mark.parametrize("sweep", ["", ","])
def test_fixedpoint_empty_sweep_names_the_sweep(tmp_path, capsys, sweep):
    # An empty sweep is neither the single-pair mode nor an empty table.
    out = tmp_path / "sweep.json"
    assert _rejected_field(["fixedpoint", "--sweep", sweep], out, capsys) == "sweep"
    assert not out.with_suffix(".csv").exists()


@pytest.mark.parametrize("command", ["converge", "mk"])
def test_commands_that_draw_nothing_take_no_seed(tmp_path, capsys, command):
    # converge and mk accepted a seed they never used, and echoed it.
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"points": [[0, 0], [1, 0], [0, 1]]}), encoding="utf-8")
    base = [command] + (["--space", str(space)] if command == "mk" else ["--n-list", "4,8"])
    assert _rejected_field(base + ["--seed", "1"], tmp_path / "out.json", capsys) == "argv"
    argv = base + ["--config", _config_file(tmp_path, {"seed": 1})]
    assert _rejected_field(argv, tmp_path / "out.json", capsys) == "config"
    assert main(base + ["--output", str(tmp_path / "out.json")]) == 0
    assert "seed" not in read_json(tmp_path / "out.json")["resolved_config"]


def test_fixedpoint_determinism(tmp_path):
    args = [
        "fixedpoint",
        "--q",
        "4",
        "--h-generators",
        "[[2, 0]]",
        "--k-generators",
        "[[1, 0]]",
        "--count",
        "8",
        "--seed",
        "5",
    ]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    assert strip_runtime(read_json(out1)) == strip_runtime(read_json(out2))


# Runs the CLI and prints the process's own peak RSS in KiB on its last line,
# from /proc/self/status: VmHWM counts from the exec, while ru_maxrss also
# keeps the peak of the process that spawned it (here pytest).
_HWM_RUNNER = """
import re, sys
from matprox.cli import main
code = main(sys.argv[1:])
print(re.search(r"VmHWM:\\s*(\\d+)", open("/proc/self/status").read()).group(1))
sys.exit(code)
"""


@pytest.mark.parametrize("k_generators", ["[[1,0],[0,1]]", "[[2,0],[0,1]]"])
def test_large_subgroup_pairs_at_q64_stay_under_256_mib(tmp_path, k_generators):
    # Both peaked at 604 and 357 MiB while subgroups were element sets.
    argv = ["fixedpoint", "--q", "64", "--h-generators", "[[1,0],[0,1]]",
            "--k-generators", k_generators, "--output", str(tmp_path / "fp.json")]
    assert _peak_rss_kib(argv) < 256 * 1024


def test_a_300_point_cloud_stays_under_128_mib(tmp_path):
    # The triangle check held every sum d[i,j] + d[j,k] at once: 290 MiB.
    points = tmp_path / "points.json"
    cloud = np.random.default_rng(0).normal(size=(300, 2))
    points.write_text(json.dumps({"points": cloud.tolist()}), encoding="utf-8")
    argv = ["approximate", "--generator", f"cloud:{points}", "--n", "3", "--reach-samples", "1",
            "--output", str(tmp_path / "out.json")]
    assert _peak_rss_kib(argv) < 128 * 1024


def test_leibniz_at_the_caps_stays_under_384_mib(tmp_path):
    # 1000 pairs at size 64 held every product of the suite at once: 489 MiB.
    argv = ["leibniz", "--sizes", "64", "--ratios", "1", "--pairs", "1000",
            "--output", str(tmp_path / "out.json")]
    assert _peak_rss_kib(argv) < 384 * 1024


def test_two_leibniz_suites_at_the_caps_stay_under_384_mib(tmp_path):
    # The second suite drew its pairs while the first suite's were still
    # held: 397 MiB.
    argv = ["leibniz", "--sizes", "64,64", "--ratios", "1", "--pairs", "1000",
            "--output", str(tmp_path / "out.json")]
    assert _peak_rss_kib(argv) < 384 * 1024


def _peak_rss_kib(argv: list[str]) -> int:
    src = str(Path(fixed_point.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _HWM_RUNNER, *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1])


def _loaded_by_a_fresh_cli_import(names: tuple[str, ...]) -> str:
    """Which of the modules ``names`` a fresh ``import matprox.cli`` loads."""
    src = str(Path(fixed_point.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = f"import sys, matprox.cli; print(sorted(m for m in {names!r} if m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_the_cli_imports_neither_the_oracles_nor_the_criteria():
    # Both import SciPy's linprog; ``selftest`` loads the criteria when it runs.
    assert _loaded_by_a_fresh_cli_import(("matprox.oracles", "matprox.acceptance")) == "[]"


def test_the_cli_loads_no_scipy_at_import():
    # SciPy's optimize package took most of a cold start; ``mk``'s transport
    # LP imports it on its first solve.
    assert _loaded_by_a_fresh_cli_import(("scipy", "scipy.optimize")) == "[]"


# ---------------------------------------------------------------------------
# leibniz.
# ---------------------------------------------------------------------------


def test_leibniz_emits_raw_residuals(tmp_path):
    out = tmp_path / "leibniz.json"
    code = main(
        [
            "leibniz",
            "--sizes",
            "2,3",
            "--ratios",
            "1.0",
            "--pairs",
            "20",
            "--seed",
            "1",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    suites = read_json(out)["results"]["suites"]
    assert len(suites) == 2
    for suite in suites:
        assert suite["min_jordan_residual"] >= -1e-9
        assert suite["min_lie_residual"] >= -1e-9
        assert len(suite["jordan_residuals"]) == 20


def test_leibniz_suite_reuses_the_draws_norms_and_screens_deviations(tmp_path, monkeypatch):
    # The draws' norms are one, so only the seminorms solve, and the
    # Lipschitz screen leaves out the deviations it decides: 112 calls on
    # 28,000 matrices before either.
    sizes = []

    def spy(stack):
        sizes.append(len(stack))
        return operator_norms(stack)

    monkeypatch.setattr(matrix_algebra, "operator_norms", spy)
    monkeypatch.setattr(lseminorm, "operator_norms", spy)
    out = tmp_path / "out.json"
    assert main(["leibniz", "--pairs", "250", "--seed", "5", "--output", str(out)]) == 0
    assert len(sizes) <= 84 and sum(sizes) <= 18_000
    assert min(sizes) > 0


@pytest.mark.parametrize(
    "argv,field",
    [
        (["mk", "--space", "{dir}"], "space"),
        (["approximate", "--generator", "cloud:{dir}"], "generator"),
        (["approximate", "--config", "{dir}"], "config"),
        (["approximate", "--config", "{binary}"], "config"),
        (["mk", "--space", "{binary}"], "space"),
        (["approximate", "--generator", "cloud:{binary}"], "generator"),
    ],
)
def test_unreadable_input_files_name_their_key(tmp_path, capsys, argv, field):
    # A directory ended in an IsADirectoryError traceback, and a config file
    # or --space file that is not UTF-8 in a UnicodeDecodeError one.
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe")
    argv = [arg.format(dir=tmp_path, binary=binary) for arg in argv]
    assert _rejected_field(argv, tmp_path / "out.json", capsys) == field


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("ratio", ["5e-324", "1e-310", "3e-308", "1e308", "3e307"])
def test_leibniz_ratios_outside_the_float_range_name_the_ratios(tmp_path, capsys, ratio):
    # 5e-324 named "input", which is no key; the others wrote NaN or Infinity
    # residuals after overflow warnings.
    argv = ["leibniz", "--ratios", ratio, "--pairs", "500"]
    assert _rejected_field(argv, tmp_path / "out.json", capsys) == "ratios"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("ratio", ["1e-300", "1e300", "1e-307", "1e307"])
def test_leibniz_extreme_ratios_inside_the_range_still_run(tmp_path, ratio):
    out = tmp_path / "out.json"
    assert main(["leibniz", "--ratios", ratio, "--pairs", "50", "--output", str(out)]) == 0
    for suite in read_json(out)["results"]["suites"]:
        residuals = suite["jordan_residuals"] + suite["lie_residuals"]
        assert np.all(np.isfinite(residuals))


@pytest.mark.parametrize("key", ["sizes", "ratios"])
@pytest.mark.parametrize("value", ["", ",", []], ids=["empty", "comma", "config"])
def test_leibniz_empty_lists_name_the_field(tmp_path, capsys, key, value):
    # An empty list ran to exit 0 with "suites": [].
    if isinstance(value, str):
        argv = ["leibniz", "--" + key, value]
    else:
        argv = ["leibniz", "--config", _config_file(tmp_path, {key: value})]
    assert _rejected_field(argv + ["--pairs", "2"], tmp_path / "out.json", capsys) == key


@pytest.mark.parametrize(
    "flag,value", [("--sizes", "2,x"), ("--ratios", "1,y")]
)
def test_leibniz_list_parse_errors_name_the_field(tmp_path, capsys, flag, value):
    argv = ["leibniz", flag, value, "--pairs", "2"]
    assert _rejected_field(argv, tmp_path / "out.json", capsys) == flag[2:]


@pytest.mark.parametrize(
    "argv,config,field",
    [
        (["converge"], {"n_list": ["4", "8"]}, "n_list"),
        (["leibniz", "--pairs", "2"], {"sizes": [2, "3"]}, "sizes"),
        (["leibniz", "--pairs", "2"], {"ratios": ["1.0"]}, "ratios"),
        (["fixedpoint"], {"sweep": ["4"]}, "sweep"),
        (["approximate", "--n", "\u0661\u0666"], None, "n"),
        (["approximate", "--n", "1_6"], None, "n"),
        (["fixedpoint", "--seed", "1_0"], None, "seed"),
        (["approximate", "--generator", "circle(2_0)"], None, "generator"),
        (["approximate", "--generator", "torus(1, \u0662)"], None, "generator"),
        (["approximate", "--beta-rule", "fixed(0.0_1)"], None, "beta_rule"),
        (["leibniz", "--ratios", "1_0"], None, "ratios"),
        (["leibniz", "--sizes", "2,\u0663"], None, "sizes"),
        (["converge", "--n-list", "4,1_6"], None, "n_list"),
    ],
)
def test_numbers_are_not_coerced(tmp_path, capsys, argv, config, field):
    # Each ran: Python's int and float take "_" separators and non-ASCII
    # digits, and a string entry of a JSON array was parsed as a number.
    if config is not None:
        argv = argv + ["--config", _config_file(tmp_path, config)]
    assert _rejected_field(argv, tmp_path / "out.json", capsys) == field


@pytest.mark.parametrize(
    "argv,target",
    [
        (["fixedpoint", "--q", "4", "--count", "2", "--output", "{adir}"], "adir"),
        (["fixedpoint", "--q", "4", "--count", "2", "--output", "{afile}/x.json"], None),
        (["converge", "--n-list", "4,8", "--output", "{tmp}/run.json"], "run.csv"),
        (["approximate", "--n", "4", "--output", "{tmp}"], None),
        (["approximate", "--n", "4", "--output", "/"], None),
        (["selftest", "--output", "{adir}"], "adir"),
        (["converge", "--n-list", "4,8", "--output", "{tmp}/r.csv"], None),
    ],
)
def test_an_unwritable_output_names_the_output(tmp_path, capsys, monkeypatch, argv, target):
    # Each ended in a traceback (IsADirectoryError, FileExistsError or
    # ValueError) and left a .tmp file; the CSV one left its JSON behind,
    # and a converge output ending in .csv wrote its CSV over its JSON.
    monkeypatch.setattr(acceptance, "CRITERIA", [_fake_criterion_pass])
    (tmp_path / "adir").mkdir()
    (tmp_path / "run.csv").mkdir()
    (tmp_path / "afile").write_text("kept", encoding="utf-8")
    before = sorted(p.name for p in tmp_path.iterdir())
    argv = [arg.format(adir=tmp_path / "adir", afile=tmp_path / "afile", tmp=tmp_path) for arg in argv]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"]["field"] == "output"
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert not any((tmp_path / "adir").iterdir()) and not any((tmp_path / "run.csv").iterdir())
    assert (tmp_path / "afile").read_text(encoding="utf-8") == "kept"


_FIXEDPOINT_PAIR = ["fixedpoint", "--q", "4", "--count", "2"]


@pytest.mark.parametrize(
    "target,runs",
    [
        ("{adir}", [["selftest"], _FIXEDPOINT_PAIR]),
        ("{afile}/x.json", [["selftest"], _FIXEDPOINT_PAIR]),
        ("{tmp}/r.csv", [["converge", "--n-list", "4,8"]]),
        ("{tmp}/s.json", [["fixedpoint", "--sweep", "4"]]),
        ("", [["selftest"], _FIXEDPOINT_PAIR]),
    ],
    ids=["onto-dir", "under-file", "json-ending-csv", "csv-onto-dir", "empty"],
)
def test_an_unwritable_output_is_refused_before_anything_runs(tmp_path, capsys, monkeypatch, target, runs):
    # selftest ran every criterion (about 12 s) and a fixedpoint run its
    # whole bridge before the output was found unwritable; so did a converge
    # run whose JSON ends in .csv and a sweep whose CSV path is a directory.
    # An empty output was read as absent: selftest wrote nothing and the
    # pair wrote ./fixedpoint.json, both exiting 0.
    monkeypatch.chdir(tmp_path)
    ran = []
    monkeypatch.setattr(acceptance, "CRITERIA", [lambda: ran.append("criterion") or _fake_criterion_pass()])
    monkeypatch.setattr("matprox.cli.fixed_point_bridge", lambda *args, **kwargs: ran.append("bridge"))
    monkeypatch.setattr("matprox.cli.convergence_experiment", lambda *args, **kwargs: ran.append("converge"))
    monkeypatch.setattr("matprox.cli.fixed_point_sweep", lambda *args, **kwargs: ran.append("sweep"))
    (tmp_path / "adir").mkdir()
    (tmp_path / "s.csv").mkdir()
    (tmp_path / "afile").write_text("kept", encoding="utf-8")
    output = target.format(adir=tmp_path / "adir", afile=tmp_path / "afile", tmp=tmp_path)
    for argv in runs:
        assert main(argv + ["--output", output]) == 2
        assert json.loads(capsys.readouterr().err.strip())["error"]["field"] == "output"
    assert ran == []


def test_an_output_dir_that_is_a_file_names_the_output(tmp_path, capsys, monkeypatch):
    (tmp_path / "afile").write_text("kept", encoding="utf-8")
    monkeypatch.setenv("MATPROX_OUTPUT_DIR", str(tmp_path / "afile"))
    assert main(["approximate", "--n", "4"]) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"]["field"] == "output"
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]


def test_an_empty_output_dir_is_refused_before_anything_runs(tmp_path, capsys, monkeypatch):
    # Path("") is ".", so the run wrote ./approximate.json and exited 0.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("MATPROX_OUTPUT_DIR", "")
    monkeypatch.setattr("matprox.cli.approximate_compact_space", lambda *args, **kwargs: pytest.fail("ran"))
    assert main(["approximate", "--n", "4"]) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"]["field"] == "output"
    assert not any(tmp_path.iterdir())


def test_an_empty_config_path_is_refused_before_anything_runs(tmp_path, capsys, monkeypatch):
    # It was read as absent: the run went ahead without a config and exited 0.
    monkeypatch.setattr("matprox.cli.approximate_compact_space", lambda *args, **kwargs: pytest.fail("ran"))
    assert main(["approximate", "--n", "4", "--config", "", "--output", str(tmp_path / "a.json")]) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"]["field"] == "config"
    assert not any(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# The contract on any input: exit 0, 2 or 3, and on exit 2 one JSON error
# naming a key, argv or config, with nothing written.
# ---------------------------------------------------------------------------

# A cheap valid config per subcommand (the space path is filled in per run).
CHEAP = {
    "approximate": {"n": 4, "reach_samples": 1},
    "converge": {"n_list": [4, 8]},
    "leibniz": {"sizes": [2, 3], "ratios": [1.0], "pairs": 4},
    "mk": {"space": None, "p": [0.5, 0.5, 0], "q": [1, 0, 0]},
    "fixedpoint": {"q": 4, "count": 4, "h_generators": [[2, 0]], "k_generators": [[1, 0]]},
}
# Keys with an upper bound; only they get 10^9, which would size an array.
BOUNDED = {"n", "n_list", "sizes", "q", "sweep", "pairs", "count", "reach_samples"}
POOL = ["abc", 1.5, True, None, {"a": 1}, -1, 0, 65, 10**9, 5e-324, 1e308, [], [[]], [[1, 2]], ""]


def _bad_value(draw, key):
    return draw(st.sampled_from(POOL).filter(lambda x: x != 10**9 or key in BOUNDED))


def _by_flag(draw, key):
    return key not in BOOLEAN_KEYS and draw(st.booleans())


@st.composite
def _fuzzed_runs(draw):
    command = draw(st.sampled_from(sorted(KEYS)))
    key = draw(st.sampled_from(KEYS[command]))
    return command, key, _bad_value(draw, key), _by_flag(draw, key)


@st.composite
def _fuzzed_multi_runs(draw):
    command = draw(st.sampled_from(sorted(KEYS)))
    keys = draw(st.lists(st.sampled_from(KEYS[command]), min_size=2, max_size=3, unique=True))
    changes = [(key, _bad_value(draw, key), _by_flag(draw, key)) for key in keys]
    return command, changes, draw(st.booleans())


def _run_changed(command, changes, unknown_flag=False):
    """Run ``command`` on its cheap config with each (key, value, by_flag)
    change applied; returns the exit code and, on exit 2, the named field."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        space = work / "space.json"
        space.write_text(json.dumps({"points": [[0, 0], [1, 0], [0, 1]]}), encoding="utf-8")
        config = dict(CHEAP[command])
        if command == "mk":
            config["space"] = str(space)
        argv = [command]
        for key, value, by_flag in changes:
            if by_flag:
                argv += ["--" + key.replace("_", "-"), value if isinstance(value, str) else json.dumps(value)]
            else:
                config[key] = value
        if unknown_flag:
            argv += ["--no-such-key", "1"]
        (work / "config.json").write_text(json.dumps(config), encoding="utf-8")
        out = work / "out.json"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv + ["--config", str(work / "config.json"), "--output", str(out)])
        assert code in (0, 2, 3)
        if code != 2:
            return code, None
        assert not out.exists() and not out.with_suffix(".csv").exists()
        return code, json.loads(err.getvalue())["error"]["field"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_fuzzed_runs())
def test_any_single_bad_value_keeps_the_exit_contract(run):
    command, key, value, by_flag = run
    code, field = _run_changed(command, [(key, value, by_flag)])
    if code == 2:
        assert field in KEYS[command] + ["argv", "config"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_fuzzed_multi_runs())
def test_several_bad_values_name_one_of_them(run):
    # Two or three keys made bad together, by flag or in the config, and
    # sometimes an unknown flag besides: an exit 2 names one of them.
    command, changes, unknown_flag = run
    code, field = _run_changed(command, changes, unknown_flag)
    if code == 2:
        assert field in [key for key, _, _ in changes] + ["argv", "config"]


# ---------------------------------------------------------------------------
# The result writer: the bytes of json.dumps(payload, sort_keys=True, indent=2).
# ---------------------------------------------------------------------------

_FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-7, 1e22, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)
_STRINGS = st.one_of(st.sampled_from(['", "', '"', 'a", "b', "\\", "\n", "\u00e9\u00fc \u6f22", ""]), st.text())
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), _FLOATS, _STRINGS)
_LEAVES = st.one_of(
    _SCALARS,
    st.lists(_FLOATS, max_size=7),
    st.lists(_FLOATS, min_size=8, max_size=60),
    st.lists(_SCALARS, max_size=30),
    st.lists(_SCALARS, min_size=8, max_size=30).map(tuple),
    # Long lists that are not all scalars.
    st.lists(st.one_of(_SCALARS, st.lists(_SCALARS, max_size=2), st.dictionaries(_STRINGS, _SCALARS, max_size=2)),
             min_size=8, max_size=12),
)
_PAYLOADS = st.dictionaries(_STRINGS, st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5), st.lists(inner, max_size=5).map(tuple), st.dictionaries(_STRINGS, inner, max_size=5)
    ),
    max_leaves=8,
), max_size=6)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_PAYLOADS)
def test_json_text_writes_the_bytes_of_json_dumps(payload):
    assert cli._json_text(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("payload", [
    {"keys": {1: "a", "b": 2}},  # a non-string key goes to json.dumps whole
    {"numpy": [np.float64(0.1)] * 9, "one": np.float64(-0.0), "bool": [np.True_]},
    {"set": {1, 2}},
])
def test_json_text_matches_json_dumps_beyond_plain_payloads(payload):
    try:
        expected = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    except TypeError as exc:
        with pytest.raises(TypeError, match=str(exc)):
            cli._json_text(payload)
    else:
        assert cli._json_text(payload) == expected


# ---------------------------------------------------------------------------
# selftest wiring (the full suite runs in test_acceptance).
# ---------------------------------------------------------------------------


def _fake_criterion_pass():
    return acceptance.CheckResult(1, "fake pass", True, 0.0)


def _fake_criterion_fail():
    return acceptance.CheckResult(2, "fake fail", False, 0.0, ["boom"])


def test_selftest_exit_codes_follow_results(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(acceptance, "CRITERIA", [_fake_criterion_pass])
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "PASS criterion 1" in out

    monkeypatch.setattr(
        acceptance, "CRITERIA", [_fake_criterion_pass, _fake_criterion_fail]
    )
    report = tmp_path / "selftest.json"
    assert main(["selftest", "--output", str(report)]) == 3
    out = capsys.readouterr().out
    assert "FAIL criterion 2" in out
    payload = read_json(report)
    assert [r["passed"] for r in payload["results"]] == [True, False]
