import json

import numpy as np
import pytest

from matprox import acceptance, fixed_point
from matprox.cli import main, parse_beta_rule, parse_generator
from matprox.cli import ValidationFailure
from matprox.metric_core import Circle, FlatTorus, Interval


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
        "--seed",
        "0",
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


@pytest.mark.parametrize(
    "extra", [["--generator", "torus(1,1)", "--n", "5"], ["--n", "1"]]
)
def test_net_size_errors_name_n(tmp_path, capsys, extra):
    argv = ["approximate"] + extra
    assert _rejected_field(argv, tmp_path / "out.json", capsys) == "n"


def test_corollary_mode_violation_names_the_beta_rule(tmp_path, capsys):
    argv = ["approximate", "--beta-rule", "fixed(10)"]
    assert _rejected_field(argv, tmp_path / "out.json", capsys) == "beta_rule"


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
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"points": [[0, 0], [1, 0], [0, 1]]}), encoding="utf-8")
    argv = ["mk", "--space", str(good), "--p", "[NaN, 0.5, 0.5]", "--q", "[1, 0, 0]"]
    assert _rejected_field(argv, tmp_path / "b.json", capsys) == "p"


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


def test_fixedpoint_normalizes_each_sample_once(tmp_path, monkeypatch):
    # One pass for the gap and both directions: the lines on H ^ K, the draws,
    # and E_H and E_K of the draws each get one action seminorm.
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


@pytest.mark.parametrize("sweep", ["", ","])
def test_fixedpoint_empty_sweep_names_the_sweep(tmp_path, capsys, sweep):
    # An empty sweep is neither the single-pair mode nor an empty table.
    out = tmp_path / "sweep.json"
    assert _rejected_field(["fixedpoint", "--sweep", sweep], out, capsys) == "sweep"
    assert not out.with_suffix(".csv").exists()


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


@pytest.mark.parametrize(
    "flag,value", [("--sizes", "2,x"), ("--ratios", "1,y")]
)
def test_leibniz_list_parse_errors_name_the_field(tmp_path, capsys, flag, value):
    argv = ["leibniz", flag, value, "--pairs", "2"]
    assert _rejected_field(argv, tmp_path / "out.json", capsys) == flag[2:]


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
