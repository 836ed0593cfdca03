"""Tests of the benchmark itself: job generation, checks and tracing.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

import matprox.bridge  # noqa: E402
import matprox.fixed_point  # noqa: E402
import matprox.matrix_algebra  # noqa: E402
from matprox.cli import main as cli_main  # noqa: E402

# The layer spans each workload's first jobs must record.
EXPECTED_SPANS = {
    "torus": {
        "cli.main", "fixed_point.expectation_gap", "fixed_point.fixed_point_bridge",
        "fixed_point.action_lip_seminorms", "matrix_algebra.operator_norms",
        "matrix_algebra.operator_norm",
    },
    "reach": {
        "cli.main", "bridge.estimate_reach_lower", "lseminorm.sample_unit_ball", "scalar",
        "matrix_algebra.operator_norm",
    },
    "transport": {"cli.main", "metric_core.mk_distance", "lp"},
    "leibniz": {"cli.main", "lseminorm.l_seminorms", "matrix_algebra.operator_norms"},
}


def _argv_lists(workload, seed, tmp_path):
    work = tmp_path / f"{workload}-{seed}-{len(list(tmp_path.iterdir()))}"
    work.mkdir()
    # Input file paths differ between directories; compare the file contents instead.
    return [
        [Path(a).read_text() if a.startswith(str(work)) else a for a in job.argv]
        for job in workloads.job_list(workload, seed, work)
    ]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_job_list_is_a_function_of_the_seed(workload, tmp_path):
    first = _argv_lists(workload, 7, tmp_path)
    assert first == _argv_lists(workload, 7, tmp_path)
    assert first != _argv_lists(workload, 8, tmp_path)


def test_torus_classes_keep_their_subgroup_orders(tmp_path):
    jobs = workloads.job_list("torus", 3, tmp_path)
    per_class = {}
    for job in jobs[:48]:
        h_gens = json.loads(job.argv[job.argv.index("--h-generators") + 1])
        k_gens = json.loads(job.argv[job.argv.index("--k-generators") + 1])
        h, k = workloads.subgroup_elements(12, h_gens), workloads.subgroup_elements(12, k_gens)
        orders = (*sorted((len(h), len(k))), len(workloads.subgroup_elements(12, h_gens + k_gens)))
        per_class.setdefault(job.label, set()).add(orders)
    assert all(len(v) == 1 for v in per_class.values())


def _strip_runtime(payload):
    return {k: v for k, v in payload.items() if k != "runtime_ms"}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracing_changes_no_payload_and_every_wrapper_fires(workload, tmp_path):
    jobs = workloads.job_list(workload, 11, tmp_path)[: min(3, workloads.ROUND[workload])]
    out = tmp_path / "out.json"
    plain = []
    for job in jobs:
        problems = run.run_job(workload, job, cli_main, out, None, None).problems
        plain.append((_strip_runtime(json.loads(out.read_text())), problems))
    tracer = Tracer()
    traced_main = tracer.wrap("cli.main", cli_main)
    tracer.install()
    try:
        for job, (expected, problems) in zip(jobs, plain):
            record = run.run_job(workload, job, traced_main, out, tracer, None)
            assert record.problems == problems
            assert _strip_runtime(json.loads(out.read_text())) == expected
    finally:
        tracer.uninstall()
    recorded = {span[0] for span in tracer.spans}
    assert EXPECTED_SPANS[workload] <= recorded
    metrics = layer_metrics(tracer.spans, len(jobs))
    assert metrics["cli.main.self_s"] > 0.0
    if workload == "torus":
        assert metrics["fixed_point.action_lip_seminorms.exact_norm_ratio"] == 1.0
    if workload == "reach":
        assert metrics["scalar.evals"] > 0 and metrics["bridge.norms_per_solve"] > 1.0
    if workload == "transport":
        assert metrics["lp.solves"] > 0 and metrics["lp.failed"] == 0


def test_uninstall_restores_every_binding():
    originals = (
        matprox.matrix_algebra.operator_norm,
        matprox.bridge.operator_norm,
        matprox.fixed_point.operator_norms,
        matprox.bridge.minimize_scalar,
    )
    tracer = Tracer()
    tracer.install()
    assert matprox.bridge.operator_norm is not originals[1]
    assert matprox.bridge.operator_norm.__wrapped__ is originals[1]
    tracer.uninstall()
    assert (
        matprox.matrix_algebra.operator_norm,
        matprox.bridge.operator_norm,
        matprox.fixed_point.operator_norms,
        matprox.bridge.minimize_scalar,
    ) == originals


def test_self_time_subtracts_children():
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0, None],
        ["lp", 1.0, 4.0, 0, 0, {"nit": 5, "status": 0}],
        ["lp", 5.0, 6.0, 0, 0, {"nit": 2, "status": 2}],
    ]
    metrics = layer_metrics(spans, jobs=2)
    assert metrics["cli.main.self_s"] == pytest.approx(3.0)
    assert metrics["lp.self_s"] == pytest.approx(2.0)
    assert metrics["lp.solves"] == 1.0
    assert metrics["lp.iterations"] == 3.5
    assert metrics["lp.failed"] == 0.5


def _first_payload(workload, tmp_path):
    job = workloads.job_list(workload, 0, tmp_path)[0]
    out = tmp_path / "out.json"
    assert not run.run_job(workload, job, cli_main, out, None, None).problems
    return job, json.loads(out.read_text())


@pytest.mark.parametrize(
    "workload, tamper",
    [
        ("reach", lambda r: r.update(sampled_lower=r["beta"] * 1.01 + 1e-6)),
        ("reach", lambda r: r.update(certified_bound=r["certified_bound"] + 1e-12)),
        ("torus", lambda r: r["dims"].update(fixed_left=r["dims"]["fixed_left"] + 1)),
        ("torus", lambda r: r["reach_report"].update(reach_sampled=-1.0)),
        ("transport", lambda r: r["dirac_distance_matrix"][0].__setitem__(1, r["dirac_distance_matrix"][0][1] + 1e-15)),
        ("transport", lambda r: r.update(max_gap_to_ground_metric=2e-9)),
        ("leibniz", lambda r: r["suites"][0].update(min_lie_residual=-1e-6)),
        ("leibniz", lambda r: r["suites"][-1].update(D_constant=2.0)),
    ],
)
def test_checks_flag_a_tampered_payload(workload, tamper, tmp_path):
    job, payload = _first_payload(workload, tmp_path)
    assert workloads.check_payload(workload, job, payload) == []
    bad = copy.deepcopy(payload)
    tamper(bad["results"])
    assert workloads.check_payload(workload, job, bad)


def test_torus_gap_must_vanish_on_agreeing_masks(tmp_path):
    jobs = workloads.job_list("torus", 0, tmp_path)
    job = next(j for j in jobs if j.facts["same_subgroup"])
    out = tmp_path / "out.json"
    assert not run.run_job("torus", job, cli_main, out, None, None).problems
    payload = json.loads(out.read_text())
    payload["results"]["gap_sampled"] = 1e-300
    assert workloads.check_payload("torus", job, payload)


@pytest.mark.xfail(
    strict=True,
    reason="mk's transport LP runs HiGHS at its default tolerances, so some Dirac "
    "distances miss the ground metric by more than the 1e-9 the CLI tests promise",
)
def test_transport_meets_the_ground_metric_within_loose(tmp_path):
    job = workloads.job_list("transport", 11, tmp_path)[2]
    out = tmp_path / "out.json"
    assert run.run_job("transport", job, cli_main, out, None, None).problems == []


def test_reference_comparison_uses_a_tolerance():
    ref = {"a": 1.0, "b": [0.5, {"c": True}], "s": "x"}
    assert workloads.compare_reference(ref, {"a": 1.0 + 2e-15, "b": [0.5, {"c": True}], "s": "x"}) == []
    assert workloads.compare_reference(ref, {"a": 1.0 + 1e-6, "b": [0.5, {"c": True}], "s": "x"})
    assert workloads.compare_reference(ref, {"a": 1.0, "b": [0.5, {"c": False}], "s": "x"})
    assert workloads.compare_reference(ref, {"a": 1.0, "b": [0.5], "s": "x"})


def test_reference_matches_the_default_seed(tmp_path):
    reference = json.loads(run.REFERENCE.read_text())
    for workload in ("reach", "leibniz"):
        job = workloads.job_list(workload, run.DEFAULT_SEED, tmp_path)[0]
        out = tmp_path / "out.json"
        record = run.run_job(workload, job, cli_main, out, None, reference[workload])
        assert record.problems == []


def test_every_declared_metric_and_workload_is_measured():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    records = [
        run.Record(index=i, round=i, label="x", latency_s=0.5, cpu_s=0.5, traced=i % 2 == 1)
        for i in range(4)
    ]
    layer, _ = run.per_layer(records, Tracer())
    metrics, notes = run.split_declared(layer, "per_layer")
    assert list(metrics) == [m["name"] for m in declared["per_layer"]]
    assert {"lp.solves", "lp.failed", "metric_core.mk_distance.calls", "largest_array_computed_bytes"} <= set(notes)
    e2e, _ = run.end_to_end(records, [1.0], [run.speed.REFERENCE_S])
    metrics, notes = run.split_declared(e2e, "end_to_end")
    assert list(metrics) == [m["name"] for m in declared["end_to_end"]] and not notes
    # transport is runnable but not listed: the program fails its check on some jobs.
    assert [w["name"] for w in declared["workloads"]] == [w for w in workloads.WORKLOADS if w != "transport"]


def test_a_failed_job_is_reported_and_sets_the_exit_code(capsys):
    # Seed 11, job 2 is the transport job that misses the ground metric (see the xfail above).
    argv = ["--workload", "transport", "--seed", "11", "--seconds", "0", "--trace", "1"]
    assert run.main(argv) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1 and result["attempted"] >= 8


def test_tail_is_the_highest_percentile_with_ten_beyond():
    latencies = [float(i) for i in range(1, 51)]
    value, percentile = run.tail_latency(latencies)
    assert value == 40.0 and percentile == 80.0
    assert sum(1 for x in latencies if x > value) == 10


def test_round_throughput_takes_the_median_round():
    records = [
        run.Record(index=i, round=i // 2, label="x", latency_s=t, cpu_s=t, traced=False)
        for i, t in enumerate([1.0, 1.0, 0.5, 0.5, 5.0, 5.0])
    ]
    assert run.round_throughput(records, [r.latency_s for r in records]) == pytest.approx(2 / 2.0)


def test_speed_factors_scale_by_the_median_probe_nearby():
    ref = run.speed.REFERENCE_S
    probes = [ref, 2 * ref, 2 * ref, 2 * ref, 100 * ref]
    # One slow probe among steady ones moves no factor; a slower machine halves them.
    assert run.speed.factors([ref] * 4 + [100 * ref] + [ref] * 4) == [1.0] * 9
    assert run.speed.factors(probes) == [0.5] * 5


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "leibniz", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
