"""Seeded job lists and result checks for the four benchmark workloads.

A job is one ``matprox`` CLI invocation: an argv list (input files, where a
job needs one, are written here too) plus the facts the checks need, which
the benchmark derives on its own rather than reading back from the program.

Jobs come in rounds.  Every round of a workload holds the same job classes in
the same order, and the seed only picks the instance of each class (a group
automorphism, a twist, a point cloud, a job seed), so a run that ends on a
round boundary always measures the same mix of classes, whatever the seed.
A ``torus`` or ``leibniz`` instance costs the same work as any other of its
class.  A ``reach`` instance does not: its descent stops when a sweep no
longer improves, so the work varies by about 10% from job to job (counted in
operator-norm calls), and a ``transport`` instance's LP iterations vary with
its cloud.  Over the 50 or more jobs of a run these variations average out
to a few percent.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("torus", "reach", "transport", "leibniz")

# Jobs generated per workload; a run that outlasts the list cycles through it.
LIST_JOBS = 480

LOOSE = 1e-9

TORUS_Q = 12
TORUS_COUNT = 8
# (label, H generators, K generators).  Nested divisor-chain pairs, non-nested
# pairs, 1- and 2-generator presentations, and one pair that presents the same
# subgroup twice, so its fixed-coefficient masks agree and the gap must be 0.
TORUS_CLASSES = (
    ("chain-2-12", [[6, 0]], [[1, 0]]),
    ("chain-4-12", [[3, 0]], [[1, 0]]),
    ("nested-2gen", [[2, 0], [0, 6]], [[1, 0], [0, 1]]),
    ("cross-3-4", [[4, 0]], [[0, 3]]),
    ("cross-1gen-2gen", [[2, 2]], [[3, 0], [0, 3]]),
    ("same-subgroup", [[1, 1]], [[1, 1], [6, 6]]),
    ("cross-6-6", [[2, 0]], [[0, 2]]),
    ("cross-2gen", [[4, 0], [0, 4]], [[6, 0], [0, 6]]),
)

REACH_CLASSES = (("circle(2pi)", 32), ("interval(1)", 32), ("torus(1,1)", 36))
REACH_SAMPLES = 1

TRANSPORT_POINTS = 14
TRANSPORT_DIM = 2

LEIBNIZ_PAIRS = 250
LEIBNIZ_SIZES = (2, 3, 4, 5, 6, 7, 8)
LEIBNIZ_RATIOS = (1.0, 3.0)


@dataclass
class Job:
    index: int
    label: str
    argv: list[str]
    facts: dict = field(default_factory=dict)


CLASSES = {"torus": len(TORUS_CLASSES), "reach": len(REACH_CLASSES), "transport": 1, "leibniz": 1}
# Jobs per round: each class once, or four jobs of a single-class workload.
ROUND = {"torus": len(TORUS_CLASSES), "reach": len(REACH_CLASSES), "transport": 4, "leibniz": 4}
# Leading jobs of the default seed whose results are stored as a reference.
REFERENCE_JOBS = {"torus": len(TORUS_CLASSES), "reach": len(REACH_CLASSES), "transport": 4, "leibniz": 1}


def job_list(workload: str, seed: int, work_dir: Path) -> list[Job]:
    """The seeded job list of a workload; input files go under ``work_dir``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    make = globals()[f"_{workload}_job"]
    return [
        make(rng, index, index % CLASSES[workload], work_dir) for index in range(LIST_JOBS)
    ]


# ---------------------------------------------------------------------------
# torus: fixedpoint on Z_12 x Z_12.
# ---------------------------------------------------------------------------


def _random_automorphism(rng: random.Random, q: int) -> list[list[int]]:
    while True:
        m = [[rng.randrange(q) for _ in range(2)] for _ in range(2)]
        if math.gcd((m[0][0] * m[1][1] - m[0][1] * m[1][0]) % q, q) == 1:
            return m


def _apply(m: list[list[int]], g: list[int], q: int) -> list[int]:
    return [(m[0][0] * g[0] + m[0][1] * g[1]) % q, (m[1][0] * g[0] + m[1][1] * g[1]) % q]


def subgroup_elements(q: int, gens: list[list[int]]) -> frozenset:
    """Closure of the generators in Z_q x Z_q."""
    elems = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        a = frontier.pop()
        for g in gens:
            b = ((a[0] + g[0]) % q, (a[1] + g[1]) % q)
            if b not in elems:
                elems.add(b)
                frontier.append(b)
    return frozenset(elems)


def _torus_job(rng: random.Random, index: int, cls: int, work_dir: Path) -> Job:
    # An automorphism of Z_q^2 keeps the orders of H, K and H + K, hence the
    # number of structured samples, so every instance of a class costs the same.
    q = TORUS_Q
    label, h, k = TORUS_CLASSES[cls]
    m = _random_automorphism(rng, q)
    h = [_apply(m, g, q) for g in h]
    k = [_apply(m, g, q) for g in k]
    if rng.random() < 0.5:
        h, k = k, h
    twist = rng.choice([p for p in range(1, q) if math.gcd(p, q) == 1])
    argv = [
        "fixedpoint", "--q", str(q), "--p", str(twist),
        "--h-generators", json.dumps(h), "--k-generators", json.dumps(k),
        "--count", str(TORUS_COUNT), "--seed", str(rng.randrange(2**31)),
    ]
    sub_h, sub_k = subgroup_elements(q, h), subgroup_elements(q, k)
    facts = {"q": q, "order_h": len(sub_h), "same_subgroup": sub_h == sub_k}
    return Job(index, label, argv, facts)


def check_torus(facts: dict, results: dict) -> list[str]:
    problems = []
    q = facts["q"]
    if results["dims"]["fixed_left"] * facts["order_h"] != q * q:
        problems.append(f"dims.fixed_left {results['dims']['fixed_left']} x |H| != q^2")
    reach = results["reach_report"]
    if reach["reach_sampled"] != max(reach["worst_left_to_right"], reach["worst_right_to_left"]):
        problems.append("reach_sampled is not the larger directed value")
    gap = results["gap_sampled"]
    if gap < 0.0:
        problems.append(f"gap_sampled {gap} < 0")
    if facts["same_subgroup"] and gap != 0.0:
        problems.append(f"gap_sampled {gap} != 0 for agreeing masks")
    return problems


# ---------------------------------------------------------------------------
# reach: approximate, dominated by the coordinate-descent inner solve.
# ---------------------------------------------------------------------------


def _reach_job(rng: random.Random, index: int, cls: int, work_dir: Path) -> Job:
    generator, n = REACH_CLASSES[cls]
    argv = [
        "approximate", "--generator", generator, "--n", str(n),
        "--reach-samples", str(REACH_SAMPLES), "--seed", str(rng.randrange(2**31)),
    ]
    return Job(index, generator, argv, {"n": n})


def check_reach(facts: dict, results: dict) -> list[str]:
    problems = []
    lower, beta = results["sampled_lower"], results["beta"]
    if not 0.0 <= lower <= beta + LOOSE:
        problems.append(f"sampled_lower {lower} outside [0, beta={beta}]")
    if results["certified_bound"] != results["haus"] + beta:
        problems.append("certified_bound != haus + beta")
    if results["n"] != facts["n"]:
        problems.append(f"n {results['n']} != requested {facts['n']}")
    return problems


# ---------------------------------------------------------------------------
# transport: mk on a generated Euclidean point cloud.
# ---------------------------------------------------------------------------


def _probability(rng: random.Random, n: int) -> list[float]:
    w = [0.05 + rng.random() for _ in range(n)]
    total = sum(w)
    return [x / total for x in w]


def _transport_job(rng: random.Random, index: int, cls: int, work_dir: Path) -> Job:
    n = TRANSPORT_POINTS
    while True:
        points = [[rng.random() for _ in range(TRANSPORT_DIM)] for _ in range(n)]
        dist = [[math.dist(a, b) for b in points] for a in points]
        if min(dist[i][j] for i in range(n) for j in range(i + 1, n)) > 1e-3:
            break
    path = work_dir / f"cloud_{index:04d}.json"
    path.write_text(json.dumps({"points": points}), encoding="utf-8")
    argv = [
        "mk", "--space", str(path),
        "--p", json.dumps(_probability(rng, n)), "--q", json.dumps(_probability(rng, n)),
    ]
    return Job(index, f"cloud-{n}", argv, {"dist": dist})


def check_transport(facts: dict, results: dict) -> list[str]:
    problems = []
    gap = results["max_gap_to_ground_metric"]
    if not gap <= LOOSE:
        problems.append(f"max_gap_to_ground_metric {gap} > {LOOSE}")
    dirac = results["dirac_distance_matrix"]
    n = len(facts["dist"])
    if any(dirac[i][j] != dirac[j][i] for i in range(n) for j in range(n)):
        problems.append("Dirac distance matrix is not exactly symmetric")
    worst = max(abs(dirac[i][j] - facts["dist"][i][j]) for i in range(n) for j in range(n))
    if worst > LOOSE:
        problems.append(f"Dirac distances miss the Euclidean metric by {worst}")
    diameter = max(max(row) for row in facts["dist"])
    if not 0.0 <= results["mk_p_q"] <= diameter + LOOSE:
        problems.append(f"mk_p_q {results['mk_p_q']} outside [0, diameter]")
    return problems


# ---------------------------------------------------------------------------
# leibniz: the residual suite over sizes 2..8 and ratios 1, 3.
# ---------------------------------------------------------------------------


def _leibniz_job(rng: random.Random, index: int, cls: int, work_dir: Path) -> Job:
    argv = ["leibniz", "--pairs", str(LEIBNIZ_PAIRS), "--seed", str(rng.randrange(2**31))]
    return Job(index, "suite", argv, {})


def check_leibniz(facts: dict, results: dict) -> list[str]:
    problems = []
    suites = results["suites"]
    if len(suites) != len(LEIBNIZ_SIZES) * len(LEIBNIZ_RATIOS):
        problems.append(f"{len(suites)} suites, expected sizes x ratios")
    for s in suites:
        tag = f"n={s['n']} ratio={s['beta_over_delta']}"
        for key in ("min_jordan_residual", "min_lie_residual"):
            if s[key] < -LOOSE:
                problems.append(f"{tag}: {key} {s[key]} < -{LOOSE}")
        if not math.isclose(s["D_constant"], max(2.0, 1.0 + s["beta_over_delta"]), rel_tol=1e-12):
            problems.append(f"{tag}: D_constant {s['D_constant']} != max(2, 1 + ratio)")
        for raw, key in (("jordan_residuals", "min_jordan_residual"), ("lie_residuals", "min_lie_residual")):
            if len(s[raw]) != LEIBNIZ_PAIRS or min(s[raw]) != s[key]:
                problems.append(f"{tag}: {raw} disagrees with {key}")
    return problems


CHECKS = {
    "torus": check_torus,
    "reach": check_reach,
    "transport": check_transport,
    "leibniz": check_leibniz,
}


def check_payload(workload: str, job: Job, payload: dict) -> list[str]:
    """Problems found in one job's result JSON; empty when it is correct."""
    if payload.get("command") != job.argv[0]:
        return [f"command {payload.get('command')!r} != {job.argv[0]!r}"]
    try:
        return CHECKS[workload](job.facts, payload["results"])
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed results: {exc!r}"]


def compare_reference(expected, actual, path: str = "results") -> list[str]:
    """Numbers must agree within LOOSE (relative or absolute); all else exactly."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        return [p for key in expected for p in compare_reference(expected[key], actual[key], f"{path}.{key}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        return [p for i, (e, a) in enumerate(zip(expected, actual)) for p in compare_reference(e, a, f"{path}[{i}]")]
    numeric = (int, float)
    if (
        isinstance(expected, numeric) and isinstance(actual, numeric)
        and not isinstance(expected, bool) and not isinstance(actual, bool)
    ):
        if math.isclose(expected, actual, rel_tol=LOOSE, abs_tol=LOOSE):
            return []
        return [f"{path}: {actual!r} != reference {expected!r}"]
    return [] if expected == actual else [f"{path}: {actual!r} != reference {expected!r}"]
