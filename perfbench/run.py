"""Closed-loop benchmark of the matprox CLI.

    python3 perfbench/run.py --workload torus --seed 1 --seconds 20 --trace 0

One client runs one job at a time through ``matprox.cli.main``, in this
process, until ``--seconds`` have passed and the current round of jobs is
done.  Every job's result is checked.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
which hold the end-to-end metrics with ``--trace 0`` and the per-layer
metrics of the traced run with ``--trace 1``.  The exit code is 0 only when
every job passed its checks.  See perfbench/README.md.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
REFERENCE = HERE / "reference_seed0.json"
DEFAULT_SEED = 0
SETUP_REPS = 5
TAIL_BEYOND = 10


def declared_metrics(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in declared[kind]}


sys.path.insert(0, str(HERE))
import speed  # noqa: E402
import workloads  # noqa: E402


def limit_blas_threads() -> int:
    """Cap the BLAS and OpenMP pools at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = 0
        if not 1 <= current <= nproc:
            os.environ[var] = str(nproc)
    return nproc


@dataclass
class Record:
    index: int
    round: int
    label: str
    latency_s: float
    cpu_s: float
    traced: bool
    probe_s: float = speed.REFERENCE_S
    bytes_written: int = 0
    problems: list = field(default_factory=list)


def run_job(workload, job, call, out_path, tracer, reference, round_=0, probe=None) -> Record:
    out_path.unlink(missing_ok=True)
    probe_s = probe() if probe is not None else speed.REFERENCE_S
    sink = io.StringIO()
    if tracer is not None:
        tracer.job = job.index
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    problems = []
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = call(job.argv + ["--output", str(out_path)])
    except SystemExit as exc:  # argparse rejects bad argv by exiting
        code = exc.code
    except Exception:  # a job that raises is a failed job; the loop goes on
        code = None
        problems.append(traceback.format_exc(limit=4))
    latency = time.perf_counter() - t0
    record = Record(
        job.index, round_, job.label, latency, time.process_time() - cpu0, tracer is not None, probe_s
    )
    if code == 0:
        record.bytes_written = out_path.stat().st_size
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        problems += workloads.check_payload(workload, job, payload)
        if reference is not None and job.index < len(reference):
            problems += workloads.compare_reference(reference[job.index], payload["results"])
    elif code is not None:
        problems.append(f"exit code {code}: {sink.getvalue()[-400:]}")
    record.problems = problems
    return record


def run_loop(workload, jobs, cli_main, seconds, out_path, tracer=None, reference=None, probe=None):
    """Closed loop, whole rounds; with a tracer, every second round is traced."""
    per_round = workloads.ROUND[workload]
    traced_main = tracer.wrap("cli.main", cli_main) if tracer is not None else None
    records = []
    start = time.perf_counter()
    rounds = 0
    while True:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        try:
            for k in range(per_round):
                job = jobs[(rounds * per_round + k) % len(jobs)]
                records.append(
                    run_job(
                        workload, job, traced_main if traced else cli_main, out_path,
                        tracer if traced else None, reference, rounds, probe,
                    )
                )
        finally:
            if traced:
                tracer.uninstall()
        rounds += 1
        if time.perf_counter() - start >= seconds and (tracer is None or rounds >= 2):
            return records


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND jobs above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def round_throughput(records, latencies) -> float:
    """Jobs per second of busy time in the median round.

    Every round holds the same job mix, so rounds are comparable, and the
    median keeps a burst of contention on a shared machine from moving the
    figure the way it moves a plain total.
    """
    busy = {}
    for r, latency in zip(records, latencies):
        busy[r.round] = busy.get(r.round, 0.0) + latency
    per_round = len(records) / len(busy)
    return per_round / statistics.median(busy.values())


def measure_setup(workload: str, seed: int, probe) -> tuple[list[float], list[float]]:
    """Wall time from spawning a fresh interpreter to its first job being ready.

    Each spawn follows a probe of the machine's speed; both lists are returned.
    """
    samples, probes = [], []
    for _ in range(SETUP_REPS):
        probes.append(probe())
        t0 = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
        )
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        try:
            _, err = child.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            raise
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"setup probe failed: {err[-400:]}")
        samples.append(elapsed)
    return samples, probes


def blas_threads() -> dict:
    """Thread count of each loaded OpenBLAS, asked through its own API."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    found = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        # Plain OpenBLAS, and the prefixed builds numpy and scipy ship.
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


def llc_size() -> str | None:
    try:
        text = subprocess.run(
            ["lscpu"], capture_output=True, text=True, timeout=20, check=True,
            env={**os.environ, "LC_ALL": "C"},
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    caches = dict(
        line.split(":", 1) for line in text.splitlines() if line.startswith(("L2 cache:", "L3 cache:"))
    )
    value = caches.get("L3 cache", caches.get("L2 cache"))
    return value.strip() if value else None


def machine_block(nproc: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "llc": llc_size(),
    }


def load_reference(workload: str, seed: int):
    if seed != DEFAULT_SEED:
        return None
    return json.loads(REFERENCE.read_text(encoding="utf-8"))[workload]


def write_reference(cli_main, work: Path) -> int:
    """Store the leading jobs' results of every workload at the default seed."""
    stored = {}
    for workload in workloads.WORKLOADS:
        jobs = workloads.job_list(workload, DEFAULT_SEED, work)[: workloads.REFERENCE_JOBS[workload]]
        stored[workload] = []
        for job in jobs:
            record = run_job(workload, job, cli_main, work / "out.json", None, None)
            if record.problems:
                print(f"{workload} job {job.index}: {record.problems}", file=sys.stderr)
                return 1
            payload = json.loads((work / "out.json").read_text(encoding="utf-8"))
            stored[workload].append(payload["results"])
    REFERENCE.write_text(json.dumps(stored, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}")
    return 0


def end_to_end(records, setup_samples, setup_probes) -> tuple[dict, dict]:
    """End-to-end values at the reference speed (see speed.py); raw ones go to the notes."""
    raw = [r.latency_s for r in records]
    latencies = [t * f for t, f in zip(raw, speed.factors([r.probe_s for r in records]))]
    setup = [t * f for t, f in zip(setup_samples, speed.factors(setup_probes))]
    tail, percentile = tail_latency(latencies)
    values = {
        "setup_s": statistics.median(setup),
        "jobs_per_s": round_throughput(records, latencies),
        "job_p50_ms": 1000.0 * statistics.median(latencies),
        "job_tail_ms": 1000.0 * tail,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    by_label = {}
    for r, latency in zip(records, latencies):
        by_label.setdefault(r.label, []).append(1000.0 * latency)
    notes = {
        "job_p50_ms_by_class": {k: statistics.median(v) for k, v in by_label.items()},
        "job_tail_percentile": percentile,
        "jobs_per_s_overall": len(records) / sum(latencies),
        "raw": {
            "setup_s": statistics.median(setup_samples),
            "jobs_per_s": round_throughput(records, raw),
            "job_p50_ms": 1000.0 * statistics.median(raw),
            "job_tail_ms": 1000.0 * tail_latency(raw)[0],
        },
        "probe_median_s": statistics.median(r.probe_s for r in records),
        "setup_samples_s": setup_samples,
    }
    return values, notes


def per_layer(records, tracer) -> tuple[dict, dict]:
    from tracer import layer_metrics

    traced = [r for r in records if r.traced]
    plain = [r for r in records if not r.traced]
    values = layer_metrics(tracer.spans, len(traced))
    values["cli.bytes_written"] = statistics.fmean(r.bytes_written for r in traced)
    values["process.cpu_s"] = statistics.fmean(r.cpu_s for r in traced)
    untraced_rate = len(plain) / sum(r.latency_s for r in plain)
    traced_rate = len(traced) / sum(r.latency_s for r in traced)
    values["trace.untraced_jobs_per_s"] = untraced_rate
    values["trace.traced_jobs_per_s"] = traced_rate
    notes = {
        "traced_jobs": len(traced), "untraced_jobs": len(plain),
        "trace_overhead_frac": 1.0 - traced_rate / untraced_rate,
    }
    return values, notes


def split_declared(values: dict, kind: str) -> tuple[dict, dict]:
    """The metrics BENCHMARK.json declares, with their units, and the rest as notes."""
    units = declared_metrics(kind)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return metrics, {k: v for k, v in values.items() if k not in units}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--write-reference", action="store_true",
        help=f"rewrite {REFERENCE.name} from the leading jobs of each workload at seed {DEFAULT_SEED}",
    )
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_reference:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "matprox" / "cli.py").is_file():
        print(f"perfbench: no matprox sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = limit_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    from matprox.cli import main as cli_main

    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.write_reference:
            return write_reference(cli_main, work)
        jobs = workloads.job_list(args.workload, args.seed, work)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        reference = load_reference(args.workload, args.seed)
        out_path = work / "out.json"
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            records = run_loop(args.workload, jobs, cli_main, args.seconds, out_path, tracer, reference)
            values, notes = per_layer(records, tracer)
            metrics, extra = split_declared(values, "per_layer")
            tracer.write(OUT_DIR / f"trace-{args.workload}.jsonl.gz")
        else:
            probe = speed.Probe()
            setup_samples, setup_probes = measure_setup(args.workload, args.seed, probe)
            records = run_loop(args.workload, jobs, cli_main, args.seconds, out_path, None, reference, probe)
            values, notes = end_to_end(records, setup_samples, setup_probes)
            metrics, extra = split_declared(values, "end_to_end")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [
        {"job": r.index, "label": r.label, "problems": r.problems} for r in records if r.problems
    ]
    for name, metric in metrics.items():
        print(f"{args.workload:9s} {name} = {metric['value']:.6g} {metric['unit']}")
    # fail_frac is never a metric: it is 0 on a healthy program.
    fail_frac = len(failures) / len(records)
    print(f"{args.workload:9s} fail_frac = {fail_frac:.6g} frac ({len(failures)} of {len(records)} jobs)")
    if "job_tail_percentile" in notes:
        print(f"{args.workload:9s} job_tail_ms is p{notes['job_tail_percentile']:.1f} of {len(records)} jobs")
    if "trace_overhead_frac" in notes:
        print(f"{args.workload:9s} tracing overhead = {notes['trace_overhead_frac']:.3g} of untraced jobs_per_s")
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "jobs": len(records), "fail_frac": fail_frac, "reference_checked": reference is not None,
        "machine": machine_block(nproc), **notes, **extra, "failures": failures[:5],
    }
    print(json.dumps({"report": report}, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
