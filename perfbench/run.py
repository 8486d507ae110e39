"""curvkind benchmark: one workload per process, a closed loop of one client.

    python3 perfbench/run.py --workload analyze-cap --seed 1 --seconds 20 --trace 0

Run from the repository root.  The library is imported from ./src.  The
workload's inputs are generated from --seed; ops run back to back in whole
cycles of the workload's op list until at least --seconds have passed, so
every run times the same mix.  Every op's outcome is then checked against
references computed independently of the library (reference.py).

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same untraced
window, then a traced one, and prints per-layer metrics from the spans.  The
last line of stdout is the result as one JSON object.  A full report (the
environment, per-op sizes and any mismatches) and, when traced, the spans
are written under perfbench/.work/.
"""

import time

PROCESS_START = time.perf_counter()

import argparse
import ctypes
import hashlib
import importlib
import json
import os
from collections import Counter
from dataclasses import dataclass
import math
from pathlib import Path
import platform
import resource
import shutil
import statistics
import subprocess
import sys

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import workloads  # noqa: E402

LIBRARY_MODULES = ("cli", "bochner", "operators", "weights", "model_spaces", "tensor_core")
# Setup is timed in this process and in fresh processes, this many in all.
SETUP_SAMPLES = 5
# Candidate tail percentiles; the highest with at least TAIL_BEYOND samples
# above it is reported.
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def load_library():
    """Import curvkind from this checkout's sources, or exit with code 2."""
    init = SRC / "curvkind" / "__init__.py"
    if not init.is_file():
        _fail(f"curvkind sources not found at {init}")
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("curvkind")
    if Path(package.__file__).resolve() != init.resolve():
        _fail(f"imported curvkind from {package.__file__}, not {init}")
    return {name: importlib.import_module(f"curvkind.{name}") for name in LIBRARY_MODULES}


def warm_up(modules):
    """The first large eigensolve of a process is ~10x slower than later
    ones, and the first CLI call pays one-off costs; both are paid here,
    before the first op."""
    import numpy as np

    A = np.random.default_rng(0).standard_normal((924, 924))
    np.linalg.eigvalsh(A + A.T)
    workloads.run_cli(modules["cli"], ["spectrum", "--model", '{"kind": "product_sphere", "n": 4}'])()


@dataclass
class Phase:
    latencies: list
    outcomes: Counter  # (op index, digest) -> count
    wall: float


def measure(ops, seconds, tracer=None):
    """Run whole cycles of `ops` back to back until `seconds` have passed.
    Latencies are in op order, cycle after cycle."""
    latencies, outcomes = [], Counter()
    start = time.perf_counter()
    while True:
        for i, op in enumerate(ops):
            t = time.perf_counter()
            raw = op.run() if tracer is None else tracer.run_op(len(latencies), op.run)
            latencies.append(time.perf_counter() - t)
            outcomes[i, op.digest(raw)] += 1
        if time.perf_counter() - start >= seconds:
            return Phase(latencies, outcomes, time.perf_counter() - start)


def verify(ops, phase):
    """Check every distinct outcome of a phase once; returns failed counts and
    the first mismatches per op index."""
    failed, problems = Counter(), {}
    for (i, digest), count in phase.outcomes.items():
        errors = ops[i].check(digest)
        if errors:
            failed[i] += count
            problems.setdefault(i, errors[:5])
    return failed, problems


def tail(latencies):
    """The highest ladder percentile with at least TAIL_BEYOND samples above
    it, interpolated linearly between order statistics (so p50 is the
    median); p50 when no rung qualifies."""
    ordered = sorted(latencies)
    count = len(ordered)
    chosen = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        if count - 1 - math.floor(q / 100 * (count - 1)) >= TAIL_BEYOND:
            chosen = q
    h = chosen / 100 * (count - 1)
    low = math.floor(h)
    high = min(low + 1, count - 1)
    value = ordered[low] + (h - low) * (ordered[high] - ordered[low])
    return {"percentile": chosen, "value_s": value, "samples": count,
            "beyond": sum(1 for x in ordered if x > value)}


def blas_threads():
    """Thread count of the BLAS library loaded into this process, if known."""
    try:
        with open("/proc/self/maps") as handle:
            libs = {line.split()[-1] for line in handle if "blas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads", "MKL_Get_Max_Threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(args):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "curvkind").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def setup_in_fresh_process(args):
    """Setup time of another process that does only the setup."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def end_to_end(phase, failed, setup_samples, peak_rss_mb):
    attempted = len(phase.latencies)
    ok = attempted - sum(failed.values())
    t = tail(phase.latencies)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "throughput_ops_s": (ok / phase.wall, "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(phase.latencies), "ms"),
        "latency_tail_ms": (1e3 * t["value_s"], "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_frac": (ok / attempted, "1"),
    }, t


def per_layer(ops, untraced, traced, tracer, failed_untraced, failed_traced):
    n_ops = len(traced.latencies)
    calls, self_s = tracer.per_op(n_ops)
    metrics = {}
    for name in spans.SPAN_NAMES:
        metrics[f"{name}.calls"] = (calls[name], "calls/op")
        metrics[f"{name}.self_s"] = (self_s[name], "s/op")
    metrics["bochner.ric_l_matrix.entries"] = (
        sum(tracer.probed["bochner.ric_l_matrix"]) / n_ops, "entries/op")
    metrics["operators.spectrum.max_dim"] = (max(tracer.probed["operators.spectrum"], default=0), "rows")
    cli_bytes = sum(len(digest[1]) * count for (i, digest), count in traced.outcomes.items()
                    if not ops[i].form_path)
    metrics["cli.output_bytes"] = (cli_bytes / n_ops, "bytes/op")
    form_ops = [op for op in ops if op.form_path]
    peak = max((spans.traced_peak_bytes(op.run) for op in form_ops), default=0)
    metrics["bochner.peak_traced_mb"] = (peak / 2**20, "MB")
    metrics["bochner.dense_bytes"] = (
        max((op.sizes["dense_bytes"] for op in form_ops), default=0), "bytes_computed")
    ok_untraced = len(untraced.latencies) - sum(failed_untraced.values())
    ok_traced = n_ops - sum(failed_traced.values())
    metrics["bench.tracing_overhead"] = (
        (ok_untraced / untraced.wall) / (ok_traced / traced.wall), "ratio")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    modules = load_library()
    workdir = HERE / ".work" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    inputs = workdir / "inputs"
    inputs.mkdir(parents=True)
    try:
        ops = workloads.WORKLOADS[args.workload](args.seed, inputs, modules)
        warm_up(modules)
        setup = time.perf_counter() - PROCESS_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup}))
            return 0

        untraced = measure(ops, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        phases = [untraced]
        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            tracer.install(modules)
            try:
                phases.append(measure(ops, args.seconds, tracer))
            finally:
                tracer.uninstall()
        verdicts = [verify(ops, phase) for phase in phases]
        setup_samples = [setup] + [setup_in_fresh_process(args) for _ in range(SETUP_SAMPLES - 1)]
    finally:
        shutil.rmtree(workdir if args.setup_only else inputs, ignore_errors=True)

    failed = Counter()
    problems = {}
    for phase_failed, phase_problems in verdicts:
        failed.update(phase_failed)
        problems.update(phase_problems)
    attempted = sum(len(phase.latencies) for phase in phases)
    correct = all(not ops[i].well_formed for i in failed)

    metrics, tail_info = end_to_end(untraced, verdicts[0][0], setup_samples, peak_rss_mb)
    if args.trace:
        metrics = per_layer(ops, untraced, phases[1], tracer, verdicts[0][0], verdicts[1][0])
        tracer.write(workdir / "spans.csv")

    env = environment(args)
    per_op = Counter()
    for phase in phases:
        for (i, _), count in phase.outcomes.items():
            per_op[i] += count
    report = {
        "environment": env,
        "setup_samples_s": setup_samples,
        "tail": tail_info,
        "failed_frac": sum(failed.values()) / attempted,
        "traced_names_missing": tracer.missing if tracer else [],
        "ops": [{"label": op.label, "sizes": op.sizes, "well_formed": op.well_formed,
                 "runs": per_op[i],
                 "median_latency_ms": 1e3 * statistics.median(untraced.latencies[i::len(ops)]),
                 "failed": failed[i], "mismatches": problems.get(i, [])}
                for i, op in enumerate(ops)],
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    (workdir / "report.json").write_text(json.dumps(report, indent=1) + "\n")

    print("env: " + json.dumps(env, sort_keys=True))
    print(f"tail: p{tail_info['percentile']:g} of {tail_info['samples']} samples, "
          f"{tail_info['beyond']} beyond it")
    print(f"failed_frac: {report['failed_frac']:.6f} ({sum(failed.values())} of {attempted} ops)")
    for i in sorted(problems):
        print(f"failed op: {ops[i].label}: {'; '.join(problems[i])}")
    if tracer and tracer.missing:
        print("traced names not found: " + ", ".join(tracer.missing))
    print(f"report: {workdir.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": sum(failed.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
