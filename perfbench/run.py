"""Pipeline benchmark for trifield.

Run from the root of a source checkout (the package is imported from
`src/`, never from an installed copy):

    python3 perfbench/run.py --workload conv-ex2-256 --seed 1 --seconds 20 --trace 0

One closed-loop caller in one process calls `trifield.run_study` or
`trifield.run_oracle_check` back to back, with one BLAS thread. A pass is
one round over the workload's calls. After a warm-up of at least one pass
and WARMUP_SECONDS, passes repeat until `--seconds` have elapsed, not
counting the set-up probes timed between them; every output is checked
against `references.json`, the paper's rate targets or the oracle tolerance.

`--trace 0` prints the end-to-end metrics (wall_s = fastest pass;
point_p50_ms and point_tail_ms = p50 and p90 over the pass's calls of each
call's fastest run; setup_s; peak_rss_mb). `--trace 1`
alternates untraced and traced passes and prints the per-layer metrics of
`tracer.METRICS`; the spans are written to `.bench_out/`. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}, where attempted and failed count output checks (failed_frac =
failed / attempted).
`--tiny` shrinks every workload for the benchmark's own smoke test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

#: BLAS threads for the measured process and the set-up probes; one thread
#: (at most nproc) keeps the dense LU of the oracle workload steady
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: fresh processes timed for setup_s; the median is reported. They are spread
#: evenly over the measured time, between passes, so that the median samples
#: the host over the whole run rather than over its first seconds.
SETUP_RUNS = 7

#: the first conv pass runs ~20% slow, so at least one pass is discarded
WARMUP_SECONDS = 1.0

#: Timings are built from fastest runs, not from medians over the run: this
#: host's speed drifts by up to 2x within a run and between runs (a pure-Python
#: loop slows in step with the workload), so a median or tail over time
#: measures how busy the host was. The fastest run is the program's cost when
#: nothing interferes; the median and quartiles over time are printed beside.
#: point_tail_ms is this percentile, by nearest rank, over the calls of a pass
#: (each at its fastest run), so it is the same percentile at any speed: the
#: 18th-fastest of the 20 sweep points, the slower oracle example, and on conv
#: (one call) the call itself.
TAIL_PERCENTILE = 90

END_TO_END = (
    ("wall_s", "s"),
    ("point_p50_ms", "ms"),
    ("point_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes and a single set-up probe (smoke test)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def checkout_src(root: Path) -> Path:
    src = root / "src"
    if not (src / "trifield" / "__init__.py").is_file():
        sys.exit(f"error: {root} holds no trifield sources (src/trifield); "
                 "run from the root of a checkout")
    return src


def prepare(src: Path) -> None:
    """Pin BLAS threads before numpy loads and import trifield from `src`."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))


def measure_setup(args: argparse.Namespace, root: Path) -> float:
    """Seconds from process start until trifield is imported and the
    workload inputs are built, in a fresh process."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


class Runner:
    """Runs passes over the workload's calls and checks every outcome."""

    def __init__(self, calls, references: dict):
        self.calls = calls
        self.references = references
        self.attempted = 0
        self.failures: list[str] = []
        self.next_point = 0

    def run_pass(self, tracer=None) -> tuple[float, list[float]]:
        """One pass; returns its wall time and the latency of every call."""
        data = [call.data for call in self.calls]
        if tracer is not None:
            data = [d if d is None else tracer.wrap_problem(d) for d in data]
        outcomes, latencies = [], []
        start = time.perf_counter()
        for call, call_data in zip(self.calls, data):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    outcome = call.run(call_data)
                else:
                    tracer.point = self.next_point
                    with tracer.span(call.entry, "cli"):
                        outcome = call.run(call_data)
            except Exception:  # a failing call is a failed check, not a crash
                outcome = traceback.format_exc(limit=-2)
            latencies.append(time.perf_counter() - t0)
            outcomes.append(outcome)
            self.next_point += 1
        wall = time.perf_counter() - start
        for call, outcome in zip(self.calls, outcomes):
            self.attempted += call.num_checks()
            if isinstance(outcome, str):
                reason = outcome.strip().splitlines()[-1]
                self.failures += [f"{call.entry} raised {reason}"] * call.num_checks()
            else:
                self.failures += call.check(outcome, self.references)
        return wall, latencies


def tail(samples: list[float]) -> tuple[float, int]:
    """(value, samples beyond it) of the TAIL_PERCENTILE by nearest rank."""
    ordered = sorted(samples)
    rank = math.ceil(TAIL_PERCENTILE / 100.0 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}"


def _l3_cache() -> str:
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                return (index / "size").read_text().strip()
        except OSError:
            break
    return "unknown"


def _git_commit(root: Path) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30,
                             env={**os.environ, "GIT_DIR": str(root / ".git")})
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def environment(root: Path, src: Path) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted((src / "trifield").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "l3_cache": _l3_cache(),
        "git_commit": _git_commit(root),
        "src_sha256": digest.hexdigest()[:16],
    }


def write_spans(root: Path, args, tracer) -> Path:
    out = root / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.json"
    out.parent.mkdir(exist_ok=True)
    t0 = tracer.spans[0][2] if tracer.spans else 0.0
    rows = [[name, layer, start - t0, end - t0, parent, point, counts]
            for name, layer, start, end, parent, point, counts in tracer.spans]
    out.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "unwrapped": tracer.unwrapped,
        "columns": ["name", "layer", "start_s", "end_s", "parent", "point", "counts"],
        "spans": rows,
    }))
    return out


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = checkout_src(root)
    prepare(src)
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.setup_probe:
        workloads.build_calls(args.workload, args.seed, args.tiny)
        print("ready", flush=True)
        return 0

    probes = 0 if args.trace else 1 if args.tiny else SETUP_RUNS

    import trifield
    import tracer as tracing

    if not Path(trifield.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"error: trifield was imported from {trifield.__file__}, not {src}")
    calls = workloads.build_calls(args.workload, args.seed, args.tiny)
    runner = Runner(calls, workloads.load_references())

    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} tiny={args.tiny}")
    print(f"# why: {workloads.WORKLOADS[args.workload]}")
    print("# environment: " + json.dumps(environment(root, src), sort_keys=True))
    print("# calls per pass: " + "; ".join(
        f"{c.entry}({c.config.example.value}, levels={list(c.config.levels)}, "
        f"r={c.config.r}, alpha={c.config.alpha})" for c in calls))

    warm_start = time.perf_counter()
    warmup = 0
    while warmup == 0 or time.perf_counter() - warm_start < WARMUP_SECONDS:
        runner.run_pass()
        warmup += 1

    tracer = tracing.Tracer() if args.trace else None
    plain_walls, traced_walls, per_pass = [], [], []
    per_call: list[list[float]] = [[] for _ in calls]  # untraced latencies of each call
    setup: list[float] = []
    start = time.perf_counter()
    while True:
        measured = time.perf_counter() - start - sum(setup)  # probes do not count
        if len(setup) < probes and measured >= len(setup) * args.seconds / probes:
            setup.append(measure_setup(args, root))
        if tracer is not None and len(traced_walls) < len(plain_walls):
            first = len(tracer.spans)
            with tracer.installed():
                wall, _ = runner.run_pass(tracer)
            traced_walls.append(wall)
            per_pass.append(tracing.pass_metrics(tracer.spans, first, wall))
        else:
            wall, lat = runner.run_pass()
            plain_walls.append(wall)
            for samples, x in zip(per_call, lat):
                samples.append(x)
        done = time.perf_counter() - start - sum(setup) >= args.seconds
        if done and len(setup) == probes and (tracer is None or traced_walls):
            break

    print(f"# passes: {warmup} warm-up, {len(plain_walls)} untraced, "
          f"{len(traced_walls)} traced; {len(calls)} calls per pass")
    if tracer is None:
        fastest = [min(samples) for samples in per_call]
        latencies = [x for samples in per_call for x in samples]
        tail_value, beyond = tail(fastest)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        values = {
            "wall_s": (min(plain_walls), f"fastest pass; median "
                       f"{statistics.median(plain_walls):.6g}, {spread(plain_walls)}"),
            "point_p50_ms": (1e3 * statistics.median(fastest),
                             f"median over {len(calls)} calls of each one's fastest "
                             f"run; all runs: median {1e3 * statistics.median(latencies):.6g}, "
                             f"{spread([1e3 * x for x in latencies])}"),
            "point_tail_ms": (1e3 * tail_value,
                              f"p{TAIL_PERCENTILE} over {len(calls)} calls of each one's "
                              f"fastest run, {beyond} beyond it; all {len(latencies)} runs: "
                              f"p{TAIL_PERCENTILE} {1e3 * tail(latencies)[0]:.6g}"),
            "setup_s": (statistics.median(setup),
                        f"median of fresh processes, {spread(setup)}"),
            "peak_rss_mb": (rss_mb, "peak resident set of this process (ru_maxrss)"),
        }
        units = dict(END_TO_END)
    else:
        values, repeat = tracing.combine_passes(per_pass)
        values["trace.overhead_frac"] = min(traced_walls) / min(plain_walls) - 1.0
        values["trace.unwrapped"] = len(tracer.unwrapped)
        values = {name: (values[name], "") for name, _ in tracing.METRICS}
        units = dict(tracing.METRICS)
        print(f"# traced pass wall: median {statistics.median(traced_walls):.6g} s, "
              f"{spread(traced_walls)}; counts repeat in every traced pass: {repeat}")
        print("# unwrapped targets: " + (", ".join(tracer.unwrapped) or "none"))
        print("# linsolve.spmv_bytes_per_iteration is computed from nnz and the index "
              "and value widths (CSR arrays plus x and y), not measured")
        print(f"# spans written to {write_spans(root, args, tracer).relative_to(root)}")

    failed = len(runner.failures)
    for name, (value, detail) in values.items():
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"{name:36s} {shown} {units[name]:6s} {detail}")
    print(f"{'failed_frac':36s} {failed / runner.attempted:>16.6g} {'1':6s} "
          f"{failed} of {runner.attempted} output checks failed")
    for message in runner.failures[:10]:
        print(f"# FAILED {message}")

    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in values.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
