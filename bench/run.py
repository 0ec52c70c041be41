#!/usr/bin/env python3
"""finpop benchmark: one run of one workload.

    python3 bench/run.py --workload mc_wor_wide --seed 1 --seconds 15 --trace 0

Run it from the root of a finpop checkout; it measures the code under
``./src`` and nothing installed elsewhere.  From the seed it writes the
workload's population and design files under ``.bench_work/`` and hands the
program only those files.  The load is a closed loop with one client: jobs
run one after another in a single process tree, with BLAS/OpenMP pinned to
one thread.

--trace 0 runs every CLI job as a ``python3 -m finpop.cli`` subprocess, in
passes over the workload's fixed job list until ``--seconds`` have passed
(scalar_api runs its call mix in one child process instead), and reports the
end-to-end metrics.  --trace 1 runs the same jobs in this process, passes
alternately untraced and traced, and reports the per-layer metrics.

Every job's output is checked.  The output is informational lines (host
facts, per-job figures, every metric with its unit and sample count), then
as the last line one JSON object with the keys correct, attempted, failed
and metrics.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path
from typing import Optional

import jobs as jobs_mod
from tracing import Span, Tracer

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MIN_SETUP_PROBES = 5  # fresh processes per set-up measurement; the median is reported
IMPORT_PROBES = 3
SCALAR_PASSES = 50  # mix passes per scalar_api child: fixed, so its peak RSS does not grow with speed
WATCHDOG_S = 170  # a run must end within 180 s

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

CALL_LAYERS = jobs_mod.EXPECTED_LAYERS["scalar_api"]  # public per-sample calls
SELF_TIME_LAYERS = (
    ("verify.simulate_blocks_s", "verify.simulate_blocks"),
    ("verify.run_monte_carlo.self_s", "verify.run_monte_carlo"),
    ("verify.relative_efficiency.self_s", "verify.relative_efficiency"),
    ("verify.enumerate_moments_s", "verify.enumerate_moments"),
    ("verify.count_distributions_upto_s", "verify.count_distributions_upto"),
    ("verify.count_moments_s", "verify.count_moments"),
    ("distributions.pmf_s", "distributions.pmf"),
    ("verify.estimator_spec_s", "verify.estimator_spec"),
    ("population.instance_from_mapping_s", "population.instance_from_mapping"),
    ("population.compute_networks_s", "population.compute_networks"),
    ("population.extend_pps_s", "population.extend_pps"),
    ("population.flatten_networks_s", "population.flatten_networks"),
    ("cli.main.self_s", "cli.main"),
)
PER_LAYER = (
    tuple((metric, "s") for metric, _ in SELF_TIME_LAYERS)
    + (
        ("verify.simulate_blocks.trials_per_s", "1/s"),
        ("verify.enumerate_moments.outcomes", "count"),
        ("verify.enumerate_moments.refused", "count"),
        ("verify.count_distributions_upto.states", "count"),
    )
    + tuple((f"{name}.call_us", "us") for name in CALL_LAYERS)
    + (
        ("cli.import_s", "s"),
        ("cli.output_bytes", "count"),
        ("trace.overhead_s", "s"),
    )
)


class BenchError(Exception):
    """The benchmark cannot produce a result; exit non-zero without one."""


class Outcome:
    """Attempted and failed operations, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, what: str, error: Optional[str]) -> None:
        self.add(what, 1, [] if error is None else [error])

    def add(self, what: str, attempted: int, errors: list[str], failed: Optional[int] = None) -> None:
        self.attempted += attempted
        self.failed += len(errors) if failed is None else failed
        self.errors.extend(f"{what}: {e}" for e in errors[: 10 - len(self.errors)])


def _timeout(signum, frame):
    raise TimeoutError(f"benchmark run exceeded {WATCHDOG_S} s")


def host_facts(args: argparse.Namespace) -> dict:
    import numpy

    import finpop

    llc = None
    for level in ("LEVEL3_CACHE_SIZE", "LEVEL2_CACHE_SIZE"):
        try:
            text = subprocess.run(["getconf", level], capture_output=True, text=True,
                                  timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            break
        if text.isdigit() and int(text) > 0:
            llc = {"level": level, "bytes": int(text)}
            break
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "last_level_cache": llc,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "finpop": finpop.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


def run_child(cmd: list[str], out_path: Path, root: Path) -> tuple[int, float, float, str]:
    """Run one child to completion: (exit code, wall s, peak RSS MB, stderr).

    The child is reaped with wait4 so its own peak RSS is read, not the
    running maximum over all children.
    """
    err_path = out_path.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=root)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss / 1024.0, err_path.read_text()[-2000:]


def probe(root: Path, workdir: Path, manifest: Path) -> dict:
    """One fresh-process set-up timing."""
    out = workdir / "probe.out"
    cmd = [sys.executable, str(Path(__file__).with_name("probe.py")), str(manifest)]
    rc, _, _, err = run_child(cmd, out, root)
    if rc != 0:
        raise BenchError(f"set-up probe failed with exit code {rc}:\n{err}")
    return json.loads(out.read_text().splitlines()[-1])


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics.

class CliPasses:
    """Passes over the job list, each job a `finpop` CLI subprocess."""

    def __init__(self, args, root: Path, workdir: Path, jobs: list, outcome: Outcome) -> None:
        if args.corrupt_fpc:
            self.launcher = [sys.executable, str(Path(__file__).with_name("corrupt.py"))]
        else:
            self.launcher = [sys.executable, "-m", "finpop.cli"]
        self.root, self.out_path, self.jobs, self.outcome = root, workdir / "job.out", jobs, outcome
        self.times: dict[str, list[float]] = {job.name: [] for job in jobs}
        self.rss: list[float] = []

    def run_pass(self) -> None:
        for job in self.jobs:
            rc, elapsed, peak_mb, err = run_child(self.launcher + job.argv, self.out_path, self.root)
            self.outcome.record(job.name, jobs_mod.check(job, rc, self.out_path.read_text(), err))
            self.times[job.name].append(elapsed)
            self.rss.append(peak_mb)

    def metrics(self) -> dict:
        for job in self.jobs:
            t = self.times[job.name]
            print(f"job {job.name:<28} mean_s={statistics.fmean(t):.4f} min_s={min(t):.4f} "
                  f"max_s={max(t):.4f} runs={len(t)} units={job.units}")
        # Means, not medians: the host's speed drifts between a few levels
        # over seconds to minutes, and a median flips between them where a
        # mean moves smoothly with the share of time spent at each.
        wall = math.fsum(statistics.fmean(t) for t in self.times.values())
        samples = [t for ts in self.times.values() for t in ts]
        return {
            "wall_s": wall,
            "work_per_s": sum(job.units for job in self.jobs) / wall,
            "call_us.p50": statistics.median(samples) * 1e6,
            "call_us.p99": statistics.quantiles(samples, n=100, method="inclusive")[98] * 1e6,
            "peak_rss_mb": max(self.rss),
            "_samples": len(samples),
            "_passes": len(samples) // len(self.jobs),
        }


class ScalarPasses:
    """Child processes that each run a fixed number of passes of the scalar mix."""

    def __init__(self, args, root: Path, workdir: Path, inputs: Path, outcome: Outcome) -> None:
        self.args, self.root, self.inputs, self.outcome = args, root, inputs, outcome
        self.out_path = workdir / "scalar.out"
        self.pass_s: list[float] = []
        self.latencies: list[float] = []
        self.draws = 0
        self.rss: list[float] = []

    def run_pass(self) -> None:
        cmd = [sys.executable, str(Path(__file__).with_name("scalar.py")),
               "--inputs", str(self.inputs), "--passes", str(5 if self.args.tiny else SCALAR_PASSES),
               "--rng-seed", str(self.args.seed * 1000 + len(self.rss))]
        rc, _, peak_mb, err = run_child(cmd, self.out_path, self.root)
        if rc != 0:
            raise BenchError(f"scalar mix exited with code {rc}:\n{err}")
        report = json.loads(self.out_path.read_text().splitlines()[-1])
        self.outcome.add("scalar call", len(report["latencies"]), report["errors"], report["failed"])
        self.pass_s += report["pass_s"]
        self.latencies += report["latencies"]
        self.draws += report["draws"]
        self.rss.append(peak_mb)

    def metrics(self) -> dict:
        return {
            "wall_s": statistics.fmean(self.pass_s),
            "work_per_s": self.draws / math.fsum(self.latencies),
            "call_us.p50": statistics.median(self.latencies) * 1e6,
            "call_us.p99": statistics.quantiles(self.latencies, n=100, method="inclusive")[98] * 1e6,
            "peak_rss_mb": max(self.rss),
            "_samples": len(self.latencies),
            "_passes": len(self.pass_s),
        }


def measure(args, root: Path, workdir: Path, manifest: Path, passes) -> dict:
    """Alternate one pass of the workload with one set-up probe for
    --seconds, so that drifts in host speed reach both alike.  A pass is
    started only if it is expected to end in time."""
    setups: list[float] = []
    start = time.perf_counter()
    longest = 0.0
    while not setups or time.perf_counter() - start + longest < args.seconds:
        began = time.perf_counter()
        passes.run_pass()
        setups.append(probe(root, workdir, manifest)["setup_s"])
        longest = max(longest, time.perf_counter() - began)
    while len(setups) < MIN_SETUP_PROBES:
        setups.append(probe(root, workdir, manifest)["setup_s"])
    metrics = passes.metrics()
    metrics["setup_s"] = statistics.median(setups)
    metrics["_setups"] = len(setups)
    return metrics


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics from an in-process run.

def _cli_pass(jobs: list, tracer: Tracer) -> tuple[float, list]:
    import finpop.cli

    results = []
    start = time.perf_counter()
    for job in jobs:
        tracer.job = job.name
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = finpop.cli.main(job.argv)
            except Exception:  # a traceback is a failed job, not a crashed benchmark
                rc = -1
                err.write(traceback.format_exc())
        results.append((job, rc, out.getvalue(), err.getvalue()))
    return time.perf_counter() - start, results


def _layer_stats(tracer: Tracer) -> dict:
    own = tracer.self_times()
    self_s: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    refused = 0
    calls: dict[str, list[float]] = defaultdict(list)
    for span, t in zip(tracer.spans, own):
        self_s[span.name] += t
        counts[span.name] += span.count
        if span.name == "verify.enumerate_moments" and span.error == "EnumerationLimitError":
            refused += 1
        if span.parent is None:
            calls[span.name].append(span.end - span.start)
    return {"self_s": self_s, "counts": counts, "refused": refused, "calls": calls,
            "covered_s": math.fsum(own)}


def measure_traced(args, jobs: Optional[list], universes, outcome: Outcome,
                   spans_path: Path) -> dict:
    tracer = Tracer()
    untraced, traced, stats, output_bytes, all_spans = [], [], [], [], []
    if jobs is not None:
        def one_pass():
            return _cli_pass(jobs, tracer)

        def check(results) -> int:
            for job, rc, output, err in results:
                outcome.record(job.name, jobs_mod.check(job, rc, output, err))
            return sum(len(r[2].encode()) for r in results)
    else:
        import numpy as np

        import scalar

        rng = np.random.default_rng(args.seed)

        def one_pass():
            tracer.job = "scalar_mix"
            start = time.perf_counter()
            entries = scalar.run_pass(universes, rng)
            return time.perf_counter() - start, entries

        def check(entries) -> int:
            for name, _, result, expect in entries:
                outcome.record(name, scalar.validate(result, expect))
            return 0

    seen: set[str] = set()
    start = time.perf_counter()
    longest = 0.0
    while not traced or time.perf_counter() - start + longest < args.seconds:
        began = time.perf_counter()
        elapsed, results = one_pass()
        untraced.append(elapsed)
        check(results)
        tracer.reset()
        with tracer.installed():
            elapsed, results = one_pass()
        traced.append(elapsed)
        output_bytes.append(check(results))
        stats.append(_layer_stats(tracer))
        seen.update(s.name for s in tracer.spans)
        all_spans.append([dataclasses.astuple(s) for s in tracer.spans])
        longest = max(longest, time.perf_counter() - began)

    spans_path.write_text(json.dumps({
        "fields": [f.name for f in dataclasses.fields(Span)],
        "passes": all_spans,
    }))

    missing = [name for name in jobs_mod.EXPECTED_LAYERS[args.workload] if name not in seen]
    if missing:
        raise BenchError(f"layers recorded no spans on {args.workload}: {', '.join(missing)}")

    med, mean = statistics.median, statistics.fmean
    metrics: dict[str, float] = {}
    for metric, span_name in SELF_TIME_LAYERS:
        metrics[metric] = mean(s["self_s"].get(span_name, 0.0) for s in stats)
    blocks_s = math.fsum(s["self_s"].get("verify.simulate_blocks", 0.0) for s in stats)
    blocks_trials = math.fsum(s["counts"].get("verify.simulate_blocks", 0.0) for s in stats)
    metrics["verify.simulate_blocks.trials_per_s"] = blocks_trials / blocks_s if blocks_s else 0.0
    metrics["verify.enumerate_moments.outcomes"] = med(
        s["counts"].get("verify.enumerate_moments", 0.0) for s in stats)
    metrics["verify.enumerate_moments.refused"] = med(s["refused"] for s in stats)
    metrics["verify.count_distributions_upto.states"] = med(
        s["counts"].get("verify.count_distributions_upto", 0.0) for s in stats)
    for name in CALL_LAYERS:
        durations = [d for s in stats for d in s["calls"].get(name, ())]
        metrics[f"{name}.call_us"] = med(durations) * 1e6 if durations else 0.0
    metrics["cli.output_bytes"] = med(output_bytes)
    metrics["trace.overhead_s"] = mean(traced) - mean(untraced)

    traced_total = math.fsum(traced)
    coverage = math.fsum(s["covered_s"] for s in stats) / traced_total
    print(f"accounting traced_wall_s={mean(traced):.6f} untraced_wall_s={mean(untraced):.6f} "
          f"layer_self_share={coverage:.4f} traced_passes={len(traced)}")
    layer_total: dict[str, float] = defaultdict(float)
    for s in stats:
        for name, t in s["self_s"].items():
            layer_total[name] += t
    for name, t in sorted(layer_total.items(), key=lambda item: -item[1]):
        print(f"layer {name:<44} self_share={t / traced_total:.4f}")
    return metrics


# ---------------------------------------------------------------------------

def run(args: argparse.Namespace, root: Path, workdir: Path) -> dict:
    outcome = Outcome()
    manifest = workdir / "manifest.json"
    jobs = universes = None
    if args.workload == "scalar_api":
        inputs = jobs_mod.make_scalar_inputs(args.seed, workdir, args.tiny)
        manifest.write_text(json.dumps({"scalar_inputs": str(inputs)}))
    else:
        jobs = jobs_mod.make_cli_jobs(args.workload, args.seed, workdir, args.tiny)
        manifest.write_text(json.dumps({"jobs": [
            {"population": j.population, "design": j.design, "kind": j.kind} for j in jobs]}))

    print("host " + json.dumps(host_facts(args)))
    if args.corrupt_fpc:
        import corrupt

        corrupt.force_fpc_to_one()

    if args.trace:
        imports = [probe(root, workdir, manifest) for _ in range(IMPORT_PROBES)]
        if jobs is None:
            import scalar

            universes = scalar.build(json.loads(inputs.read_text()))
        spans_path = workdir.parent / f"spans-{args.workload}-{args.seed}.json"
        metrics = measure_traced(args, jobs, universes, outcome, spans_path)
        print(f"spans {spans_path.relative_to(root)}")
        metrics["cli.import_s"] = statistics.median(p["import_s"] for p in imports)
        wanted = PER_LAYER
    else:
        if jobs is None:
            passes = ScalarPasses(args, root, workdir, inputs, outcome)
        else:
            passes = CliPasses(args, root, workdir, jobs, outcome)
        metrics = measure(args, root, workdir, manifest, passes)
        work_name = jobs_mod.WORK_UNIT[args.workload]
        print(f"metric setup_s {metrics['setup_s']:.6f} s "
              f"(median of {metrics['_setups']} fresh processes)")
        print(f"metric wall_s {metrics['wall_s']:.6f} s (mean pass of {metrics['_passes']})")
        print(f"metric {work_name} {metrics['work_per_s']:.6g} 1/s (reported as work_per_s)")
        for q in ("p50", "p99"):
            print(f"metric call_us.{q} {metrics['call_us.' + q]:.3f} us (n={metrics['_samples']})")
        print(f"metric peak_rss_mb {metrics['peak_rss_mb']:.3f} MB")
        wanted = END_TO_END

    print(f"metric fail_ratio {outcome.failed / max(1, outcome.attempted):.6g} ratio "
          f"(failed={outcome.failed} attempted={outcome.attempted})")
    for error in outcome.errors:
        print(f"failure {error}")
    if args.trace:
        for name, unit in wanted:
            print(f"metric {name} {metrics[name]:.6g} {unit}")
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted},
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one finpop benchmark workload.")
    parser.add_argument("--workload", required=True, choices=jobs_mod.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the smoke test")
    parser.add_argument("--corrupt-fpc", action="store_true",
                        help="force fpc to 1 in the program and the checks (power test)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "finpop" / "__init__.py").is_file():
        print(f"error: no finpop sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, str(src))
    import finpop

    if Path(finpop.__file__).resolve().parent != (src / "finpop").resolve():
        print(f"error: imported finpop from {finpop.__file__}, not {src}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(WATCHDOG_S)
    workdir = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run(args, root, workdir)
    except (BenchError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
