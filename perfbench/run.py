"""Benchmark of quiver_schubert: one workload, one process, one caller.

    python3 perfbench/run.py --workload oracle_flags --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  Set-up (import plus building every catalog input) is repeated
and timed, then the workload's job list runs as a closed loop: the next
job starts only when the previous one returns.  Every answer is checked.
With `--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` the run first measures untraced passes and then one traced
pass, and the last line holds the per-layer metrics.  Exit code 0 means
every answer was right, 1 that some job failed, 2 a usage error.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

MODULES = ("linalg", "quiver", "representation", "schubert", "hypothesis_h", "oracle", "catalog", "cli")
SETUPS_PER_PASS = 3
TAIL_ABOVE = 10  # the tail percentile leaves this many samples above it

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_ms.p50": "ms",
    "job_ms.tail": "ms",
    "peak_rss_mb": "MB",
}


def import_package() -> SimpleNamespace:
    """Import quiver_schubert afresh from src/ and return its modules by name."""
    for name in [n for n in sys.modules if n == "quiver_schubert" or n.startswith("quiver_schubert.")]:
        del sys.modules[name]
    importlib.import_module("quiver_schubert")
    return SimpleNamespace(**{m: importlib.import_module(f"quiver_schubert.{m}") for m in MODULES})


def run_pass(jobs, tracer=None):
    """Run every job once, in order; return each job's (start, end) and answers."""
    intervals, answers = [], []
    for job in jobs:
        if tracer is not None:
            span = tracer.open(tracer.name_id("job"))
            tracer.labels[span] = job.name
        error = None
        t0 = time.perf_counter()
        try:
            raw = job.call()
        except Exception as exc:  # a job that raises is a failed job, not a failed run
            error = exc
        intervals.append((t0, time.perf_counter()))
        if tracer is not None:
            tracer.close(span)
        if error is None:
            try:
                answers.append(job.summarize(raw))
                continue
            except Exception as exc:  # an unreadable answer is a wrong answer
                error = exc
        answers.append({"exception": f"{type(error).__name__}: {error}"})
    return intervals, answers


def timings(setup_s: list[float], by_pass: list[list[float]]) -> dict[str, float]:
    """The timed end-to-end metrics from set-up times and job latencies (s).

    job_ms.p50 is the median over the job list of each job's median over
    the passes: with a few jobs of very different lengths the median of
    all samples would fall in the gap between two jobs' extremes.
    """
    latencies = [x for lat in by_pass for x in lat]
    return {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(sum(lat) for lat in by_pass),
        "job_ms.p50": statistics.median(statistics.median(job) for job in zip(*by_pass)) * 1000,
        "job_ms.tail": sorted(latencies)[tail_rank(len(latencies))] * 1000,
    }


def failures(jobs, answers, reference=None) -> set[int]:
    """Indices of jobs with a wrong answer, or one that differs from the reference pass."""
    failed = workloads.group_failures(jobs, answers)
    for i, (job, answer) in enumerate(zip(jobs, answers)):
        if job.group is None and answer != job.expected:
            failed.add(i)
        if reference is not None and answer != reference[i]:
            failed.add(i)
    return failed


def digest(jobs, answers) -> str:
    text = json.dumps([[job.name, answer] for job, answer in zip(jobs, answers)], sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def tail_rank(n: int) -> int:
    """Rank (from 0) of the highest of n samples that has TAIL_ABOVE samples above it."""
    return max(n - TAIL_ABOVE - 1, 0)


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="target length of the measured passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "quiver_schubert" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'quiver_schubert'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }

    setup_intervals = []

    def set_up():
        gc.collect()  # the previous set-up's modules are garbage now; keep them out of the timing
        t0 = time.perf_counter()
        qs = import_package()
        jobs = workload.build(qs, random.Random(args.seed))
        setup_intervals.append((t0, time.perf_counter()))
        return qs, jobs

    with speed.SpeedProbe() as probe:
        qs, jobs = set_up()
        if not Path(qs.cli.__file__).resolve().is_relative_to(SRC.resolve()):
            print(f"error: quiver_schubert was imported from {qs.cli.__file__}, not {SRC}", file=sys.stderr)
            return 2
        # A fixed pass count (not a deadline) keeps the sample count, and so
        # the tail percentile, the same from run to run.
        passes = round(args.seconds / workload.nominal_pass_s)
        if args.trace:
            passes = math.ceil(passes / 2)  # leave room for the traced pass
        passes = max(passes, math.ceil((TAIL_ABOVE + 1) / len(jobs)))
        by_pass, failed_runs, reference = [], 0, None
        for _ in range(passes):
            # set-ups are spread over the run, so that a slow spell of a
            # shared host hits only some of them
            for _ in range(SETUPS_PER_PASS):
                qs, jobs = set_up()
            intervals, answers = run_pass(jobs)
            by_pass.append(intervals)
            # an answer that changes between passes is wrong in at least one of them
            failed_runs += len(failures(jobs, answers, reference))
            reference = reference or answers
        attempted = passes * len(jobs)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            tracer = spans.Tracer()
            layers.instrument(tracer, qs)
            try:
                traced, answers = run_pass(jobs, tracer)
            finally:
                tracer.restore()
            failed_runs += len(failures(jobs, answers, reference))
            attempted += len(jobs)
            record["traced_answers_sha256"] = digest(jobs, answers)

    # corrected only now: the probe's last sample follows the last interval
    latencies = [[probe.corrected(t0, t1) for t0, t1 in p] for p in by_pass]
    e2e = timings([probe.corrected(t0, t1) for t0, t1 in setup_intervals], latencies)
    e2e["peak_rss_mb"] = peak_rss_mb
    raw = timings([t1 - t0 for t0, t1 in setup_intervals], [[t1 - t0 for t0, t1 in p] for p in by_pass])
    samples = passes * len(jobs)
    tail_pct = 100.0 * (tail_rank(samples) + 1) / samples
    record.update(
        passes=passes,
        jobs_per_pass=len(jobs),
        setups=len(setup_intervals),
        job_samples=samples,
        tail_percentile=tail_pct,
        answers_sha256=digest(jobs, reference),
        end_to_end=e2e,
        uncorrected=raw,
        speed_probe={"samples": len(probe.cost), "median_s": statistics.median(probe.cost),
                     "reference_s": speed.REFERENCE_PROBE_S},
        latencies_s=latencies,
    )

    per_layer = None
    if args.trace:
        traced_wall = sum(probe.corrected(t0, t1) for t0, t1 in traced)
        per_layer = layers.per_layer_metrics(tracer, traced_wall, e2e["wall_s"])
        record["per_layer"] = per_layer
        record["spans"] = len(tracer.start)
        span_file = OUT / f"spans-{workload.name}-seed{args.seed}.tsv.gz"
        tracer.write(span_file)
        record["span_file"] = str(span_file.relative_to(ROOT))

    record.update(attempted=attempted, failed=failed_runs, fail_frac=failed_runs / attempted,
                  loadavg_end=os.getloadavg())
    OUT.mkdir(exist_ok=True)
    (OUT / f"run-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )

    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}, {passes} passes x {len(jobs)} jobs, closed loop, 1 caller, 1 thread;"
          f" git {record['git_sha'][:12]}, python {record['python']}, nproc {record['nproc']},"
          f" load {record['loadavg_start'][0]:.2f} -> {record['loadavg_end'][0]:.2f}")
    print(f"  setup_s      {e2e['setup_s']:.4f} s   (median of {len(setup_intervals)} set-ups)")
    print(f"  wall_s       {e2e['wall_s']:.4f} s   (median of {passes} passes)")
    print(f"  job_ms.p50   {e2e['job_ms.p50']:.3f} ms   ({samples} samples)")
    print(f"  job_ms.tail  {e2e['job_ms.tail']:.3f} ms   (p{tail_pct:.1f} of {samples} samples,"
          f" {TAIL_ABOVE} above)")
    if per_layer is None:
        print("  points_per_s needs the traced point count: run with --trace 1")
    else:
        print(f"  points_per_s {per_layer['points_per_s']:.1f} 1/s")
    print(f"  peak_rss_mb  {e2e['peak_rss_mb']:.1f} MB")
    print(f"  fail_frac    {record['fail_frac']:.4f} ratio   ({failed_runs} of {attempted} jobs)")
    if per_layer is not None:
        for name, unit in layers.UNITS.items():
            print(f"  {name:42s} {per_layer[name]:.6g} {unit}")
    metrics = (
        {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        if per_layer is None
        else {name: {"value": per_layer[name], "unit": unit} for name, unit in layers.UNITS.items()}
    )
    print(json.dumps({"correct": failed_runs == 0, "attempted": attempted, "failed": failed_runs,
                      "metrics": metrics}))
    return 0 if failed_runs == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
