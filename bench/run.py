"""Benchmark of the chromexp command line, run in-process.

    python3 bench/run.py --workload expand --seed 1 --seconds 28 --trace 0

Builds the workload's job list from the seed, then runs passes over it
through `chromexp.cli.main(argv)` with stdout captured, one job at a time
in one thread (a closed loop with one client), for --seconds (always at
least one whole pass). A calibration is timed before every job, and job
times are reported scaled to a reference speed (see README.md). Every
job's exit code and the SHA-256 of its stdout are compared with the
references in bench/refs/.

With --trace 0 the result holds the end-to-end metrics (see README.md).
With --trace 1 it runs one untraced pass, then traced passes, and holds
the per-layer metrics, the per-layer self-time shares and the tracing
overhead. The last line of stdout is the result object; the line before
it records the run environment and details. Both are also written to
.bench_out/ together with the spans of a traced run.

The package is imported from src/ of the checkout the script sits in;
without it the script exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
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
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFS = BENCH / "refs"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 4  # before and again after the measured passes

# Seconds the calibration takes on the reference host (2-core x86-64
# virtual machine, Xeon at 2.1 GHz, Python 3.11) when nothing else loads
# it. Times are scaled by (CAL_REF_S / the calibration's time around
# them) ** CAL_SENSITIVITY, so they read as seconds on that host at that
# speed. When the host slows, the jobs slow by about 0.85 of the
# calibration's slowdown in log terms (see README.md).
CAL_REF_S = 0.0020
CAL_SENSITIVITY = 0.85
CAL_WINDOW = 5  # calibrations on each side of a job that set its scale

import tracer as tracing  # noqa: E402  (bench/ is on sys.path as the script's directory)
import workloads  # noqa: E402


def import_cli():
    """Import chromexp.cli from this checkout's src/, or exit with code 2."""
    if not (SRC / "chromexp" / "__init__.py").is_file():
        print(f"error: no chromexp package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import chromexp
    from chromexp import cli
    if Path(chromexp.__file__).resolve().parent != SRC / "chromexp":
        print(f"error: imported chromexp from {chromexp.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return cli


def load_refs(workload: str, refs_dir: Path = REFS) -> dict:
    path = refs_dir / f"{workload}.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))["jobs"]


def write_inputs(jobs, directory: Path) -> list:
    """(job, argv) pairs, with each JSON input written to its own file."""
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for i, job in enumerate(jobs):
        argv = list(job.argv)
        if job.graph is not None:
            path = directory / f"{i}.json"
            path.write_text(json.dumps(job.graph), encoding="utf-8")
            argv = [str(path) if a == workloads.INPUT else a for a in argv]
        out.append((job, argv))
    return out


def set_up(workload: str, seed: int, refs_dir: Path, directory: Path, max_jobs=None):
    refs = load_refs(workload, refs_dir)
    jobs = workloads.job_list(workload, seed, refs)[:max_jobs]
    return refs, write_inputs(jobs, directory)


def calibrate() -> float:
    """Seconds taken by a fixed piece of pure-Python work that uses no
    chromexp code: tuple-keyed dict updates, Fraction sums and sorting
    tuples, the operations the package spends its time in.

    The host's speed changes within seconds by up to half (other
    machines' work on the same cores), and this work slows with it.
    """
    start = time.perf_counter()
    counts = {}
    for i in range(3000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i * 3
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(i % 7 + 1, i)
    rows = [(i * 7919 % 1009, str(i), (i, i + 1)) for i in range(1500)]
    rows.sort()
    return time.perf_counter() - start


def scale(seconds: float, calibrations) -> float:
    """`seconds` at the reference speed, from calibrations taken around it."""
    return seconds * (CAL_REF_S / statistics.median(calibrations)) ** CAL_SENSITIVITY


def run_job(cli, argv):
    """Run one job; return (seconds, exit code or None if it raised, stdout).

    The job starts on a collected heap, as in a fresh process, so that it
    does not pay for collecting the garbage of the jobs before it.
    """
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a raising job counts as failed
        code = None
    return time.perf_counter() - start, code, out.getvalue()


@dataclass
class Pass:
    latencies: list = field(default_factory=list)    # seconds per job, as measured
    calibrations: list = field(default_factory=list)  # before each job and after the last
    failed: list = field(default_factory=list)        # keys of failed jobs
    stdout_bytes: int = 0

    def scaled(self) -> list:
        """Each job's seconds at the reference speed: scaled by the median
        of the calibrations up to CAL_WINDOW jobs before and after it."""
        cals = self.calibrations
        return [scale(seconds, cals[max(0, i - CAL_WINDOW):i + CAL_WINDOW + 2])
                for i, seconds in enumerate(self.latencies)]


def run_pass(cli, inputs, refs, tracer=None, label="", deadline=None) -> Pass:
    """One pass over the job list, with a calibration before each job and
    after the last; it stops early, after a whole job, once `deadline`
    (a time.perf_counter value) has passed."""
    done = Pass()
    for i, (job, argv) in enumerate(inputs):
        if deadline is not None and time.perf_counter() >= deadline:
            break
        if tracer is not None:
            tracer.job = f"{label}{i}"
        done.calibrations.append(calibrate())
        seconds, code, text = run_job(cli, argv)
        done.latencies.append(seconds)
        data = text.encode("utf-8")
        done.stdout_bytes += len(data)
        ref = refs.get(job.key)
        if (ref is None or code != ref["rc"]
                or hashlib.sha256(data).hexdigest() != ref["sha256"]):
            done.failed.append(job.key)
    done.calibrations.append(calibrate())
    return done


def measure_passes(cli, inputs, refs, seconds) -> list:
    """Untraced passes for `seconds`: the first one whole, the last one
    cut at the deadline, so that the whole time gives samples."""
    deadline = time.perf_counter() + seconds
    passes = [run_pass(cli, inputs, refs)]
    while time.perf_counter() < deadline:
        passes.append(run_pass(cli, inputs, refs, deadline=deadline))
    return passes


def measure_traced_passes(cli, inputs, refs, seconds, tracer) -> list:
    """Whole traced passes until the next one would end after `seconds`,
    so that per-pass counts are exact."""
    passes = []
    begin = time.perf_counter()
    while True:
        passes.append(run_pass(cli, inputs, refs, tracer, f"{len(passes)}:"))
        elapsed = time.perf_counter() - begin
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def setup_seconds(args, tag: str) -> list:
    """Wall time of fresh processes that start the interpreter, import
    the package and build the job inputs, then exit; each scaled to the
    reference speed by calibrations just before and after it."""
    samples = []
    for k in range(SETUP_PROBES):
        directory = WORK / f"probe-{os.getpid()}-{tag}{k}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--refs", str(args.refs),
               "--probe-setup", str(directory)]
        cals = [calibrate() for _ in range(5)]
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        seconds = time.perf_counter() - start
        cals += [calibrate() for _ in range(5)]
        samples.append(scale(seconds, cals))
        shutil.rmtree(directory, ignore_errors=True)
    return samples


def commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            return (ROOT / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return None


def environment(args, jobs_per_pass) -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "jobs_per_pass": jobs_per_pass,
            "traced": bool(args.trace)}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(passes, setup_samples) -> dict:
    # each job at its median scaled time over the passes that ran it (the
    # last pass may have been cut short)
    scaled = [p.scaled() for p in passes]
    per_job = [statistics.median(times[j] for times in scaled if j < len(times))
               for j in range(len(scaled[0]))]
    deciles = statistics.quantiles(per_job, n=10, method="inclusive")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": _metric(sum(per_job), "s"),
        "job_p50_ms": _metric(statistics.median(per_job) * 1000, "ms"),
        "job_p90_ms": _metric(deciles[8] * 1000, "ms"),
        "setup_s": _metric(statistics.median(setup_samples), "s"),
        "peak_rss_mb": _metric(rss_kb / 1024, "MB"),
    }


def per_layer(tracer, traced, untraced) -> dict:
    count = len(traced)
    values = {f"{name}.calls": tracer.calls[name] / count for name in tracer.calls}
    values.update({f"{name}.self_s": s / count for name, s in tracer.self_s.items()})
    values.update({name: total / count for name, total in tracer.extra.items()})
    values["cli.stdout_bytes"] = sum(p.stdout_bytes for p in traced) / count
    layers = tracer.layer_self_s()
    total = sum(layers.values()) or 1.0
    values.update({f"share.{layer}": s / total for layer, s in layers.items()})
    traced_wall = statistics.median(sum(p.scaled()) for p in traced)
    untraced_wall = statistics.median(sum(p.scaled()) for p in untraced)
    values["trace_overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    return {name: _metric(values[name], unit) for name, unit in tracing.metric_names()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--refs", type=Path, default=REFS,
                        help="directory of reference files (default bench/refs)")
    parser.add_argument("--max-jobs", type=int, help="cut the job list (smoke tests)")
    parser.add_argument("--probe-setup", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    cli = import_cli()
    if args.probe_setup is not None:
        set_up(args.workload, args.seed, args.refs, args.probe_setup, args.max_jobs)
        return 0

    work = WORK / f"run-{os.getpid()}"
    try:
        setup_samples = [] if args.trace else setup_seconds(args, "a")
        refs, inputs = set_up(args.workload, args.seed, args.refs, work, args.max_jobs)
        if args.trace:
            untraced = [run_pass(cli, inputs, refs)]
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = measure_traced_passes(cli, inputs, refs, args.seconds, tracer)
            finally:
                tracer.uninstall()
            passes = untraced + traced
            metrics = per_layer(tracer, traced, untraced)
        else:
            passes = measure_passes(cli, inputs, refs, args.seconds)
            setup_samples += setup_seconds(args, "b")
            metrics = end_to_end(passes, setup_samples)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(p.latencies) for p in passes)
    failures = sorted({key for p in passes for key in p.failed})
    failed = sum(len(p.failed) for p in passes)
    info = {"environment": environment(args, len(inputs)),
            "passes": len(passes),
            "pass_wall_s": [sum(p.latencies) for p in passes],
            "pass_scaled_wall_s": [sum(p.scaled()) for p in passes],
            "calibration_median_s": statistics.median(
                c for p in passes for c in p.calibrations),
            "setup_samples_s": setup_samples,
            "failed_frac": failed / attempted,
            "failed_jobs": failures[:20]}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    samples = [{"latencies_s": p.latencies, "calibrations_s": p.calibrations}
               for p in passes]
    (OUT / f"{stem}.json").write_text(
        json.dumps({"info": info, "result": result, "passes": samples}, indent=1),
        encoding="utf-8")
    if args.trace:
        tracer.write_spans(OUT / f"{stem}-spans.jsonl")
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
