#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the spherindex CLI.

    python3 perfbench/run.py --workload index-large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all    # every end-to-end metric

Run from the root of a checkout.  One client in a closed loop: a single
thread calls ``spherindex.cli.main(argv)`` for each job of the workload in
turn, capturing stdout.  Each pass over the job list runs in a fresh
interpreter (see pass_in_child), as each CLI invocation does, so no state
of the program carries from one pass to the next.  Every execution is
checked outside the timed region: exit code against the documented
contract, no traceback, the sha256 of stdout against ``reference.json``
and the job's oracle.

With ``--trace 0`` the run measures a fixed number of complete passes
over the job list, scaled by ``--seconds`` (see passes_for), and prints
the end-to-end metrics; job times are calibrated against the host's
drifting speed (see REFERENCE_CALIBRATION).  With
``--trace 1`` it runs a plain pass, a pass with every public function of
the package wrapped (see layertrace.py) and another plain pass, and
prints the per-layer metrics and the tracing overhead.
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
REFERENCE = os.path.join(HERE, "reference.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import gen  # noqa: E402
import layertrace  # noqa: E402
import oracles  # noqa: E402

SETUP_RUNS = 25  # cold starts per run; setup_s is the median of their calibrated times
TAIL_BEYOND = 10  # samples beyond the percentile reported as job_tail_s
# complete passes over the job list per 20 s of --seconds.  One pass takes
# about 7, 8.5 and 12.5 s on a 2-core x86-64 VM at the seed revision.  An
# index-large job's median needs several passes of its 9 jobs; one
# corpus-mixed pass already times 635 jobs.
PASSES_PER_20_S = {"index-large": 4, "fan-chambers": 4, "corpus-mixed": 1}

# The host's speed drifts by tens of percent over seconds to minutes, so
# job times are scaled by a calibration loop timed between jobs: a job's
# time is multiplied by REFERENCE_CALIBRATION over the mean of the
# calibrations just before and after it.  The loop is the benchmark's own
# code, so the program cannot change it.
CALIBRATE_EVERY = 0.25  # seconds of jobs between calibrations
REFERENCE_CALIBRATION = 0.0018  # median of calibration_seconds() on the reference VM

PER_JOB_SHOWN = 10  # jobs listed with their call counts after a traced run
PASS_TIMEOUT = 150  # seconds; a pass that takes longer is stopped and the run fails

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def load_cli():
    """Import the CLI from this checkout's sources."""
    if not os.path.isfile(os.path.join(SRC, "spherindex", "cli.py")):
        raise SystemExit(f"perfbench: no spherindex sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from spherindex import cli

    return cli


def cold_start_seconds(runs: int = SETUP_RUNS) -> float:
    """Median calibrated wall time of a fresh interpreter importing spherindex.cli.

    Each cold start is scaled by REFERENCE_CALIBRATION over the mean of the
    calibrations just before and after it, as job times are.
    """
    cmd = [sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r}); import spherindex.cli"]

    def once() -> float:
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0

    once()  # bytecode cache, as an installed package has it
    samples = []
    before = calibration_seconds()
    for _ in range(runs):
        seconds = once()
        after = calibration_seconds()
        samples.append(seconds * REFERENCE_CALIBRATION / ((before + after) / 2))
        before = after
    return statistics.median(samples)


def calibration_seconds() -> float:
    """Best of three runs of a fixed exact-arithmetic loop (about 2 ms)."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 400):
            acc += Fraction(i, i + 1) * Fraction(3, 7)
        best = min(best, time.perf_counter() - t0)
    return best


# ---------------------------------------------------------------------------
# one job


class Execution(NamedTuple):
    code: int
    stdout: str
    stderr: str
    crash: str | None  # formatted traceback of an escaped exception
    seconds: float


def execute(cli, argv: list[str]) -> Execution:
    """One CLI invocation in this process; only main() is timed."""
    out, err = io.StringIO(), io.StringIO()
    escaped = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse
            code = e.code if isinstance(e.code, int) else 1
        except Exception as e:  # an escaped exception is what the check is for
            code, escaped = 1, e  # the interpreter's exit status for it
        seconds = time.perf_counter() - t0
    crash = "".join(traceback.format_exception(escaped)) if escaped else None
    return Execution(code, out.getvalue(), err.getvalue(), crash, seconds)


class Checker:
    """Judges executions; caches the oracle verdict per output hash."""

    def __init__(self, reference: dict):
        self.reference = reference
        self._oracle: dict[tuple[str, str], str | None] = {}
        self._inputs: dict[str, str] = {}

    def judge(self, job: gen.Job, ex: Execution) -> tuple[str | None, bool]:
        """(failure reason or None, whether the failure is a wrong answer)."""
        if ex.crash:
            return "traceback: " + ex.crash.strip().splitlines()[-1], False
        if "Traceback (most recent call last)" in ex.stderr:
            return "traceback on stderr", False
        if ex.code != job.expect:
            return f"exit {ex.code}, contract says {job.expect}", job.hashed
        if not job.hashed:
            return None, False
        ref = self.reference.get(job.name)
        if job.name not in self._inputs:
            self._inputs[job.name] = gen.input_digest(job)
        if ref is None or ref["input_sha256"] != self._inputs[job.name]:
            return "no reference hash for this input", True
        digest = hashlib.sha256(ex.stdout.encode()).hexdigest()
        if digest != ref["stdout_sha256"]:
            return "stdout hash differs from the reference", True
        key = (job.name, digest)
        if key not in self._oracle:
            self._oracle[key] = oracles.check(job, ex.stdout)
        reason = self._oracle[key]
        return reason, reason is not None


# ---------------------------------------------------------------------------
# a pass: every job once, in a fresh interpreter


def run_pass(cli, jobs: list[gen.Job], argvs: list[list[str]], checker: Checker,
             tracer: layertrace.Tracer | None = None) -> dict:
    """Run every job once in this process and judge each execution.

    Returns the summed wall time inside main(), each job's wall time and,
    for an untraced pass, each job's calibrated time (see
    REFERENCE_CALIBRATION) and the calibrations taken.
    """
    result = {"seconds": 0.0, "wall": [], "times": [None] * len(jobs) if tracer is None else [],
              "calibrations": [], "attempted": 0, "failed": 0, "wrong": 0, "failures": {}}
    pending: list[tuple[int, float]] = []  # jobs since the last calibration
    before = calibration_seconds() if tracer is None else 0.0
    for i, (job, argv) in enumerate(zip(jobs, argvs)):
        if tracer is not None:
            tracer.job = i
        ex = execute(cli, argv)
        result["seconds"] += ex.seconds
        result["wall"].append(ex.seconds)
        result["attempted"] += 1
        reason, wrong = checker.judge(job, ex)
        if reason is not None:
            result["failed"] += 1
            result["wrong"] += wrong
            result["failures"][job.name] = reason
        if tracer is not None:
            continue
        pending.append((i, ex.seconds))
        if sum(t for _, t in pending) >= CALIBRATE_EVERY or i == len(jobs) - 1:
            after = calibration_seconds()
            result["calibrations"].append(after)
            scale = REFERENCE_CALIBRATION / ((before + after) / 2)
            for j, seconds in pending:
                result["times"][j] = seconds * scale
            pending, before = [], after
    return result


def per_job_calls(tracer: layertrace.Tracer, jobs: list[gen.Job]) -> dict:
    """Call counts of a few functions for the jobs that call them most."""
    shown = ("linalg.find_feasible", "index.split_subspace", "index.res_A")
    wanted = {tracer.names.index(name): name for name in shown}
    counts = {name: [0] * len(jobs) for name in shown}
    for k, j in zip(tracer.name_id, tracer.job_id):
        if k in wanted:
            counts[wanted[k]][j] += 1
    out = {}
    for name, c in counts.items():
        top = sorted(range(len(jobs)), key=lambda i: (-c[i], jobs[i].name))[:PER_JOB_SHOWN]
        out[name] = {jobs[i].name: c[i] for i in top if c[i]}
    return out


def pass_main(workload: str, seed: int, mode: str) -> int:
    """The child side of pass_in_child: one pass, its result as JSON."""
    cli = load_cli()
    jobs = gen.workload_jobs(workload, seed)
    argvs = gen.write_inputs(jobs, input_dir(workload), write=False)
    checker = Checker(load_reference())
    if mode == "traced":
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            result = run_pass(cli, jobs, argvs, checker, tracer)
        finally:
            tracer.uninstall()
        result["layers"] = layertrace.layer_metrics(tracer.layer_table())
        result["per_job_calls"] = per_job_calls(tracer, jobs)
        tracer.write(os.path.join(WORK, f"spans-{workload}.bin"))
    else:
        result = run_pass(cli, jobs, argvs, checker)
    result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result))
    return 0


def pass_in_child(workload: str, seed: int, mode: str) -> dict:
    """One pass in a fresh interpreter, as every CLI invocation starts.

    Nothing the program keeps in its process (a memo, a warm cache) carries
    from one pass to the next: reuse happens within a pass only.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--pass", mode]
    proc = subprocess.run(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
                          timeout=PASS_TIMEOUT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: a {mode} pass of {workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# a run: several passes


class Run:
    """The passes of one run, aggregated."""

    def __init__(self, jobs: list[gen.Job]):
        self.jobs = jobs
        self.times: list[list[float]] = [[] for _ in jobs]  # calibrated, per job, per pass
        self.wall: list[list[float]] = [[] for _ in jobs]  # the same, uncalibrated
        self.calibrations: list[float] = []
        self.attempted = 0
        self.failures: dict[str, str] = {}  # job name -> reason
        self.failed = 0
        self.wrong = 0
        self.peak_rss_mb = 0.0  # of the largest pass process

    def add(self, result: dict) -> None:
        """Take in one pass's result; the wall times of untraced passes only."""
        if result["times"]:
            for k, (t, w) in enumerate(zip(result["times"], result["wall"])):
                self.times[k].append(t)
                self.wall[k].append(w)
        self.calibrations += result["calibrations"]
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.wrong += result["wrong"]
        self.failures.update(result["failures"])
        self.peak_rss_mb = max(self.peak_rss_mb, result["peak_rss_mb"])

    def end_to_end(self, times: list[list[float]]) -> tuple[dict[str, float], dict]:
        samples = sorted(t for per_job in times for t in per_job)
        n = len(samples)
        tail_index = n - 1 - TAIL_BEYOND
        per_job = [statistics.median(t) for t in times]
        metrics = {
            "jobs_per_s": len(self.jobs) / sum(per_job),
            # median over jobs of each job's median: a small job list puts the
            # median of all samples between two jobs' extreme samples
            "job_p50_s": statistics.median(per_job),
            "job_tail_s": samples[tail_index],
        }
        tail = {"percentile": 100.0 * (tail_index + 1) / n, "samples": n}
        return metrics, tail


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def input_dir(workload: str) -> str:
    return os.path.join(WORK, f"inputs-{workload}")


def prepare(workload: str, seed: int) -> list[gen.Job]:
    """The workload's jobs, with their documents written for the passes."""
    jobs = gen.workload_jobs(workload, seed)
    gen.write_inputs(jobs, input_dir(workload))
    return jobs


def passes_for(workload: str, n_jobs: int, seconds: float) -> int:
    """Complete passes of one run: a fixed amount of work per workload.

    The count depends on --seconds and the workload only, never on how
    fast this run goes, so parent and change measure identical work and the
    tail percentile stays the same.  At least 2 * TAIL_BEYOND samples keep
    job_tail_s at or above the median.
    """
    return max(math.ceil(2 * TAIL_BEYOND / n_jobs), round(PASSES_PER_20_S[workload] * seconds / 20))


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    jobs = prepare(workload, seed)
    setup = cold_start_seconds()
    run = Run(jobs)
    passes = passes_for(workload, len(jobs), seconds)
    for _ in range(passes):
        run.add(pass_in_child(workload, seed, "plain"))
    metrics, tail = run.end_to_end(run.times)
    metrics["setup_s"] = setup
    metrics["peak_rss_mb"] = run.peak_rss_mb
    wall, _ = run.end_to_end(run.wall)
    info = {
        "workload": workload,
        "seed": seed,
        "passes": passes,
        "tail": tail,
        "wall": wall,
        "inputs": gen.input_properties(workload, jobs),
        "run": run,
    }
    return metrics, info


def measure_traced(workload: str, seed: int) -> tuple[dict, dict]:
    jobs = prepare(workload, seed)
    run = Run(jobs)
    # plain, traced, plain: the mean of the plain passes cancels slow drift
    before = pass_in_child(workload, seed, "plain")
    traced = pass_in_child(workload, seed, "traced")
    after = pass_in_child(workload, seed, "plain")
    for result in (before, traced, after):
        run.add(result)
    metrics = traced["layers"]
    metrics["trace.overhead_s"] = traced["seconds"] - (before["seconds"] + after["seconds"]) / 2
    info = {"workload": workload, "seed": seed, "inputs": gen.input_properties(workload, jobs),
            "run": run, "per_job_calls": traced["per_job_calls"]}
    return metrics, info


# ---------------------------------------------------------------------------
# output


def contract_names(trace: bool) -> list[str]:
    """The metrics BENCHMARK.json lists for this kind of run."""
    with open(BENCHMARK) as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def result_line(run: Run, metrics: dict, units: dict, names: list[str]) -> str:
    return json.dumps({
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in names},
    })


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def print_summary(metrics: dict, info: dict, units: dict) -> None:
    run = info["run"]
    print(f"workload {info['workload']}  seed {info['seed']}  jobs {len(run.jobs)}"
          + (f"  passes {info['passes']}" if "passes" in info else ""))
    print(f"  inputs {json.dumps(info['inputs'], sort_keys=True)}")
    for name, value in metrics.items():
        note = ""
        if name == "job_tail_s":
            note = f"  (p{info['tail']['percentile']:.1f} of {info['tail']['samples']} samples)"
        elif name == "setup_s":
            note = f"  (median of {SETUP_RUNS} calibrated cold starts)"
        print(f"  {name:<46} {value:.6g} {units[name]}{note}")
    if "wall" in info:
        print("  uncalibrated wall time: " + "  ".join(f"{k} {v:.6g}" for k, v in info["wall"].items())
              + f"  (calibration median {statistics.median(run.calibrations) * 1e3:.4g} ms,"
              f" reference {REFERENCE_CALIBRATION * 1e3:.4g} ms)")
    print(f"  {'failed_ratio':<46} {run.failed / run.attempted:.6g} ratio"
          f"  ({run.failed} of {run.attempted} executions)")
    for name in sorted(run.failures):
        print(f"  FAILED {name}: {run.failures[name]}")
    for fn, counts in info.get("per_job_calls", {}).items():
        print(f"  {fn} calls per job, most first: {json.dumps(counts)}")


def run_all(seed: int, seconds: int) -> int:
    """Every workload in its own process; prints all end-to-end metrics."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    table = []
    for workload in gen.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
        row = dict(result["metrics"])
        row["failed_ratio"] = {"value": result["failed"] / result["attempted"], "unit": "ratio"}
        table.append((workload, row))
    print()
    names = list(END_TO_END_UNITS) + ["failed_ratio"]
    print(f"{'metric':<14}" + "".join(f"{w:>18}" for w, _ in table) + "  unit")
    for name in names:
        print(f"{name:<14}" + "".join(f"{row[name]['value']:>18.6g}" for _, row in table)
              + f"  {table[0][1][name]['unit']}")
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--pass", dest="mode", choices=("plain", "traced"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.mode:
        return pass_main(args.workload, args.seed, args.mode)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    load_cli()  # fail before any work when the sources are missing
    names = contract_names(bool(args.trace))
    if args.trace:
        metrics, info = measure_traced(args.workload, args.seed)
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics, info = measure(args.workload, args.seed, args.seconds)
        units = END_TO_END_UNITS
    print_summary(metrics, info, units)
    print(result_line(info["run"], metrics, units, names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
