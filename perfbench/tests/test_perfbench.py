"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import copy
import hashlib
import inspect
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import layertrace  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402


@pytest.fixture(scope="module")
def cli():
    return run.load_cli()


def _bytes_of(directory):
    return {name: open(os.path.join(directory, name), "rb").read() for name in sorted(os.listdir(directory))}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_byte_deterministic(tmp_path, workload):
    a = gen.write_inputs(gen.workload_jobs(workload, 7), str(tmp_path / "a"))
    b = gen.write_inputs(gen.workload_jobs(workload, 7), str(tmp_path / "b"))
    assert [[os.path.basename(x) for x in argv] for argv in a] == [
        [os.path.basename(x) for x in argv] for argv in b]
    assert _bytes_of(tmp_path / "a") == _bytes_of(tmp_path / "b")
    names = [j.name for j in gen.workload_jobs(workload, 7)]
    assert names == [j.name for j in gen.workload_jobs(workload, 7)]
    assert names != [j.name for j in gen.workload_jobs(workload, 8)]


def test_corpus_mix_is_the_same_for_every_seed():
    def mix(seed):
        jobs = gen.corpus_mixed_jobs(seed)
        return sorted((j.kind, j.group) for j in jobs)

    assert mix(1) == mix(2) == mix(3)


def test_reference_covers_every_job_with_its_contract_exit():
    reference = run.load_reference()
    jobs = gen.all_reference_jobs()
    names = [j.name for j in jobs]
    assert len(names) == len(set(names))
    hashed = [j for j in jobs if j.hashed]
    assert {j.name for j in hashed} == set(reference)
    for job in hashed:
        assert reference[job.name]["exit"] == job.expect, job.name
        assert reference[job.name]["input_sha256"] == gen.input_digest(job), job.name


def _fast_jobs():
    jobs = [j for j in gen.index_large_jobs() if j.name.endswith("quasi-E6")]
    jobs += [j for j in gen.fan_chambers_jobs() if j.name == "fan/e6-B2"]
    return jobs + gen.corpus_mixed_jobs(3)[:40]


def test_two_runs_give_identical_hashes(cli, tmp_path):
    jobs = _fast_jobs()
    checker = run.Checker(run.load_reference())
    digests = []
    for attempt in "ab":
        argvs = gen.write_inputs(jobs, str(tmp_path / attempt))
        out = []
        for job, argv in zip(jobs, argvs):
            ex = run.execute(cli, argv)
            out.append((ex.code, hashlib.sha256(ex.stdout.encode()).hexdigest()))
            if job.kind != "malformed":
                assert checker.judge(job, ex) == (None, False), job.name
        digests.append(out)
    assert digests[0] == digests[1]


def _bindings():
    """Every (namespace, name) -> object of the package, classes included."""
    out = {}
    for mod in layertrace._package_modules():
        for name, obj in vars(mod).items():
            out[(mod.__name__, name)] = obj
            if inspect.isclass(obj) and obj.__module__.startswith(layertrace.PACKAGE):
                for attr, raw in vars(obj).items():
                    out[(f"{obj.__module__}.{obj.__name__}", attr)] = raw
    return out


def test_tracer_wraps_every_binding_site_and_restores_them(cli):
    from spherindex import cli as cli_mod, index, linalg, restrict, rootsys

    before = _bindings()
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert index.dot is not before[("spherindex.index", "dot")]  # from .linalg import
        assert cli_mod.main is not before[("spherindex.cli", "main")]
        assert vars(rootsys.AmbientRootDatum)["form"] is not before[
            ("spherindex.rootsys.AmbientRootDatum", "form")]
        assert isinstance(vars(linalg.Lattice)["from_rows"], staticmethod)
        d = cli_mod.parse_datum(json.loads(gen.document_bytes(gen.E6_FIXTURE)))
        restrict.chamber_containment_check(d)  # lazy from .index import inside
    finally:
        tracer.uninstall()
    assert _bindings() == before
    table = tracer.layer_table()
    assert table["restrict.chamber_containment_check"]["calls"] == 1
    check_id = tracer.names.index("restrict.chamber_containment_check")
    check_spans = {i for i, n in enumerate(tracer.name_id) if n == check_id}
    lazy = tracer.names.index("index.restricted_simple_roots")
    assert any(tracer.parent[i] in check_spans for i, n in enumerate(tracer.name_id) if n == lazy)
    assert table["rootsys.AmbientRootDatum.form"]["calls"] > 0
    assert table["linalg.Lattice.from_rows"]["calls"] > 0


def test_self_times_partition_the_traced_time(cli, tmp_path):
    jobs = [j for j in gen.index_large_jobs() if j.name.endswith("quasi-E6")]
    argvs = gen.write_inputs(jobs, str(tmp_path))
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        tracer.job = 0
        ex = run.execute(cli, argvs[0])
    finally:
        tracer.uninstall()
    table = tracer.layer_table()
    total = sum(row["self_s"] for row in table.values())
    root = next(i for i, p in enumerate(tracer.parent) if p == -1)
    assert tracer.names[tracer.name_id[root]] == "cli.main"
    assert total == pytest.approx(tracer.end[root] - tracer.start[root], rel=1e-6)
    assert ex.seconds >= total
    metrics = layertrace.layer_metrics(table)
    assert metrics["index.split_subspace.calls"] == table["index.split_subspace"]["calls"] > 0


def _report(cli, tmp_path, job):
    (argv,) = gen.write_inputs([job], str(tmp_path))
    ex = run.execute(cli, argv)
    assert oracles.check(job, ex.stdout) is None
    return json.loads(ex.stdout)


def _job(name):
    return next(j for j in gen.all_reference_jobs() if j.name == name)


CORRUPTIONS = [
    ("restrict-index/quasi-E6", lambda r: r["restricted_roots"].pop()),
    ("restrict-index/quasi-E6", lambda r: r["restricted_roots"][0].update(multiplicity=3)),
    ("restrict-index/quasi-E6", lambda r: r.update(type="B4")),
    ("fan/e6-B2", lambda r: r["issues"].append({"kind": "intersection_not_a_face", "detail": ""})),
    ("fan/e6-B2", lambda r: r["smooth_by_cone"].pop()),
    ("standard-fan/split-A5", lambda r: r["strata"].pop()),
    ("standard-fan/split-A5", lambda r: r["cones"].pop()),
]


@pytest.mark.parametrize("name,corrupt", CORRUPTIONS)
def test_oracle_rejects_a_corrupted_report(cli, tmp_path, name, corrupt):
    job = _job(name)
    report = _report(cli, tmp_path, job)
    bad = copy.deepcopy(report)
    corrupt(bad)
    assert oracles.check(job, json.dumps(bad)) is not None


def test_checker_separates_failed_from_wrong():
    job = _job("restrict-index/quasi-E6")
    checker = run.Checker(run.load_reference())
    crash = run.Execution(1, "", "", "Traceback ...\nKeyError: 'x'", 0.0)
    assert checker.judge(job, crash) == ("traceback: KeyError: 'x'", False)
    wrong = run.Execution(0, "{}", "", None, 0.0)
    assert checker.judge(job, wrong)[1] is True
    malformed = next(j for j in gen.corpus_catalog_jobs() if j.kind == "malformed")
    assert checker.judge(malformed, run.Execution(2, "", "error: x\n", None, 0.0)) == (None, False)
    assert checker.judge(malformed, run.Execution(1, "", "", None, 0.0))[1] is False


def test_tail_percentile_keeps_ten_samples_beyond():
    r = run.Run([None] * 3)
    times = [[0.1 * k + i for k in range(8)] for i in range(3)]
    metrics, tail = r.end_to_end(times)
    samples = sorted(t for per_job in times for t in per_job)
    assert sum(1 for s in samples if s > metrics["job_tail_s"]) == run.TAIL_BEYOND
    assert tail["samples"] == 24
    assert run.passes_for("fan-chambers", 6, 1) * 6 >= 2 * run.TAIL_BEYOND


def test_job_times_are_scaled_by_the_calibrations_around_them(monkeypatch):
    class FakeCli:
        @staticmethod
        def main(argv):
            return 0

    calibrations = iter([1.0, 3.0, 5.0])
    monkeypatch.setattr(run, "calibration_seconds", lambda: next(calibrations))
    monkeypatch.setattr(run, "CALIBRATE_EVERY", 0.0)  # calibrate after every job
    jobs = [_job("restrict-index/quasi-E6")] * 2
    checker = run.Checker(run.load_reference())
    monkeypatch.setattr(checker, "judge", lambda job, ex: (None, False))
    result = run.run_pass(FakeCli, jobs, [[], []], checker)
    for k, mean in enumerate((2.0, 4.0)):
        assert result["times"][k] == pytest.approx(result["wall"][k] * run.REFERENCE_CALIBRATION / mean)
    assert result["calibrations"] == [3.0, 5.0]


def test_every_pass_runs_in_its_own_interpreter(monkeypatch):
    pids = []

    def fake_run(cmd, **kwargs):
        assert cmd[0] == sys.executable and cmd[1] == os.path.abspath(run.__file__)
        assert cmd[cmd.index("--pass") + 1] in ("plain", "traced")
        pids.append(len(pids))
        jobs = gen.workload_jobs("fan-chambers", 1)
        result = {"seconds": 1.0, "wall": [0.1] * len(jobs), "times": [0.2] * len(jobs),
                  "calibrations": [0.002], "attempted": len(jobs), "failed": 0, "wrong": 0,
                  "failures": {}, "peak_rss_mb": 20.0 + len(pids)}
        return subprocess.CompletedProcess(cmd, 0, json.dumps(result) + "\n")

    monkeypatch.setattr(run.subprocess, "run", fake_run)
    monkeypatch.setattr(run, "cold_start_seconds", lambda: 0.1)
    metrics, info = run.measure("fan-chambers", 1, 30)
    assert len(pids) == info["passes"] >= 2
    r = info["run"]
    assert r.attempted == info["passes"] * len(r.jobs)
    assert all(len(t) == info["passes"] for t in r.times)
    assert metrics["peak_rss_mb"] == 20.0 + len(pids)


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    bench = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if os.path.exists(bench):
        shutil.copy(bench, tmp_path)
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "index-large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout


def test_contract_lists_metrics_the_run_produces():
    with open(run.BENCHMARK) as fh:
        spec = json.load(fh)
    layer = set(layertrace.layer_metrics({})) | {"trace.overhead_s"}
    for m in spec["per_layer"]:
        assert m["name"] in layer and m["unit"] == run.layer_unit(m["name"]), m
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert all(m["unit"] == run.END_TO_END_UNITS[m["name"]] for m in spec["end_to_end"])
