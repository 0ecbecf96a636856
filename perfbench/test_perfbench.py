"""Self-tests of the benchmark, on its reduced-size (``--quick``) corpus.

Run from the repository root with ``python3 -m pytest perfbench -q``.
They check that the command prints every metric ``BENCHMARK.json``
names, with its unit; that a different seed changes the inputs and still
meets every known answer; that the outside-in tracer is inert and its
top-level spans cover the pass; and that the command fails without the
engine sources beside it.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import run  # noqa: E402
from perfbench.trace import ENTRY_POINTS, Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, Job, Workload, default_work_dir  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

WORK_DIR = default_work_dir()


def _cli(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    proc = subprocess.run(
        [sys.executable, script, *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout


def _workload(name, seed):
    os.makedirs(WORK_DIR, exist_ok=True)
    workload = Workload(name, seed, True, WORK_DIR)
    workload.known_answers()
    return workload


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(trace):
    code, out = _cli("--workload", "suites", "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--quick")
    assert code == 0, out
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["end_to_end" if trace == 0 else "per_layer"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in wanted
    }
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1]}
    for m in wanted:
        assert printed.get(m["name"]) == m["unit"], m["name"]


@pytest.mark.parametrize("name", ["suites", "cross", "service"])
def test_another_seed_changes_inputs_and_meets_known_answers(name):
    first, second = _workload(name, 1), _workload(name, 2)
    if name == "service":
        assert [j.id for j in first.jobs] != [j.id for j in second.jobs]
    else:
        assert [s.id for s in first.sources] != [s.id for s in second.sources]
    for workload in (first, second):
        assert workload.failures(workload.run_pass()) == []


@pytest.mark.parametrize("name", WORKLOADS)
def test_tracer_is_inert_and_covers_the_pass(name):
    workload = _workload(name, 5)
    workload.run_pass()  # warm the process-wide caches, as set-up does
    untraced = workload.run_pass()
    originals = {
        (module, cls, attr): vars(getattr(__import__(module, fromlist=[cls]), cls)).get(attr)
        for module, cls, attr, _span in ENTRY_POINTS
    }
    tracer = Tracer()
    tracer.install()
    try:
        traced = workload.run_pass(tracer)
    finally:
        tracer.uninstall()
    for (module, cls, attr), original in originals.items():
        current = vars(getattr(__import__(module, fromlist=[cls]), cls)).get(attr)
        assert current is original, f"{cls}.{attr} not restored"

    assert run.inert_mismatches(untraced, traced) == []
    assert run.count(traced, "fast_lane_steps") > 0
    assert workload.failures(traced) == []
    metrics = run.per_layer(traced, tracer, [untraced.wall_s])
    assert metrics["trace.unattributed_frac"] < 0.05
    assert metrics["logic.solver.check.calls"] > 0
    if name == "service":
        assert metrics["service.queue.wait_samples"] == len(traced.outcomes)
        assert metrics["service.gil_store.get.calls"] > 0


def test_fails_without_the_engine_beside_it():
    bare = os.path.join(WORK_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        code, out = _cli("--workload", "suites", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare,
                         script=os.path.join(bare, "perfbench", "run.py"))
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert code != 0
    assert '"metrics"' not in out


def test_a_wrong_verdict_is_a_failure():
    workload = _workload("suites", 1)
    result = workload.run_pass()
    case = result.outcomes[0]
    workload.expected[case.id] = "bug" if case.verdict != "bug" else "bounded-verified"
    assert workload.failures(result) == [
        f"{case.id}: verdict {case.verdict}, expected {workload.expected[case.id]}"
    ]


def test_a_raising_job_is_a_failure_and_later_jobs_keep_their_samples():
    workload = _workload("service", 1)
    broken = Job("broken/main",
                 dataclasses.replace(workload.jobs[0].spec, source="function {"), "bug")
    workload.jobs.insert(1, broken)
    workload.expected[broken.id] = broken.expected
    result = workload.run_pass()
    assert workload.failures(result) == ["broken/main: quarantined (not completed)"]
    assert [o.id for o in result.outcomes] == [j.id for j in workload.jobs]
