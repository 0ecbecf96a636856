"""The benchmark's workloads: input generation, one pass, known answers.

Every workload turns a seed into a list of *cases* (one symbolic test or
one service job each), runs them in a *pass* the way a user would, and
checks each case's verdict against a known answer computed without the
symbolic engine:

* ``suites`` / ``suites-summaries`` — the Table 1/2/3 corpora (MiniJS,
  MiniC, MiniRust); the answer is ``bug`` exactly for the tests each
  suite module lists in ``KNOWN_BUG_TESTS``;
* ``cross`` — generated programs lowered to all four targets; the
  answer is ``bug`` exactly when some input of the bounded grid errors
  under the independent concrete run;
* ``service`` — the suite tests as service jobs; same answers as
  ``suites``.

Nothing here imports the engine at module load: ``run.py`` times the
imports as part of set-up.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: (service language name, suite module) per table
SUITE_TABLES = (
    ("minijs", "repro.targets.js_like.buckets.suites"),
    ("minic", "repro.targets.c_like.collections.suites"),
    ("rust", "repro.targets.rust_like.collections.suites"),
)

#: generated programs per ``cross`` pass (each lowered to four targets)
CROSS_PROGRAMS = 40

#: share of ``service`` submissions that repeat an earlier job
SERVICE_REPEAT_SHARE = 0.25

#: parallel workers each ``service`` job asks for
SERVICE_WORKERS = 2

#: seconds of one full pass on an unloaded 2-vCPU host (Python 3.11);
#: a run's timed pass count is its ``--seconds`` over this
NOMINAL_PASS_S = {"suites": 2.0, "suites-summaries": 1.3, "cross": 1.8, "service": 3.2}

#: reduced-size mode: sources per table, tests per source, cross programs
QUICK_SOURCES, QUICK_TESTS, QUICK_CROSS = 2, 3, 4

BUG, VERIFIED = "bug", "bounded-verified"

#: the known answer of a lowering whose siblings' concrete answers differ
DISAGREE = "lowerings-disagree"


@dataclass
class Source:
    """One compiled unit: a suite source or one lowering of a program."""

    id: str
    language: str
    text: str
    entries: List[str]
    #: known verdict per entry (``bug`` / ``bounded-verified``)
    expected: Dict[str, str] = field(default_factory=dict)
    #: symbolic inputs of a generated program (its oracle grid's width)
    num_inputs: int = 0


@dataclass
class Outcome:
    """One case brought to a verdict (or to a failure)."""

    id: str
    verdict: str
    latency_s: float
    #: collector pauses inside ``latency_s``
    gc_s: float = 0.0
    #: the run's ``ExecutionStats.to_dict()``; only ``stop_reason`` for
    #: a service job answered from the result store
    stats: Dict[str, object] = field(default_factory=dict)
    error: str = ""

    @property
    def stop_reason(self) -> str:
        return self.stats.get("stop_reason", "")


@dataclass
class PassResult:
    """One pass: its wall time, every case's outcome in run order, the
    seconds of each timed step that is not a case (a source's compile,
    a job's submission) less collector pauses, by step id, and the
    pass's collector pauses."""

    wall_s: float
    outcomes: List[Outcome]
    steps: Dict[str, float]
    gc_s: float
    gc_collections: int


class PassClock:
    """Times one pass and the units inside it, and the cyclic
    collector's pauses (through ``gc.callbacks``) within each."""

    def __init__(self) -> None:
        self.gc_s = 0.0
        self.collections = 0
        self._gc_start = 0.0
        self.start = 0.0
        self.wall_s = 0.0

    def __enter__(self) -> "PassClock":
        gc.callbacks.append(self._on_gc)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self.start
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_start
            self.collections += 1

    def mark(self):
        return time.perf_counter(), self.gc_s

    def since(self, mark):
        """(wall seconds, collector seconds) since ``mark``."""
        return time.perf_counter() - mark[0], self.gc_s - mark[1]

    def result(self, outcomes, steps) -> PassResult:
        """The finished pass (call after the ``with`` block)."""
        return PassResult(self.wall_s, outcomes, steps, self.gc_s, self.collections)


def _language(name: str):
    from repro.service.runner import language_for

    return language_for(name)


def suite_sources(rng: random.Random, quick: bool) -> List[Source]:
    """The Table 1/2/3 sources in seed-shuffled order."""
    import importlib

    sources = []
    for lang, module_name in SUITE_TABLES:
        module = importlib.import_module(module_name)
        names = module.suite_names()
        if quick:
            names = names[:QUICK_SOURCES]
        for name in names:
            text, tests = module.suite(name)
            if quick:
                tests = tests[:QUICK_TESTS]
            expected = {
                t: BUG if t in module.KNOWN_BUG_TESTS else VERIFIED for t in tests
            }
            sources.append(Source(f"{lang}/{name}", lang, text, tests, expected))
    rng.shuffle(sources)
    return sources


def run_symbolic_pass(sources: List[Source], config, tracer=None,
                      before_case=None) -> PassResult:
    """Compile every source afresh and run each of its entries with
    counter-model replay on, as one ``SymbolicTester`` user run does.
    ``before_case``, if given, is called before each case, untimed."""
    from repro.testing.harness import SymbolicTester

    testers = {}
    outcomes = []
    steps = {}
    with PassClock() as clock:
        for src in sources:
            tester = testers.get(src.language)
            if tester is None:
                tester = testers[src.language] = SymbolicTester(
                    _language(src.language), config=config, replay=True
                )
            mark = clock.mark()
            try:
                prog = tester.language.compile(src.text)
            except Exception as exc:  # a failed compile fails each of its cases
                outcomes.extend(
                    Outcome(f"{src.id}/{e}", "raised", 0.0, error=repr(exc))
                    for e in src.entries
                )
                continue
            wall, paused = clock.since(mark)
            steps[f"compile:{src.id}"] = wall - paused
            for entry in src.entries:
                case_id = f"{src.id}/{entry}"
                if tracer is not None:
                    tracer.request = case_id
                if before_case is not None:
                    before_case()
                mark = clock.mark()
                try:
                    result = tester.run_test(prog, entry)
                except Exception as exc:
                    wall, paused = clock.since(mark)
                    outcomes.append(Outcome(case_id, "raised", wall, paused,
                                            error=repr(exc)))
                    continue
                wall, paused = clock.since(mark)
                outcomes.append(Outcome(
                    case_id, result.verdict, wall, paused, result.stats.to_dict()
                ))
    return clock.result(outcomes, steps)


# -- cross ---------------------------------------------------------------------


def cross_sources(rng: random.Random, quick: bool) -> List[Source]:
    """Generated shapes ``0 .. CROSS_PROGRAMS-1``, each lowered to four
    targets, in seed-shuffled run order (expected verdicts are filled in
    by :func:`cross_known_answers`).

    The corpus is fixed and only its order follows the seed: drawing 40
    shapes per seed moved throughput by 13% and median latency by 20%
    between seeds — a different workload each time, not noise.
    """
    from repro.testing.genprog import CROSS_TARGETS, generate_cross_program

    sources = []
    for shape in range(QUICK_CROSS if quick else CROSS_PROGRAMS):
        cp = generate_cross_program(shape)
        for target in CROSS_TARGETS:
            lang = "minijs" if target == "js" else "minic" if target == "c" else target
            sources.append(Source(
                f"cross/{shape}/{target}", lang, cp.sources[target], ["main"],
                num_inputs=cp.num_inputs,
            ))
    rng.shuffle(sources)
    return sources


def cross_known_answers(sources: List[Source]) -> None:
    """Fill in each lowering's expected verdict from the concrete oracle.

    A lowering's answer is ``bug`` exactly when some input tuple of the
    bounded grid ends in an error under
    :func:`repro.testing.genprog.concrete_outcome`.  The four lowerings
    of one shape must agree; where they do not, no verdict can match
    (:data:`DISAGREE`), so every lowering of that shape fails.
    """
    from repro.testing.genprog import concrete_outcome, input_grid

    by_shape: Dict[str, List[Source]] = {}
    for src in sources:
        language = _language(src.language)
        prog = language.compile(src.text)
        errs = any(
            concrete_outcome(language, prog, values)[0] == "error"
            for values in input_grid(src.num_inputs)
        )
        src.expected = {"main": BUG if errs else VERIFIED}
        by_shape.setdefault(src.id.rsplit("/", 1)[0], []).append(src)
    for lowerings in by_shape.values():
        if len({src.expected["main"] for src in lowerings}) > 1:
            for src in lowerings:
                src.expected = {"main": DISAGREE}


# -- service -------------------------------------------------------------------


@dataclass
class Job:
    """One service submission: a suite test as a :class:`JobSpec`."""

    id: str
    spec: object
    expected: str


def service_jobs(sources: List[Source], rng: random.Random) -> List[Job]:
    """Every suite test as a job, plus seeded repeat submissions, in a
    seed-shuffled burst order."""
    from repro.service.jobs import JobSpec

    jobs = [
        Job(
            f"{src.id}/{entry}",
            JobSpec(language=src.language, source=src.text, entry=entry,
                    workers=SERVICE_WORKERS),
            src.expected[entry],
        )
        for src in sources
        for entry in src.entries
    ]
    repeats = rng.sample(jobs, max(1, round(len(jobs) * SERVICE_REPEAT_SHARE)))
    burst = jobs + [Job(j.id + "#repeat", j.spec, j.expected) for j in repeats]
    rng.shuffle(burst)
    return burst


def run_service_pass(jobs: List[Job], work_dir: str, tracer=None,
                     before_case=None) -> PassResult:
    """Submit the whole burst to a fresh service root, then drain it.

    Each ``process_one`` call is one latency sample; verdicts are read
    back from the jobs' ``done`` records after the drain (outside the
    pass's time).  The service allows one attempt per job, so a job that
    raises is quarantined rather than retried, every job is claimed
    exactly once, and claims being FIFO, samples pair with submissions
    in order.  A disposition other than ``completed`` or ``cached`` is a
    failure.  ``before_case``, if given, is called before each
    ``process_one``, untimed."""
    from repro.service.daemon import AnalysisService
    from repro.service.jobs import JobResult

    root = tempfile.mkdtemp(prefix="service-", dir=work_dir)
    try:
        steps = {}
        samples = []
        with PassClock() as clock:
            mark = clock.mark()
            service = AnalysisService(root, max_attempts=1,
                                      events=getattr(tracer, "bus", None))
            wall, paused = clock.since(mark)
            steps["open"] = wall - paused
            job_ids = []
            for job in jobs:
                if tracer is not None:
                    tracer.request = job.id
                mark = clock.mark()
                job_ids.append(service.submit(job.spec)[0])
                wall, paused = clock.since(mark)
                steps[f"submit:{job.id}"] = wall - paused
            while True:
                if tracer is not None and len(samples) < len(jobs):
                    # Claims are FIFO, so the next claim is the next job.
                    tracer.request = jobs[len(samples)].id
                if before_case is not None:
                    before_case()
                mark = clock.mark()
                disposition = service.process_one()
                if disposition is None:  # drained: no retries wait in backoff
                    break
                samples.append((disposition,) + clock.since(mark))
        done = set(service.queue.done_ids())
        outcomes = []
        for job, job_id, (disposition, latency, paused) in zip(jobs, job_ids, samples):
            if disposition not in ("completed", "cached") or job_id not in done:
                outcomes.append(Outcome(job.id, disposition, latency, paused,
                                        error="not completed"))
                continue
            res = JobResult.from_dict(service.queue.load_done(job_id)["result"])
            # A job answered from the result store carries the stats of
            # the run it repeats; keep only its stop reason.
            stats = (
                res.stats if disposition == "completed"
                else {"stop_reason": res.report.stop_reason}
            )
            outcomes.append(Outcome(job.id, res.verdict, latency, paused, stats))
        for job in jobs[len(samples):]:
            outcomes.append(Outcome(job.id, "unprocessed", 0.0, error="never claimed"))
        return clock.result(outcomes, steps)
    finally:
        shutil.rmtree(root, ignore_errors=True)


# -- the workload surface ------------------------------------------------------


class Workload:
    """A named workload: its inputs for one seed, and how to run a pass."""

    def __init__(self, name: str, seed: int, quick: bool, work_dir: str) -> None:
        from repro.engine.config import gillian

        self.name = name
        self.work_dir = work_dir
        self.nominal_pass_s = NOMINAL_PASS_S[name]
        rng = random.Random(seed)
        self.jobs: Optional[List[Job]] = None
        self.config = gillian(summaries=name == "suites-summaries")
        if name == "cross":
            self.sources = cross_sources(rng, quick)
        else:
            self.sources = suite_sources(rng, quick)
        if name == "service":
            self.jobs = service_jobs(self.sources, rng)
        self.expected = (
            {j.id: j.expected for j in self.jobs}
            if self.jobs is not None
            else {f"{s.id}/{e}": v for s in self.sources for e, v in s.expected.items()}
        )

    def known_answers(self) -> None:
        """Compute the answers that need an oracle run (``cross``)."""
        if self.name == "cross":
            cross_known_answers(self.sources)
            self.expected = {f"{s.id}/main": s.expected["main"] for s in self.sources}

    def run_pass(self, tracer=None, before_case=None) -> PassResult:
        """One full pass over the workload's cases."""
        if self.jobs is not None:
            return run_service_pass(self.jobs, self.work_dir, tracer, before_case)
        return run_symbolic_pass(self.sources, self.config, tracer, before_case)

    def failures(self, result: PassResult) -> List[str]:
        """Why each failed case failed: it raised, stopped short of
        exhaustion, or its verdict is not the known answer.

        On ``cross`` the answer is an equivalence: the verdict is ``bug``
        exactly when the oracle saw an error.  A ``potential-bug`` (an
        error path the solver could not refute, with no counter-model)
        on a safe program is imprecise, not wrong; it is counted by the
        traced run's ``soundness.potential_bugs``.
        """
        bad = []
        for out in result.outcomes:
            want = self.expected.get(out.id.split("#", 1)[0])
            if self.name == "cross" and want != DISAGREE:
                right = (out.verdict == BUG) == (want == BUG)
            else:
                right = out.verdict == want
            if out.error:
                bad.append(f"{out.id}: {out.verdict} ({out.error})")
            elif out.stop_reason != "exhausted":
                bad.append(f"{out.id}: stopped {out.stop_reason or 'early'}")
            elif not right:
                bad.append(f"{out.id}: verdict {out.verdict}, expected {want}")
        return bad


WORKLOADS = ("suites", "suites-summaries", "cross", "service")


def default_work_dir() -> str:
    """Scratch space inside the checkout (the benchmark writes nowhere else)."""
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.join(os.path.dirname(here), ".bench_build", "perfbench")
