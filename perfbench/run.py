"""The engine benchmark: one command, four workloads, verdicts checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload service --seed 1 --seconds 12 --trace 0

A run sets up (imports, corpus, one untimed warm-up pass), computes the
known answers, then runs a fixed number of full passes, as many as fit
in ``--seconds`` on an unloaded host, and checks every verdict of every
pass.  ``--trace 0`` reports the end-to-end metrics, their times scaled
to a reference host speed; ``--trace 1`` also runs untraced passes, then one
pass with the outside-in tracer of ``perfbench/trace.py`` installed, and
reports the per-layer metrics.  Metric names and units come from
``BENCHMARK.json``.  The last stdout line is the JSON result; the exit
code is 0 only when every verdict matched its known answer.

``--quick`` selects the reduced-size corpus the self-tests use.  See
``perfbench/README.md`` for the workloads and the metric map.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here, imports included

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: set-up samples per run (this process plus fresh child processes)
SETUP_SAMPLES = 3

#: fewest timed passes in a run
MIN_PASSES = 2

#: timed passes stop once their time exceeds this many times ``--seconds``
PASS_TIME_CAP = 2.0

#: iterations of the host-speed probe loop
PROBE_ITERATIONS = 2_000_000

#: iterations of the calibration loop run before each timed case
CALIBRATION_ITERATIONS = 10_000

#: the reference host speed: the calibration loop's 10th-percentile time
#: on an unloaded 2-vCPU Xeon host at 2.1 GHz with Python 3.11.7
CALIBRATION_REFERENCE_S = 0.00057


def host_probe(iterations: int = PROBE_ITERATIONS) -> float:
    """Seconds for a fixed pure-Python loop: how fast the host runs
    Python right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc += i * i % 7
    return time.perf_counter() - start


def git_revision() -> str:
    """The checkout's HEAD commit, read from ``.git`` without running git
    (a benchmark checkout need not be a repository)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head[:12]
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()[:12]
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0][:12]
    except OSError:
        pass
    return "unknown"


def host_stamp() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_revision": git_revision(),
    }


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="reduced-size corpus (self-tests)")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time, exit (a set-up sample)")
    return ap.parse_args(argv)


def setup(args):
    """Imports, the corpus, and one untimed warm-up pass."""
    from perfbench.workloads import Workload, default_work_dir

    work_dir = default_work_dir()
    os.makedirs(work_dir, exist_ok=True)
    workload = Workload(args.workload, args.seed, args.quick, work_dir)
    warm = workload.run_pass()
    return workload, warm, time.perf_counter() - _T0


def setup_sample(args) -> float:
    """One set-up time measured in a fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def pass_count(workload, seconds: float) -> int:
    """Timed passes for a window of ``seconds``: a fixed count from the
    workload's nominal pass time, so that two commits take each unit's
    fastest time over the same number of samples."""
    return max(MIN_PASSES, round(seconds / workload.nominal_pass_s))


def timed_passes(workload, seconds: float, before_case=None):
    """``pass_count`` full passes, cut short only if the passes outlast
    ``PASS_TIME_CAP`` times ``seconds`` (a very slow host), so that a run
    still ends in time."""
    passes = []
    spent = 0.0
    for _ in range(pass_count(workload, seconds)):
        if spent > PASS_TIME_CAP * seconds:
            break
        passes.append(workload.run_pass(before_case=before_case))
        spent += passes[-1].wall_s
    return passes


def count(result, key: str) -> int:
    return sum(o.stats.get(key, 0) for o in result.outcomes)


def inert_mismatches(untraced, traced):
    """Cases whose verdict, command count or solver queries differ
    between an untraced and a traced pass (the tracer must be inert)."""
    def fingerprint(result):
        return {
            o.id: (o.verdict, o.stats.get("commands_executed"),
                   o.stats.get("solver_queries"))
            for o in result.outcomes
        }

    before, after = fingerprint(untraced), fingerprint(traced)
    return sorted(k for k in before.keys() | after.keys()
                  if before.get(k) != after.get(k))


def fastest(passes):
    """Each case's fastest time over ``passes``, and each case's and each
    step's fastest time less the collector's pauses inside it.

    The host's speed moves in phases (see the probe), so a pass-level
    median still moved 15% between runs; the fastest time of each unit
    of work is what the program can do when the host lets it.
    """
    latency: dict = {}
    compute: dict = {}
    steps: dict = {}
    for p in passes:
        for o in p.outcomes:
            latency[o.id] = min(latency.get(o.id, o.latency_s), o.latency_s)
            own = o.latency_s - o.gc_s
            compute[o.id] = min(compute.get(o.id, own), own)
        for k, v in p.steps.items():
            steps[k] = min(steps.get(k, v), v)
    return latency, compute, steps


def end_to_end(passes, setup_samples, calibration):
    """The end-to-end metrics, their times scaled to the reference host
    speed by the calibration loop timed before each case of the timed
    passes (``calibration``: those times).

    The host's speed moves in phases of seconds to minutes, by up to
    1.7x; the fastest times below absorb the short ones, the scaling the
    long ones.  The loop runs no engine code, so a change to the program
    moves the scaled times as much as the measured ones.
    """
    latency, compute, steps = fastest(passes)
    # Collections land on different units in different passes, so the
    # fastest times leave them out; the mean pass's pauses go back in
    # (a pass holds few full collections, so the mean, not the median).
    gc_per_pass = statistics.mean(p.gc_s for p in passes)
    best_pass = sum(compute.values()) + sum(steps.values()) + gc_per_pass
    samples = list(latency.values())
    # Like the fastest times, the 10th percentile is what the host gives
    # in its quicker moments of the run.
    host_s = percentile(calibration, 10)
    scale = CALIBRATION_REFERENCE_S / host_s
    measured = {
        "setup_s": statistics.median(setup_samples),
        "verdicts_per_s": len(latency) / best_pass,
        "verdict_p50_ms": percentile(samples, 50) * 1e3,
        "verdict_p90_ms": percentile(samples, 90) * 1e3,
    }
    return {
        "setup_s": measured["setup_s"] * scale,
        "verdicts_per_s": measured["verdicts_per_s"] / scale,
        "verdict_p50_ms": measured["verdict_p50_ms"] * scale,
        "verdict_p90_ms": measured["verdict_p90_ms"] * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, {
        "unscaled": measured,
        "calibration_p10_s": host_s,
        "calibration_samples": len(calibration),
        "verdict_samples": len(samples),
        "passes": len(passes),
        "median_pass_verdicts_per_s": statistics.median(
            len(p.outcomes) / p.wall_s for p in passes),
        "mean_pass_gc_s": gc_per_pass,
    }


def per_layer(traced, tracer, untraced_walls):
    out = tracer.layer_metrics(traced.wall_s)
    out["runtime.gc.collections"] = traced.gc_collections
    out["runtime.gc.pause_s"] = traced.gc_s
    queries = count(traced, "solver_queries")
    for name, key in (
        ("gil.commands", "commands_executed"),
        ("gil.fast_lane_steps", "fast_lane_steps"),
        ("logic.solver.queries", "solver_queries"),
        ("logic.solver.cache_hits", "solver_cache_hits"),
        ("logic.solver.prefix_hits", "solver_prefix_hits"),
        ("logic.solver.model_reuse", "solver_model_reuse"),
        ("specs.build_commands", "summary_build_commands"),
    ):
        out[name] = count(traced, key)
    out["logic.solver.timeouts"] = sum(
        o.stats.get("incompleteness", {}).get("solver_timeouts", 0)
        for o in traced.outcomes
    )
    out["logic.solver.hit_rate"] = (
        (out["logic.solver.cache_hits"] + out["logic.solver.prefix_hits"]) / queries
        if queries else 0.0
    )
    out["soundness.potential_bugs"] = sum(
        o.verdict == "potential-bug" for o in traced.outcomes)
    replays = count(traced, "summary_replays")
    misses = count(traced, "summary_misses")
    out["specs.hit_rate"] = replays / (replays + misses) if replays + misses else 0.0
    out["trace.overhead_frac"] = traced.wall_s / statistics.median(untraced_walls) - 1
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no engine sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {WORKLOADS}", file=sys.stderr)
        return 2

    probe_before = 0.0 if args.setup_only else host_probe()
    workload, warm, setup_s = setup(args)
    setup_s -= probe_before  # the probe is a diagnostic, not set-up
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    workload.known_answers()
    problems = []  # failures that are not a case's verdict
    checked = [warm]
    diagnostics = {"host": host_stamp(), "probe_before_s": probe_before}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    if args.trace == 0:
        samples = [setup_s] + [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
        calibration = []
        passes = timed_passes(
            workload, args.seconds,
            lambda: calibration.append(host_probe(CALIBRATION_ITERATIONS)))
        checked += passes
        values, extra = end_to_end(passes, samples, calibration)
        diagnostics.update(extra, setup_samples_s=samples)
        wanted = spec["end_to_end"]
    else:
        from perfbench.trace import Tracer

        untraced = timed_passes(workload, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = workload.run_pass(tracer)
        finally:
            tracer.uninstall()
        checked += untraced + [traced]
        values = per_layer(traced, tracer, [p.wall_s for p in untraced])
        mismatched = inert_mismatches(untraced[-1], traced)
        if mismatched:
            problems += [f"{case}: traced run differs" for case in mismatched]
        if values["gil.fast_lane_steps"] <= 0:
            problems.append("traced pass ran no fast-lane steps")
        spans_path = os.path.join(
            workload.work_dir, f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.dump(spans_path)
        diagnostics["spans_file"] = os.path.relpath(spans_path, ROOT)
        wanted = spec["per_layer"]

    failures = problems + [f for r in checked for f in workload.failures(r)]
    attempted = sum(len(result.outcomes) for result in checked)
    diagnostics["probe_after_s"] = host_probe()
    diagnostics["failed_frac"] = len(failures) / attempted
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    for failure in failures[:20]:
        print(f"FAIL {failure}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print("diagnostics " + json.dumps(diagnostics, sort_keys=True))
    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
