"""Interpreter benchmark: engine throughput and the concrete fast lane.

Runs the Table 1 (Buckets-style MiniJS) and Table 2 (Collections-C-style
MiniC) symbolic-testing workloads through the engine and reports:

* throughput (paths/sec and commands/sec over engine wall time);
* the **concrete fast-lane hit rate**: the share of executed commands
  decided by the concrete evaluator
  (:func:`repro.gil.semantics.fast_lane`), never touching ``logic/``.

The run is measured *warm*: a first untimed pass populates the
simplifier memos and the solver caches, so the numbers reflect the
steady-state hot path.

Emits ``BENCH_interp.json`` next to the repository root.  ``--smoke``
runs a reduced workload (first two suites per table, one repeat) and is
what ``make bench-gate`` / ``make verify`` use; ``--gate`` additionally
fails the run if smoke throughput regresses below the recorded floor
(see :data:`SMOKE_PATHS_PER_SEC_FLOOR`).

Run with::

    PYTHONPATH=src:. python benchmarks/bench_interp.py [--smoke] [--gate]
"""

from __future__ import annotations

import os
import sys
from typing import Dict, List

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from repro.engine.config import gillian
from repro.testing.io import atomic_write_json
from repro.testing.harness import SymbolicTester

from benchmarks.bench_strategies import workloads
from benchmarks.tables import bench_meta

OUT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_interp.json",
)

#: paths/sec the engine must sustain on the smoke workload for
#: ``--gate`` to pass.  Deliberately far below typical throughput
#: (hundreds of paths/sec on an idle machine): the gate is a tripwire
#: for order-of-magnitude regressions — an accidentally quadratic hot
#: path, a disabled cache — not a micro-benchmark; shared CI machines
#: routinely show 2× wall-clock swings between consecutive runs.
SMOKE_PATHS_PER_SEC_FLOOR = 40.0

FULL_REPEATS = 3


def run_pass(suites: List[tuple]) -> Dict:
    """One pass of every workload suite: counts and engine wall time."""
    config = gillian()
    agg = {"paths": 0, "commands": 0, "fast_lane_steps": 0, "wall_time": 0.0}
    suite_paths = {}
    for language, name, prog, tests in suites:
        tester = SymbolicTester(language, config=config, replay=False)
        suite_paths[name] = 0
        for test in tests:
            stats = tester.run_test(prog, test).stats
            agg["paths"] += stats.paths_finished
            agg["commands"] += stats.commands_executed
            agg["fast_lane_steps"] += stats.fast_lane_steps
            agg["wall_time"] += stats.wall_time
            suite_paths[name] += stats.paths_finished
    agg["suites"] = suite_paths
    return agg


def main(argv: List[str]) -> int:
    smoke = "--smoke" in argv
    gate = "--gate" in argv
    mode = "smoke" if smoke else "full"
    repeats = 1 if smoke else FULL_REPEATS
    print(f"== bench_interp ({mode}) ==")

    suites = [
        (language, name, language.compile(source), tests)
        for language, name, source, tests in workloads(smoke)
    ]
    run_pass(suites)  # warm-up, untimed
    passes = [run_pass(suites) for _ in range(repeats)]
    # Counts are deterministic; only the wall time varies per pass.
    result = dict(passes[0], repeats=repeats)
    result["wall_time"] = round(sum(p["wall_time"] for p in passes), 4)
    elapsed = result["wall_time"] / repeats
    result["paths_per_sec"] = round(result["paths"] / elapsed, 1)
    result["commands_per_sec"] = round(result["commands"] / elapsed, 1)
    result["fast_lane_rate"] = round(
        result["fast_lane_steps"] / result["commands"], 4
    )
    print(
        f"paths/sec={result['paths_per_sec']:8.1f} "
        f"commands/sec={result['commands_per_sec']:10.1f} "
        f"fast-lane={result['fast_lane_rate']:.1%}"
    )
    floor_met = result["paths_per_sec"] >= SMOKE_PATHS_PER_SEC_FLOOR

    report = {
        "benchmark": "bench_interp",
        "meta": bench_meta(),
        "mode": mode,
        "workload": "table1 (MiniJS/Buckets) + table2 (MiniC/Collections)",
        "engine": result,
        "fast_lane_rate": result["fast_lane_rate"],
        "gate": {
            "smoke_paths_per_sec_floor": SMOKE_PATHS_PER_SEC_FLOOR,
            "floor_met": floor_met,
            "enforced": gate,
        },
    }
    atomic_write_json(OUT_PATH, report, indent=2)
    print(f"wrote {OUT_PATH}")
    if gate and not floor_met:
        print(
            f"bench-gate: smoke throughput {result['paths_per_sec']:.1f} "
            f"paths/sec is below the recorded floor "
            f"{SMOKE_PATHS_PER_SEC_FLOOR:.1f}"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
