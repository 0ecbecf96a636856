"""Shared harness for regenerating the paper's tables.

Runs a symbolic test suite for a language instantiation under a given
engine configuration and collects the columns the paper reports: number
of symbolic tests (#T), executed GIL commands, and wall-clock time.

Also home of :func:`bench_meta`, the provenance stamp every
``BENCH_*.json`` emitter embeds (see ``docs/benchmarks.md`` for the
file format).
"""

from __future__ import annotations

import os
import platform
import subprocess
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.engine.config import EngineConfig, gillian, javert2_baseline
from repro.targets.language import Language
from repro.testing.harness import SymbolicTester, TestResult

#: version of the shared BENCH_*.json envelope (the ``meta`` block plus
#: the ``benchmark``/``workload``/``acceptance`` keys every report
#: carries).  Bump when that shared shape changes incompatibly;
#: benchmark-specific payload keys may evolve without a bump.  History
#: documented in ``docs/benchmarks.md``.
BENCH_SCHEMA_VERSION = 1


def git_revision() -> str:
    """The repository's short HEAD revision, or ``"unknown"``.

    ``"-dirty"`` is appended when the working tree has uncommitted
    changes, so a bench report can always be traced to the exact code
    that produced it (or flagged as untraceable).
    """
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, cwd=repo_root, timeout=10,
        )
        if rev.returncode != 0 or not rev.stdout.strip():
            return "unknown"
        dirty = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True, text=True, cwd=repo_root, timeout=10,
        )
        suffix = "-dirty" if dirty.stdout.strip() else ""
        return rev.stdout.strip() + suffix
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def bench_meta() -> Dict[str, object]:
    """The provenance block shared by every ``BENCH_*.json`` report:
    the code revision plus the host that produced the numbers."""
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "git_revision": git_revision(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


@dataclass
class SuiteRow:
    """One table row: a data structure's suite results."""

    name: str
    tests: int
    commands: int
    time: float
    failures: List[str] = field(default_factory=list)


@dataclass
class TableReport:
    rows: List[SuiteRow]

    @property
    def total(self) -> SuiteRow:
        return SuiteRow(
            name="Total",
            tests=sum(r.tests for r in self.rows),
            commands=sum(r.commands for r in self.rows),
            time=sum(r.time for r in self.rows),
            failures=[f for r in self.rows for f in r.failures],
        )

    def format(self, title: str, time_label: str = "Time") -> str:
        lines = [title, ""]
        header = f"{'Name':10s} {'#T':>4s} {'GIL Cmds':>10s} {time_label:>10s}"
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows + [self.total]:
            lines.append(
                f"{row.name:10s} {row.tests:4d} {row.commands:10,d} "
                f"{row.time:9.2f}s"
            )
        return "\n".join(lines)


def run_suite(
    language: Language,
    source: str,
    tests: List[str],
    name: str,
    config: Optional[EngineConfig] = None,
    replay: bool = False,
    strategy=None,
) -> SuiteRow:
    """Run one suite (one table row) and collect its statistics.

    ``replay=False``: table timing measures the symbolic analysis itself
    (counter-model replay is covered by the soundness harness).
    ``strategy`` selects the scheduler's search order (default DFS).
    """
    prog = language.compile(source)
    tester = SymbolicTester(language, config=config, replay=replay, strategy=strategy)
    commands = 0
    elapsed = 0.0
    failures: List[str] = []
    for test in tests:
        result = tester.run_test(prog, test)
        commands += result.stats.commands_executed
        elapsed += result.stats.wall_time
        if not result.passed:
            failures.append(test)
    return SuiteRow(name, len(tests), commands, elapsed, failures)


def run_table1(
    config: Optional[EngineConfig] = None, strategy=None
) -> TableReport:
    """Table 1: the Buckets-style MiniJS suites under Gillian-JS."""
    from repro.targets.js_like import MiniJSLanguage
    from repro.targets.js_like.buckets import suites

    language = MiniJSLanguage()
    rows = []
    for name in suites.suite_names():
        source, tests = suites.suite(name)
        rows.append(run_suite(language, source, tests, name, config, strategy=strategy))
    return TableReport(rows)


def run_table2(
    config: Optional[EngineConfig] = None, strategy=None
) -> TableReport:
    """Table 2: the Collections-C-style MiniC suites under Gillian-C."""
    from repro.targets.c_like import MiniCLanguage
    from repro.targets.c_like.collections import suites

    language = MiniCLanguage()
    rows = []
    for name in suites.suite_names():
        source, tests = suites.suite(name)
        rows.append(run_suite(language, source, tests, name, config, strategy=strategy))
    return TableReport(rows)


def run_table3(
    config: Optional[EngineConfig] = None, strategy=None
) -> TableReport:
    """Table 3: the MiniRust library suites under Gillian-Rust."""
    from repro.targets.rust_like import MiniRustLanguage
    from repro.targets.rust_like.collections import suites

    language = MiniRustLanguage()
    rows = []
    for name in suites.suite_names():
        source, tests = suites.suite(name)
        rows.append(run_suite(language, source, tests, name, config, strategy=strategy))
    return TableReport(rows)
