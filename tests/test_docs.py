"""Docs-vs-code consistency checks.

``docs/events.md`` is the authoritative bus schema; this test walks
:func:`repro.engine.events.event_types` so that adding an event type
without documenting it fails CI, keeping the doc from drifting.
"""

import os
import re

from repro.engine.events import event_types

DOCS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "docs")


def read_doc(name):
    with open(os.path.join(DOCS_DIR, name)) as fh:
        return fh.read()


class TestEventsDoc:
    def test_every_event_type_is_documented(self):
        doc = read_doc("events.md")
        missing = [
            cls.__name__
            for cls in event_types()
            if f"### {cls.__name__}" not in doc
        ]
        assert not missing, (
            f"docs/events.md lacks a section for: {missing} — every bus "
            "event type needs a '### <TypeName>' schema entry"
        )

    def test_every_event_field_is_documented(self):
        # Each type's field table must cover the dataclass fields, so a
        # renamed/added field shows up here rather than as doc drift.
        import dataclasses

        doc = read_doc("events.md")
        problems = []
        for cls in event_types():
            section = doc.split(f"### {cls.__name__}", 1)[1]
            section = section.split("### ", 1)[0]
            for field in dataclasses.fields(cls):
                if f"`{field.name}`" not in section:
                    problems.append(f"{cls.__name__}.{field.name}")
        assert not problems, f"fields missing from docs/events.md: {problems}"

    def test_collector_metric_names_are_documented(self):
        doc = read_doc("events.md")
        for name in (
            "engine.steps",
            "engine.branches",
            "engine.branch_arms",
            "engine.path_depth",
            "solver.queries",
            "solver.cache_hits",
            "shards.retried",
        ):
            assert f"`{name}`" in doc, name


class TestDocsTree:
    def test_expected_docs_exist(self):
        for name in (
            "architecture.md",
            "events.md",
            "paper-map.md",
            "benchmarks.md",
            "service.md",
            "summaries.md",
        ):
            assert os.path.exists(os.path.join(DOCS_DIR, name)), name

    def test_readme_links_into_docs(self):
        readme = read_doc(os.path.join(os.pardir, "README.md"))
        for target in (
            "docs/architecture.md",
            "docs/events.md",
            "docs/paper-map.md",
            "docs/benchmarks.md",
            "docs/service.md",
            "docs/summaries.md",
        ):
            assert target in readme, f"README.md does not link {target}"

    def test_doc_cross_links_resolve(self):
        # Relative markdown links inside docs/ must point at real files.
        for name in (
            "architecture.md",
            "events.md",
            "benchmarks.md",
            "paper-map.md",
            "service.md",
            "summaries.md",
        ):
            doc = read_doc(name)
            for match in re.finditer(r"\]\(([a-z\-]+\.md)\)", doc):
                target = match.group(1)
                assert os.path.exists(
                    os.path.join(DOCS_DIR, target)
                ), f"{name} links to missing {target}"


class TestBenchmarksDoc:
    def test_schema_version_matches_the_doc(self):
        import benchmarks.tables as tables

        doc = read_doc("benchmarks.md")
        assert f'"schema_version": {tables.BENCH_SCHEMA_VERSION}' in doc, (
            "docs/benchmarks.md example envelope is out of date with "
            "BENCH_SCHEMA_VERSION — update the doc and its history table"
        )

    def test_bench_meta_stamps_the_host(self):
        import os
        import platform

        import benchmarks.tables as tables

        meta = tables.bench_meta()
        assert meta["cpus"] == os.cpu_count()
        assert meta["python"] == platform.python_version()
        assert meta["platform"] == platform.platform()
        doc = read_doc("benchmarks.md")
        for key in ("cpus", "python", "platform"):
            assert f"`meta.{key}`" in doc, key


class TestReadmeCompositionExample:
    """The README memlib example must build the shipped heap model."""

    def readme_example_namespace(self):
        readme = read_doc(os.path.join(os.pardir, "README.md"))
        section = readme.split("## Composing a memory model", 1)[1]
        code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
        namespace = {}
        exec(compile(code, "README.md", "exec"), namespace)
        return namespace

    def test_example_executes_and_matches_shipped_model(self):
        from repro.gil.values import Symbol
        from repro.logic.expr import Lit, lst
        from repro.logic.pathcond import PathCondition
        from repro.logic.solver import Solver
        from repro.targets.while_lang.heap import HEAP_PART

        heap = self.readme_example_namespace()["HEAP"]
        assert heap.actions == HEAP_PART.actions
        # Both compositions must branch identically on a probe script
        # (mutate creates, dispose tombstones, lookup reports the bug).
        pc, solver = PathCondition(), Solver()
        loc = Lit(Symbol("l"))
        script = (
            ("mutate", lst(loc, "p", 1)),
            ("dispose", lst(loc)),
            ("lookup", lst(loc, "p")),
        )
        mems = [heap.initial_symbolic(), HEAP_PART.initial_symbolic()]
        for action, args in script:
            outs = [
                part.execute_symbolic(action, mem, args, pc, solver)
                for part, mem in zip((heap, HEAP_PART), mems)
            ]
            assert len(outs[0]) == len(outs[1]) == 1, action
            for i, (branch,) in enumerate(outs):
                if hasattr(branch, "memory"):
                    mems[i] = branch.memory
        assert outs[0][0].expr == outs[1][0].expr
        assert outs[0][0].expr.items[0] == Lit("use-after-dispose")


class TestReadmeServiceExample:
    """The README daemon example must run against the shipped service."""

    def readme_example_namespace(self):
        readme = read_doc(os.path.join(os.pardir, "README.md"))
        section = readme.split("## Running as a service", 1)[1]
        code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
        namespace = {}
        exec(compile(code, "README.md", "exec"), namespace)
        return namespace

    def test_example_finds_bug_and_replays_from_cache(self):
        namespace = self.readme_example_namespace()
        result = namespace["result"]
        assert result.verdict == "bug"
        # The identical resubmission was served from the result store.
        assert namespace["job_id"] is None
        cached = namespace["cached"]
        assert cached is not None
        assert cached.finals_digest == result.finals_digest


class TestReadmeCompositionalExample:
    """The README summaries example must run against the shipped engine."""

    def readme_example_namespace(self):
        from repro.specs.cache import clear_summary_cache

        readme = read_doc(os.path.join(os.pardir, "README.md"))
        section = readme.split("## Compositional execution", 1)[1]
        code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
        clear_summary_cache()  # cold cache: the comments describe a cold run
        namespace = {}
        exec(compile(code, "README.md", "exec"), namespace)
        return namespace

    def test_example_matches_baseline_and_replays(self):
        namespace = self.readme_example_namespace()
        result, baseline = namespace["result"], namespace["baseline"]
        assert result.verdict == baseline.verdict == "bug"
        assert result.paths == baseline.paths
        assert result.stats.summary_replays > 0
        assert baseline.stats.summary_replays == 0
        assert result.bugs[0].confirmed


class TestSummariesDocExample:
    """docs/summaries.md's worked example must execute as written.

    The example's own assertions (verdict/paths identity with the
    baseline, one cold miss, replay engagement, a pure-tier hit on the
    bus) are the test; exec raises if any fails.
    """

    def test_worked_example_executes(self):
        from repro.specs.cache import clear_summary_cache

        doc = read_doc("summaries.md")
        section = doc.split("## Worked example", 1)[1]
        code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
        clear_summary_cache()  # the example asserts cold-run counters
        namespace = {}
        exec(compile(code, "summaries.md", "exec"), namespace)
        assert namespace["result"].stats.summary_replays >= 2


class TestReadmeMiniRustExample:
    """The README MiniRust example must run against the shipped target."""

    def readme_example_namespace(self):
        readme = read_doc(os.path.join(os.pardir, "README.md"))
        section = readme.split("### MiniRust: ownership faults as memory errors", 1)[1]
        code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
        namespace = {}
        exec(compile(code, "README.md", "exec"), namespace)
        return namespace

    def test_example_finds_the_ownership_bug(self):
        namespace = self.readme_example_namespace()
        result, bug = namespace["result"], namespace["bug"]
        assert result.verdict == "bug"
        assert bug.confirmed
        assert bug.concrete_value[0] == "use-after-move"
        assert list(bug.model.values()) == [1]
