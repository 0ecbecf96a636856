"""Shared fixtures for the tier-1 suite."""

import pytest

from repro.engine.results import final_sort_key
from repro.gil import semantics


def lane_invariant_stats(stats) -> dict:
    """Every non-timing counter of a run except the fast-lane tally."""
    key = stats.to_dict()
    for name in ("fast_lane_steps", "solver_time", "wall_time"):
        del key[name]
    return key


@pytest.fixture
def fast_lane_pair(monkeypatch):
    """``pair(run, context)`` calls ``run()`` with the concrete fast lane
    on, then again with :func:`repro.gil.semantics.fast_lane` patched to
    decline every command, and asserts the two results have the same
    finals multiset and the same counters apart from
    ``fast_lane_steps``.  Returns ``(on, off)``.

    Forked parallel workers inherit the patch.  ``context`` (e.g. the
    seed and program) is appended to every failure message.
    """

    def pair(run, context=""):
        on = run()
        with monkeypatch.context() as patch:
            patch.setattr(semantics, "fast_lane", lambda prog, cfg, cmd: None)
            off = run()
        assert off.stats.fast_lane_steps == 0, context
        assert sorted(map(final_sort_key, on.finals)) == sorted(
            map(final_sort_key, off.finals)
        ), f"finals differ with the fast lane on\n{context}"
        on_stats = lane_invariant_stats(on.stats)
        off_stats = lane_invariant_stats(off.stats)
        assert on_stats == off_stats, (
            f"stats differ with the fast lane on\n"
            f"on:  {on_stats}\noff: {off_stats}\n{context}"
        )
        return on, off

    return pair
