"""Tests of the outside-in tracer.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from tracer import Tracer  # noqa: E402


class ScriptedClock:
    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_subtracts_covered_child_time_on_nested_spans():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 8].
    clock = ScriptedClock([0.0, 1.0, 4.0, 5.0, 6.0, 8.0, 9.0, 10.0])
    t = Tracer(clock=clock)
    t.enter("m.a")
    t.enter("m.b")
    t.exit()
    t.enter("m.c")
    t.enter("m.d")
    t.exit()
    t.exit()
    t.exit()
    s = t.stats
    assert s["m.a"]["total_s"] == 10.0 and s["m.a"]["self_s"] == 10.0 - 3.0 - 4.0
    assert s["m.b"]["self_s"] == 3.0
    assert s["m.c"]["total_s"] == 4.0 and s["m.c"]["self_s"] == 2.0
    assert s["m.d"]["self_s"] == 2.0
    # self times partition the root span
    assert sum(v["self_s"] for v in s.values()) == s["m.a"]["total_s"]
    names = [span[0] for span in t.spans]
    parents = [span[3] for span in t.spans]
    assert names == ["m.a", "m.b", "m.c", "m.d"]
    assert parents == [-1, 0, 0, 2]
    assert t.spans[3][1:3] == (6.0, 8.0)


def test_repeated_calls_accumulate_failures_and_counts():
    clock = ScriptedClock([0.0, 2.0, 3.0, 3.5])
    t = Tracer(clock=clock, counters={"m.f": len})

    def boom():
        raise ValueError("x")

    ok = t.wrap("m.f", lambda: [1, 2, 3])
    bad = t.wrap("m.f", boom)
    assert ok() == [1, 2, 3]
    with pytest.raises(ValueError):
        bad()
    assert t.stats["m.f"] == {"calls": 2, "total_s": 2.5, "self_s": 2.5, "failed": 1}
    assert t.counts == {"m.f": 3}


def test_install_folds_aliases_and_uninstall_restores_bindings():
    import tabcl
    import tabcl.cli
    import tabcl.data

    original = tabcl.data.split
    assert tabcl.cli.split_rows is original
    t = Tracer()
    t.install()
    try:
        assert tabcl.cli.split_rows is tabcl.data.split is tabcl.split
        assert tabcl.data.split is not original
    finally:
        t.uninstall()
    assert tabcl.cli.split_rows is original and tabcl.data.split is original
    assert tabcl.split is original
