"""Outside-in tracer: spans around every public function of the program.

The tracer wraps each public module-level function of the traced modules
and rebinds the wrapper under every module attribute that holds the
original, so calls through aliases (``cli.split_rows``) and through the
package namespace are caught too.  A span is named by the module that
defines the function and the function's own name, so aliases fold into
one span name.  Nothing inside the program changes; ``uninstall`` puts the
original bindings back.

Self time of a span is its duration minus the time covered by its direct
child spans.  The program is single-threaded, so child spans never
overlap and that covered time is the sum of their durations.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types

MODULES = ("data", "ood", "weibull", "contrastive", "heads", "numerics", "bench", "cli")


class Tracer:
    """Collects spans in memory; per-name totals are kept as spans close.

    ``clock`` returns seconds; tests pass a scripted clock.  ``counters``
    maps a span name to a function of the call's result that returns a
    count to add under that name (for example cells returned by a reader).
    """

    def __init__(self, clock=time.perf_counter, counters=None):
        self.clock = clock
        self.counters = dict(counters or {})
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.stats: dict[str, dict] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []  # [span index, start, covered child time]
        self._saved: list[tuple[object, str, object]] = []

    def enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append([len(self.spans) - 1, self.clock(), 0.0])

    def exit(self, failed: bool = False) -> None:
        end = self.clock()
        index, start, covered = self._stack.pop()
        name, _, _, parent = self.spans[index]
        self.spans[index] = (name, start, end, parent)
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        s = self.stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "failed": 0})
        s["calls"] += 1
        s["total_s"] += duration
        s["self_s"] += duration - covered
        s["failed"] += int(failed)

    def wrap(self, name: str, fn):
        count = self.counters.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.exit(failed=True)
                raise
            self.exit()
            if count is not None:
                self.counts[name] = self.counts.get(name, 0) + count(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions defined in each ``tabcl.<module>`` of
        ``MODULES``, at every binding in the package and those modules."""
        mods = {m: importlib.import_module(f"tabcl.{m}") for m in MODULES}
        wrappers: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, value in vars(mod).items():
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and value.__module__ == mod.__name__ and attr == value.__name__):
                    wrappers[id(value)] = self.wrap(f"{short}.{attr}", value)
        holders = [importlib.import_module("tabcl"), *mods.values()]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((holder, attr, value))
                    setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, value in reversed(self._saved):
            setattr(holder, attr, value)
        self._saved.clear()

    def write(self, path) -> None:
        """Write every span as ``[name, start, end, parent index]``."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)
