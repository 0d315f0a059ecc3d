"""Print two benchmark result files side by side.

Usage, from the repository root:

    python3 perfbench/compare.py BEFORE.json AFTER.json

The files are the records ``run.py`` writes to ``.perfbench_work/results/``.
Each row shows a metric in both files and the change of AFTER against
BEFORE.  For end-to-end metrics a trailing ``worse`` marks a change in the
wrong direction.  Whether a change is beyond run-to-run noise is decided by
repeated runs on several seeds, not by one pair of files.
"""

import json
import math
import sys

from run import END_TO_END


def load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (load(p) for p in argv)
    for key in ("workload", "trace", "environment"):
        if a.get(key) != b.get(key):
            print(f"note: {key} differs: {a.get(key)} vs {b.get(key)}")
    print(f"{'metric':44s} {'unit':>8s} {'before':>14s} {'after':>14s} {'change':>9s}")
    names = list(a["metrics"]) + [n for n in b["metrics"] if n not in a["metrics"]]
    for name in names:
        ma, mb = a["metrics"].get(name), b["metrics"].get(name)
        unit = (ma or mb)["unit"]
        va = ma["value"] if ma else float("nan")
        vb = mb["value"] if mb else float("nan")
        change = (vb / va - 1.0) if ma and mb and va else float("nan")
        mark = ""
        if name in END_TO_END and not math.isnan(change):
            better = END_TO_END[name][1]
            if (better == "lower" and change > 0) or (better == "higher" and change < 0):
                mark = " worse"
        print(f"{name:44s} {unit:>8s} {va:>14.6g} {vb:>14.6g} {change:>+8.1%}{mark}")
    print(f"{'failed operations':44s} {'count':>8s} {a['failed']:>14d} {b['failed']:>14d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
