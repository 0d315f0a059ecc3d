"""README's library quick start runs as written against the package sources,
on a small generated census-like ``adult.csv``."""

import csv
import os
import re
import subprocess
import sys
from pathlib import Path

from tabcl.numerics import RngStream

ROOT = Path(__file__).resolve().parent.parent


def quick_start() -> str:
    """The first ``python`` block under the "Library quick start" heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library quick start\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def write_adult(path, n=240):
    """Two numeric and two categorical columns, and an ``income`` target
    that depends on them."""
    rng = RngStream(40, 0)
    age = 18 + 60 * rng.uniform(n, 1)[:, 0]
    hours = 10 + 50 * rng.uniform(n, 1)[:, 0]
    noise = rng.normal(n, 1)[:, 0]
    workclass = ["Private", "State-gov", "Self-emp"]
    sex = ["Male", "Female"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["age", "workclass", "hours_per_week", "sex", "income"])
        for i in range(n):
            rich = (age[i] - 45) / 15 + (hours[i] - 35) / 15 + noise[i] > 0
            writer.writerow([f"{age[i]:.1f}", workclass[i % 3], f"{hours[i]:.1f}", sex[i % 2],
                             ">50K" if rich else "<=50K"])


def test_quick_start_runs(tmp_path):
    code = quick_start()
    assert "ingest_csv(\"adult.csv\"" in code
    write_adult(tmp_path / "adult.csv")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]
    accuracy, seconds = map(float, result.stdout.split())
    assert 0.0 <= accuracy <= 1.0 and seconds > 0.0
