"""README's library quick start and its CLI block run as written against the
package sources, on a small generated census-like ``adult.csv`` and a small
``table.csv``."""

import contextlib
import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from tabcl.cli import main
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


def cli_section() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]


def cli_block() -> list[list[str]]:
    """The arguments of each ``tabcl`` line of the CLI section's ``sh``
    block, in order, each line's trailing ``# ...`` comment stripped."""
    block = re.search(r"```sh\n(.*?)```", cli_section(), re.DOTALL).group(1)
    return [shlex.split(line.split(" #")[0])[1:]
            for line in block.splitlines() if line.startswith("tabcl ")]


def plan_example() -> dict:
    """The experiment plan of the CLI section's ``json`` block."""
    return json.loads(re.search(r"```json\n(.*?)```", cli_section(), re.DOTALL).group(1))


def write_table(path, n=400):
    """Two numeric columns, a categorical one and a two-class ``label``
    that depends on them."""
    rng = RngStream(41, 0)
    x = rng.normal(n, 2)
    colors = ["red", "green", "blue"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x0", "x1", "color", "label"])
        for i in range(n):
            yes = x[i, 0] - x[i, 1] + (i % 3 == 0) > 0
            writer.writerow([f"{x[i, 0]:.4f}", f"{x[i, 1]:.4f}", colors[i % 3],
                             "yes" if yes else "no"])


def test_cli_block_runs(tmp_path, monkeypatch):
    """Every line of the block exits 0, in order, in one directory that
    holds ``table.csv`` and README's plan as ``plan.json``."""
    argvs = cli_block()
    assert [argv[0] for argv in argvs].count("report") == 2
    assert argvs[-1][0] == "compare"
    monkeypatch.chdir(tmp_path)
    write_table(tmp_path / "table.csv")
    (tmp_path / "plan.json").write_text(json.dumps(plan_example()), encoding="utf-8")
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, shlex.join(["tabcl", *argv])
    assert (tmp_path / "run_a" / "report.md").exists()
