"""The benchmark's child process against the sources under test.

``perfbench/child.py`` calls the library the way the benchmark measures it.
Each workload runs once untraced and once traced on input seed 0, as
``perfbench/run.py`` starts them: one BLAS thread, ``PYTHONPATH`` at
``src``.  Both runs must pass every check the child makes and agree on the
determinism digest, so a change that breaks a call the benchmark makes
fails here rather than as a failed benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import load_workloads

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

workloads = load_workloads()


def run_child(tmp_path, mode, workload, csv_path, mask_path) -> dict:
    spec = {
        "mode": mode, "workload": workload, "seed": 0, "csv": csv_path, "mask": mask_path,
        "out": str(tmp_path / mode), "result": str(tmp_path / f"{mode}.json"),
        "spans": str(tmp_path / f"{mode}-spans.json"),
    }
    spec_path = tmp_path / f"{mode}.spec.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(PERFBENCH / "child.py"), str(spec_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(Path(spec["result"]).read_text())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_child_passes_its_checks_and_repeats_its_digest(tmp_path, workload):
    csv_path, mask_path = workloads.generate(workload, 0, str(tmp_path / "input"))
    digests = {}
    for mode in ("run", "trace"):
        result = run_child(tmp_path, mode, workload, csv_path, mask_path)
        failed = [op for op in result["ops"] if not op[1]]
        assert result["ops"] and not failed, failed
        digests[mode] = result["digest"]
    assert digests["run"] == digests["trace"]
