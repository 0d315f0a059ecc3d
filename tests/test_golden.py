"""The pipelines' outputs match the digests in ``tests/golden.json``.

``tests/golden.py`` regenerates them in a fresh process at one BLAS thread.
The digests hold on the host they were written on only: under another
numpy version, BLAS build or CPU model the test is skipped, naming what
differs, and ``python tests/golden.py --write`` writes them for this host.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent


def test_outputs_match_the_golden_digests():
    golden = json.loads((TESTS / "golden.json").read_text(encoding="utf-8"))
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(TESTS / "golden.py")], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    now = json.loads(proc.stdout)
    host = {key: (golden["fingerprint"].get(key), value)
            for key, value in now["fingerprint"].items() if golden["fingerprint"].get(key) != value}
    if host:
        pytest.skip(f"tests/golden.json was written on another host (written, here): {host}")
    want, got = golden["digests"], now["digests"]
    differ = sorted(key for key in want.keys() | got.keys() if want.get(key) != got.get(key))
    assert not differ, f"{len(differ)} of {len(want)} outputs differ from tests/golden.json: {differ}"


def test_write_prints_a_moved_digest_as_a_rename():
    from golden import changes

    old = {"a": "1", "b": "2", "plan/x_f": "3", "cli/x_f": "3", "gone": "5"}
    new = {"a": "1", "b": "9", "plan/x/f": "3", "cli/x/f": "3", "new": "4"}
    assert changes(old, new) == [
        "b: 2 -> 9",
        "cli/x_f -> cli/x/f, digest unchanged",
        "gone: 5 -> (none)",
        "new: (none) -> 4",
        "plan/x_f -> plan/x/f, digest unchanged",
    ]
