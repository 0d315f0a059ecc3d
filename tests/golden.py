"""Golden digests: one SHA-256 per output file of the benchmark's pipelines.

Usage::

    python tests/golden.py            # print the digests as JSON
    python tests/golden.py --write    # rewrite tests/golden.json, printing what changed

Each case runs one perfbench workload's input (seeds 0-2) through
``run_experiment`` and through the seven-subcommand CLI chain that
``perfbench/child.py`` runs, on the sources under ``src`` and at one BLAS
thread.  Timing fields are dropped from ``trace.json`` (``seconds``,
``epoch_seconds``) and ``report.json`` (``t_seconds``, ``tradeoff``,
``stage_seconds``, ``constraints.t_inference_seconds``).  A split side's
CSV export is hashed by the arrays it decodes to (``oracles.read_split_csv``).
Every other file, the files of each split side's dataset directory among
them, is hashed as its bytes.  ``--write`` prints one line per digest that
changed, appeared or went, and a key whose digest reappears under a new key
as a rename (``old -> new, digest unchanged``).

The digests hold on one host only: the file records the numpy version, the
BLAS build and the CPU model they were written with (``fingerprint``).
"""

import os
import sys

if __name__ == "__main__":  # before numpy starts its BLAS threads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

import contextlib
import hashlib
import io
import json
import multiprocessing
import platform
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden.json")
SEEDS = (0, 1, 2)
TIMING = {"trace.json": ("seconds", "epoch_seconds"),
          "report.json": ("t_seconds", "tradeoff", "stage_seconds")}


def fingerprint() -> dict:
    """What the digests depend on besides the program: numpy, its BLAS
    build and the CPU model."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    return {"numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}: {blas.get('openblas configuration')}",
            "cpu": cpu}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digest(path: Path) -> str:
    """The digest of one output file, timing fields left out."""
    if path.name in TIMING:
        payload = json.loads(path.read_text(encoding="utf-8"))
        for key in TIMING[path.name]:
            del payload[key]
        payload.get("constraints", {}).pop("t_inference_seconds", None)
        return _sha(json.dumps(payload).encode())
    return _sha(path.read_bytes())


def split_digests(split_dir: Path, rel: str) -> dict:
    """Each side's CSV export of a stored split, by the arrays it decodes to."""
    from oracles import read_split_csv

    from tabcl.data import load_split_in

    schema = load_split_in(split_dir).schema
    out = {}
    for side in ("d_in.csv", "d_ood.csv"):
        h = hashlib.sha256()
        for a in read_split_csv(split_dir / side, schema):
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(np.ascontiguousarray(a).tobytes())
        out[f"{rel}/{side}"] = h.hexdigest()
    return out


def tree_digests(root: Path, prefix: str) -> dict:
    """The digest of each file below ``root``, keyed by ``prefix`` and its path."""
    out = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix()
        if path.name == "d_in.csv":  # the split's two sides, together
            out.update(split_digests(path.parent, f"{prefix}/{path.parent.relative_to(root)}"))
        elif path.name != "d_ood.csv":
            out[f"{prefix}/{rel}"] = file_digest(path)
    return out


def case_digests(work: str, name: str, seed: int) -> dict:
    """Run one workload input through ``run_experiment`` and through the CLI
    chain, below ``work``; the digests of both runs' outputs.  Paths are
    relative to ``work``, as ``report.json`` records the dataset's."""
    from child import cli_steps
    from workloads import CLI, WORKLOADS, generate

    from tabcl.bench import ExperimentPlan, run_experiment
    from tabcl.cli import main as tabcl

    os.chdir(work)  # a worker process's own working directory
    wl = WORKLOADS[name]
    case = Path(name, str(seed))
    csv_path, _ = generate(name, seed, str(case / "input"))
    run_experiment(ExperimentPlan(dataset=csv_path, target=wl["target"],
                                  detector=dict(wl["detector"]), tcl=dict(wl["tcl"]),
                                  head=wl["head"], seed=seed, out_dir=str(case / "plan")))
    spec = {"out": str(case / CLI), "seed": seed, "csv": csv_path}
    for argv in cli_steps(spec, wl):
        with contextlib.redirect_stdout(io.StringIO()):
            if tabcl(argv) != 0:
                raise RuntimeError(f"{name} seed {seed}: tabcl {argv[0]} failed")
    out = {}
    for mode in ("plan", CLI):
        out.update(tree_digests(case / mode, f"{name}/{seed}/{mode}"))
    return out


def changes(old: dict, new: dict) -> list[str]:
    """One line per key whose digest differs between ``old`` and ``new``,
    in key order.  A key that went, whose digest a new key holds, is
    renamed to it; keys that share one digest pair off in key order."""
    gone = {}
    for key in sorted(old.keys() - new.keys()):
        gone.setdefault(old[key], []).append(key)
    renamed = {}
    for key in sorted(new.keys() - old.keys()):
        if gone.get(new[key]):
            renamed[gone[new[key]].pop(0)] = key
    lines = []
    for key in sorted((old.keys() | new.keys()) - set(renamed.values())):
        if key in renamed:
            lines.append(f"{key} -> {renamed[key]}, digest unchanged")
        elif old.get(key) != new.get(key):
            lines.append(f"{key}: {old.get(key, '(none)')} -> {new.get(key, '(none)')}")
    return lines


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]  # spawned workers get it too
    from workloads import WORKLOADS

    cases = [(name, seed) for name in WORKLOADS for seed in SEEDS]
    spawn = multiprocessing.get_context("spawn")
    with tempfile.TemporaryDirectory() as work, ProcessPoolExecutor(2, mp_context=spawn) as pool:
        parts = list(pool.map(case_digests, [work] * len(cases), *zip(*cases)))
    doc = {"fingerprint": fingerprint(),
           "digests": {key: value for part in parts for key, value in part.items()}}
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    if sys.argv[1:] == ["--write"]:
        old = json.loads(GOLDEN.read_text(encoding="utf-8"))["digests"] if GOLDEN.exists() else {}
        for line in changes(old, doc["digests"]):
            print(line)
        GOLDEN.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
