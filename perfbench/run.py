"""tabcl benchmark: whole-pipeline workloads, timed in fresh child processes.

Run from the repository root:

    python3 perfbench/run.py --workload train-wide --seed 0 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --trace 1

Load model: a closed loop with one client.  One pipeline runs at a time,
each in its own child process started from this script, with the BLAS and
OpenMP thread counts pinned to 1 in the child's environment.  A run covers
a fixed set of inputs per workload, and the first input once more at the
end, so determinism is checked within every run.  Timings are scaled to a
reference host speed by gauges taken in the same children: set-up is a
median, the other timings are means over the run's repetitions.  Quality
metrics are means over the run's inputs.

With ``--trace 0`` the script reports the end-to-end metrics, measured with
tracing off.  With ``--trace 1`` it alternates untraced and traced
repetitions and reports the per-layer metrics of the traced ones, plus the
tracing overhead.  Every result is also written, with the environment
record, to ``.perfbench_work/results/``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, generate

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = ".perfbench_work"
# About how long one run takes: the workloads' ``inputs`` counts are sized
# for it.  It is ``run_seconds`` in BENCHMARK.json.
RUN_SECONDS = 30
# A child normally takes 2-3 s.  The two limits keep a run of one workload
# under 180 s even when the host is several times slower than usual.
CHILD_TIMEOUT_S = 60
RUN_CAP_S = 100  # no repetition starts after this; the run then fails
# Typical times of the reference kernel (``child.reference_s``) and of the
# numpy import in a fresh child, on the two-core virtual machine the
# benchmark was defined on.  Timings are scaled by these over the gauges'
# values in the run, so that they read as seconds at that host's typical
# speed.
REFERENCE_NOMINAL_S = 0.040
NUMPY_NOMINAL_S = 0.17

END_TO_END = {  # name: (unit, which direction is better)
    "setup_s": ("s", "lower"),
    "plan_s": ("s", "lower"),
    "train_s": ("s", "lower"),
    "tradeoff": ("1/s", "higher"),
    "embed_rows_per_s": ("rows/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
    "quality": ("score", "higher"),
    "ood_auroc": ("score", "higher"),
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s") or name.startswith("bench.stage_seconds."):
        return "s"
    if name.startswith("share."):
        return "ratio"
    if name == "data.artifact_bytes":
        return "bytes"
    return "count"


def environment() -> dict:
    """Machine and build facts recorded with every result."""
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict mode; the record stays partial
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": 1,
    }


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env.update({
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONPATH": src,
    })
    return env


class Runner:
    """Starts children one at a time and collects their result files.

    Input ``k`` of a run has its own input and pipeline seed,
    ``seed * 1000 + k``, so the quality metrics are means over a fixed set
    of inputs of the same shape rather than one draw.
    """

    def __init__(self, workload: str, seed: int, root: str):
        self.workload = workload
        self.seed = seed
        self.dir = os.path.join(root, WORK, workload)
        self.results_dir = os.path.join(root, WORK, "results")
        self.env = child_env(os.path.join(root, "src"))
        self.count = 0

    def prepare(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        os.makedirs(self.results_dir, exist_ok=True)

    def child(self, mode: str, k: int = 0) -> dict:
        """Run one child; returns its result with ``k``, ``setup_s`` and
        ``numpy_s`` (seconds from start to the numpy import) added."""
        self.count += 1
        tag = f"{mode}{self.count}"
        sub_seed = self.seed * 1000 + k
        inputs = os.path.join(self.dir, f"input{k}")
        if mode == "import":
            csv_path = mask_path = None
        elif os.path.isdir(inputs):
            csv_path, mask_path = (os.path.join(inputs, f) for f in ("input.csv", "mask.npy"))
        else:
            csv_path, mask_path = generate(self.workload, sub_seed, inputs)
        spec = {
            "mode": mode,
            "workload": self.workload,
            "seed": sub_seed,
            "csv": csv_path,
            "mask": mask_path,
            "out": os.path.join(self.dir, tag),
            "result": os.path.join(self.dir, f"{tag}.json"),
            "spans": os.path.join(self.results_dir, f"{self.workload}-seed{self.seed}-spans.json"),
        }
        spec_path = os.path.join(self.dir, f"{tag}.spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        started = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), spec_path],
                env=self.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
            stderr, code = proc.stderr, proc.returncode
        except subprocess.TimeoutExpired as exc:
            stderr, code = f"timed out after {exc.timeout} s", None
        result = {}
        if code == 0:
            with open(spec["result"], encoding="utf-8") as fh:
                result = json.load(fh)
            result["setup_s"] = result["imported_at"] - started
            result["numpy_s"] = result["numpy_at"] - started
        else:
            result["ops"] = [(f"child {tag}", False, f"exit {code}: {stderr[-2000:]}")]
        result["k"] = k
        shutil.rmtree(spec["out"], ignore_errors=True)  # keep the work dir small
        return result

    def repeat(self, modes, inputs: int) -> list[dict]:
        """Run ``modes`` on inputs ``0 .. inputs - 1``, then on input 0 once
        more, for the determinism check."""
        start = time.monotonic()
        runs = []
        for k in [*range(inputs), 0]:
            if time.monotonic() - start > RUN_CAP_S:
                runs.append({"k": k, "ops": [(f"run reaches input {k} within {RUN_CAP_S} s",
                                              False, "the host is too slow for this run")]})
                break
            runs.extend(self.child(mode, k) for mode in modes)
        return runs


def median(values) -> float:
    return float(statistics.median(values))


def per_input(runs: list[dict]) -> list[dict]:
    """The first completed repetition of each sub-seed."""
    first: dict[int, dict] = {}
    for r in runs:
        if "digest" in r:
            first.setdefault(r["k"], r)
    return list(first.values())


def gate(runs: list[dict]) -> list[tuple[str, bool, str]]:
    """Every operation the children report, plus one check across
    repetitions: outputs at one sub-seed repeat bit-exactly, whatever the mode."""
    ops = [tuple(op) for r in runs for op in r.get("ops", [])]
    groups: dict[int, list[dict]] = {}
    for r in runs:
        if "digest" in r:
            groups.setdefault(r["k"], []).append(r["digest"])
    repeated = {k: g for k, g in groups.items() if len(g) >= 2}
    moved = sorted({key for g in repeated.values() for d in g[1:] for key in d
                    if d[key] != g[0][key]})
    ops.append(("outputs repeat bit-exactly at one seed, traced or not",
                bool(repeated) and not moved,
                f"{len(repeated)} repeated inputs; differs in {moved}"))
    return ops


def end_to_end(runner: Runner) -> tuple[dict, list, dict]:
    runner.child("import")  # warm-up: byte-compiles the sources, not measured
    runs = runner.repeat(["run"], WORKLOADS[runner.workload]["inputs"])
    ops = gate(runs)
    done = [r for r in runs if "plan_s" in r]
    metrics = {}
    if done:
        # On a shared host the CPU slows by up to 2x in phases lasting from
        # about a second to minutes.  Each timing is therefore divided by a
        # gauge of host speed taken in the same children: the numpy import
        # for set-up, a fixed reference kernel for the rest.  Set-up is a
        # median over the run.  The other timings are means, over the mean
        # of the reference samples, which bracket every repetition: a slow
        # phase then weighs on both in proportion to the time it covers.
        # The raw numbers are kept in the record.
        metrics["setup_s"] = (median(r["setup_s"] for r in done) * NUMPY_NOMINAL_S
                              / median(r["numpy_s"] for r in done))
        speed = REFERENCE_NOMINAL_S / statistics.fmean(x for r in done for x in r["reference_s"])
        metrics["plan_s"] = statistics.fmean(r["plan_s"] for r in done) * speed
        metrics["train_s"] = statistics.fmean(r["train_s"] for r in done) * speed
        metrics["embed_rows_per_s"] = (sum(r["embed_rows"] for r in done)
                                       / sum(r["embed_s"] for r in done) / speed)
        metrics["peak_rss_mb"] = median(r["peak_rss_mb"] for r in done)
        # Quality is a property of each input, not a timing: average it over
        # the run's inputs, then score it against the training time.
        inputs = per_input(done)
        p = statistics.fmean(r["p"] for r in inputs)
        from tabcl.bench import tradeoff

        task = WORKLOADS[runner.workload]["task"]
        metrics["tradeoff"] = tradeoff(p, metrics["train_s"], task)
        metrics["quality"] = p if task == "classification" else 1 / p
        metrics["ood_auroc"] = statistics.fmean(r["ood_auroc"] for r in inputs)
    raw = {"runs": [{k: v for k, v in r.items() if k != "ops"} for r in runs]}
    return metrics, ops, raw


def per_layer(runner: Runner) -> tuple[dict, list, dict]:
    """Untraced and traced repetitions alternate, on a third of the inputs of
    an end-to-end run.  Per-layer values are raw medians, not scaled."""
    runner.child("import")  # warm-up, as in the end-to-end run
    runs = runner.repeat(["run", "trace"], max(2, WORKLOADS[runner.workload]["inputs"] // 3))
    ops = gate(runs)
    plain = [r for r in runs if "plan_s" in r and "layers" not in r]
    traced = [r for r in runs if "layers" in r]
    metrics = {}
    if traced:
        for name in traced[0]["layers"]:
            metrics[name] = median(r["layers"][name] for r in traced)
        if plain:
            metrics["trace.overhead_s"] = (median(r["plan_s"] for r in traced)
                                           - median(r["plan_s"] for r in plain))
    raw = {"runs": [{k: v for k, v in r.items() if k != "ops"} for r in runs]}
    return metrics, ops, raw


def run_workload(name: str, seed: int, trace: bool, root: str, env: dict):
    runner = Runner(name, seed, root)
    runner.prepare()
    measure = per_layer if trace else end_to_end
    metrics, ops, raw = measure(runner)
    failed = [op for op in ops if not op[1]]
    units = {k: layer_unit(k) if trace else END_TO_END[k][0] for k in metrics}

    print(f"# workload {name}, seed {seed}, trace {int(trace)}: {WORKLOADS[name]['why']}")
    for key, value in metrics.items():
        print(f"  {key:44s} {value:>16.6g} {units[key]}")
    if not trace:
        p_name, p_unit = (("f1_macro", "score") if WORKLOADS[name]["task"] == "classification"
                          else ("rmse", "target units"))
        ps = [r["p"] for r in per_input(raw["runs"])]
        if ps:
            print(f"  {p_name:44s} {statistics.fmean(ps):>16.6g} {p_unit} "
                  f"(mean of {len(ps)} inputs)")
    print(f"  {'failed_fraction':44s} {len(failed) / max(len(ops), 1):>16.6g} "
          f"({len(failed)} of {len(ops)} operations)")
    for op in dict.fromkeys(failed):
        print(f"  FAILED {op[0]}: {op[2]}", file=sys.stderr)

    record = {
        "workload": name, "seed": seed, "trace": int(trace),
        "environment": env,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "attempted": len(ops), "failed": len(failed),
        "failures": failed, "raw": raw,
    }
    path = os.path.join(root, WORK, "results", f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    shutil.rmtree(runner.dir, ignore_errors=True)
    return metrics, units, len(ops), len(failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="non-negative input seed")
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS,
                        help=f"accepted for the common benchmark call form; must be {RUN_SECONDS}")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds != RUN_SECONDS:
        parser.error(f"the run length is fixed by the benchmark at {RUN_SECONDS} s")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tabcl", "__init__.py")):
        print("perfbench: no tabcl sources at ./src/tabcl; run from the repository root",
              file=sys.stderr)
        return 2

    sys.path.insert(0, os.path.join(root, "src"))  # for the program's own trade-off score
    env = environment()
    print("# environment: " + json.dumps(env))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        values, units, n_ops, n_failed = run_workload(
            name, args.seed, bool(args.trace), root, env)
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: {"value": v, "unit": units[k]} for k, v in values.items()})
        attempted += n_ops
        failed += n_failed
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
