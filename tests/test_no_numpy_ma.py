"""No pipeline run imports ``numpy.ma``, and what replaces the numpy calls
that would import it gives numpy's bits.

In numpy 2.x ``np.median``, ``np.quantile``, a bare ``np.unique`` and (on
some sizes) ``np.isin`` import ``numpy.ma`` on first use, about 11 ms of
every process.  The package computes the same results without them.  The
bit-identity tests compare each replacement with numpy's own function in
this process; the guard runs the pipelines in a fresh process, as the
benchmark does, and looks at ``sys.modules`` afterwards.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tabcl import bench, cli, data
from tabcl.heads import fit_logistic, metric_f1_macro

from conftest import numeric_schema

ROOT = Path(__file__).resolve().parents[1]

# Finite values with many ties, both zeros, the smallest subnormal and
# values whose sums overflow.
TIED = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 5e-324, -5e-324, 1e308, -1e308])
VALUES = st.lists(st.one_of(TIED, st.floats(allow_nan=False, allow_infinity=False)),
                  min_size=1, max_size=40)


def bits(x) -> bytes:
    return np.float64(x).tobytes()


class TestMedian:
    @settings(max_examples=400, deadline=None)
    @given(VALUES)
    @example([-0.0])
    @example([-0.0, -0.0])
    @example([0.0, -0.0, 0.0])
    @example([1e308, 1e308])
    @example([3.0])
    def test_bits_of_np_median(self, values):
        a = np.array(values)
        with np.errstate(over="ignore", invalid="ignore"):
            assert bits(data._median(a.copy())) == bits(np.median(a))

    def test_leaves_its_input_alone(self):
        a = np.array([3.0, 1.0, 2.0, 0.0])
        data._median(a)
        assert a.tolist() == [3.0, 1.0, 2.0, 0.0]


class TestQuantile:
    @settings(max_examples=400, deadline=None)
    @given(VALUES, st.one_of(st.floats(1e-12, 1 - 1e-12),
                             st.sampled_from([1e-300, 0.5, 0.9, 0.95, 1 - 2**-53])))
    @example([0.0, -0.0, 1.0], 0.25)  # weight 0.5 falls on the subtracting side
    @example([0.0, 1.0, 2.0, 3.0, 4.0], 0.3)  # weight below 0.5 (about 0.2)
    @example([0.0, 1.0, 2.0, 3.0, 4.0], 0.7)  # weight above 0.5 (about 0.8)
    @example([-0.0], 0.95)  # one value: both neighbours are the last one
    @example([-0.0, -0.0], 1 - 2**-53)
    def test_bits_of_np_quantile(self, values, q):
        a = np.array(values)
        with np.errstate(over="ignore", invalid="ignore"):
            assert bits(bench._quantile(a.copy(), q)) == bits(np.quantile(a, q))

    def test_split_stage_writes_what_np_quantile_and_np_median_give(self, tmp_path,
                                                                     monkeypatch):
        """Ingest, detect and split through the CLI, once with the package's
        helpers and once with numpy's functions in their place: the same
        bytes in every file, ``meta.json`` (threshold, medians) and
        ``histogram.csv`` among them."""
        rng = np.random.default_rng(5)
        x = rng.standard_normal((300, 3)).round(3)
        lines = ["a,b,c,y"] + [
            ",".join("" if (i + j) % 37 == 0 else repr(v) for j, v in enumerate(row))
            + f",c{int(row[0] > 0)}" for i, row in enumerate(x.tolist())]
        (tmp_path / "t.csv").write_text("\n".join(lines) + "\n")

        def chain(out):
            for argv in (["ingest", "t.csv", "--target", "y", "--out", f"{out}/ds"],
                         ["detect", f"{out}/ds", "--seed", "2", "--out", f"{out}/det"],
                         ["split", f"{out}/ds", f"{out}/det/scores.json", "--quantile", "0.83",
                          "--out", f"{out}/split"]):
                assert cli.main(argv) == 0
            return {str(p.relative_to(tmp_path / out)): p.read_bytes()
                    for p in (tmp_path / out).rglob("*") if p.is_file()}

        monkeypatch.chdir(tmp_path)
        ours = chain("ours")
        monkeypatch.setattr(bench, "_quantile", lambda v, q: float(np.quantile(v, q)))
        monkeypatch.setattr(data, "_median", lambda v: float(np.median(v)))
        assert chain("numpy") == ours
        assert {"ds/meta.json", "det/histogram.csv", "split/meta.json"} <= set(ours)


def isin_label_error(labels, k):
    """The label check as it was written with ``np.isin``."""
    bad = labels[~np.isin(labels, np.arange(k))]
    return f"class index {bad[0]} outside [0, {k})" if bad.size else None


class TestLabelCheck:
    LABELS = st.sampled_from([0.0, 1.0, 2.0, -0.0, 1.5, -1.0, np.nan, np.inf, -np.inf, 3.0,
                              2.0 - 2**-52, 1e30])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(LABELS, min_size=1, max_size=12), st.integers(2, 5),
           st.sampled_from([np.float64, np.float32]))
    def test_float_labels_give_the_isin_message(self, labels, k, dtype):
        a = np.array(labels, dtype)
        schema = numeric_schema(1, classes=[f"c{i}" for i in range(k)])
        assert data._label_error(a, schema) == isin_label_error(a, k)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-3, 6), min_size=1, max_size=12), st.integers(2, 5),
           st.sampled_from([np.int64, np.int8]))
    def test_integer_labels_give_the_isin_message(self, labels, k, dtype):
        a = np.array(labels, dtype)
        schema = numeric_schema(1, classes=[f"c{i}" for i in range(k)])
        assert data._label_error(a, schema) == isin_label_error(a, k)

    @pytest.mark.parametrize("label, message", [
        (1.5, "class index 1.5 outside [0, 2)"), (-1, "class index -1 outside [0, 2)"),
        (np.nan, "class index nan outside [0, 2)"), (2, "class index 2 outside [0, 2)"),
        (1.0, None),
    ])
    def test_named_labels(self, label, message):
        a = np.array([0, label])
        assert data._label_error(a, numeric_schema(1)) == message == isin_label_error(a, 2)

    def test_labels_that_are_not_numbers(self):
        assert data._label_error(np.array(["0", "1"]), numeric_schema(1)) == (
            "class labels must be numbers, not <U1")


class TestClassesPresent:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 4), min_size=1, max_size=12),
           st.lists(st.integers(0, 4), min_size=1, max_size=12))
    def test_f1_macro_classes_are_np_unique(self, truth, pred):
        n = min(len(truth), len(pred))
        t, p = np.array(truth[:n]), np.array(pred[:n])
        scores = []
        for cls in np.unique(np.concatenate([t, p])):  # the metric as it was written
            tp = float(np.sum((t == cls) & (p == cls)))
            fp = float(np.sum((t != cls) & (p == cls)))
            fn = float(np.sum((t == cls) & (p != cls)))
            scores.append(2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn > 0 else 0.0)
        assert bits(metric_f1_macro(t, p)) == bits(np.mean(scores))

    @pytest.mark.parametrize("labels", [[], [2], [1, 1, 1]])
    def test_fewer_than_two_classes_raises(self, labels):
        X = np.ones((len(labels), 2))
        with pytest.raises(ValueError, match="logistic head needs at least 2 classes present"):
            fit_logistic(X, labels, classes=3)


# A fresh process: the pipelines of the named workloads, then whether numpy.ma is loaded.
GUARD = textwrap.dedent("""
    import json, os, sys
    sys.path.insert(0, {perfbench!r})
    import workloads
    from tabcl import bench, cli

    name, out = {name!r}, {out!r}
    wl = workloads.WORKLOADS[name]
    wl["shape"]["rows"] = 300
    csv, _ = workloads.generate(name, 0, os.path.join(out, "input"))
    loaded = []
    if wl["kind"] == workloads.PLAN:
        bench.run_experiment(bench.ExperimentPlan(
            dataset=csv, target=wl["target"], detector=dict(wl["detector"]),
            tcl=dict(wl["tcl"], max_epochs=2), head=wl["head"], seed=0, out_dir=out))
        loaded.append(("run_experiment", "numpy.ma" in sys.modules))
    else:
        ds, det, spl, run, emb, head, ev = (os.path.join(out, d) for d in (
            "ds", "det", "split", "run", "emb", "head", "eval"))
        for argv in (
            ["ingest", csv, "--target", wl["target"], "--out", ds],
            ["detect", ds, "--detector", wl["detector"]["detector"], "--out", det],
            ["split", ds, os.path.join(det, "scores.json"), "--quantile", "0.9", "--out", spl],
            ["train", spl, "--noise", wl["tcl"]["noise"], "--max-epochs", "2", "--out", run],
            ["embed", os.path.join(run, "model.json"), ds, "--out", emb],
            ["fit-head", emb, "--kind", wl["head"], "--out", head],
            ["evaluate", os.path.join(head, "head.json"), emb, "--out", ev],
        ):
            assert cli.main(argv) == 0, argv
            loaded.append((argv[0], "numpy.ma" in sys.modules))
        plan = os.path.join(out, "plan.json")
        with open(plan, "w") as fh:
            json.dump({{"dataset": csv, "target": wl["target"], "detector": wl["detector"],
                       "tcl": dict(wl["tcl"], max_epochs=2), "head": wl["head"],
                       "out_dir": os.path.join(out, "report")}}, fh)
        assert cli.main(["report", "--config", plan]) == 0
        loaded.append(("report", "numpy.ma" in sys.modules))
    print(json.dumps(loaded))
""")


@pytest.mark.parametrize("name", ["train-wide", "gate-tall", "cli-regression"])
def test_no_run_imports_numpy_ma(tmp_path, name):
    """``run_experiment`` on the two plan workloads' inputs, and the seven
    CLI stages then ``tabcl report`` on the CLI workload's, at 300 rows and
    2 epochs, in a process with one BLAS thread as the benchmark runs it."""
    script = GUARD.format(perfbench=str(ROOT / "perfbench"), name=name, out=str(tmp_path))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded and not any(flag for _, flag in loaded), loaded
