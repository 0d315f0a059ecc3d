import io
import json
import pickle
import shutil

import numpy as np
import pytest

from tabcl.bench import DETECTOR_KEYS, TCL_KEYS, ExperimentPlan, run_experiment
from tabcl.cli import main
from tabcl.data import (
    SCHEMA_VERSION, Dataset, Schema, _write_dataset_csv, load_dataset, save_dataset,
)

from conftest import shifted_cluster_data, write_classification_csv


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli-data")
    ds, _ = shifted_cluster_data(n_id=450, n_ood=50, d=4, seed=300)
    path = tmp / "data.csv"
    write_classification_csv(path, ds.features, ds.labels)
    return path


@pytest.fixture(scope="module")
def ds_dir(tmp_path_factory, data_csv):
    out = tmp_path_factory.mktemp("cli-ds") / "ds"
    assert run(["ingest", data_csv, "--target", "label", "--out", out]) == 0
    return out


def run(argv):
    return main([str(a) for a in argv])


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return path


class TestStagedPipeline:
    def test_full_stage_chain(self, tmp_path, data_csv, capsys):
        ds_dir = tmp_path / "ds"
        assert run(["ingest", data_csv, "--target", "label", "--out", ds_dir]) == 0
        assert {p.name for p in ds_dir.iterdir()} == {"features.npy", "labels.npy", "meta.json"}

        det_dir = tmp_path / "det"
        assert run(["detect", ds_dir, "--detector", "openmax", "--norm", "l2",
                    "--tail", 25, "--out", det_dir, "--seed", 1]) == 0
        assert (det_dir / "scores.json").exists()
        assert (det_dir / "histogram.csv").exists()
        hist_lines = (det_dir / "histogram.csv").read_text().strip().splitlines()
        assert hist_lines[0] == "bin_lo,bin_hi,count"
        assert sum(int(ln.split(",")[2]) for ln in hist_lines[1:]) == 500

        split_dir = tmp_path / "split"
        assert run(["split", ds_dir, det_dir / "scores.json",
                    "--quantile", 0.9, "--out", split_dir]) == 0
        meta = json.loads((split_dir / "meta.json").read_text())
        assert meta["m"] + meta["n"] == 500
        assert meta["detector"] == "openmax"

        train_dir = tmp_path / "model"
        assert run(["train", split_dir, "--max-epochs", 5, "--batch-size", 64,
                    "--seed", 2, "--out", train_dir]) == 0
        assert (train_dir / "model.json").exists()
        trace = json.loads((train_dir / "trace.json").read_text())
        assert trace["epochs"] == 5
        assert list(trace) == ["total", "reconstruction", "contrastive", "distance",
                               "epoch_seconds", "seconds", "epochs", "stop_reason",
                               "array_bytes"]
        assert len(trace["epoch_seconds"]) == 5

        embed_dir = tmp_path / "emb"
        assert run(["embed", train_dir / "model.json", ds_dir, "--out", embed_dir]) == 0
        emb_meta = json.loads((embed_dir / "meta.json").read_text())
        assert emb_meta["schema"]["features"][0]["name"] == "e0"

        head_dir = tmp_path / "head"
        assert run(["fit-head", embed_dir, "--kind", "logistic", "--out", head_dir]) == 0
        assert (head_dir / "head.json").exists()

        eval_dir = tmp_path / "eval"
        assert run(["evaluate", head_dir / "head.json", embed_dir, "--out", eval_dir]) == 0
        metrics = json.loads((eval_dir / "metrics.json").read_text())
        assert 0.0 <= metrics["accuracy"] <= 1.0
        assert "f1_macro" in metrics

    def test_tradeoff_command(self, capsys):
        assert run(["tradeoff", "--p", 0.831, "--t", 15, "--task", "classification"]) == 0
        out = capsys.readouterr().out
        assert "0.055" in out

    def test_report_and_compare(self, tmp_path, data_csv, capsys):
        plan = {
            "dataset": str(data_csv),
            "target": "label",
            "model_name": "tcl",
            "detector": {"detector": "openmax", "norm": "l2", "tail": 25, "quantile": 0.9},
            "tcl": {"max_epochs": 5, "batch_size": 128},
            "seed": 3,
            "out_dir": str(tmp_path / "exp1"),
        }
        cfg1 = tmp_path / "plan1.json"
        cfg1.write_text(json.dumps(plan))
        assert run(["report", "--config", cfg1]) == 0
        assert (tmp_path / "exp1" / "report.json").exists()
        assert (tmp_path / "exp1" / "report.md").exists()
        assert (tmp_path / "exp1" / "report.csv").exists()

        plan2 = dict(plan, model_name="tcl-mask", out_dir=str(tmp_path / "exp2"),
                     tcl={"max_epochs": 5, "batch_size": 128, "noise": "mask"})
        cfg2 = tmp_path / "plan2.json"
        cfg2.write_text(json.dumps(plan2))
        assert run(["report", "--config", cfg2]) == 0

        assert run(["compare", tmp_path / "exp1" / "report.json",
                    tmp_path / "exp2" / "report.json", "--out", tmp_path / "cmp"]) == 0
        out = capsys.readouterr().out
        assert "| rank | model |" in out
        assert (tmp_path / "cmp" / "comparison.md").exists()


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, data_csv):
        ds_dir = tmp_path / "ds"
        run(["ingest", data_csv, "--target", "label", "--out", ds_dir])
        assert run(["ingest", data_csv, "--target", "nope", "--out", tmp_path / "x"]) == 2
        assert run(["report", "--out", tmp_path / "y"]) == 2  # no --config

    def test_format_error_is_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,y\n1,2,0\n3,4\n")
        assert run(["ingest", bad, "--target", "y", "--out", tmp_path / "out"]) == 3

    @pytest.mark.parametrize("header, name", [("a,a,label", "a"), ("label,a,label", "label")])
    def test_repeated_header_name_is_3(self, tmp_path, capsys, header, name):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"{header}\n1,2,0\n3,4,1\n")
        assert run(["ingest", bad, "--target", "label", "--out", tmp_path / "out"]) == 3
        assert f"column '{name}' appears twice in the header" in capsys.readouterr().err

    def test_missing_artifact_is_3(self, tmp_path):
        assert run(["evaluate", tmp_path / "head.json", tmp_path / "nope"]) == 3

    def test_numeric_error_is_4(self, tmp_path, data_csv):
        ds_dir = tmp_path / "ds"
        run(["ingest", data_csv, "--target", "label", "--out", ds_dir])
        assert run(["train", ds_dir, "--max-epochs", 10, "--learning-rate", 50,
                    "--batch-size", 32, "--out", tmp_path / "m"]) == 4

    def test_unscaled_features_detect_with_exit_0(self, tmp_path):
        # Features of standard deviation about 10, not z-scored as ingest
        # writes them: the backbone's Newton fit needs no step size.
        ds, _ = shifted_cluster_data(900, 100)
        save_dataset(Dataset(10.0 * ds.features, ds.labels, ds.schema, None), tmp_path / "ds")
        assert run(["detect", tmp_path / "ds", "--out", tmp_path / "det"]) == 0
        scores = json.loads((tmp_path / "det" / "scores.json").read_text())["scores"]
        assert len(scores) == 1000 and np.isfinite(scores).all()

    def test_argparse_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["ingest"])  # missing required csv/--target
        assert exc.value.code == 2

    def test_bad_value_is_2(self, tmp_path, data_csv):
        ds_dir = tmp_path / "ds"
        run(["ingest", data_csv, "--target", "label", "--out", ds_dir])
        assert run(["train", ds_dir, "--batch-size", 1, "--out", tmp_path / "m"]) == 2
        assert run(["train", ds_dir, "--noise", "bogus", "--out", tmp_path / "m"]) == 2

    def test_report_names_the_failed_stage(self, tmp_path, data_csv, capsys):
        blocker = tmp_path / "exp" / "split"  # a file where the split directory goes
        blocker.parent.mkdir()
        blocker.write_text("")
        plan = write_json(tmp_path / "plan.json", {
            "dataset": str(data_csv), "target": "label", "out_dir": str(blocker.parent),
            "detector": {"tail": 25},
        })
        assert run(["report", "--config", plan]) == 3
        assert capsys.readouterr().err == (
            f"data error: [stage=split] [Errno 17] File exists: '{blocker}'\n"
        )

    def test_unwritable_out_is_3(self, tmp_path, data_csv):
        # --out below a regular file: the directory cannot be made
        assert run(["ingest", data_csv, "--target", "label", "--out", data_csv / "sub"]) == 3

    @pytest.mark.parametrize("label", ["7", "-1"])
    def test_class_index_outside_schema_is_3(self, tmp_path, ds_dir, label, capsys):
        shutil.copytree(ds_dir, tmp_path / "ds")
        path = tmp_path / "ds" / "labels.npy"
        labels = np.load(path)
        labels[4] = int(label)
        np.save(path, labels)
        assert run(["fit-head", tmp_path / "ds", "--out", tmp_path / "head"]) == 3
        assert f"{path}: class index {label} outside [0, 2)" in capsys.readouterr().err

    @pytest.mark.parametrize("scores, message", [
        ([0.5, 0.25, 0.75], "3 scores for 500 rows"),
        ([], "holds no scores"),
        ([float("nan")] * 500, "non-finite score nan at index 0"),
    ])
    def test_bad_scores_is_3(self, tmp_path, ds_dir, scores, message, capsys):
        path = write_json(tmp_path / "scores.json", {"scores": scores})
        assert run(["split", ds_dir, path, "--out", tmp_path / "split"]) == 3
        assert message in capsys.readouterr().err

    # Each case is a JSON artifact that parses but does not hold what its
    # loader reads; the file name is what the subcommand is pointed at.
    MALFORMED = {
        "head without kind": (
            "head.json", {"format": "tcl-head", "version": 1, "weights": [[0.0]], "bias": [0.0]},
            lambda f, ds: ["evaluate", f, ds],
        ),
        "head with a NaN weight": (
            "head.json", {"format": "tcl-head", "version": 1, "kind": "linear",
                          "weights": [0.0, float("nan"), 0.0, 0.0], "bias": [0.0], "classes": None},
            lambda f, ds: ["evaluate", f, ds],
        ),
        "head with two biases": (
            "head.json", {"format": "tcl-head", "version": 1, "kind": "linear",
                          "weights": [0.0] * 4, "bias": [0.0, 1.0], "classes": None},
            lambda f, ds: ["evaluate", f, ds],
        ),
        "head with five biases for two classes": (
            "head.json", {"format": "tcl-head", "version": 1, "kind": "logistic",
                          "weights": [[0.0, 0.0]] * 4, "bias": [0.0] * 5, "classes": 2},
            lambda f, ds: ["evaluate", f, ds],
        ),
        "head with three classes for two columns": (
            "head.json", {"format": "tcl-head", "version": 1, "kind": "logistic",
                          "weights": [[0.0, 0.0]] * 4, "bias": [0.0] * 2, "classes": 3},
            lambda f, ds: ["evaluate", f, ds],
        ),
        "model holding a list": ("model.json", [1, 2], lambda f, ds: ["embed", f, ds]),
        "model with a NaN weight": (
            "model.json", {"format": "tcl-model", "version": 1,
                           "config": {"input_dim": 4, "hidden_dim": 1, "latent_dim": 1},
                           "params": {"w1": [[0.0], [0.0], [float("nan")], [0.0]], "b1": [0.0],
                                      "gamma": [1.0], "beta": [0.0], "w2": [[1.0]], "b2": [0.0],
                                      "w3": [[1.0]], "b3": [0.0], "w4": [[0.0] * 4],
                                      "b4": [0.0] * 4}},
            lambda f, ds: ["embed", f, ds],
        ),
        "scores holding a list": ("scores.json", [0.1, 0.2], lambda f, ds: ["split", ds, f]),
        "scores without scores": (
            "scores.json", {"detector": "openmax"}, lambda f, ds: ["split", ds, f],
        ),
        "dataset sidecar without schema": (
            "meta.json", {"schema-version": SCHEMA_VERSION, "stats": None},
            lambda f, ds: ["fit-head", f.parent],
        ),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_artifact_is_3(self, tmp_path, ds_dir, case, capsys):
        name, payload, argv = self.MALFORMED[case]
        for array in ("features.npy", "labels.npy"):
            shutil.copy(ds_dir / array, tmp_path / array)
        path = write_json(tmp_path / name, payload)
        assert run(argv(path, ds_dir) + ["--out", tmp_path / "out"]) == 3
        assert str(path) in capsys.readouterr().err


def _resave(name, change):
    """A case that loads ``name``, changes the array, or casts it when
    ``change`` is a type, and saves it back with pickling allowed."""
    def apply(directory):
        path = directory / name
        array = np.load(path)
        array = array.astype(change) if isinstance(change, type) else change(array)
        np.save(path, array, allow_pickle=True)
    return apply


def _unlink(name):
    return lambda directory: (directory / name).unlink()


def _rewrite(name, change):
    """A case that replaces the bytes of ``name`` with ``change(bytes)``."""
    def apply(directory):
        path = directory / name
        path.write_bytes(change(path.read_bytes()))
    return apply


def _as_v1(directory):
    """The directory as the CSV format of schema-version 1 stored it."""
    dataset = load_dataset(directory)
    for name in ("features.npy", "labels.npy"):
        (directory / name).unlink()
    _write_dataset_csv(dataset, directory / "data.csv")
    meta = json.loads((directory / "meta.json").read_text())
    write_json(directory / "meta.json", dict(meta, **{"schema-version": 1}))


def _as_pickle(npy: bytes) -> bytes:
    return pickle.dumps(np.load(io.BytesIO(npy)))


def _as_npz(npy: bytes) -> bytes:
    out = io.BytesIO()
    np.savez(out, features=np.load(io.BytesIO(npy)))
    return out.getvalue()


def _set_first(value):
    def change(a):
        a = a.copy()
        a.flat[0] = value
        return a
    return change


class TestDatasetPayload:
    """Every malformed dataset directory is a format error, exit 3."""

    # case: (change to a copy of a good directory, text the error holds)
    CASES = {
        "features missing": (_unlink("features.npy"), "cannot read feature matrix"),
        "labels missing": (_unlink("labels.npy"), "cannot read label vector"),
        "features empty": (_rewrite("features.npy", lambda b: b""), "corrupt feature matrix"),
        "labels empty": (_rewrite("labels.npy", lambda b: b""), "corrupt label vector"),
        "features truncated": (_rewrite("features.npy", lambda b: b[:-8]), "corrupt feature"),
        "labels cut in header": (_rewrite("labels.npy", lambda b: b[:20]), "corrupt label"),
        "features pickled": (_rewrite("features.npy", _as_pickle), "corrupt feature matrix"),
        "features object dtype": (_resave("features.npy", object), "corrupt feature matrix"),
        "labels object dtype": (_resave("labels.npy", object), "corrupt label vector"),
        "features npz archive": (_rewrite("features.npy", _as_npz), "not a .npy feature"),
        "features 1-D": (_resave("features.npy", lambda a: a[:, 0]), "1-D float64, expected 2-D"),
        "features float32": (_resave("features.npy", np.float32), "2-D float32, expected 2-D"),
        "features too narrow": (_resave("features.npy", lambda a: a[:, 1:]), "feature width 3"),
        "features too wide": (_resave("features.npy", lambda a: a[:, [0, 0, 1, 2, 3]]), "width 5"),
        "features no rows": (_resave("features.npy", lambda a: a[:0]), "non-empty"),
        "features non-finite": (_resave("features.npy", _set_first(np.nan)), "non-finite"),
        "features infinite": (_resave("features.npy", _set_first(-np.inf)), "non-finite"),
        "labels 2-D": (_resave("labels.npy", lambda a: a[:, None]), "is 2-D int64, expected 1-D"),
        "labels one short": (_resave("labels.npy", lambda a: a[:-1]), "labels length"),
        "labels float64": (_resave("labels.npy", np.float64), "1-D float64, expected 1-D int64"),
        "labels int32": (_resave("labels.npy", np.int32), "1-D int32"),
        "schema-version 1 with data.csv": (_as_v1, "schema-version 1, expected 2"),
    }

    @pytest.mark.parametrize("command", ["detect", "fit-head"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bad_payload_is_3(self, tmp_path, ds_dir, case, command, capsys):
        change, message = self.CASES[case]
        shutil.copytree(ds_dir, tmp_path / "ds")
        change(tmp_path / "ds")
        assert run([command, tmp_path / "ds", "--out", tmp_path / "out"]) == 3
        err = capsys.readouterr().err
        assert str(tmp_path / "ds") in err and message in err

    @pytest.mark.parametrize("stored", ["int64", "nan", "inf"])
    def test_bad_regression_target_is_3(self, tmp_path, ds_dir, stored, capsys):
        dataset = load_dataset(ds_dir)
        schema = Schema(dataset.schema.features, "target", "regression")
        directory = tmp_path / "ds"
        save_dataset(Dataset(dataset.features, dataset.labels, schema, dataset.stats), directory)
        assert run(["fit-head", directory, "--out", tmp_path / "ok"]) == 0
        path = directory / "labels.npy"
        targets = np.load(path)
        if stored == "int64":
            targets = targets.astype(np.int64)
        else:
            targets[3] = float(stored)
        np.save(path, targets)
        assert run(["fit-head", directory, "--out", tmp_path / "out"]) == 3
        assert str(path) in capsys.readouterr().err


@pytest.fixture(scope="module")
def reg_dir(tmp_path_factory, ds_dir):
    """ds_dir's features with a real, non-negative target."""
    dataset = load_dataset(ds_dir)
    schema = Schema(dataset.schema.features, "value", "regression")
    target = 0.5 + dataset.features[:, 0] ** 2
    out = tmp_path_factory.mktemp("cli-reg") / "ds"
    save_dataset(Dataset(dataset.features, target, schema, dataset.stats), out)
    return out


@pytest.fixture(scope="module")
def wide_dir(tmp_path_factory):
    """A classification dataset of 6 encoded features, where ds_dir has 4."""
    tmp = tmp_path_factory.mktemp("cli-wide")
    ds, _ = shifted_cluster_data(n_id=90, n_ood=10, d=6, seed=301)
    write_classification_csv(tmp / "data.csv", ds.features, ds.labels)
    assert run(["ingest", tmp / "data.csv", "--target", "label", "--out", tmp / "ds"]) == 0
    return tmp / "ds"


class TestWidthMismatch:
    """A model or head and a dataset of another width exit 3, naming both."""

    @pytest.mark.parametrize("command, make, artifact", [
        ("embed", ["train", "--max-epochs", 1], "model.json"),
        ("evaluate", ["fit-head"], "head.json"),
    ])
    def test_artifact_for_another_width_is_3(self, tmp_path, ds_dir, wide_dir, command, make,
                                             artifact, capsys):
        assert run([make[0], ds_dir, *make[1:], "--out", tmp_path / "made"]) == 0
        path = tmp_path / "made" / artifact
        assert run([command, path, wide_dir, "--out", tmp_path / "out"]) == 3
        err = capsys.readouterr().err
        assert f"data error: {path} takes 4 features, but {wide_dir} has 6" in err
        assert no_file_in(tmp_path / "out")


class TestHeadKind:
    """A head kind must fit the dataset's task, at fit-head and at evaluate."""

    @pytest.mark.parametrize("data, kind", [("cls", "linear"), ("reg", "logistic")])
    def test_fit_head_with_the_other_kind_is_2(self, tmp_path, ds_dir, reg_dir, data, kind,
                                               capsys):
        directory = ds_dir if data == "cls" else reg_dir
        assert run(["fit-head", directory, "--kind", kind, "--out", tmp_path / "head"]) == 2
        assert "does not fit" in capsys.readouterr().err
        assert not (tmp_path / "head" / "head.json").exists()

    @pytest.mark.parametrize("fit_on, evaluate_on", [("cls", "reg"), ("reg", "cls")])
    def test_evaluate_with_the_other_kind_is_2(self, tmp_path, ds_dir, reg_dir, fit_on,
                                               evaluate_on, capsys):
        dirs = {"cls": ds_dir, "reg": reg_dir}
        assert run(["fit-head", dirs[fit_on], "--out", tmp_path / "head"]) == 0
        assert run(["evaluate", tmp_path / "head" / "head.json", dirs[fit_on],
                    "--out", tmp_path / "ok"]) == 0
        assert run(["evaluate", tmp_path / "head" / "head.json", dirs[evaluate_on],
                    "--out", tmp_path / "eval"]) == 2
        assert "does not fit" in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()


class TestPlanChecks:
    @pytest.mark.parametrize("field, value", [
        ("head", "ridge"), ("fractions", [0.5, 0.6]), ("fractions", 0.8),
        ("fractions", ["0.5", "0.5"]), ("seed", -1), ("seed", True),
        ("task", "clasification"), ("delta", "abc"),
    ])
    def test_bad_plan_field_is_2_before_any_stage(self, tmp_path, data_csv, field, value):
        out = tmp_path / "exp"
        plan = write_json(tmp_path / "plan.json", {
            "dataset": str(data_csv), "target": "label", "out_dir": str(out),
            "detector": {"tail": 25}, "tcl": {"max_epochs": 2}, field: value,
        })
        assert run(["report", "--config", plan]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("tcl", {"batch_size": 1}), ("detector", {"seed": -1}),
    ])
    def test_bad_stage_setting_is_2_before_any_stage(self, tmp_path, data_csv, field, value,
                                                     capsys):
        out = tmp_path / "exp"
        plan = write_json(tmp_path / "plan.json", {
            "dataset": str(data_csv), "target": "label", "out_dir": str(out), field: value,
        })
        assert run(["report", "--config", plan]) == 2
        assert "[stage=" not in capsys.readouterr().err
        assert not (out / "histogram.csv").exists() and not (out / "split").exists()

    def test_negative_seed_flag_is_2_before_any_stage(self, tmp_path, data_csv):
        out = tmp_path / "exp"
        plan = write_json(tmp_path / "plan.json", {"dataset": str(data_csv), "target": "label"})
        assert run(["report", "--config", plan, "--seed", -1, "--out", out]) == 2
        assert not out.exists()

    def test_head_that_does_not_fit_the_task_is_2_before_training(self, tmp_path, data_csv,
                                                                  capsys):
        out = tmp_path / "exp"
        plan = write_json(tmp_path / "plan.json", {
            "dataset": str(data_csv), "target": "label", "out_dir": str(out), "head": "linear",
        })
        assert run(["report", "--config", plan]) == 2
        assert "does not fit a classification task" in capsys.readouterr().err
        assert list(out.iterdir()) == []


def bad_values(key, kind):
    """A list, a string, a bool, a float where an integer is due, and a
    negative value, for one setting of the given kind.  A threshold may be
    negative, so its extra cases are NaN and infinity."""
    cases = [[1], "bogus", True]
    if kind == "int":
        cases += [2.5, -1]
    elif kind == "threshold":
        cases += [float("nan"), float("inf"), -float("inf")]
    else:
        cases += [-1]
    return [(key, value) for value in cases]


DETECTOR_CASES = [
    *bad_values("detector", "name"), *bad_values("norm", "name"), *bad_values("tail", "int"),
    *bad_values("bins", "int"), *bad_values("seed", "int"),
    *bad_values("threshold", "threshold"), *bad_values("quantile", "real"),
]
TCL_CASES = [
    *bad_values("hidden_dim", "int"), *bad_values("latent_dim", "int"),
    *bad_values("noise", "name"), *bad_values("sigma", "real"),
    *bad_values("mask_prob", "real"), *bad_values("temperature", "real"),
    *bad_values("batch_size", "int"), *bad_values("max_epochs", "int"),
    *bad_values("tolerance", "real"), *bad_values("learning_rate", "real"),
    *bad_values("seed", "int"), ("sigma", float("nan")), ("learning_rate", float("inf")),
]


def no_file_in(out):
    return not out.exists() or not any(out.iterdir())


@pytest.fixture(scope="module")
def scores_json(tmp_path_factory, ds_dir):
    out = tmp_path_factory.mktemp("cli-scores")
    assert run(["detect", ds_dir, "--out", out]) == 0
    return out / "scores.json"


class TestBadSettingValues:
    """Every detector and tcl setting with a value no stage can use exits 2
    before any stage runs, through the experiment plan and through each CLI
    stage that reads it."""

    @pytest.mark.parametrize("key, value", DETECTOR_CASES)
    def test_detector_value_is_2(self, tmp_path, data_csv, ds_dir, scores_json, key, value,
                                 capsys):
        out = tmp_path / "exp"
        plan = write_json(tmp_path / "plan.json", {
            "dataset": str(data_csv), "target": "label", "out_dir": str(out),
            "detector": {key: value},
        })
        assert run(["report", "--config", plan]) == 2
        assert no_file_in(out)
        config = write_json(tmp_path / "det.json", {"detector": {key: value}})
        assert run(["detect", ds_dir, "--config", config, "--out", tmp_path / "det"]) == 2
        assert no_file_in(tmp_path / "det")
        assert run(["split", ds_dir, scores_json, "--config", config,
                    "--out", tmp_path / "split"]) == 2
        assert no_file_in(tmp_path / "split")
        err = capsys.readouterr().err
        assert err.count("configuration error") == 3 and "[stage=" not in err

    @pytest.mark.parametrize("key, value", TCL_CASES)
    def test_tcl_value_is_2(self, tmp_path, data_csv, ds_dir, key, value, capsys):
        out = tmp_path / "exp"
        plan = write_json(tmp_path / "plan.json", {
            "dataset": str(data_csv), "target": "label", "out_dir": str(out),
            "tcl": {key: value},
        })
        assert run(["report", "--config", plan]) == 2
        assert no_file_in(out)
        config = write_json(tmp_path / "train.json", {"tcl": {key: value}})
        assert run(["train", ds_dir, "--config", config, "--out", tmp_path / "m"]) == 2
        assert no_file_in(tmp_path / "m")
        err = capsys.readouterr().err
        assert err.count("configuration error") == 2 and "[stage=" not in err

    @pytest.mark.parametrize("argv, setting", [
        (["split", "ds", "missing.json"], {"quantile": 7}),
        (["train", "missing"], {"max_epochs": 2.5}),
    ])
    def test_setting_is_checked_before_any_artifact_is_read(self, tmp_path, argv, setting,
                                                            capsys):
        config = write_json(tmp_path / "config.json", setting)
        paths = [tmp_path / name for name in argv[1:]]
        assert run([argv[0], *paths, "--config", config, "--out", tmp_path / "out"]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert no_file_in(tmp_path / "out")

    def test_every_setting_is_covered(self):
        assert {key for key, _ in DETECTOR_CASES} == DETECTOR_KEYS
        assert {key for key, _ in TCL_CASES} == TCL_KEYS

    def test_detect_records_the_norm_it_fitted_with(self, tmp_path, data_csv, ds_dir):
        config = write_json(tmp_path / "det.json", {"detector": {"norm": "L2", "tail": 25}})
        assert run(["detect", ds_dir, "--config", config, "--out", tmp_path / "det"]) == 0
        assert json.loads((tmp_path / "det" / "scores.json").read_text())["norm"] == "l2"
        assert run(["split", ds_dir, tmp_path / "det" / "scores.json",
                    "--out", tmp_path / "split"]) == 0
        assert json.loads((tmp_path / "split" / "meta.json").read_text())["norm"] == "l2"
        plan = write_json(tmp_path / "plan.json", {
            "dataset": str(data_csv), "target": "label", "out_dir": str(tmp_path / "exp"),
            "detector": {"norm": "L2", "tail": 25}, "tcl": {"max_epochs": 1},
        })
        assert run(["report", "--config", plan]) == 0
        report = json.loads((tmp_path / "exp" / "report.json").read_text())
        assert report["norm"] == report["split_grid"]["norm"] == "l2"


class TestConfig:
    """One config document drives the CLI stages and the experiment plan."""

    DETECTOR = {"detector": "openmax", "norm": "l1", "tail": 25}

    @pytest.mark.parametrize("form", ["flat", "nested"])
    def test_detector_config_forms(self, tmp_path, ds_dir, form):
        cfg = self.DETECTOR if form == "flat" else {"detector": self.DETECTOR}
        config = write_json(tmp_path / "det.json", cfg)
        assert run(["detect", ds_dir, "--config", config, "--out", tmp_path / "cfg"]) == 0
        assert run(["detect", ds_dir, "--detector", "openmax", "--norm", "l1", "--tail", 25,
                    "--out", tmp_path / "flags"]) == 0
        by_config = (tmp_path / "cfg" / "scores.json").read_bytes()
        assert by_config == (tmp_path / "flags" / "scores.json").read_bytes()
        assert json.loads(by_config)["norm"] == "l1"

    @pytest.mark.parametrize("cfg", [
        {"detector": "openmax", "bogus": 1},
        {"detector": {"detektor": "openmax"}},
    ])
    def test_unknown_detector_key_is_2(self, tmp_path, ds_dir, cfg, capsys):
        config = write_json(tmp_path / "det.json", cfg)
        assert run(["detect", ds_dir, "--config", config, "--out", tmp_path / "o"]) == 2
        assert "unknown detector config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("tcl, message", [
        ({"bogus": 1}, "bogus"),
        ({"input_dim": 4}, "input_dim"),
    ])
    def test_bad_tcl_key_is_2(self, tmp_path, data_csv, ds_dir, tcl, message, capsys):
        config = write_json(tmp_path / "train.json", {"tcl": tcl})
        assert run(["train", ds_dir, "--config", config, "--out", tmp_path / "m"]) == 2
        assert message in capsys.readouterr().err
        plan = write_json(tmp_path / "plan.json", {
            "dataset": str(data_csv), "target": "label", "tcl": tcl,
            "out_dir": str(tmp_path / "exp"),
        })
        assert run(["report", "--config", plan]) == 2
        assert message in capsys.readouterr().err

    def test_every_tcl_flag_reaches_the_model_config(self, tmp_path, ds_dir):
        values = {"hidden_dim": 12, "latent_dim": 5, "noise": "mask", "sigma": 0.25,
                  "mask_prob": 0.2, "temperature": 2.0, "batch_size": 64, "max_epochs": 2,
                  "tolerance": 0.5, "learning_rate": 0.002}
        assert set(values) == TCL_KEYS - {"seed"}
        flags = [a for key, value in values.items() for a in (f"--{key.replace('_', '-')}", value)]
        assert run(["train", ds_dir, *flags, "--seed", 3, "--out", tmp_path / "m"]) == 0
        config = json.loads((tmp_path / "m" / "model.json").read_text())["config"]
        assert config == {**values, "input_dim": 4, "seed": 3}

    @pytest.mark.parametrize("detector", ["openmax", "temperature"])
    def test_cli_and_plan_write_the_same_split(self, tmp_path, data_csv, detector):
        plan = ExperimentPlan(
            dataset=str(data_csv), target="label",
            detector={"detector": detector, "norm": "l1", "tail": 25, "bins": 20},
            tcl={"max_epochs": 1, "batch_size": 128}, seed=7, out_dir=str(tmp_path / "plan"),
        )
        config = write_json(tmp_path / "plan.json", plan.to_dict())
        run_experiment(plan)

        ds, det, spl = tmp_path / "ds", tmp_path / "det", tmp_path / "split"
        assert run(["ingest", data_csv, "--target", "label", "--out", ds]) == 0
        assert run(["detect", ds, "--config", config, "--seed", 7, "--out", det]) == 0
        assert run(["split", ds, det / "scores.json", "--quantile", 0.95, "--out", spl]) == 0

        made = tmp_path / "plan"
        assert (det / "histogram.csv").read_bytes() == (made / "histogram.csv").read_bytes()
        for name in ("d_in.csv", "d_ood.csv", "meta.json"):
            assert (spl / name).read_bytes() == (made / "split" / name).read_bytes(), name

    def test_split_reads_threshold_and_quantile_from_config(self, tmp_path, ds_dir):
        det = tmp_path / "det"
        assert run(["detect", ds_dir, "--out", det]) == 0
        scores = det / "scores.json"

        def split_bytes(name, *argv):
            out = tmp_path / name
            assert run(["split", ds_dir, scores, "--out", out, *argv]) == 0
            return [(out / f).read_bytes() for f in ("d_in.csv", "d_ood.csv")]

        config = write_json(tmp_path / "split.json",
                            {"detector": {"detector": "openmax", "quantile": 0.5}})
        by_flag = split_bytes("flag", "--quantile", 0.5)
        assert split_bytes("config", "--config", config) == by_flag
        assert split_bytes("default") != by_flag
        # a flag beats the file, and either flag replaces both keys
        assert split_bytes("q", "--config", config, "--quantile", 0.95) == split_bytes("default")
        threshold = json.loads((tmp_path / "flag" / "meta.json").read_text())["threshold"]
        assert split_bytes("t", "--config", config, "--threshold", threshold) == by_flag

    def test_plan_without_a_stage_block_sets_nothing_for_it(self, tmp_path, data_csv, ds_dir):
        # a plan document has a dataset key; its other top-level keys are not
        # settings of the stage whose block it lacks
        plan = write_json(tmp_path / "plan.json", {
            "dataset": str(data_csv), "target": "label", "tcl": {"max_epochs": 2},
        })
        det, default_det = tmp_path / "det", tmp_path / "default-det"
        assert run(["detect", ds_dir, "--config", plan, "--out", det]) == 0
        assert run(["detect", ds_dir, "--out", default_det]) == 0
        scores = det / "scores.json"
        assert scores.read_bytes() == (default_det / "scores.json").read_bytes()
        assert run(["split", ds_dir, scores, "--config", plan, "--out", tmp_path / "s1"]) == 0
        assert run(["split", ds_dir, scores, "--out", tmp_path / "s2"]) == 0
        assert (tmp_path / "s1" / "d_in.csv").read_bytes() == \
            (tmp_path / "s2" / "d_in.csv").read_bytes()
        # the tcl block applies to train; a plan without one trains with defaults
        assert run(["train", ds_dir, "--config", plan, "--out", tmp_path / "m1"]) == 0
        assert json.loads((tmp_path / "m1" / "trace.json").read_text())["epochs"] == 2
        no_tcl = write_json(tmp_path / "no-tcl.json", {"dataset": str(data_csv), "target": "label"})
        assert run(["train", ds_dir, "--config", no_tcl, "--max-epochs", 1,
                    "--out", tmp_path / "m2"]) == 0
