import argparse
import dataclasses
import json
import re
import shlex
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from tabcl import cli
from tabcl.bench import TCL_KEYS, DetectorConfig, ExperimentPlan, run_experiment
from tabcl.cli import build_parser, main
from tabcl.data import (
    SCHEMA_VERSION, Dataset, Schema, load_dataset, load_split, save_dataset,
)
from tabcl.exceptions import ConfigError
from tabcl.heads import load_head
from tabcl.numerics import STREAMS, RngStream

from conftest import (
    DATASET_CASES, TOO_LARGE_COLUMNS, as_prefixed_arrays, numeric_schema, params_block,
    shifted_cluster_data, spoil, write_classification_csv,
)


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
        # The split records what it decided; the detector's settings stay in scores.json.
        assert set(meta) == {"schema-version", "threshold", "m", "n"}
        scores = json.loads((det_dir / "scores.json").read_text())
        assert {k: scores[k] for k in ("detector", "norm", "tail", "seed")} == {
            "detector": "openmax", "norm": "l2", "tail": 25, "seed": 1}

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

    def test_repeated_calls_in_one_process(self, tmp_path, ds_dir, scores_json, monkeypatch):
        """Calls in one process give the same outputs, and each runs the
        ``cmd_*`` bound at that moment: a tracer rebinds them between calls."""
        for side in ("a", "b"):
            assert run(["split", ds_dir, scores_json, "--quantile", 0.9,
                        "--out", tmp_path / side]) == 0
            assert run(["train", tmp_path / side, "--max-epochs", 1,
                        "--out", tmp_path / side / "run"]) == 0
        for name in ("d_in.csv", "d_ood.csv", "meta.json", "run/model.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        calls = []
        monkeypatch.setattr(cli, "cmd_split", lambda args: calls.append(args.quantile) or 7)
        assert run(["split", ds_dir, scores_json, "--quantile", 0.5,
                    "--out", tmp_path / "c"]) == 7
        assert calls == [0.5] and not (tmp_path / "c").exists()

    def test_embed_keeps_a_target_named_like_a_latent(self, tmp_path):
        ds, _ = shifted_cluster_data(n_id=90, n_ood=10, d=4, seed=301)
        write_classification_csv(tmp_path / "data.csv", ds.features, ds.labels, target="e1")
        assert run(["ingest", tmp_path / "data.csv", "--target", "e1", "--out", tmp_path / "ds"]) == 0
        assert run(["train", tmp_path / "ds", "--max-epochs", 1, "--out", tmp_path / "run"]) == 0
        assert run(["embed", tmp_path / "run" / "model.json", tmp_path / "ds",
                    "--out", tmp_path / "emb"]) == 0
        schema = json.loads((tmp_path / "emb" / "meta.json").read_text())["schema"]
        assert schema["target"] == "e1"
        assert [c["name"] for c in schema["features"]] == [f"e_{i}" for i in range(8)]

    def test_tradeoff_command(self, capsys):
        assert run(["tradeoff", "--p", 0.831, "--t", 15, "--task", "classification"]) == 0
        out = capsys.readouterr().out
        assert "0.055" in out
        for p, t in (("nan", 1), (0.5, "nan"), (-3, 1), (1.5, 1), (0.5, "inf")):
            assert run(["tradeoff", "--p", p, "--t", t, "--task", "classification"]) == 2
        assert run(["tradeoff", "--p", "inf", "--t", 1, "--task", "regression"]) == 2

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

    def test_colliding_encoded_names_are_3(self, tmp_path, capsys):
        # categorical a, with categories b and c, encodes to a=b, the name of
        # the numeric column next to it
        bad = tmp_path / "bad.csv"
        bad.write_text("a,a=b,label\n" + "".join(
            f"{'bc'[i % 2]},{i / 2},{i % 2}\n" for i in range(25)))
        plan = write_json(tmp_path / "plan.json", {
            "dataset": str(bad), "target": "label", "out_dir": str(tmp_path / "exp"),
        })
        message = "columns 'a' and 'a=b' both encode to 'a=b'"
        assert run(["ingest", bad, "--target", "label", "--out", tmp_path / "out"]) == 3
        assert message in capsys.readouterr().err
        assert run(["report", "--config", plan]) == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists() and not (tmp_path / "exp" / "split").exists()

    @pytest.mark.parametrize("case", sorted(TOO_LARGE_COLUMNS))
    def test_column_too_large_to_standardize_is_3(self, tmp_path, capsys, case):
        bad = tmp_path / "big.csv"
        bad.write_text("a,label\n" + "".join(
            f"{v!r},{i % 2}\n" for i, v in enumerate(TOO_LARGE_COLUMNS[case])))
        assert run(["ingest", bad, "--target", "label", "--out", tmp_path / "out"]) == 3
        assert "column 'a': values too large to standardize" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("content, message", [
        (b"a,b,label\n1,\xff,0\n", "cannot read"),
        (f"a,label\n{'x' * 131073},0\n".encode(), "line 2: field larger than field limit"),
    ], ids=["not-utf8", "cell-too-long"])
    def test_unreadable_table_is_3(self, tmp_path, capsys, content, message):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(content)
        assert run(["ingest", bad, "--target", "label", "--out", tmp_path / "out"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(bad) in err and message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("content, message", [
        (b"", "empty file"),
        (b"a,label\n", "need at least one data row"),
    ], ids=["0-byte", "header-only"])
    def test_table_without_rows_is_3(self, tmp_path, capsys, content, message):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(content)
        assert run(["ingest", bad, "--target", "label", "--out", tmp_path / "out"]) == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_byte_order_mark_is_not_part_of_a_column_name(self, tmp_path, data_csv):
        table = tmp_path / "bom.csv"
        table.write_bytes(b"\xef\xbb\xbf" + data_csv.read_bytes())
        assert run(["ingest", table, "--target", "label", "--out", tmp_path / "bom"]) == 0
        assert run(["ingest", data_csv, "--target", "label", "--out", tmp_path / "plain"]) == 0
        bom, plain = tmp_path / "bom", tmp_path / "plain"
        for name in ("meta.json", "features.npy", "labels.npy"):
            assert (bom / name).read_bytes() == (plain / name).read_bytes(), name

    @pytest.mark.parametrize("delimiter", [";;", ""])
    def test_delimiter_of_other_than_one_character_is_2(self, tmp_path, capsys, delimiter):
        missing = tmp_path / "missing.csv"  # the delimiter is checked before the file is read
        assert run(["ingest", missing, "--target", "label", "--delimiter", delimiter,
                    "--out", tmp_path / "out"]) == 2
        assert "the delimiter must be one character" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
            f"data error: [stage=split] [Errno 20] Not a directory: '{blocker / 'd_in'}'\n"
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
        ([0.5, 10 ** 400] + [0.5] * 498, "non-finite score 1000"),  # beyond float64
    ])
    def test_bad_scores_is_3(self, tmp_path, ds_dir, scores, message, capsys):
        path = write_json(tmp_path / "scores.json", {"scores": scores})
        assert run(["split", ds_dir, path, "--out", tmp_path / "split"]) == 3
        assert message in capsys.readouterr().err

    # A well-formed model of width 4, which the cases below spoil.  PARAMS
    # is its flat parameter vector: w1 (4 x 1), b1, gamma, beta, w2, b2, w3,
    # b3, w4 (1 x 4) and b4 (4).
    PARAMS = [0.0] * 4 + [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0] + [0.0] * 8
    MODEL = {"format": "tcl-model", "version": 4, "dtype": "float32",
             "config": {"input_dim": 4, "hidden_dim": 1, "latent_dim": 1},
             "params": params_block(PARAMS)}

    # One score per row of ds_dir, which would split cleanly.
    SCORES = np.linspace(0.0, 1.0, 500).tolist()

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
            "model.json", dict(MODEL, params=params_block([0.0, float("nan")] + PARAMS[2:])),
            lambda f, ds: ["embed", f, ds],
        ),
        "model with a weight beyond float32": (
            "model.json", dict(MODEL, params=params_block([0.0, 1e39] + PARAMS[2:])),
            lambda f, ds: ["embed", f, ds],
        ),
        "model whose params are not a string": (
            "model.json", dict(MODEL, params=PARAMS), lambda f, ds: ["embed", f, ds],
        ),
        "model whose params are not strict base64": (
            "model.json", dict(MODEL, params=MODEL["params"][:4] + "\n" + MODEL["params"][4:]),
            lambda f, ds: ["embed", f, ds],
        ),
        "model one value short": (
            "model.json", dict(MODEL, params=params_block(PARAMS[:-1])),
            lambda f, ds: ["embed", f, ds],
        ),
        "model of float64 bytes labelled float32": (
            "model.json", dict(MODEL, params=params_block(PARAMS, "<f8")),
            lambda f, ds: ["embed", f, ds],
        ),
        "model of dtype float16": (
            "model.json", dict(MODEL, dtype="float16"), lambda f, ds: ["embed", f, ds],
        ),
        "model of version 1": (
            "model.json", {k: v for k, v in dict(MODEL, version=1).items() if k != "dtype"},
            lambda f, ds: ["embed", f, ds],
        ),
        "model of version 2": (
            "model.json", dict(MODEL, version=2, params={"w1": [[0.0]] * 4, "b1": [0.0]}),
            lambda f, ds: ["embed", f, ds],
        ),
        "model of version 3": (  # its config held the contrastive temperature
            "model.json", dict(MODEL, version=3, config={**MODEL["config"], "temperature": 1.0}),
            lambda f, ds: ["embed", f, ds],
        ),
        "scores holding a list": ("scores.json", [0.1, 0.2], lambda f, ds: ["split", ds, f]),
        "scores without scores": (
            "scores.json", {"detector": "openmax"}, lambda f, ds: ["split", ds, f],
        ),
        "scores held as strings": (
            "scores.json", {"scores": [str(v) for v in SCORES]}, lambda f, ds: ["split", ds, f],
        ),
        "scores held as bools": (
            "scores.json", {"scores": [True, False] * 250}, lambda f, ds: ["split", ds, f],
        ),
        "dataset sidecar without schema": (
            "meta.json", {"schema-version": SCHEMA_VERSION, "stats": None},
            lambda f, ds: ["fit-head", f.parent],
        ),
    }

    # A report as written before its split_grid lost the split's facts and its
    # constraints lost t_train_seconds: it still loads.
    REPORT = {
        "model": "tcl", "dataset": "d.csv", "task": "classification", "metric_name": "f1_macro",
        "p": 0.8, "t_seconds": 10.0, "tradeoff": 0.08,
        "split_grid": {"task": "classification", "id_train": 0.9, "id_test": 0.9,
                       "ood_train": 0.5, "ood_test": 0.5, "m": 90, "n": 10, "threshold": 0.5,
                       "detector": "openmax", "norm": "l2", "degradation": 0.4},
        "constraints": {"t_train_seconds": 10.0}, "stage_seconds": {"train": 10.0},
        "detector": "openmax", "norm": "l2", "threshold": 0.5, "m": 90, "n": 10, "seed": 0,
    }

    # A report as written while the grid split the OOD rows in two and the
    # plan declared a delta: it still loads.
    FOUR_CELL_REPORT = dict(
        REPORT, split_grid={"id_train": 0.9, "id_test": 0.9, "ood_train": 0.5, "ood_test": 0.5,
                            "degradation": 0.4},
        constraints={"memory_estimate_bytes": 1024, "parameter_count": 100,
                     "t_inference_seconds": 0.001, "ood_degradation": 0.3, "ood_metric": 0.5,
                     "delta_declared": 0.2})

    def test_four_cell_report_compares(self, tmp_path, capsys):
        old = write_json(tmp_path / "old.json", self.FOUR_CELL_REPORT)
        new = write_json(tmp_path / "new.json", dict(
            self.FOUR_CELL_REPORT, model="tcl-new",
            split_grid={"id_train": 0.9, "id_test": 0.9, "ood": 0.5, "degradation": 0.4}))
        assert run(["compare", old, new]) == 0
        assert "| 1 | tcl |" in capsys.readouterr().out

    @pytest.mark.parametrize("key, value", [
        ("tradeoff", "fast"), ("threshold", None), ("p", [1]), ("m", "10"),
    ])
    def test_ill_typed_report_is_3(self, tmp_path, key, value, capsys):
        good = write_json(tmp_path / "good.json", self.REPORT)
        bad = write_json(tmp_path / "bad.json", dict(self.REPORT, **{key: value}))
        assert run(["compare", good, good]) == 0
        assert run(["compare", good, bad]) == 3
        assert f"{bad}: malformed report: {key} must be" in capsys.readouterr().err

    # The detector's settings beside the scores are for the reader: split
    # reads only the scores.
    @pytest.mark.parametrize("settings", [{"detector": 7}, {"seed": "x"}],
                             ids=["scores with a numeric detector", "scores with a string seed"])
    def test_scores_settings_are_not_read(self, tmp_path, ds_dir, settings):
        path = write_json(tmp_path / "scores.json", {"scores": self.SCORES, **settings})
        assert run(["split", ds_dir, path, "--out", tmp_path / "split"]) == 0

    def test_ill_typed_split_sidecar_is_3(self, tmp_path, ds_dir, capsys):
        split_dir = tmp_path / "split"
        scores = write_json(tmp_path / "scores.json", {"scores": self.SCORES})
        assert run(["split", ds_dir, scores, "--out", split_dir]) == 0
        meta = json.loads((split_dir / "meta.json").read_text())
        write_json(split_dir / "meta.json", dict(meta, m=float(meta["m"])))
        assert run(["train", split_dir, "--max-epochs", 1, "--out", tmp_path / "run"]) == 3
        assert f"{split_dir / 'meta.json'}: row counts must be integers" in capsys.readouterr().err

    def test_split_sidecar_row_count_mismatch_is_3(self, tmp_path, ds_dir, capsys):
        split_dir = tmp_path / "split"
        scores = write_json(tmp_path / "scores.json", {"scores": self.SCORES})
        assert run(["split", ds_dir, scores, "--out", split_dir]) == 0
        meta = json.loads((split_dir / "meta.json").read_text())
        write_json(split_dir / "meta.json", dict(meta, m=meta["m"] + 1))
        assert run(["train", split_dir, "--max-epochs", 1, "--out", tmp_path / "run"]) == 3
        assert f"{split_dir}: row counts disagree with the sidecar" in capsys.readouterr().err

    def test_well_formed_model_embeds(self, tmp_path, ds_dir):
        path = write_json(tmp_path / "model.json", self.MODEL)
        assert run(["embed", path, ds_dir, "--out", tmp_path / "out"]) == 0

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_artifact_is_3(self, tmp_path, ds_dir, case, capsys):
        name, payload, argv = self.MALFORMED[case]
        for array in ("features.npy", "labels.npy"):
            shutil.copy(ds_dir / array, tmp_path / array)
        path = write_json(tmp_path / name, payload)
        assert run(argv(path, ds_dir) + ["--out", tmp_path / "out"]) == 3
        assert str(path) in capsys.readouterr().err


class TestDatasetPayload:
    """Every malformed dataset directory is a format error, exit 3."""

    @pytest.mark.parametrize("command", ["detect", "fit-head"])
    @pytest.mark.parametrize("case", sorted(DATASET_CASES))
    def test_bad_payload_is_3(self, tmp_path, ds_dir, case, command, capsys):
        shutil.copytree(ds_dir, tmp_path / "ds")
        path, message = spoil(tmp_path / "ds", case)
        assert run([command, tmp_path / "ds", "--out", tmp_path / "out"]) == 3
        err = capsys.readouterr().err
        assert str(path) in err and message in err

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


class TestHeadClasses:
    def test_head_fitted_without_the_top_class_scores_it(self, tmp_path):
        """fit-head gives a logistic head one output per class of the
        dataset's schema, so it evaluates rows of a class its fit rows lack."""
        X = RngStream(61, 0).normal(90, 3)
        y = np.arange(90) % 3
        X[:, 0] += 3.0 * y
        schema = numeric_schema(3, classes=("a", "b", "c"))
        save_dataset(Dataset(X[y < 2], y[y < 2], schema, None), tmp_path / "fit")
        save_dataset(Dataset(X, y, schema, None), tmp_path / "all")
        assert run(["fit-head", tmp_path / "fit", "--out", tmp_path / "head"]) == 0
        head = load_head(tmp_path / "head" / "head.json")
        assert head.classes == 3 and head.weights.shape == (3, 3)
        assert run(["evaluate", tmp_path / "head" / "head.json", tmp_path / "all",
                    "--out", tmp_path / "eval"]) == 0
        metrics = json.loads((tmp_path / "eval" / "metrics.json").read_text())
        assert metrics["accuracy"] <= 2 / 3


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
        ("tcl", {"batch_size": 1}), ("detector", {"tail": 1}),
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

    def test_plan_with_delta_is_2(self, tmp_path, data_csv, capsys):
        """``delta`` was recorded and never read; a plan that still sets it
        is refused, by name."""
        out = tmp_path / "exp"
        plan = write_json(tmp_path / "plan.json", {
            "dataset": str(data_csv), "target": "label", "out_dir": str(out), "delta": 0.1,
        })
        assert run(["report", "--config", plan]) == 2
        assert "unexpected keyword argument 'delta'" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_flag_is_2_before_any_stage(self, tmp_path, data_csv):
        out = tmp_path / "exp"
        plan = write_json(tmp_path / "plan.json", {"dataset": str(data_csv), "target": "label"})
        assert run(["report", "--config", plan, "--seed", -1, "--out", out]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("field", ["dataset", "out_dir"])
    def test_null_path_is_2_before_any_directory_is_made(self, tmp_path, data_csv, monkeypatch,
                                                         field, capsys):
        monkeypatch.chdir(tmp_path)  # where the default out_dir would be made
        plan = write_json(tmp_path / "plan.json", {
            "dataset": str(data_csv), "target": "label", "out_dir": str(tmp_path / "exp"),
            field: None,
        })
        assert run(["report", "--config", plan]) == 2
        assert f"{field} must be a string, got None" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["plan.json"]

    def test_head_that_does_not_fit_the_task_is_2_before_training(self, tmp_path, data_csv,
                                                                  capsys):
        out = tmp_path / "exp"
        plan = write_json(tmp_path / "plan.json", {
            "dataset": str(data_csv), "target": "label", "out_dir": str(out), "head": "linear",
        })
        assert run(["report", "--config", plan]) == 2
        assert "does not fit a classification task" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_head_that_does_not_fit_the_declared_task_is_2_before_any_stage(self, tmp_path,
                                                                            capsys):
        """The plan names the task, so the head is checked with the plan:
        the dataset, which does not exist, is never read."""
        out = tmp_path / "exp"
        plan = write_json(tmp_path / "plan.json", {
            "dataset": str(tmp_path / "missing.csv"), "target": "label", "out_dir": str(out),
            "task": "classification", "head": "linear",
        })
        assert run(["report", "--config", plan]) == 2
        err = capsys.readouterr().err
        assert "a 'linear' head does not fit a classification task" in err
        assert "[stage=" not in err and "missing.csv" not in err
        assert not out.exists()


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


# ``seed``, ``bins`` and ``temperature`` are no settings: the seed is the
# run's, detect draws 50 histogram bins and the loss takes no temperature.
# A block that sets one exits 2 whatever its value, as a bad value does.
DETECTOR_CASES = [
    *bad_values("detector", "name"), *bad_values("norm", "name"), *bad_values("tail", "int"),
    *bad_values("bins", "int"), *bad_values("seed", "int"),
    *bad_values("threshold", "threshold"), *bad_values("quantile", "real"),
    ("norm", "L2"), ("tail", None), ("bins", None),  # only threshold and quantile take null
]
TCL_CASES = [
    *bad_values("hidden_dim", "int"), *bad_values("latent_dim", "int"),
    *bad_values("noise", "name"), *bad_values("sigma", "real"),
    *bad_values("mask_prob", "real"), *bad_values("temperature", "real"),
    *bad_values("batch_size", "int"), *bad_values("max_epochs", "int"),
    *bad_values("tolerance", "real"), *bad_values("learning_rate", "real"),
    *bad_values("seed", "int"), ("sigma", float("nan")), ("learning_rate", float("inf")),
    ("sigma", 1e39),  # finite, but its noise overflows float32
]


def no_file_in(out):
    return not out.exists() or not any(out.iterdir())


# The stage whose flag sets each setting.  A block's ``seed``, ``bins`` and
# ``temperature`` have no flag.
STAGE_OF = {"detector": "detect", "norm": "detect", "tail": "detect",
            "threshold": "split", "quantile": "split", **dict.fromkeys(TCL_KEYS, "train")}


def flag_case(key, value):
    """The stage and the flag word that set ``key`` to ``value``, and the
    start of the stage's refusal: the setting check's where the flag's type
    and choices take the value's text, argparse's where they do not.  None
    where no flag carries the value: a list, a bool and null have no
    spelling on a command line."""
    command = STAGE_OF.get(key)
    if command is None or type(value) not in (int, float, str):
        return None
    (action,) = (a for a in subparsers()[command]._actions if a.dest == key)
    flag = action.option_strings[0]
    try:
        parsed = (action.type or str)(str(value))
        checked = action.choices is None or parsed in action.choices
    except ValueError:
        checked = False
    return command, f"{flag}={value}", ("configuration error: " if checked
                                        else f"argument {flag}: invalid")


@pytest.fixture(scope="module")
def scores_json(tmp_path_factory, ds_dir):
    out = tmp_path_factory.mktemp("cli-scores")
    assert run(["detect", ds_dir, "--out", out]) == 0
    return out / "scores.json"


class TestBadSettingValues:
    """Every detector and tcl setting with a value no stage can use exits 2
    before any stage runs: through the experiment plan, and through the flag
    of the CLI stage that reads it wherever a flag can carry the value.  So
    does a ``seed`` in either block of a plan."""

    @staticmethod
    def check_plan(tmp_path, data_csv, block, key, value, capsys):
        out = tmp_path / "exp"
        plan = write_json(tmp_path / "plan.json", {
            "dataset": str(data_csv), "target": "label", "out_dir": str(out),
            block: {key: value},
        })
        assert run(["report", "--config", plan]) == 2
        assert no_file_in(out)
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "[stage=" not in err

    @staticmethod
    def check_flag(tmp_path, inputs, key, value, capsys):
        """The stage that reads ``key``, given ``inputs`` by command, with
        ``value`` as its flag, when a flag carries it."""
        case = flag_case(key, value)
        if case is not None:
            command, flag, refusal = case
            out = tmp_path / "stage"
            code, _, err = outcome([command, *map(str, inputs[command]), flag,
                                    "--out", str(out)], capsys)
            assert code == 2 and refusal in err and "[stage=" not in err, err
            assert no_file_in(out)

    @pytest.mark.parametrize("key, value", DETECTOR_CASES)
    def test_detector_value_is_2(self, tmp_path, data_csv, ds_dir, scores_json, key, value,
                                 capsys):
        self.check_plan(tmp_path, data_csv, "detector", key, value, capsys)
        inputs = {"detect": [ds_dir], "split": [ds_dir, scores_json]}
        self.check_flag(tmp_path, inputs, key, value, capsys)

    @pytest.mark.parametrize("key, value", TCL_CASES)
    def test_tcl_value_is_2(self, tmp_path, data_csv, ds_dir, key, value, capsys):
        self.check_plan(tmp_path, data_csv, "tcl", key, value, capsys)
        self.check_flag(tmp_path, {"train": [ds_dir]}, key, value, capsys)

    def test_flag_cases_reach_every_flag_and_its_check(self):
        """Each stage flag carries some bad value to its setting check."""
        cases = (flag_case(key, value) for key, value in DETECTOR_CASES + TCL_CASES)
        checked = {case[1].split("=")[0] for case in cases
                   if case is not None and case[2] == "configuration error: "}
        flags = {"--detector", "--norm", "--tail", "--threshold", "--quantile", *TRAIN_FLAGS}
        assert checked == flags - {"--detector", "--norm"}  # no bad name is a choice

    @pytest.mark.parametrize("argv, setting", [
        (["split", "ds", "missing.json"], ["--quantile", "7"]),
        (["train", "missing"], ["--batch-size", "1"]),
        (["detect", "missing"], ["--tail", "1"]),
    ])
    def test_setting_is_checked_before_any_artifact_is_read(self, tmp_path, argv, setting,
                                                            capsys):
        paths = [tmp_path / name for name in argv[1:]]
        assert run([argv[0], *paths, *setting, "--out", tmp_path / "out"]) == 2
        key = setting[0].removeprefix("--").replace("-", "_")
        assert f"{key} must" in capsys.readouterr().err
        assert no_file_in(tmp_path / "out")

    @pytest.mark.parametrize("command", ["detect", "train"])
    def test_negative_seed_is_2_before_any_artifact_is_read(self, tmp_path, command, capsys):
        """Both stages refuse it as a plan refuses its ``seed``: the seed is
        the run's, not a detector or tcl setting."""
        assert run([command, tmp_path / "missing", "--seed", -1, "--out", tmp_path / "out"]) == 2
        with pytest.raises(ConfigError) as plan_error:
            ExperimentPlan(dataset="d.csv", target="y", seed=-1)
        err = capsys.readouterr().err
        assert err == f"configuration error: {plan_error.value}\n"
        assert "tcl config" not in err
        assert no_file_in(tmp_path / "out")

    def test_every_setting_is_covered(self):
        assert {key for key, _ in DETECTOR_CASES} == {
            f.name for f in dataclasses.fields(DetectorConfig)} | {"seed", "bins"}
        assert {key for key, _ in TCL_CASES} == TCL_KEYS | {"seed", "temperature"}

    def test_detect_records_the_norm_it_fitted_with(self, tmp_path, data_csv, ds_dir):
        assert run(["detect", ds_dir, "--norm", "l1", "--tail", 25,
                    "--out", tmp_path / "det"]) == 0
        assert json.loads((tmp_path / "det" / "scores.json").read_text())["norm"] == "l1"
        plan = write_json(tmp_path / "plan.json", {
            "dataset": str(data_csv), "target": "label", "out_dir": str(tmp_path / "exp"),
            "detector": {"norm": "l1", "tail": 25}, "tcl": {"max_epochs": 1},
        })
        assert run(["report", "--config", plan]) == 0
        report = json.loads((tmp_path / "exp" / "report.json").read_text())
        assert report["norm"] == "l1"

    @pytest.mark.parametrize("detector, settings", [
        ("openmax", {"detector": "openmax", "norm": "l2", "tail": 25, "seed": 4}),
        ("temperature", {"detector": "temperature", "norm": "none", "seed": 4}),
    ])
    def test_detect_records_a_tail_only_for_openmax(self, tmp_path, ds_dir, detector, settings):
        # The temperature detector fits no Weibull tail, so none is recorded.
        assert run(["detect", ds_dir, "--detector", detector, "--tail", 25, "--seed", 4,
                    "--out", tmp_path / "det"]) == 0
        scores = json.loads((tmp_path / "det" / "scores.json").read_text())
        assert list(scores) == [*settings, "scores"]
        assert {k: scores[k] for k in settings} == settings


class TestOneSpelling:
    """Each setting has one spelling.  The seed is set by ``--seed`` or the
    plan's ``seed`` alone, a stage's settings by its flags, and a plan's
    by its ``detector`` and ``tcl`` tables.  Any other spelling exits 2,
    naming it, before any file is written."""

    @pytest.mark.parametrize("block", ["detector", "tcl"])
    def test_seed_in_a_block_is_2(self, tmp_path, data_csv, block, capsys):
        out = tmp_path / "exp"
        plan = write_json(tmp_path / "plan.json", {
            "dataset": str(data_csv), "target": "label", "out_dir": str(out), block: {"seed": 3},
        })
        assert run(["report", "--config", plan]) == 2
        assert f"unknown {block} config keys: ['seed']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [5, "openmax", ["tail"]], ids=["int", "str", "list"])
    @pytest.mark.parametrize("block", ["detector", "tcl"])
    def test_plan_block_that_is_not_a_table_is_2(self, tmp_path, data_csv, block, value, capsys):
        """The plan refuses it, naming the block and the value."""
        out = tmp_path / "exp"
        plan = write_json(tmp_path / "plan.json", {
            "dataset": str(data_csv), "target": "label", "out_dir": str(out), block: value,
        })
        assert run(["report", "--config", plan]) == 2
        assert f"{block} must be a table, got {value!r}" in capsys.readouterr().err
        assert not out.exists()


class TestRemovedSettings:
    """The split share, the histogram's bins and the contrastive loss are
    fixed: a plan or a flag that sets the split ``fractions``, the
    detector's ``bins`` or the tcl ``temperature`` exits 2, naming it,
    before any file is written."""

    def test_fractions_in_a_plan_is_2(self, tmp_path, data_csv, capsys):
        out = tmp_path / "exp"
        plan = write_json(tmp_path / "plan.json", {
            "dataset": str(data_csv), "target": "label", "out_dir": str(out),
            "fractions": [0.8, 0.2],
        })
        assert run(["report", "--config", plan]) == 2
        assert "unexpected keyword argument 'fractions'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("block, key, value", [
        ("detector", "bins", 50), ("tcl", "temperature", 1.0),  # the old defaults
    ])
    def test_key_in_a_block_is_2(self, tmp_path, data_csv, block, key, value, capsys):
        out = tmp_path / "exp"
        plan = write_json(tmp_path / "plan.json", {
            "dataset": str(data_csv), "target": "label", "out_dir": str(out), block: {key: value},
        })
        assert run(["report", "--config", plan]) == 2
        assert f"unknown {block} config keys: ['{key}']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [("detect", "--bins"), ("train", "--temperature")])
    def test_flag_is_2(self, tmp_path, ds_dir, command, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            run([command, ds_dir, flag, 2, "--out", tmp_path / "out"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestConfig:
    """A stage's settings are its flags; an experiment plan file, read by
    ``report`` alone, sets them in its ``detector`` and ``tcl`` tables."""

    @pytest.mark.parametrize("suffix", ["json", "toml"])
    def test_config_with_a_byte_order_mark(self, tmp_path, data_csv, suffix):
        """``report`` reads a plan that starts with a byte order mark as it
        reads the plan without one."""
        text = (json.dumps({"dataset": str(data_csv), "target": "label",
                            "detector": {"norm": "l1", "tail": 25}}) if suffix == "json"
                else f'dataset = {json.dumps(str(data_csv))}\ntarget = "label"\n'
                     '[detector]\nnorm = "l1"\ntail = 25\n')
        plain, bom = tmp_path / f"plain.{suffix}", tmp_path / f"bom.{suffix}"
        plain.write_bytes(text.encode())
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
        plan = ExperimentPlan.from_file(bom)
        assert plan == ExperimentPlan.from_file(plain)
        assert plan.detector == {"norm": "l1", "tail": 25}

    @pytest.mark.parametrize("cfg", [
        {"detector": {"detector": "openmax", "bogus": 1}},
        {"detector": {"detektor": "openmax"}},
    ])
    def test_unknown_detector_key_is_2(self, tmp_path, data_csv, cfg, capsys):
        plan = write_json(tmp_path / "plan.json", {
            "dataset": str(data_csv), "target": "label", "out_dir": str(tmp_path / "exp"), **cfg,
        })
        assert run(["report", "--config", plan]) == 2
        assert "unknown detector config keys" in capsys.readouterr().err
        assert not (tmp_path / "exp").exists()

    @pytest.mark.parametrize("tcl, message", [
        ({"bogus": 1}, "bogus"),
        ({"input_dim": 4}, "input_dim"),
    ])
    def test_bad_tcl_key_is_2(self, tmp_path, data_csv, tcl, message, capsys):
        plan = write_json(tmp_path / "plan.json", {
            "dataset": str(data_csv), "target": "label", "tcl": tcl,
            "out_dir": str(tmp_path / "exp"),
        })
        assert run(["report", "--config", plan]) == 2
        assert message in capsys.readouterr().err

    def test_every_tcl_flag_reaches_the_model_config(self, tmp_path, ds_dir):
        values = {"hidden_dim": 12, "latent_dim": 5, "noise": "mask", "sigma": 0.25,
                  "mask_prob": 0.2, "batch_size": 64, "max_epochs": 2,
                  "tolerance": 0.5, "learning_rate": 0.002}
        assert set(values) == TCL_KEYS
        flags = [a for key, value in values.items() for a in (f"--{key.replace('_', '-')}", value)]
        assert run(["train", ds_dir, *flags, "--seed", 3, "--out", tmp_path / "m"]) == 0
        config = json.loads((tmp_path / "m" / "model.json").read_text())["config"]
        assert config == {**values, "input_dim": 4, "seed": 3}

    @pytest.mark.parametrize("detector", ["openmax", "temperature"])
    def test_cli_and_plan_write_the_same_split(self, tmp_path, data_csv, detector):
        plan = ExperimentPlan(
            dataset=str(data_csv), target="label",
            detector={"detector": detector, "norm": "l1", "tail": 25},
            tcl={"max_epochs": 1, "batch_size": 128}, seed=7, out_dir=str(tmp_path / "plan"),
        )
        run_experiment(plan)

        ds, det, spl = tmp_path / "ds", tmp_path / "det", tmp_path / "split"
        assert run(["ingest", data_csv, "--target", "label", "--out", ds]) == 0
        assert run(["detect", ds, "--detector", detector, "--norm", "l1", "--tail", 25,
                    "--seed", 7, "--out", det]) == 0
        assert run(["split", ds, det / "scores.json", "--quantile", 0.95, "--out", spl]) == 0

        made = tmp_path / "plan"
        assert (det / "histogram.csv").read_bytes() == (made / "histogram.csv").read_bytes()
        for name in ("d_in.csv", "d_ood.csv", "meta.json"):
            assert (spl / name).read_bytes() == (made / "split" / name).read_bytes(), name

    def test_split_at_a_quantile_or_at_its_threshold(self, tmp_path, ds_dir, scores_json):
        def split_bytes(name, *argv):
            out = tmp_path / name
            assert run(["split", ds_dir, scores_json, "--out", out, *argv]) == 0
            return [(out / f).read_bytes() for f in ("d_in.csv", "d_ood.csv")]

        by_quantile = split_bytes("q", "--quantile", 0.5)
        assert split_bytes("default") != by_quantile
        assert split_bytes("q95", "--quantile", 0.95) == split_bytes("default")
        threshold = json.loads((tmp_path / "q" / "meta.json").read_text())["threshold"]
        assert split_bytes("t", "--threshold", threshold) == by_quantile

    def test_threshold_and_quantile_together_is_2(self, tmp_path, ds_dir, scores_json, capsys):
        assert run(["split", ds_dir, scores_json, "--threshold", 0.5, "--quantile", 0.5,
                    "--out", tmp_path / "out"]) == 2
        assert "give either a threshold or a quantile, not both" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


TRAIN_FLAGS = {"--hidden-dim", "--latent-dim", "--noise", "--sigma", "--mask-prob",
               "--batch-size", "--max-epochs", "--tolerance", "--learning-rate"}
# each subcommand's options: the shared --seed and --out only where its cmd_*
# function reads them, and --config, a plan file, for report alone
OPTIONS = {
    "ingest": {"--out", "--target", "--task", "--delimiter"},
    "detect": {"--seed", "--out", "--detector", "--norm", "--tail"},
    "split": {"--out", "--threshold", "--quantile"},
    "train": {"--seed", "--out", *TRAIN_FLAGS},
    "embed": {"--out"},
    "fit-head": {"--out", "--kind"},
    "evaluate": {"--out"},
    "tradeoff": {"--p", "--t", "--task"},
    "report": {"--seed", "--config", "--out"},
    "compare": {"--out"},
}
# a valid argv for each subcommand that lost a shared flag
ARGV = {
    "ingest": ["ingest", "t.csv", "--target", "y"],
    "detect": ["detect", "ds"],
    "split": ["split", "ds", "scores.json"],
    "train": ["train", "ds"],
    "embed": ["embed", "model.json", "ds"],
    "fit-head": ["fit-head", "emb"],
    "evaluate": ["evaluate", "head.json", "emb"],
    "tradeoff": ["tradeoff", "--p", "0.5", "--t", "1", "--task", "classification"],
    "compare": ["compare", "report.json"],
}
REMOVED = [
    *((command, flag) for command in ("ingest", "embed", "fit-head", "evaluate", "compare")
      for flag in ("--seed", "--config")),
    ("split", "--seed"), ("tradeoff", "--seed"), ("tradeoff", "--config"), ("tradeoff", "--out"),
    ("detect", "--config"), ("split", "--config"), ("train", "--config"),
]


def subparsers() -> dict:
    (action,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def readme_cli_examples() -> list[list[str]]:
    """Every ``tabcl ...`` line of README's CLI block, split into words
    after its trailing ``# ...`` comment is stripped."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n.*?^```sh\n(.*?)^```", readme, re.M | re.S).group(1)
    return [shlex.split(re.sub(r"\s+#.*$", "", line))[1:]
            for line in block.splitlines() if line.startswith("tabcl ")]


class TestCliSurface:
    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_options(self, command):
        parser = subparsers()[command]
        declared = {s for action in parser._actions for s in action.option_strings}
        assert declared == OPTIONS[command] | {"-h", "--help"}

    def test_every_subcommand_is_pinned(self):
        assert set(subparsers()) == set(OPTIONS)

    @pytest.mark.parametrize("command, flag", REMOVED)
    def test_removed_flag_is_a_usage_error(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            run([*ARGV[command], flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--seed", "3", "detect", "ds"], ["--out", "x", "ingest", "t.csv", "--target", "y"],
        ["--config=plan.json", "report"], ["--seed", "3"],
    ], ids=shlex.join)
    def test_option_before_the_subcommand_is_2_naming_it(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        flag = argv[0].split("=")[0]
        assert f"{flag} comes before the subcommand: options go after it" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["--he", "detect"], ["-h", "detect"]])
    def test_help_before_the_subcommand_is_tabcls_own(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: tabcl [-h]\n")

    def test_readme_examples_parse(self):
        examples = readme_cli_examples()
        assert {argv[0] for argv in examples} == set(OPTIONS)
        parser = build_parser()
        for argv in examples:
            parser.parse_args(argv)  # a flag the parser does not take exits 2


def outcome(argv, capsys) -> tuple:
    """Exit code, stdout and stderr of ``main(argv)``, usage errors too."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


# argv whose exit code and text must not depend on which subcommands got their arguments
TEXT_ARGV = [
    ["-h"], *([command, "-h"] for command in OPTIONS), ["nosuch"], ["nosuch", "--out", "x"],
    ["ingest", "t.csv"], ["split", "ds"], ["tradeoff", "--p", "0.5"], ["compare"],
    ["ingest", "t.csv", "--target", "y", "--nosuch"], ["train", "ds", "--hidden_dim", "3"],
    ["ingest", "t.csv", "--target", "y", "--task", "ranking"],
    ["tradeoff", "--p", "0.5", "--t", "1", "--task", "ranking"],
    ["--out", "x", "ingest"], ["--seed", "3", "detect", "ds"], ["-1", "ingest"], [],
    ["detect", "ds", "--tail", "x"], ["split", "ds", "s.json", "--quantile", "1.5"],
]


class TestOneSubcommandParser:
    """``main`` builds the arguments of the subcommand its argv names alone;
    what it prints and returns is what the parser with every subcommand's
    arguments gives."""

    @pytest.fixture
    def full_parser(self, monkeypatch):
        full = cli.build_parser
        return lambda: monkeypatch.setattr(cli, "build_parser", lambda only=None: full())

    @pytest.mark.parametrize("argv", TEXT_ARGV + readme_cli_examples(), ids=shlex.join)
    def test_same_exit_code_and_text_as_the_full_parser(self, argv, tmp_path, monkeypatch,
                                                         capsys, full_parser):
        monkeypatch.chdir(tmp_path)  # README's examples name files that are not there
        one = outcome(argv, capsys)
        full_parser()
        assert outcome(argv, capsys) == one
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", readme_cli_examples(), ids=shlex.join)
    def test_readme_example_parses_as_with_the_full_parser(self, argv):
        assert vars(build_parser(argv[0]).parse_args(argv)) == vars(build_parser().parse_args(argv))

    def test_only_the_named_subcommand_gets_arguments(self):
        """The other subcommands are not built at all, and what the full
        parser would print is left to it."""
        parser = build_parser("split")
        (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert list(action.choices) == ["split"]
        declared = {s for a in action.choices["split"]._actions for s in a.option_strings}
        assert declared == OPTIONS["split"] | {"-h", "--help"}
        for argv in (["train", "ds"], ["split", "ds"], ["split", "-h"], ["-h"]):
            with pytest.raises(cli._Unparsed):
                parser.parse_args(argv)


@pytest.fixture
def split_dir(tmp_path, ds_dir, scores_json):
    out = tmp_path / "split"
    assert run(["split", ds_dir, scores_json, "--quantile", 0.9, "--out", out]) == 0
    return out


class TestTrainReadsTheIdSide:
    """``train`` on a split directory reads the ``d_in`` dataset directory
    and the sidecar, and never the ``d_ood`` directory or either CSV export."""

    @staticmethod
    def trained(data, out) -> bytes:
        assert run(["train", data, "--max-epochs", 2, "--seed", 4, "--out", out]) == 0
        return (out / "model.json").read_bytes()

    def test_model_without_d_ood_or_with_a_bad_cell_in_it(self, tmp_path, split_dir):
        want = self.trained(split_dir, tmp_path / "intact")
        for name in ("d_in.csv", "d_ood.csv"):
            (split_dir / name).unlink()
        assert self.trained(split_dir, tmp_path / "no-csv") == want
        spoil(split_dir / "d_ood", "features non-finite")
        assert self.trained(split_dir, tmp_path / "bad-cell") == want
        shutil.rmtree(split_dir / "d_ood")
        assert self.trained(split_dir, tmp_path / "no-d_ood") == want

    def test_split_and_its_d_in_directory_train_the_same_model(self, tmp_path, split_dir):
        assert (self.trained(split_dir, tmp_path / "split")
                == self.trained(split_dir / "d_in", tmp_path / "d_in"))

    @pytest.mark.parametrize("extra", [1, -1])
    def test_d_in_rows_other_than_m_is_3_naming_the_file(self, tmp_path, split_dir, extra,
                                                         capsys):
        meta = json.loads((split_dir / "meta.json").read_text())
        write_json(split_dir / "meta.json", dict(meta, m=meta["m"] + extra))
        shutil.rmtree(split_dir / "d_ood")
        assert run(["train", split_dir, "--max-epochs", 1, "--out", tmp_path / "run"]) == 3
        assert capsys.readouterr().err == (
            f"data error: {split_dir}: row counts disagree with the sidecar: d_in "
            f"holds {meta['m']} rows, not {meta['m'] + extra}\n")

    @pytest.mark.parametrize("case", sorted(DATASET_CASES))
    def test_bad_d_in_array_is_3_naming_the_file(self, tmp_path, split_dir, case, capsys):
        path, text = spoil(split_dir / "d_in", case)
        assert run(["train", split_dir, "--max-epochs", 1, "--out", tmp_path / "run"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(path) in err and text in err
        assert not (tmp_path / "run").exists()

    def test_split_of_csvs_alone_is_3_naming_a_missing_array(self, tmp_path, split_dir, capsys):
        """A split stored before its sides were dataset directories, with
        its sides' arrays beside the sidecar, and before they were arrays."""
        as_prefixed_arrays(split_dir)
        for layout in ("prefixed arrays", "csvs alone"):
            if layout == "csvs alone":
                for path in split_dir.glob("*.npy"):
                    path.unlink()
            assert run(["train", split_dir, "--max-epochs", 1, "--out", tmp_path / "run"]) == 3
            assert capsys.readouterr().err.startswith(
                f"data error: cannot read feature matrix {split_dir / 'features.npy'}: ")


class TestStagesOnASplitSide:
    """Each side of a stored split is a dataset directory that every stage
    reading a dataset takes."""

    def test_stages_run_on_either_side(self, tmp_path, split_dir):
        assert run(["detect", split_dir / "d_in", "--tail", 25, "--out", tmp_path / "det"]) == 0
        scores = json.loads((tmp_path / "det" / "scores.json").read_text())["scores"]
        assert len(scores) == load_dataset(split_dir / "d_in").n
        assert run(["train", split_dir, "--max-epochs", 2, "--out", tmp_path / "run"]) == 0
        model = tmp_path / "run" / "model.json"
        for side in ("d_in", "d_ood"):
            assert run(["embed", model, split_dir / side, "--out", tmp_path / side]) == 0
        assert run(["fit-head", tmp_path / "d_in", "--out", tmp_path / "head"]) == 0
        assert run(["evaluate", tmp_path / "head" / "head.json", tmp_path / "d_ood",
                    "--out", tmp_path / "eval"]) == 0
        metrics = json.loads((tmp_path / "eval" / "metrics.json").read_text())
        assert 0.0 <= metrics["accuracy"] <= 1.0
        # README's example: a head on the ID rows, scored on the OOD rows
        assert run(["fit-head", split_dir / "d_in", "--out", tmp_path / "head_in"]) == 0
        assert run(["evaluate", tmp_path / "head_in" / "head.json", split_dir / "d_ood",
                    "--out", tmp_path / "eval_ood"]) == 0

    @pytest.mark.parametrize("command", ["detect", "fit-head"])
    def test_a_split_given_as_a_dataset_is_3_naming_its_sides(self, tmp_path, split_dir,
                                                               command, capsys):
        assert run([command, split_dir, "--out", tmp_path / "out"]) == 3
        assert capsys.readouterr().err == (
            f"data error: {split_dir} is a split, not a dataset: pass its side "
            f"{split_dir / 'd_in'} or {split_dir / 'd_ood'}\n")

    def test_a_side_loads_as_the_split_holds_it(self, split_dir):
        pair = load_split(split_dir)
        for side in ("d_in", "d_ood"):
            got, want = load_dataset(split_dir / side), getattr(pair, side)
            assert got.features.tobytes() == want.features.tobytes()
            assert got.labels.dtype == want.labels.dtype
            assert got.labels.tobytes() == want.labels.tobytes()
            assert got.schema == want.schema and got.stats == want.stats


class TestStreams:
    """Every stochastic step draws from a stream keyed by ``(seed, stream_id)``.
    A run builds each key it uses once, at one call site: two steps sharing a
    key would draw the same numbers.  Every stream id comes from
    ``numerics.STREAMS``, whose ids are distinct."""

    def test_stream_ids_are_distinct(self):
        assert len(set(STREAMS.values())) == len(STREAMS)

    @staticmethod
    def call_sites(monkeypatch, action) -> dict:
        """The call sites of every stream that ``action`` builds, by key."""
        built: dict[tuple[int, int], list[tuple[str, int]]] = {}
        init = RngStream.__init__

        def recording_init(self, seed, stream_id=0):
            caller = sys._getframe(1)
            built.setdefault((seed, stream_id), []).append(
                (caller.f_code.co_filename, caller.f_lineno))
            init(self, seed, stream_id)

        with monkeypatch.context() as patch:
            patch.setattr(RngStream, "__init__", recording_init)
            action()
        assert {stream_id for _, stream_id in built} <= set(STREAMS.values()), built
        return built

    PLANS = {  # detector: the keys its plan builds, at the plan's seed 3
        "openmax": [(3, 0), (3, 1), (3, 22)],
        "temperature": [(3, 11), (3, 22), (3, 0), (3, 1)],
    }

    @pytest.mark.parametrize("detector, keys", list(PLANS.items()), ids=list(PLANS))
    def test_plan_builds_each_key_once(self, tmp_path, monkeypatch, data_csv, detector, keys):
        plan = ExperimentPlan(dataset=str(data_csv), target="label", seed=3,
                              detector={"detector": detector, "quantile": 0.9},
                              tcl={"max_epochs": 1}, out_dir=str(tmp_path / "exp"))
        sites = self.call_sites(monkeypatch, lambda: run_experiment(plan))
        assert {seed for seed, _ in sites} == {plan.seed}  # the run's seed is the one seed
        assert {key: len(at) for key, at in sites.items()} == dict.fromkeys(keys, 1), sites

    def test_every_stream_is_built_by_a_plan(self):
        """A stream that no step builds is dead.  Each plan builds exactly its
        keys (above), and the two together build every stream."""
        built = {stream_id for keys in self.PLANS.values() for _, stream_id in keys}
        assert built == set(STREAMS.values())

    def test_cli_detect_and_train_build_each_key_once(self, tmp_path, monkeypatch, ds_dir):
        def stages():
            assert run(["detect", ds_dir, "--detector", "temperature", "--seed", 4,
                        "--out", tmp_path / "det"]) == 0
            assert run(["train", ds_dir, "--max-epochs", 1, "--seed", 4,
                        "--out", tmp_path / "m"]) == 0

        sites = self.call_sites(monkeypatch, stages)
        assert {seed for seed, _ in sites} == {4}
        assert {key: len(at) for key, at in sites.items()} == dict.fromkeys(
            [(4, 11), (4, 0), (4, 1)], 1), sites
