import json
import shutil

import pytest

from tabcl.bench import ExperimentPlan, run_experiment
from tabcl.cli import main

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
        assert (ds_dir / "data.csv").exists() and (ds_dir / "meta.json").exists()

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

    def test_missing_artifact_is_3(self, tmp_path):
        assert run(["evaluate", tmp_path / "head.json", tmp_path / "nope"]) == 3

    def test_numeric_error_is_4(self, tmp_path, data_csv):
        ds_dir = tmp_path / "ds"
        run(["ingest", data_csv, "--target", "label", "--out", ds_dir])
        assert run(["train", ds_dir, "--max-epochs", 10, "--learning-rate", 50,
                    "--batch-size", 32, "--out", tmp_path / "m"]) == 4

    def test_argparse_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["ingest"])  # missing required csv/--target
        assert exc.value.code == 2

    def test_bad_value_is_2(self, tmp_path, data_csv):
        ds_dir = tmp_path / "ds"
        run(["ingest", data_csv, "--target", "label", "--out", ds_dir])
        assert run(["train", ds_dir, "--batch-size", 1, "--out", tmp_path / "m"]) == 2

    def test_unwritable_out_is_3(self, tmp_path, data_csv):
        # --out below a regular file: the directory cannot be made
        assert run(["ingest", data_csv, "--target", "label", "--out", data_csv / "sub"]) == 3

    @pytest.mark.parametrize("label", ["7", "-1"])
    def test_class_index_outside_schema_is_3(self, tmp_path, ds_dir, label, capsys):
        shutil.copytree(ds_dir, tmp_path / "ds")
        data = tmp_path / "ds" / "data.csv"
        lines = data.read_text().splitlines()
        lines[5] = lines[5].rsplit(",", 1)[0] + "," + label
        data.write_text("\n".join(lines) + "\n")
        assert run(["fit-head", tmp_path / "ds", "--out", tmp_path / "head"]) == 3
        assert f"{data}: row 6: class index {label} outside [0, 2)" in capsys.readouterr().err

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
        "model holding a list": ("model.json", [1, 2], lambda f, ds: ["embed", f, ds]),
        "scores holding a list": ("scores.json", [0.1, 0.2], lambda f, ds: ["split", ds, f]),
        "scores without scores": (
            "scores.json", {"detector": "openmax"}, lambda f, ds: ["split", ds, f],
        ),
        "dataset sidecar without schema": (
            "meta.json", {"schema-version": 1, "stats": None}, lambda f, ds: ["fit-head", f.parent],
        ),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_artifact_is_3(self, tmp_path, ds_dir, case, capsys):
        name, payload, argv = self.MALFORMED[case]
        shutil.copy(ds_dir / "data.csv", tmp_path / "data.csv")
        path = write_json(tmp_path / name, payload)
        assert run(argv(path, ds_dir) + ["--out", tmp_path / "out"]) == 3
        assert str(path) in capsys.readouterr().err


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
