import csv
import errno
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tabcl import bench, heads, ood
from tabcl.bench import (
    BenchReport,
    DetectorConfig,
    ExperimentPlan,
    build_config,
    compare_models,
    comparison_markdown,
    emit_report,
    run_experiment,
    split_at_threshold,
    tradeoff,
)
from tabcl.contrastive import TclConfig
from tabcl.data import Dataset, split
from tabcl.exceptions import ConfigError
from tabcl.numerics import STREAMS, RngStream

from conftest import (numeric_schema, shifted_cluster_data, write_classification_csv,
                      write_regression_csv)


class TestTradeoff:
    # published speed/accuracy cells: (task, P, t, printed trade-off)
    CELLS = [
        ("classification", 0.831, 15.0, 0.055),
        ("classification", 0.782, 1027.0, 0.00076),
        ("classification", 0.574, 21.0, 0.027),
        ("regression", 0.892, 15.0, 0.075),
        ("regression", 6.491, 240.0, 0.00064),
    ]

    def test_reproduces_published_cells(self):
        for task, p, t, printed in self.CELLS:
            got = tradeoff(p, t, task)
            unit = 10.0 ** np.floor(np.log10(printed) - 1)  # one unit in the last digit
            assert abs(got - printed) <= unit + 1e-15, (task, p, t, got, printed)

    def test_unit_case(self):
        assert tradeoff(1.0, 1.0, "classification") == 1.0

    def test_faster_is_better_for_fixed_p(self):
        assert tradeoff(0.8, 10.0, "classification") > tradeoff(0.8, 20.0, "classification")
        assert tradeoff(2.0, 10.0, "regression") > tradeoff(2.0, 20.0, "regression")

    def test_metric_direction_per_task(self):
        assert tradeoff(0.9, 10.0, "classification") > tradeoff(0.8, 10.0, "classification")
        assert tradeoff(0.8, 10.0, "regression") > tradeoff(0.9, 10.0, "regression")

    def test_errors(self):
        with pytest.raises(ValueError):
            tradeoff(0.5, 0.0, "classification")
        with pytest.raises(ValueError):
            tradeoff(-1.0, 5.0, "regression")
        with pytest.raises(ValueError):
            tradeoff(0.5, 5.0, "ranking")
        nan, inf = float("nan"), float("inf")
        for p, t, task in [(nan, 1.0, "classification"), (0.5, nan, "classification"),
                           (-3.0, 1.0, "classification"), (1.5, 1.0, "classification"),
                           (0.5, inf, "classification"), (0.5, -inf, "classification"),
                           (nan, 1.0, "regression"), (inf, 1.0, "regression"),
                           (2.0, nan, "regression"), (2.0, inf, "regression")]:
            with pytest.raises(ValueError):
                tradeoff(p, t, task)


class TestPlan:
    def test_round_trip(self):
        plan = ExperimentPlan(
            dataset="d.csv", target="y", detector={"detector": "openmax", "quantile": 0.9},
            tcl={"max_epochs": 5}, seed=3,
        )
        again = ExperimentPlan.from_dict(plan.to_dict())
        assert again.to_dict() == plan.to_dict()
        assert json.dumps(plan.to_dict()) == (
            '{"dataset": "d.csv", "target": "y", "task": null, "model_name": "tcl", '
            '"detector": {"detector": "openmax", "quantile": 0.9}, "tcl": {"max_epochs": 5}, '
            '"head": null, "seed": 3, "out_dir": "out"}'
        )

    def test_head_that_does_not_fit_the_declared_task_is_refused(self):
        with pytest.raises(ConfigError, match="a 'linear' head does not fit a classification"):
            ExperimentPlan(dataset="d.csv", target="y", task="classification", head="linear")
        with pytest.raises(ConfigError, match="a 'logistic' head does not fit a regression"):
            ExperimentPlan(dataset="d.csv", target="y", task="regression", head="logistic")
        ExperimentPlan(dataset="d.csv", target="y", task="regression", head="linear")
        ExperimentPlan(dataset="d.csv", target="y", head="linear")  # checked after ingest

    def test_unknown_detector_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentPlan(dataset="d.csv", target="y", detector={"detektor": "openmax"})

    def test_threshold_and_quantile_conflict(self):
        with pytest.raises(ConfigError):
            ExperimentPlan(
                dataset="d.csv", target="y",
                detector={"threshold": 0.1, "quantile": 0.9},
            )

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"dataset": "d.csv", "target": "y", "seed": 4}))
        plan = ExperimentPlan.from_file(path)
        assert plan.seed == 4

    def test_from_toml_file(self, tmp_path):
        path = tmp_path / "plan.toml"
        path.write_text('dataset = "d.csv"\ntarget = "y"\nseed = 6\n')
        plan = ExperimentPlan.from_file(path)
        assert plan.seed == 6

    def test_bad_plan_key(self):
        with pytest.raises(ConfigError):
            ExperimentPlan.from_dict({"dataset": "d.csv", "target": "y", "bogus": 1})

    @pytest.mark.parametrize("field, value, message", [
        ("head", "ridge", "unknown head kind"),
        # every split is 80/20: a plan that sets fractions, even the old
        # default, is refused by name
        ("fractions", [0.8, 0.2], "unexpected keyword argument 'fractions'"),
        ("fractions", (0.8, 0.2), "unexpected keyword argument 'fractions'"),
        ("fractions", None, "unexpected keyword argument 'fractions'"),
        ("fractions", 0.8, "fractions"),
        ("fractions", ["a", "b"], "fractions"),
        ("fractions", ["0.5", "0.5"], "fractions"),
        ("seed", -1, "non-negative integer"),
        ("seed", "3", "non-negative integer"),
        ("seed", True, "non-negative integer"),
        ("task", "clasification", "unknown task"),
        ("task", 1, "unknown task"),
        # delta was recorded and never read: a plan holding it, even the old
        # default None, is refused by name
        ("delta", 0.5, "unexpected keyword argument 'delta'"),
        ("delta", None, "unexpected keyword argument 'delta'"),
        ("delta", "abc", "unexpected keyword argument 'delta'"),
        ("dataset", None, "dataset must be a string, got None"),
        ("dataset", 7, "dataset must be a string, got 7"),
        ("out_dir", None, "out_dir must be a string, got None"),
        ("out_dir", ["exp"], "out_dir must be a string"),
        ("target", None, "target must be a string, got None"),
        ("target", 1, "target must be a string, got 1"),
        ("model_name", None, "model_name must be a string, got None"),
        ("model_name", b"tcl", "model_name must be a string"),
        ("dataset", Path("d.csv"), "dataset must be a string"),
        ("out_dir", Path("exp"), "out_dir must be a string"),
    ])
    def test_bad_field_rejected_when_built(self, field, value, message):
        with pytest.raises(ConfigError, match=message):
            ExperimentPlan.from_dict({"dataset": "d.csv", "target": "y", field: value})

    @pytest.mark.parametrize("detector, message", [
        ({"seed": -1}, "unknown detector config keys"),  # the seed is the run's alone
        ({"seed": 3}, "unknown detector config keys"),
        ({"tail": 1}, "tail must be an integer >= 2"),
        ({"bins": 50}, r"unknown detector config keys: \['bins'\]"),  # detect draws 50
        ({"quantile": 1.0}, r"quantile must lie in \(0, 1\)"),
        ({"quantile": "0.9"}, r"quantile must lie in \(0, 1\)"),
        ({"norm": "l3"}, "unknown norm"),
        ({"norm": "L2"}, "unknown norm: 'L2'; use l1 or l2"),
        ({"tail": None}, "tail must be an integer >= 2, got None"),
    ])
    def test_bad_detector_value_rejected_when_built(self, detector, message):
        with pytest.raises(ConfigError, match=message):
            ExperimentPlan.from_dict({"dataset": "d.csv", "target": "y", "detector": detector})

    @pytest.mark.parametrize("tcl, message", [
        ({"max_epochs": 0}, "max_epochs must be an integer >= 1, got 0"),
        ({"noise": "salt"}, "unknown noise mode"),
        ({"tolerance": "hot"}, "bad tcl config"),
        ({"temperature": 1.0}, r"unknown tcl config keys: \['temperature'\]"),
        # a constant of tabcl.contrastive, not a setting
        ({"batch_size": 1}, r"unknown tcl config keys: \['batch_size'\]"),
        ({"sigma": "hot"}, r"unknown tcl config keys: \['sigma'\]"),
    ])
    def test_bad_tcl_value_rejected_when_built(self, tcl, message):
        with pytest.raises(ConfigError, match=message):
            ExperimentPlan.from_dict({"dataset": "d.csv", "target": "y", "tcl": tcl})

    def test_null_detector_value_means_unset(self):
        null = {"threshold": None, "quantile": None}
        assert build_config(DetectorConfig, null, "detector") == DetectorConfig()
        half = {"threshold": None, "quantile": 0.5}  # the quantile decides
        assert build_config(DetectorConfig, half, "detector") == DetectorConfig(quantile=0.5)
        plan = ExperimentPlan.from_dict({"dataset": "d.csv", "target": "y", "detector": null})
        assert plan.detector == null  # the plan keeps the block as written

    @pytest.mark.parametrize("block", ["detector", "tcl"])
    def test_seed_in_a_block_is_refused(self, block):
        """The run's seed, the plan's ``seed``, is the one seed: a block
        that sets its own is refused, by name."""
        with pytest.raises(ConfigError, match=rf"unknown {block} config keys: \['seed'\]"):
            ExperimentPlan.from_dict({"dataset": "d.csv", "target": "y", block: {"seed": 3}})

    @pytest.mark.parametrize("cls, what, block, message", [
        (DetectorConfig, "detector", {"tail": 5, "bogus": 1},
         r"unknown detector config keys: \['bogus'\]"),
        (TclConfig, "tcl", {"input_dim": 4}, r"unknown tcl config keys: \['input_dim'\]"),
        (DetectorConfig, "detector", {"detector": "knn"},
         "bad detector config: unknown detector: 'knn'"),
    ])
    def test_build_config_names_what_it_rejects(self, cls, what, block, message):
        fixed = {"input_dim": 1} if cls is TclConfig else {}  # a fixed field counts as unknown
        with pytest.raises(ConfigError, match=message):
            build_config(cls, block, what, **fixed)

    def test_numbers_stored_as_python_numbers(self):
        # numpy scalars are accepted where plain numbers are, and stored as
        # int or float, so that the model file and the report can hold them
        tcl = TclConfig(input_dim=np.int64(4), max_epochs=np.int64(3), tolerance=np.float32(0.25))
        det = DetectorConfig(tail=np.int64(20), quantile=np.float64(0.9))
        plan = ExperimentPlan(dataset="d.csv", target="y", seed=np.int64(1))
        stored = [tcl.input_dim, tcl.hidden_dim, tcl.latent_dim, tcl.max_epochs, tcl.tolerance,
                  det.tail, det.quantile, plan.seed]
        assert [type(v) for v in stored] == [int] * 4 + [float, int, float, int]
        assert stored == [4, 16, 8, 3, 0.25, 20, 0.9, 1]

    @pytest.mark.parametrize("block", [5, "openmax", ["tail"]], ids=["int", "str", "list"])
    @pytest.mark.parametrize("what", ["detector", "tcl"])
    def test_block_that_is_not_a_table_is_refused(self, what, block):
        with pytest.raises(ConfigError) as exc:
            ExperimentPlan.from_dict({"dataset": "d.csv", "target": "y", what: block})
        assert str(exc.value) == f"{what} must be a table, got {block!r}"


class TestSplitThreshold:
    """The split stage cuts at the configured threshold, else at the
    configured quantile of the scores, else at their 95th percentile."""

    @staticmethod
    def threshold(tmp_path, scores, det):
        dataset = Dataset(np.zeros((scores.size, 1)), np.zeros(scores.size, dtype=np.int64),
                          numeric_schema(1), None)
        return split_at_threshold(dataset, scores, det, tmp_path).threshold

    def test_explicit_threshold_wins(self, tmp_path):
        det = DetectorConfig(threshold=0.25)
        assert self.threshold(tmp_path, np.linspace(0, 1, 11), det) == 0.25

    @pytest.mark.parametrize("det, cut", [
        (DetectorConfig(), 0.95),
        (DetectorConfig(quantile=0.5), 0.5),
    ], ids=["default", "configured"])
    def test_quantile(self, tmp_path, det, cut):
        assert self.threshold(tmp_path, np.linspace(0, 1, 101), det) == pytest.approx(cut)

    def test_bad_quantile(self):
        with pytest.raises(ValueError, match=r"quantile must lie in \(0, 1\)"):
            DetectorConfig(quantile=1.5)


def small_plan(tmp_path, run_name="run", **overrides):
    ds, _ = shifted_cluster_data(n_id=900, n_ood=100, d=4, seed=202)
    csv_path = tmp_path / "data.csv"
    write_classification_csv(csv_path, ds.features, ds.labels)
    defaults = dict(
        dataset=str(csv_path),
        target="label",
        model_name="tcl",
        detector={"detector": "openmax", "norm": "l2", "tail": 30, "quantile": 0.9},
        tcl={"max_epochs": 8},
        seed=5,
        out_dir=str(tmp_path / run_name),
    )
    defaults.update(overrides)
    return ExperimentPlan(**defaults)


class TestRunExperiment:
    def test_report_is_complete_and_consistent(self, tmp_path):
        report = run_experiment(small_plan(tmp_path))
        assert report.task == "classification"
        assert report.metric_name == "f1_macro"
        assert 0.0 <= report.p <= 1.0
        assert report.t_seconds > 0
        assert abs(report.tradeoff - report.p / report.t_seconds) < 1e-12
        assert report.m + report.n == 1000
        assert report.constraints["ood_degradation"] >= 0.10
        assert report.constraints["parameter_count"] > 0
        for stage in ("ingest", "detect", "split", "train", "embed", "fit-head", "evaluate"):
            assert stage in report.stage_seconds

    def test_every_logistic_fit_has_one_output_per_class_of_the_schema(self, tmp_path,
                                                                       monkeypatch):
        """The backbone, the split probe and the head are each given the
        schema's class count, not the count their fit rows imply."""
        fits = []
        fit = heads.fit_logistic

        def spy(X, y, l2=heads.L2, classes=None):
            fits.append(classes)
            return fit(X, y, l2, classes)

        monkeypatch.setattr(heads, "fit_logistic", spy)
        run_experiment(small_plan(tmp_path, tcl={"max_epochs": 2}))
        assert fits == [2, 2, 2]

    def test_quantile_sets_split_sizes(self, tmp_path):
        plan = small_plan(tmp_path, detector={"detector": "openmax", "norm": "l2",
                                              "tail": 30, "quantile": 0.95})
        report = run_experiment(plan)
        assert abs(report.n - 50) <= 1

    def test_identical_plans_reproduce_p(self, tmp_path):
        r1 = run_experiment(small_plan(tmp_path, run_name="a"))
        r2 = run_experiment(small_plan(tmp_path, run_name="b"))
        assert r1.p == r2.p
        assert r1.threshold == r2.threshold
        assert (r1.m, r1.n) == (r2.m, r2.n)

    def test_numpy_scalars_write_what_plain_numbers_write(self, tmp_path):
        def plan(kind, as_int, as_float):
            return small_plan(
                tmp_path, run_name=kind, seed=as_int(5),
                detector={"detector": "openmax", "tail": as_int(30), "quantile": 0.9},
                tcl={"max_epochs": as_int(2), "tolerance": as_float(0.25)})

        run_experiment(plan("plain", int, float))
        run_experiment(plan("numpy", np.int64, np.float32))
        plain, numpy = tmp_path / "plain", tmp_path / "numpy"
        assert (plain / "model.json").read_bytes() == (numpy / "model.json").read_bytes()
        reports = []
        for out in (plain, numpy):
            report = json.loads((out / "report.json").read_text())
            for key in ("t_seconds", "tradeoff", "stage_seconds"):
                del report[key]
            del report["constraints"]["t_inference_seconds"]
            reports.append(report)
        assert reports[0] == reports[1]

    def test_report_records_each_split_fact_once(self, tmp_path):
        run_experiment(small_plan(tmp_path))
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert list(report["split_grid"]) == ["id_train", "id_test", "ood", "degradation"]
        assert "t_train_seconds" not in report["constraints"]
        assert "delta_declared" not in report["constraints"]

    def test_one_split_of_the_id_side(self, tmp_path, monkeypatch):
        sizes = []

        def counting_split(dataset, rng):
            sizes.append(dataset.n)
            return split(dataset, rng)

        monkeypatch.setattr(bench, "split", counting_split)
        monkeypatch.setattr(ood, "split", counting_split)
        report = run_experiment(small_plan(tmp_path))
        assert sizes == [report.m]  # the openmax detector splits nothing

    def test_markdown_sets_raw_features_beside_the_embedding(self, tmp_path):
        report = run_experiment(small_plan(tmp_path))
        emit_report(report, "markdown", tmp_path / "report.md")
        text = (tmp_path / "report.md").read_text()
        g, ood_metric = report.split_grid, report.constraints["ood_metric"]
        assert ("| f1_macro | ID test | OOD |\n| --- | --- | --- |\n"
                f"| raw features | {g['id_test']:.4g} | {g['ood']:.4g} |\n"
                f"| embedding | {report.p:.4g} | {ood_metric:.4g} |\n") in text

    def test_one_id_row_is_too_small_to_validate(self, tmp_path):
        plan = small_plan(tmp_path, detector={"detector": "openmax", "tail": 30,
                                              "quantile": 1e-6})
        with pytest.raises(ValueError) as exc:
            run_experiment(plan)
        assert str(exc.value) == "ID side too small to validate (1 rows < 10)"
        assert exc.value.__notes__ == ["[stage=split]"]

    def test_model_and_report_record_the_plan_seed(self, tmp_path):
        report = run_experiment(small_plan(tmp_path, tcl={"max_epochs": 2}))
        model = json.loads((tmp_path / "run" / "model.json").read_text())
        assert model["config"]["seed"] == report.seed == 5

    def test_temperature_detector_path(self, tmp_path):
        plan = small_plan(
            tmp_path, run_name="temp",
            detector={"detector": "temperature", "quantile": 0.9},
        )
        report = run_experiment(plan)
        assert report.detector == "temperature"
        assert report.constraints["ood_degradation"] >= 0.10

    def test_regression_pipeline(self, tmp_path):
        rng = RngStream(203, 0)
        n, d = 1500, 4
        X = rng.normal(n, d)
        y = X @ np.array([2.0, -1.0, 0.5, 0.0]) + 0.1 * rng.normal(n, 1)[:, 0]
        csv_path = tmp_path / "reg.csv"
        write_regression_csv(csv_path, X, y)
        plan = ExperimentPlan(
            dataset=str(csv_path), target="value", model_name="tcl",
            detector={"detector": "temperature", "quantile": 0.9},
            tcl={"max_epochs": 5}, seed=6,
            out_dir=str(tmp_path / "reg_out"),
        )
        report = run_experiment(plan)
        assert report.task == "regression"
        assert report.metric_name == "rmse"
        assert report.tradeoff == pytest.approx((1.0 / report.p) / report.t_seconds)
        # one sign rule: positive degradation is a larger RMSE on the OOD rows
        g = report.split_grid
        assert g["degradation"] == g["ood"] - g["id_test"]
        assert report.constraints["ood_degradation"] == report.constraints["ood_metric"] - report.p

    @pytest.mark.parametrize("head", ["linear", "logistic"])
    def test_head_must_fit_the_task_before_training(self, tmp_path, head):
        if head == "linear":
            plan = small_plan(tmp_path, head=head)
        else:
            rng = RngStream(204, 0)
            X = rng.normal(300, 3)
            csv_path = tmp_path / "reg.csv"
            write_regression_csv(csv_path, X, 0.5 + X[:, 0] ** 2)  # no negative targets
            plan = small_plan(tmp_path, dataset=str(csv_path), target="value", head=head)
        with pytest.raises(ConfigError, match="does not fit") as exc:
            run_experiment(plan)
        assert "[stage=ingest]" in exc.value.__notes__
        assert os.listdir(plan.out_dir) == []

    def test_stage_failures_name_the_stage(self, tmp_path):
        plan = small_plan(tmp_path, run_name="bad", dataset=str(tmp_path / "missing.csv"))
        with pytest.raises(Exception, match="stage=ingest"):
            run_experiment(plan)

    def test_stage_failure_keeps_the_exception(self, tmp_path):
        plan = small_plan(tmp_path)
        blocker = os.path.join(plan.out_dir, "split")  # a file where the split directory goes
        os.makedirs(plan.out_dir)
        open(blocker, "w").close()
        with pytest.raises(NotADirectoryError) as info:  # making the side directory d_in
            run_experiment(plan)
        assert info.value.errno == errno.ENOTDIR
        assert info.value.filename == os.path.join(blocker, "d_in")
        assert info.value.__notes__ == ["[stage=split]"]


class TestDetect:
    def test_scores_are_looked_up_in_bench(self, tmp_path, monkeypatch):
        # perfbench reads each run's scores by replacing these two names in
        # tabcl.bench, so detect must call them through that module.
        calls = {"openmax_score": 0, "temp_score": 0}
        for name in calls:
            def counted(*args, _name=name, _score=getattr(bench, name)):
                calls[_name] += 1
                return _score(*args)
            monkeypatch.setattr(bench, name, counted)
        ds, _ = shifted_cluster_data(n_id=450, n_ood=50, d=4, seed=205)
        for detector in ("openmax", "temperature"):
            bench.detect(ds, DetectorConfig(detector=detector), 0, tmp_path)
        assert calls == {"openmax_score": 1, "temp_score": 1}

    def test_temperature_calibrates_a_bin_its_fit_part_lacks(self, tmp_path):
        """A 12-row regression table in 10 bins: the backbone is fitted on
        80% of the rows, which lack the top bin, and calibrated on the rest,
        which hold it.  The backbone keeps one output per bin."""
        rng = np.random.default_rng(5)
        X = rng.standard_normal((12, 2))
        ds = Dataset(X, X[:, 0] + 0.1 * rng.standard_normal(12),
                     numeric_schema(2, task="regression"), None)
        bins = ood.discretize_target(ds.labels, bench.DISCRETIZE_BINS)
        as_classes = Dataset(X, bins, numeric_schema(2, classes=tuple("0123456789")), None)
        with pytest.warns(UserWarning, match="splitting unstratified"):
            fit_part, _ = split(as_classes, RngStream(5, STREAMS["calibration"]))
        assert fit_part.labels.max() < bench.DISCRETIZE_BINS - 1
        with pytest.warns(UserWarning, match="splitting unstratified"):
            scores, settings = bench.detect(ds, DetectorConfig(detector="temperature"), 5,
                                            tmp_path)
        assert scores.shape == (12,) and np.isfinite(scores).all()
        assert scores.min() >= -1.0 and scores.max() <= -1.0 / bench.DISCRETIZE_BINS

    def test_more_than_ten_bins_are_named_in_bin_order(self, tmp_path, monkeypatch):
        """Bin names are zero-padded ("00" .. "11"), so they sort as the bins
        do and make a valid class list; "10" would sort before "2"."""
        monkeypatch.setattr(bench, "DISCRETIZE_BINS", 12)
        rng = np.random.default_rng(6)
        X = rng.standard_normal((240, 3))
        ds = Dataset(X, X[:, 0] + 0.1 * rng.standard_normal(240),
                     numeric_schema(3, task="regression"), None)
        scores, _ = bench.detect(ds, DetectorConfig(detector="temperature"), 0, tmp_path)
        assert scores.shape == (240,) and np.isfinite(scores).all()
        assert scores.max() <= -1.0 / 12  # one backbone output per bin


class TestEmitReport:
    def test_json_round_trip(self, tmp_path):
        report = run_experiment(small_plan(tmp_path))
        path = tmp_path / "r.json"
        emit_report(report, "json", path)
        again = BenchReport.from_file(path)
        assert again.to_dict() == report.to_dict()
        assert list(json.loads(path.read_text())) == [
            "model", "dataset", "task", "metric_name", "p", "t_seconds", "tradeoff",
            "split_grid", "constraints", "stage_seconds", "detector", "norm", "threshold",
            "m", "n", "seed",
        ]

    def test_markdown_has_one_table_per_section(self, tmp_path):
        report = run_experiment(small_plan(tmp_path))
        path = tmp_path / "r.md"
        emit_report(report, "markdown", path)
        text = path.read_text()
        sections = text.split("\n## ")[1:]
        assert len(sections) == 3
        for section in sections:
            header_rows = [ln for ln in section.splitlines() if set(ln) <= {"|", "-", " "} and "-" in ln]
            assert len(header_rows) == 1  # exactly one table

    def test_csv_has_full_precision_and_display(self, tmp_path):
        report = run_experiment(small_plan(tmp_path))
        path = tmp_path / "r.csv"
        emit_report(report, "csv", path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "field,value,display"
        row = next(ln for ln in lines if ln.startswith("p,"))
        _, value, display = row.split(",")
        assert float(value) == report.p  # repr round-trips exactly
        assert len(display) <= len(value)

    def test_unknown_format(self, tmp_path):
        report = run_experiment(small_plan(tmp_path))
        with pytest.raises(ValueError):
            emit_report(report, "xml", tmp_path / "r.xml")

    def test_csv_field_with_a_comma_or_a_quote_reads_back_whole(self, tmp_path):
        model, dataset = 'tcl "v2", small', "e/a,b.csv"
        path = tmp_path / "r.csv"
        emit_report(fake_report(model, 0.8, 10.0, dataset=dataset), "csv", path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert {len(row) for row in rows} == {3}
        fields = {row[0]: row[1:] for row in rows}
        assert fields["model"] == [model, model] and fields["dataset"] == [dataset, dataset]

    def test_pipe_in_the_model_name_stays_in_its_cell(self, tmp_path):
        report = fake_report("a|b", 0.8, 10.0, split_grid={"id_test": 0.9, "ood": 0.5},
                             constraints={"ood_metric": 0.5})
        emit_report(report, "markdown", tmp_path / "r.md")
        tables = table_cells((tmp_path / "r.md").read_text())
        assert len(tables) == 3
        assert [row[0] for row in tables[1]] == ["model", "---", r"a\|b"]


def table_cells(text: str) -> list[list[list[str]]]:
    """The markdown tables of ``text``: each a list of rows, each a list of
    the stripped cells between the pipes that are not escaped.  Every row
    of a table has as many cells as its header."""
    tables = []
    for block in text.split("\n\n"):
        rows = [[cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]]
                for line in block.splitlines() if line.startswith("|")]
        if rows:
            assert {len(row) for row in rows} == {len(rows[0])}, rows
            tables.append(rows)
    return tables


def fake_report(model, p, t, task="classification", **kw):
    fields = dict(
        model=model, dataset="d.csv", task=task, metric_name="f1_macro",
        p=p, t_seconds=t, tradeoff=tradeoff(p, t, task),
        split_grid={}, constraints={}, stage_seconds={},
        detector="openmax", norm="l2", threshold=0.5, m=90, n=10, seed=0,
    )
    fields.update(kw)
    return BenchReport(**fields)


class TestCompare:
    def test_published_ordering(self):
        # trade-offs 0.055, 0.0031, 0.00076 rank fastest-best first
        reports = [
            fake_report("ft-t", 0.782, 1027.0),
            fake_report("tcl", 0.831, 15.0),
            fake_report("resnet", 0.652, 210.0),
        ]
        rows = compare_models(reports)
        assert [r["model"] for r in rows] == ["tcl", "resnet", "ft-t"]
        assert rows[0]["tradeoff"] == pytest.approx(0.0554, abs=1e-4)

    def test_single_report_rejected(self):
        with pytest.raises(ValueError):
            compare_models([fake_report("a", 0.5, 10.0)])

    def test_tie_breaks_by_better_metric(self):
        a = fake_report("a", 0.8, 10.0)
        b = fake_report("b", 0.4, 5.0)  # same trade-off 0.08, lower P
        rows = compare_models([a, b])
        assert [r["model"] for r in rows] == ["a", "b"]

    def test_regression_tie_breaks_by_lower_rmse(self):
        a = fake_report("a", 2.0, 5.0, task="regression", metric_name="rmse")
        b = fake_report("b", 1.0, 10.0, task="regression", metric_name="rmse")  # same 0.1
        rows = compare_models([a, b])
        assert [r["model"] for r in rows] == ["b", "a"]

    def test_mixed_tasks_rejected(self):
        f1 = fake_report("f1", 0.5, 10.0)
        rmse = fake_report("rmse", 0.5, 10.0, task="regression", metric_name="rmse")
        with pytest.raises(ValueError, match=r"different tasks: \['classification', 'regression'\]"):
            compare_models([f1, rmse])

    def test_mismatched_splits_rejected(self):
        a = fake_report("a", 0.8, 10.0)
        b = fake_report("b", 0.7, 10.0, threshold=0.9)
        with pytest.raises(ValueError, match="different"):
            compare_models([a, b])

    def test_markdown_rendering(self):
        rows = compare_models([fake_report("a", 0.8, 10.0), fake_report("b", 0.7, 10.0)])
        text = comparison_markdown(rows)
        assert text.splitlines()[0].startswith("| rank |")
        assert "| 1 | a |" in text

    def test_pipe_in_a_model_name_stays_in_its_cell(self):
        rows = compare_models([fake_report("a|b", 0.8, 10.0), fake_report("c", 0.7, 10.0)])
        (table,) = table_cells(comparison_markdown(rows))
        assert [row[1] for row in table] == ["model", "---", r"a\|b", "c"]


class TestBlasThreads:
    """Runs reproduce bit-exactly at a fixed BLAS thread count, not across
    thread counts: for some inner lengths of a matrix product, one and two
    OpenBLAS threads give different bits.  Two runs of one plan at two
    threads write the same bytes."""

    def test_two_runs_at_two_threads_write_the_same_bytes(self, tmp_path):
        ds, _ = shifted_cluster_data(n_id=900, n_ood=100, d=64, seed=202)
        write_classification_csv(tmp_path / "data.csv", ds.features, ds.labels)
        # 950 ID rows make 760 training rows: two batches of 256 and one of
        # 248.  Two views of 248 rows make products of inner length 496,
        # where one and two threads give different models for this plan.
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "dataset": str(tmp_path / "data.csv"), "target": "label", "seed": 3,
            "detector": {"quantile": 0.95}, "tcl": {"max_epochs": 3},
        }))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
               "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        outputs = []
        for name in ("first", "second"):
            subprocess.run([sys.executable, "-m", "tabcl.cli", "report", "--config", str(plan),
                            "--out", str(tmp_path / name)], env=env, check=True,
                           capture_output=True, timeout=300)
            report = json.loads((tmp_path / name / "report.json").read_text())
            assert report["m"] == 950
            metrics = [report[key] for key in ("p", "threshold", "m", "n", "split_grid")]
            outputs.append(((tmp_path / name / "model.json").read_bytes(),
                            json.dumps([*metrics, report["constraints"]["ood_metric"]])))
        assert outputs[0] == outputs[1]
