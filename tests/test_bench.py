import errno
import json
import os

import numpy as np
import pytest

from tabcl.bench import (
    BenchReport,
    ExperimentPlan,
    compare_models,
    comparison_markdown,
    emit_report,
    resolve_threshold,
    run_experiment,
    tradeoff,
)
from tabcl.exceptions import ConfigError
from tabcl.numerics import RngStream

from conftest import shifted_cluster_data, write_classification_csv, write_regression_csv


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
            '"head": null, "seed": 3, "out_dir": "out", "delta": null, "fractions": [0.8, 0.2]}'
        )

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
        ("fractions", [0.5, 0.6], "summing to 1"),
        ("fractions", [0.0, 1.0], "positive"),
        ("fractions", [0.2, 0.3, 0.5], "two positive"),
        ("fractions", 0.8, "fractions"),
        ("fractions", ["a", "b"], "fractions"),
        ("fractions", ["0.5", "0.5"], "fractions"),
        ("seed", -1, "non-negative integer"),
        ("seed", "3", "non-negative integer"),
        ("seed", True, "non-negative integer"),
        ("task", "clasification", "unknown task"),
        ("task", 1, "unknown task"),
        ("delta", "abc", "delta must be a finite number"),
        ("delta", True, "delta must be a finite number"),
        ("delta", float("nan"), "delta must be a finite number"),
    ])
    def test_bad_field_rejected_when_built(self, field, value, message):
        with pytest.raises(ConfigError, match=message):
            ExperimentPlan.from_dict({"dataset": "d.csv", "target": "y", field: value})

    @pytest.mark.parametrize("detector, message", [
        ({"seed": -1}, "seed must be an integer >= 0"),
        ({"seed": 1.5}, "seed must be an integer >= 0"),
        ({"tail": 1}, "tail must be an integer >= 2"),
        ({"bins": 0}, "bins must be an integer >= 1"),
        ({"quantile": 1.0}, r"quantile must lie in \(0, 1\)"),
        ({"quantile": "0.9"}, r"quantile must lie in \(0, 1\)"),
        ({"norm": "l3"}, "unknown norm"),
    ])
    def test_bad_detector_value_rejected_when_built(self, detector, message):
        with pytest.raises(ConfigError, match=message):
            ExperimentPlan.from_dict({"dataset": "d.csv", "target": "y", "detector": detector})

    @pytest.mark.parametrize("tcl, message", [
        ({"batch_size": 1}, "batch_size must be >= 2"),
        ({"noise": "salt"}, "unknown noise mode"),
        ({"temperature": "hot"}, "bad tcl config"),
    ])
    def test_bad_tcl_value_rejected_when_built(self, tcl, message):
        with pytest.raises(ConfigError, match=message):
            ExperimentPlan.from_dict({"dataset": "d.csv", "target": "y", "tcl": tcl})

    def test_fractions_stored_as_a_float_pair(self):
        plan = ExperimentPlan.from_dict({"dataset": "d.csv", "target": "y",
                                         "fractions": [0.75, 0.25]})
        assert plan.fractions == (0.75, 0.25)


class TestResolveThreshold:
    def test_explicit_threshold_wins(self):
        assert resolve_threshold(np.linspace(0, 1, 11), {"threshold": 0.25}) == 0.25

    def test_default_quantile(self):
        scores = np.linspace(0, 1, 101)
        assert resolve_threshold(scores, {}) == pytest.approx(0.95)

    def test_bad_quantile(self):
        with pytest.raises(ConfigError):
            resolve_threshold(np.zeros(5), {"quantile": 1.5})


def small_plan(tmp_path, run_name="run", **overrides):
    ds, _ = shifted_cluster_data(n_id=900, n_ood=100, d=4, seed=202)
    csv_path = tmp_path / "data.csv"
    write_classification_csv(csv_path, ds.features, ds.labels)
    defaults = dict(
        dataset=str(csv_path),
        target="label",
        model_name="tcl",
        detector={"detector": "openmax", "norm": "l2", "tail": 30, "quantile": 0.9},
        tcl={"max_epochs": 8, "batch_size": 128},
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

    def test_tcl_seed_overrides_plan_seed(self, tmp_path):
        run_experiment(small_plan(tmp_path, tcl={"max_epochs": 2, "batch_size": 128, "seed": 9}))
        model = json.loads((tmp_path / "run" / "model.json").read_text())
        assert model["config"]["seed"] == 9

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
            tcl={"max_epochs": 5, "batch_size": 128}, seed=6,
            out_dir=str(tmp_path / "reg_out"),
        )
        report = run_experiment(plan)
        assert report.task == "regression"
        assert report.metric_name == "rmse"
        assert report.tradeoff == pytest.approx((1.0 / report.p) / report.t_seconds)

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
        with pytest.raises(FileExistsError) as info:
            run_experiment(plan)
        assert info.value.errno == errno.EEXIST
        assert info.value.filename == blocker
        assert info.value.__notes__ == ["[stage=split]"]


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
