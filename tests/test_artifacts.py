import json
import os

import numpy as np
import pytest

from tabcl import bench, contrastive, data, heads
from tabcl.artifacts import write_json
from tabcl.data import Dataset
from tabcl.numerics import RngStream

from conftest import numeric_schema


def test_failed_write_keeps_the_previous_file(tmp_path):
    path = tmp_path / "a.json"
    write_json(path, {"v": 1})
    with pytest.raises(TypeError):
        write_json(path, {"v": object()})  # fails part-way through the document
    assert json.loads(path.read_text()) == {"v": 1}
    assert os.listdir(tmp_path) == ["a.json"]


@pytest.fixture
def payloads(monkeypatch):
    """Every (file name, payload, indent) the savers hand to write_json."""
    seen = []

    def record(path, payload, indent=None):
        seen.append((os.path.basename(path), payload, indent))

    for module in (bench, contrastive, data, heads):
        monkeypatch.setattr(module, "write_json", record)
    return seen


def test_write_json_bytes_match_json_dump(tmp_path, payloads):
    rng = RngStream(3, 0)
    ds = Dataset(rng.normal(60, 24), (np.arange(60) % 3).astype(np.int64), numeric_schema(24), None)
    bench.train(ds, {"max_epochs": 2}, 0, tmp_path)  # a model at input_dim 24 and its trace
    heads.save_head(heads.fit_logistic(ds.features, ds.labels), tmp_path / "head.json")
    bench.save_scores(tmp_path / "scores.json", rng.normal(60, 1)[:, 0],
                      {"detector": "openmax", "norm": "l2", "tail": 20, "seed": 0})
    data.save_dataset(ds, tmp_path / "ds")
    payloads.append(("edge values", {
        "floats": [float("nan"), float("-inf"), -0.0, 5e-324, 1e16, 1 / 3],
        "text": "caf\u00e9 \u2028 \U0001f600 \"q\"\n", "none": None, "nested": {"t": [True, False]},
    }, 1))
    names = [name for name, _, _ in payloads]
    assert names == ["model.json", "trace.json", "head.json", "scores.json", "meta.json",
                     "edge values"]
    for name, payload, indent in payloads:
        write_json(tmp_path / "new.json", payload, indent)
        with open(tmp_path / "old.json", "w", encoding="utf-8", newline="") as fh:
            json.dump(payload, fh, indent=indent)
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes(), name
