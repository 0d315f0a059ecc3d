import json
import os

import pytest

from tabcl.artifacts import write_json


def test_failed_write_keeps_the_previous_file(tmp_path):
    path = tmp_path / "a.json"
    write_json(path, {"v": 1})
    with pytest.raises(TypeError):
        write_json(path, {"v": object()})  # fails part-way through the document
    assert json.loads(path.read_text()) == {"v": 1}
    assert os.listdir(tmp_path) == ["a.json"]
