import re
from pathlib import Path

import pytest

import qnetcap

tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11


def requirement_names(requirements):
    return sorted(re.match(r"[A-Za-z0-9_.-]+", r).group(0).lower() for r in requirements)


def test_runtime_needs_numpy_only_and_tests_add_scipy():
    text = (Path(qnetcap.__file__).parents[2] / "pyproject.toml").read_text()
    project = tomllib.loads(text)["project"]
    assert requirement_names(project["dependencies"]) == ["numpy"]
    assert requirement_names(project["optional-dependencies"]["test"]) == ["pytest", "scipy"]
