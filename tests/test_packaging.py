"""The package metadata in pyproject.toml matches what the code needs."""

import importlib
import re
import tomllib
from pathlib import Path

import pytest

PROJECT = tomllib.loads(
    (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
)["project"]


@pytest.mark.parametrize("name, target", sorted(PROJECT["scripts"].items()))
def test_entry_points_resolve(name, target):
    module, _, attr = target.partition(":")
    assert callable(getattr(importlib.import_module(module), attr)), name


@pytest.mark.parametrize("requirement", PROJECT["dependencies"])
def test_required_dependencies_import(requirement):
    # every required distribution here imports under its own name
    name = re.match(r"[A-Za-z0-9_.-]+", requirement).group(0)
    importlib.import_module(name.replace("-", "_"))
