"""The package metadata in pyproject.toml matches what the code needs."""

import importlib
import re
import shutil
import subprocess
import sys
import tarfile
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


def test_sdist_ships_the_bundled_listings(tmp_path):
    # build from a copy, so the build's egg-info stays out of the tree
    root = Path(__file__).resolve().parents[1]
    copy = tmp_path / "copy"
    shutil.copytree(root / "src", copy / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copy(root / "pyproject.toml", copy)
    built = subprocess.run(
        [sys.executable, "-c",
         "import sys; from setuptools import build_meta; "
         "print(build_meta.build_sdist(sys.argv[1]))", str(tmp_path / "dist")],
        cwd=copy, capture_output=True, text=True, check=True)
    sdist = tmp_path / "dist" / built.stdout.split()[-1]
    with tarfile.open(sdist) as tar:
        shipped = {Path(name).name for name in tar.getnames()
                   if Path(name).parent.as_posix().endswith("src/polyproj/data")}
    bundled = {p.name for p in (root / "src" / "polyproj" / "data").iterdir()}
    assert bundled and shipped == bundled
