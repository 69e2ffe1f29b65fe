"""Helpers shared by the test modules: a child interpreter's environment
and the standard stream, generated once."""
import os
from pathlib import Path

import pytest

import pseudocl
from pseudocl import cli

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def child_env(**changes):
    """os.environ for a child interpreter that imports the pseudocl under
    test, with `changes` set; a change of None removes the variable."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(pseudocl.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    for name, value in changes.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env


@pytest.fixture(scope="session")
def blobs_csv(tmp_path_factory):
    """The CSV that `pseudocl gen-data configs/blobs.cfg` writes, with its
    sidecar; tests read it and write nothing beside it."""
    path = tmp_path_factory.mktemp("blobs") / "data.csv"
    assert cli.main(["gen-data", str(CONFIGS / "blobs.cfg"), str(path)]) == 0
    return path
