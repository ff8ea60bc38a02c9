"""Shared test setup."""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True, scope="session")
def _package_importable_in_subprocesses():
    # pyproject's ``pythonpath`` puts src/ on this process's sys.path only;
    # CLI tests that start ``python -m cbmap.cli`` need it in PYTHONPATH too.
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        yield
