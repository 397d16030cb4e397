import os
from pathlib import Path

import numpy as np
import pytest

from torspec.cutoffs import default_families

# pyproject's pythonpath puts src/ on this process's path; subprocesses that
# run `python -m torspec.cli` inherit it through PYTHONPATH instead.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def families():
    return default_families()


@pytest.fixture(scope="session")
def fam(families):
    return families[0]


@pytest.fixture(scope="session")
def profiles(families):
    return [f.profile for f in families]


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
