import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def stationarity_run():
    """Criterion 05 with its million-step mixing run on the loop fixture.
    The run is the expensive part of the suite, so the criterion and the
    oracle-agreement tests share it."""
    from rollmix import verify

    return verify.run_uniform_stationarity(seed=505, steps=1_000_000, stride=101)


@pytest.fixture(scope="session")
def million_step_trace(stationarity_run):
    return stationarity_run[1]
