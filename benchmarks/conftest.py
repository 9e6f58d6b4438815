"""Benchmark-suite configuration.

Every bench regenerates one of the paper's tables or figures and prints
it (run with ``-s`` to see them). Scale is controlled by the
``REPRO_BENCH_LENGTH`` environment variable (default 80k accesses per
benchmark — minutes, not hours; the committed EXPERIMENTS.md numbers use
300k+). Benches read their cells through the experiments' one
process-wide memo, so the first figure bench pays for the simulations
and the rest reuse them.
"""

import os

import pytest

from repro.experiments.common import ExperimentSettings

BENCH_LENGTH = int(os.environ.get("REPRO_BENCH_LENGTH", 80_000))


@pytest.fixture(scope="session")
def settings() -> ExperimentSettings:
    return ExperimentSettings(length=BENCH_LENGTH, seed=0)
