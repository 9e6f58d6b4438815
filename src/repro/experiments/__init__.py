"""Experiment harness: one module per paper table/figure + ablations.

See :mod:`repro.experiments.runner` for the CLI, or call each module's
``run(settings)`` directly; every figure and ablation gets its results
through one process-wide memo
(:func:`repro.experiments.parallel.run_cells`), so a cell two
experiments share is simulated once.
"""

from .common import ALL_POLICIES, ExperimentSettings, Table

__all__ = ["ALL_POLICIES", "ExperimentSettings", "Table"]
