"""System configuration (Tables 1 and 2) and the simulation drivers.

Only the configuration types are re-exported here. The drivers live in
their submodules (:mod:`repro.sim.single_core`,
:mod:`repro.sim.multi_core`) and are re-exported by the top-level
:mod:`repro` package; importing them here would cycle, because they
pull in :mod:`repro.core`, which itself depends on
:mod:`repro.sim.config`.
"""

from .config import (
    CacheLevelConfig,
    CoreConfig,
    DramConfig,
    SlipParams,
    SystemConfig,
    default_l2,
    default_l3,
    default_system,
)

__all__ = [
    "CacheLevelConfig",
    "CoreConfig",
    "DramConfig",
    "SlipParams",
    "SystemConfig",
    "default_l2",
    "default_l3",
    "default_system",
]
