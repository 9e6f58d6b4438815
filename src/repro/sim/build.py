"""Assemble a memory hierarchy for each evaluated policy.

Policy names follow the paper's figures:

* ``baseline``  — regular cache hierarchy (insert anywhere, never move);
* ``nurapid``   — NuRAPID with d-groups equal to the SLIP sublevels;
* ``lru_pea``   — LRU-PEA with bankclusters equal to the SLIP sublevels;
* ``slip``      — SLIP without the All-Bypass Policy in the pool;
* ``slip_abp``  — SLIP with ABP (the paper's headline configuration).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..core.controller import SlipPlacement
from ..core.energy_model import LevelEnergyParams
from ..core.runtime import BaselineRuntime, SlipRuntime
from ..mem.hierarchy import MemoryHierarchy
from ..mem.replacement import make_replacement
from ..policies.baseline import BaselinePlacement
from ..policies.lru_pea import LruPeaPlacement, PeaLruReplacement
from ..policies.nurapid import NurapidPlacement
from .config import SystemConfig

POLICY_NAMES: Tuple[str, ...] = (
    "baseline", "nurapid", "lru_pea", "slip", "slip_abp",
)

#: Which MMU runtime each policy builds. Policies sharing a kind also
#: share a policy-invariant front end (TLB behaviour and L1 leg), which
#: is what :mod:`repro.sim.filtered` exploits to capture it once.
RUNTIME_KINDS: Dict[str, str] = {
    "baseline": "baseline",
    "nurapid": "baseline",
    "lru_pea": "baseline",
    "slip": "slip",
    "slip_abp": "slip",
}


def runtime_kind(policy: str) -> str:
    """``"baseline"`` or ``"slip"`` for a known policy name."""
    try:
        return RUNTIME_KINDS[policy.lower()]
    except KeyError:
        raise ValueError(
            f"unknown policy {policy!r}; expected one of {POLICY_NAMES}"
        ) from None


def maybe_boost_sampler(runtime) -> bool:
    """Apply the short-trace warmup sampling boost to a SLIP runtime.

    Scale compensation: our traces are ~1000x shorter than the paper's
    500M-instruction SimPoints, so with Nsamp=16/Nstab=256 most pages
    would never finish learning. Scaling both by 8 (to 2/32) shortens
    the page-learning timescale while keeping the distribution-fetch
    fraction Nsamp/(Nsamp+Nstab) at the paper's 5.9% exactly, so
    metadata-traffic results stay faithful. The driver applies it to
    every core's runtime, whether the cell walks or replays. Returns True
    when the boost was applied.
    """
    if not getattr(runtime, "slip_enabled", False):
        return False
    sampler = runtime.sampler
    sampler.nsamp, sampler.nstab = 2, 32
    return True


def build_hierarchy(
    config: SystemConfig,
    policy: str,
    seed: int = 0,
    replacement: str = "lru",
    level_energy_overrides: Optional[Dict[str, LevelEnergyParams]] = None,
    always_sample: bool = False,
) -> MemoryHierarchy:
    """A single-core hierarchy running the named policy."""
    policy = policy.lower()
    mq_pj = config.slip.movement_queue_lookup_pj

    if policy == "baseline":
        return MemoryHierarchy(
            config,
            l2_placement=BaselinePlacement(),
            l3_placement=BaselinePlacement(),
            runtime=BaselineRuntime(config),
            l2_replacement=make_replacement(replacement, seed),
            l3_replacement=make_replacement(replacement, seed + 1),
        )

    if policy == "nurapid":
        return MemoryHierarchy(
            config,
            l2_placement=NurapidPlacement(mq_pj),
            l3_placement=NurapidPlacement(mq_pj),
            runtime=BaselineRuntime(config),
            l2_replacement=make_replacement(replacement, seed),
            l3_replacement=make_replacement(replacement, seed + 1),
        )

    if policy == "lru_pea":
        return MemoryHierarchy(
            config,
            l2_placement=LruPeaPlacement(mq_pj, seed=seed),
            l3_placement=LruPeaPlacement(mq_pj, seed=seed + 1),
            runtime=BaselineRuntime(config),
            l2_replacement=PeaLruReplacement(),
            l3_replacement=PeaLruReplacement(),
        )

    if policy in ("slip", "slip_abp"):
        runtime = SlipRuntime(
            config,
            allow_abp=(policy == "slip_abp"),
            seed=seed,
            level_energy_overrides=level_energy_overrides,
            always_sample=always_sample,
        )
        return MemoryHierarchy(
            config,
            l2_placement=SlipPlacement(runtime.spaces["L2"], runtime, mq_pj),
            l3_placement=SlipPlacement(runtime.spaces["L3"], runtime, mq_pj),
            runtime=runtime,
            l2_replacement=make_replacement(replacement, seed),
            l3_replacement=make_replacement(replacement, seed + 1),
            track_slip_metadata_energy=True,
        )

    raise ValueError(
        f"unknown policy {policy!r}; expected one of {POLICY_NAMES}"
    )
