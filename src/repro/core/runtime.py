"""SLIP runtime state: page table, TLB interaction and EOU invocation.

This is the software-visible half of Figure 7. The runtime owns the
per-page metadata (PTE policy bits, sampling state, packed reuse
distributions), decides on each TLB miss which metadata lines must be
fetched through the hierarchy, re-draws the page state, and re-runs the
EOU when a page settles into the stable state. Placement controllers
query it for the SLIP of a page and feed reuse-distance samples back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..mem.tlb import (
    LruKeys,
    Tlb,
    distribution_line_address,
    pte_line_address,
)
from ..sim.config import SystemConfig, line_to_page_shift
from .distribution import ReuseDistanceDistribution
from .energy_model import LevelEnergyParams, SlipEnergyModel
from .eou import EnergyOptimizerUnit
from .policy import SlipSpace
from .sampling import PageState, TimeBasedSampler


class SlipPageEntry:
    """Per-page metadata: 6 b policy + state bit in the PTE, 32 b in DRAM.

    ``sampling_visits`` counts TLB misses observed while sampling (a
    2-bit hardware counter): a page may only stabilize after two such
    visits, so the profile always includes at least one *re*-visit —
    otherwise a single cold sweep of the page would lock in a bypassing
    policy before any of its reuse could be observed.
    """

    __slots__ = ("state", "policies", "distributions", "sampling_visits",
                 "period_samples")

    def __init__(self, state: PageState,
                 policies: Dict[str, int],
                 distributions: Dict[str, ReuseDistanceDistribution]) -> None:
        self.state = state
        self.policies = policies
        self.distributions = distributions
        self.sampling_visits = 0
        # Samples gathered in the current sampling period (6-bit
        # saturating counter); the bypass evidence floor reads this.
        self.period_samples = 0


@dataclass
class RuntimeStats:
    tlb_miss_fetches: int = 0
    distribution_fetches: int = 0
    policy_recomputations: int = 0
    state_transitions_to_stable: int = 0
    state_transitions_to_sampling: int = 0


#: Shared "nothing to fetch" result for the TLB-hit case — the common
#: outcome of every demand access. Callers only iterate it; never
#: mutate.
_NO_FETCHES: List[int] = []


class BaselineRuntime:
    """MMU runtime for non-SLIP systems: TLB plus plain PTE fetches."""

    slip_enabled = False

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.tlb = Tlb(config.tlb_entries)
        self.stats = RuntimeStats()

    def on_demand_access(self, page: int) -> List[int]:
        """Returns metadata line addresses to fetch (empty on TLB hit)."""
        if self.tlb.access(page):
            return _NO_FETCHES
        self.stats.tlb_miss_fetches += 1
        return [pte_line_address(page)]

    def profile_key(self, page: int, line_addr: int) -> int:
        """The key profiles/policies are stored under (page here)."""
        return page

    def on_reference(self, page: int, line_addr: int) -> List[int]:
        """Per-access metadata hook; baseline only consults the TLB.

        Mirrors :meth:`on_demand_access` (with the TLB hit probe
        inlined) rather than delegating to it: this runs once per
        simulated access and each frame shows up in profiles.
        """
        tlb = self.tlb
        pages = tlb._keys
        if page in pages:
            pages.move_to_end(page)
            tlb.stats.hits += 1
            return _NO_FETCHES
        if not tlb.access(page):
            self.stats.tlb_miss_fetches += 1
            return [pte_line_address(page)]
        return _NO_FETCHES  # pragma: no cover — access() saw a hit

    def extra_stall_cycles(self) -> int:
        return 0


class SlipRuntime(BaselineRuntime):
    """MMU runtime with SLIP page metadata and EOUs for L2 and L3."""

    slip_enabled = True

    def __init__(self, config: SystemConfig, allow_abp: bool = True,
                 seed: int = 0,
                 level_energy_overrides: Optional[
                     Dict[str, LevelEnergyParams]] = None,
                 always_sample: bool = False) -> None:
        """``always_sample=True`` disables time-based sampling: the
        distribution is fetched and the policy recomputed on *every* TLB
        miss, reproducing the high-metadata-traffic design that
        motivates Section 4.2 (27% extra L2 traffic on xalancbmk)."""
        super().__init__(config)
        self.allow_abp = allow_abp
        self.always_sample = always_sample
        self.sampler = TimeBasedSampler(
            config.slip.nsamp, config.slip.nstab, seed=seed
        )
        # Section 7 extension: rd-blocks smaller than a page. Profiles
        # and policies are then keyed by block and cached in a TLB-like
        # SLIP-cache; the paper's evaluation default (0) keys by page.
        block_lines = config.slip.rd_block_lines
        if block_lines:
            if block_lines & (block_lines - 1):
                raise ValueError("rd_block_lines must be a power of two")
            if block_lines > config.lines_per_page:
                raise ValueError("rd-blocks cannot exceed a page")
            self.block_shift: Optional[int] = block_lines.bit_length() - 1
            self.slip_cache: Optional[LruKeys] = LruKeys(
                config.slip.slip_cache_entries
            )
        else:
            self.block_shift = None
            self.slip_cache = None
        #: Right shift from a line address to its profile key.
        self.key_shift = (line_to_page_shift(config.lines_per_page)
                          if self.block_shift is None else self.block_shift)
        self.spaces: Dict[str, SlipSpace] = {}
        self.models: Dict[str, SlipEnergyModel] = {}
        self.eous: Dict[str, EnergyOptimizerUnit] = {}
        overrides = level_energy_overrides or {}
        for level_cfg, next_energy in (
            (config.l2, config.l3.average_access_energy_pj()),
            (config.l3, config.dram.energy_pj_per_line),
        ):
            space = SlipSpace(
                level_cfg.sublevel_ways,
                tuple(
                    level_cfg.sublevel_capacity_lines(i)
                    for i in range(level_cfg.num_sublevels)
                ),
            )
            params = overrides.get(level_cfg.name) or LevelEnergyParams(
                sublevel_capacity_lines=tuple(
                    level_cfg.sublevel_capacity_lines(i)
                    for i in range(level_cfg.num_sublevels)
                ),
                sublevel_energy_pj=level_cfg.sublevel_energy_pj,
                next_level_energy_pj=next_energy,
                include_insertion_energy=config.slip.include_insertion_energy,
            )
            model = SlipEnergyModel(space, params)
            self.spaces[level_cfg.name] = space
            self.models[level_cfg.name] = model
            self.eous[level_cfg.name] = EnergyOptimizerUnit(
                model,
                config.slip.eou_energy_pj,
                min_abp_samples=(
                    config.slip.l3_abp_min_samples
                    if level_cfg.name == "L3" else 0
                ),
            )
        self.pages: Dict[int, SlipPageEntry] = {}
        # Hot-path tables: one distribution per (page, level) is built
        # on first touch and every demand access queries the page's
        # policy, so the per-level constants are resolved once here
        # rather than per page / per access.
        bits = config.slip.bin_bits
        counter_max = (1 << bits) - 1
        self._dist_protos: Tuple[Tuple[str, Tuple[int, ...], int], ...] = \
            tuple(
                (name, self._boundaries(name),
                 len(self._boundaries(name)) + 1)
                for name in self.spaces
            )
        self._counter_max = counter_max
        self._default_ids: Dict[str, int] = {
            name: space.default_id for name, space in self.spaces.items()
        }

    # ------------------------------------------------------------------
    # Page metadata lifecycle
    # ------------------------------------------------------------------
    def _new_entry(self) -> SlipPageEntry:
        # ``ReuseDistanceDistribution.fresh`` unrolled: one entry is
        # built per first-touched page and the classmethod dispatch per
        # level is measurable on the sampling path.
        counter_max = self._counter_max
        cls = ReuseDistanceDistribution
        new = cls.__new__
        distributions = {}
        for name, boundaries, num_bins in self._dist_protos:
            dist = new(cls)
            dist.boundaries = boundaries
            dist.counter_max = counter_max
            dist.counts = [0] * num_bins
            distributions[name] = dist
        return SlipPageEntry(
            self.sampler.initial_state(), dict(self._default_ids),
            distributions,
        )

    def _boundaries(self, level_name: str) -> Tuple[int, ...]:
        caps = self.spaces[level_name].sublevel_capacity_lines
        out, total = [], 0
        for cap in caps:
            total += cap
            out.append(total)
        return tuple(out)

    def entry_for(self, page: int) -> SlipPageEntry:
        entry = self.pages.get(page)
        if entry is None:
            entry = self._new_entry()
            self.pages[page] = entry
        return entry

    # ------------------------------------------------------------------
    # TLB-miss path (Figure 7, steps 1-4)
    # ------------------------------------------------------------------
    def profile_key(self, page: int, line_addr: int) -> int:
        if self.block_shift is None:
            return page
        return line_addr >> self.block_shift

    def on_reference(self, page: int, line_addr: int) -> List[int]:
        """TLB handling plus (in rd-block mode) SLIP-cache handling.

        The page-grain path mirrors ``BaselineRuntime.on_reference``
        (TLB-hit probe inlined) rather than delegating to
        :meth:`on_demand_access`: this runs once per simulated access
        and the two call frames show up in profiles.
        """
        if self.block_shift is None:
            tlb = self.tlb
            pages = tlb._keys
            if page in pages:
                pages.move_to_end(page)
                tlb.stats.hits += 1
                return _NO_FETCHES
            if not tlb.access(page):
                self.stats.tlb_miss_fetches += 1
                return [pte_line_address(page)] \
                    + self._key_metadata_fetches(page)
            return _NO_FETCHES  # pragma: no cover — access() saw a hit
        fetches = []
        if not self.tlb.access(page):
            self.stats.tlb_miss_fetches += 1
            fetches.append(pte_line_address(page))
        key = line_addr >> self.block_shift
        assert self.slip_cache is not None
        if not self.slip_cache.access(key):
            fetches.extend(self._key_metadata_fetches(key))
        return fetches

    def on_demand_access(self, page: int) -> List[int]:
        if self.tlb.access(page):
            return _NO_FETCHES
        self.stats.tlb_miss_fetches += 1
        return [pte_line_address(page)] + self._key_metadata_fetches(page)

    def _key_metadata_fetches(self, page: int) -> List[int]:
        """Distribution fetch + state machine for one profile key."""
        fetches: List[int] = []
        entry = self.entry_for(page)
        if self.always_sample:
            # No time-based sampling: fetch the distribution and refresh
            # the policy on every TLB miss.
            fetches.append(distribution_line_address(page))
            self.stats.distribution_fetches += 1
            if self._is_warm(entry):
                self._recompute_policies(entry)
            entry.state = PageState.STABLE
            return fetches
        was_sampling = entry.state is PageState.SAMPLING
        if was_sampling:
            # The distribution is only loaded for sampling pages.
            fetches.append(distribution_line_address(page))
            self.stats.distribution_fetches += 1
            if entry.sampling_visits < 3:
                entry.sampling_visits += 1
        new_state = self.sampler.transition(entry.state)
        if was_sampling and new_state is PageState.STABLE:
            if entry.sampling_visits < 2 or not self._is_warm(entry):
                # Don't freeze a policy off an empty or single-visit
                # profile: keep sampling until a re-visit has had the
                # chance to record the page's reuse.
                new_state = PageState.SAMPLING
            else:
                self._recompute_policies(entry)
                self.stats.state_transitions_to_stable += 1
                entry.sampling_visits = 0
                entry.period_samples = 0
        elif not was_sampling and new_state is PageState.SAMPLING:
            self.stats.state_transitions_to_sampling += 1
            entry.sampling_visits = 0
            entry.period_samples = 0
        entry.state = new_state
        return fetches

    #: Samples a page must accumulate before its profile may freeze.
    #: With the paper's Nsamp=16 a page observes many separate visits
    #: while sampling; this floor keeps that property when simulations
    #: accelerate state transitions — a single 4-line cluster touch must
    #: not lock in a bypassing policy, while a full 64-access streaming
    #: sweep of the page (whose counters plateau at 8 after halving) is
    #: decisive evidence.
    MIN_SAMPLES_TO_STABILIZE = 8

    def _is_warm(self, entry: SlipPageEntry) -> bool:
        # A page whose lines always hit in L2 never produces L3 samples,
        # so one warm level is enough to trust the profile.
        return any(
            dist.is_warm(self.MIN_SAMPLES_TO_STABILIZE)
            for dist in entry.distributions.values()
        )

    def _recompute_policies(self, entry: SlipPageEntry) -> None:
        for name, eou in self.eous.items():
            entry.policies[name] = eou.optimize(
                entry.distributions[name],
                allow_abp=self.allow_abp,
                evidence_samples=entry.period_samples,
            )
        self.stats.policy_recomputations += 1

    # ------------------------------------------------------------------
    # Queries from the cache controllers
    # ------------------------------------------------------------------
    def policy_for(self, level_name: str, page: int) -> int:
        """SLIP id steering insertions of this page's lines at a level.

        Sampling pages use the Default SLIP so that their full reuse
        behaviour remains observable (Section 4.2).
        """
        entry = self.pages.get(page)
        if entry is None or entry.state is PageState.SAMPLING:
            return self._default_ids[level_name]
        return entry.policies[level_name]

    def is_sampling(self, page: int) -> bool:
        if self.always_sample:
            return self.pages.get(page) is not None
        entry = self.pages.get(page)
        return entry is not None and entry.state is PageState.SAMPLING

    # ------------------------------------------------------------------
    # Reuse-distance sample collection (Figure 7, step 5)
    # ------------------------------------------------------------------
    def _collecting(self, entry: Optional[SlipPageEntry]) -> bool:
        if entry is None:
            return False
        return self.always_sample or entry.state is PageState.SAMPLING

    def record_reuse(self, level_name: str, page: int,
                     reuse_distance: int) -> None:
        # _collecting() inlined: this runs once per sampled hit.
        entry = self.pages.get(page)
        if entry is not None and (
            self.always_sample or entry.state is PageState.SAMPLING
        ):
            entry.distributions[level_name].record(reuse_distance)
            if entry.period_samples < 63:
                entry.period_samples += 1

    def record_miss_sample(self, level_name: str, page: int) -> None:
        # _collecting() inlined: this runs once per L2/L3 demand miss.
        entry = self.pages.get(page)
        if entry is not None and (
            self.always_sample or entry.state is PageState.SAMPLING
        ):
            entry.distributions[level_name].record_miss()
            if entry.period_samples < 63:
                entry.period_samples += 1

    # ------------------------------------------------------------------
    # Cost roll-ups
    # ------------------------------------------------------------------
    def eou_energy_pj(self, level_name: str) -> float:
        return self.eous[level_name].stats.energy_pj

    def extra_stall_cycles(self) -> int:
        """TLB blocks one cycle whenever a page's SLIP is updated."""
        return sum(
            eou.stats.tlb_block_cycles for eou in self.eous.values()
        )


class RoutedSlipRuntime:
    """Routes shared-L3 SLIP queries to the owning core's runtime.

    ``runtimes[c]`` answers for every profile key whose top bits,
    ``key >> key_shift``, name core ``c`` (see
    :func:`repro.sim.multi_core.core_key_shift`).
    """

    slip_enabled = True

    def __init__(self, runtimes: List[SlipRuntime],
                 key_shift: int) -> None:
        self.runtimes = runtimes
        self._key_shift = key_shift

    def _owner(self, page: int) -> SlipRuntime:
        return self.runtimes[page >> self._key_shift]

    def policy_for(self, level_name: str, page: int) -> int:
        return self._owner(page).policy_for(level_name, page)

    def is_sampling(self, page: int) -> bool:
        return self._owner(page).is_sampling(page)

    def record_reuse(self, level_name: str, page: int,
                     reuse_distance: int) -> None:
        self._owner(page).record_reuse(level_name, page, reuse_distance)

    def record_miss_sample(self, level_name: str, page: int) -> None:
        self._owner(page).record_miss_sample(level_name, page)
