"""The Energy Optimizer Unit (Sections 3.2 and 4.4).

The EOU is an array of Energy Evaluation Units, one per SLIP. Each EEU
holds the fixed-point coefficient vector of its SLIP (Equation 5) and,
given a reuse-distance distribution, computes a dot product against the
*raw* low-precision bin counters — normalization does not change the
argmin, so the hardware never divides. A comparator tree then picks the
minimum-energy SLIP, with ties resolved toward the lower SLIP id.

The synthesized unit in the paper takes 2 cycles per optimization at
2.4 GHz, is fully pipelined, and consumes 1.27 pJ per operation; those
costs are charged through :class:`EouStats`.

The software EOU memoizes its argmin: with B-bit counters and K+1 bins
the input space holds at most ``2**(B*(K+1))`` distinct counter tuples
(4-bit counters x <=5 bins in the evaluation), times two flags
(``allow_abp`` and the bypass-evidence gate), so every recomputation
after the first for a given key is a dict probe. The cache can never go
stale: coefficients, the SLIP space and the evidence floor are all
fixed at construction, and both inputs that vary are part of the key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .distribution import DEFAULT_WARM_SAMPLES, ReuseDistanceDistribution
from .energy_model import SlipEnergyModel

EOU_LATENCY_CYCLES = 2


@dataclass
class EouStats:
    """Cost accounting for EOU invocations.

    ``energy_pj`` is a materialized product, not an accumulated float:
    the hot path only bumps the integer ``optimizations`` counter and
    the published energy is always ``optimizations * energy_pj_per_op``
    exactly — the same deferred-accounting rule the cache levels follow
    (one rounding, independent of invocation count).
    """

    optimizations: int = 0
    tlb_block_cycles: int = 0
    energy_pj_per_op: float = 1.27

    @property
    def energy_pj(self) -> float:
        return self.optimizations * self.energy_pj_per_op


class EnergyEvaluationUnit:
    """One EEU: a fixed-point dot-product engine for one SLIP."""

    __slots__ = ("slip_id", "coefficients")

    def __init__(self, slip_id: int, coefficients: Sequence[int]) -> None:
        self.slip_id = slip_id
        self.coefficients = tuple(coefficients)

    def evaluate(self, counts: Sequence[int]) -> int:
        """Integer energy estimate: dot(alpha_fixed, raw counters)."""
        if len(counts) != len(self.coefficients):
            raise ValueError("bin count mismatch")
        return sum(a * c for a, c in zip(self.coefficients, counts))


class EnergyOptimizerUnit:
    """The full EOU: EEU array plus min-select (Figure 8)."""

    def __init__(self, model: SlipEnergyModel,
                 energy_pj_per_op: float = 1.27,
                 min_abp_samples: int = 0) -> None:
        """``min_abp_samples``: evidence floor for choosing the ABP.

        Full bypass is the one policy whose mistake cost is a next-level
        access *per reference*; at an LLC backed by DRAM that breaks
        even near a 1% hit rate, so the optimizer refuses to bypass
        until the sampling period has gathered this many samples.
        """
        self.model = model
        self.space = model.space
        self.energy_pj_per_op = energy_pj_per_op
        self.min_abp_samples = min_abp_samples
        quantized = model.quantized_alphas()
        self.eeus: List[EnergyEvaluationUnit] = [
            EnergyEvaluationUnit(slip_id, alpha)
            for slip_id, alpha in enumerate(quantized)
        ]
        # EEUs eligible under each (allow_abp, confident) combination;
        # the filtering inside the argmin loop never changes, so it is
        # hoisted out of it entirely.
        space = self.space
        num_sublevels = space.num_sublevels
        self._eligible: Dict[Tuple[bool, bool],
                             Tuple[EnergyEvaluationUnit, ...]] = {}
        for allow_abp in (False, True):
            for confident in (False, True):
                self._eligible[(allow_abp, confident)] = tuple(
                    eeu for eeu in self.eeus
                    if (allow_abp or eeu.slip_id != space.abp_id)
                    and (confident
                         or space.slips[eeu.slip_id].num_sublevels_used
                         >= num_sublevels)
                )
        # argmin memo: (counts tuple, allow_abp, confident) -> SLIP id.
        self._memo: Dict[Tuple[Tuple[int, ...], bool, bool], int] = {}
        self.stats = EouStats(energy_pj_per_op=energy_pj_per_op)

    def reset_stats(self) -> None:
        """Fresh counters; the argmin memo stays (it is input-pure)."""
        self.stats = EouStats(energy_pj_per_op=self.energy_pj_per_op)

    def optimize(self, distribution: ReuseDistanceDistribution,
                 allow_abp: bool = True,
                 evidence_samples: Optional[int] = None) -> int:
        """Minimum-energy SLIP id for a distribution's raw counters.

        ``allow_abp=False`` supports inclusive last-level caches, where
        bypassing the LLC would break inclusion (Section 4.3).
        ``evidence_samples`` is the number of samples gathered in the
        current sampling period, checked against ``min_abp_samples``;
        None means "plenty" (trust the distribution alone).
        """
        stats = self.stats
        stats.optimizations += 1
        stats.tlb_block_cycles += 1
        key = (
            tuple(distribution.counts),
            allow_abp,
            evidence_samples is None
            or evidence_samples >= self.min_abp_samples,
        )
        slip_id = self._memo.get(key)
        if slip_id is None:
            slip_id = self._memo[key] = self._argmin(*key)
        return slip_id

    def optimize_direct(self, distribution: ReuseDistanceDistribution,
                        allow_abp: bool = True,
                        evidence_samples: Optional[int] = None) -> int:
        """The un-memoized argmin, bypassing the cache and the stats.

        Used by the memoization-equivalence tests (a memo hit must
        equal a fresh argmin).
        """
        return self._argmin(
            tuple(distribution.counts),
            allow_abp,
            evidence_samples is None
            or evidence_samples >= self.min_abp_samples,
        )

    def _argmin(self, counts: Tuple[int, ...], allow_abp: bool,
                confident: bool) -> int:
        """Comparator tree over the eligible EEUs; pure in its inputs."""
        # Cold distribution: behave exactly like a cache without SLIP.
        if sum(counts) < DEFAULT_WARM_SAMPLES:
            return self.space.default_id
        best_id, best_energy = None, None
        for eeu in self._eligible[(allow_abp, confident)]:
            # Thin evidence already filtered capacity-discarding
            # policies (full or partial bypass) out of the pool. The
            # fixed-point products are integers; exact in any order.
            energy = sum(a * c for a, c in zip(eeu.coefficients, counts))
            if best_energy is None or energy < best_energy:
                best_id, best_energy = eeu.slip_id, energy
        assert best_id is not None
        return best_id

    def optimize_float(self, distribution: ReuseDistanceDistribution,
                       allow_abp: bool = True) -> int:
        """Float reference optimizer (no fixed-point quantization)."""
        if not distribution.is_warm():
            return self.space.default_id
        return self.model.best_slip(
            distribution.probabilities(), allow_abp=allow_abp
        )
