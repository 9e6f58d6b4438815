"""The SLIP analytical energy model (Section 3.2, Equations 1-5).

For a line with reuse-distance distribution P and a SLIP with chunks
G0..G(M-1), the expected energy per access is::

    E = sum_m  E_m * P(CC_{m-1} <= d < CC_m)          (access,   Eq. 3)
      + sum_m (E_m + E_{m+1}) * P(d > CC_m)           (movement, Eq. 2)
      + E_NL * P(d > CC_{M-1})                        (miss,     Eq. 4)
      [ + E_0 * P(d > CC_{M-1}) ]                     (insertion, optional)

where E_m is the capacity-weighted mean access energy of chunk m, CC_m
the cumulative capacity through chunk m, and E_NL the mean access energy
of the next level. Because the distribution is binned at cumulative
*sublevel* capacities and chunks are consecutive sublevel groups, every
term is a linear combination of bin probabilities (Eq. 5): this module
produces the coefficient vector alpha[j] for every SLIP j, in both float
and the fixed-point form burned into the hardware EEUs.

The optional insertion term (write into chunk 0 on each miss) is not in
the paper's Equation 1 but is required for the optimizer to see the
insertion energy that the All-Bypass Policy saves; it is on by default
and controlled by ``include_insertion_energy``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .policy import Slip, SlipSpace


def exact_dot(counts: Sequence[float], values: Sequence[float]) -> float:
    """Order-independent dot product via ``math.fsum``.

    The one blessed way to turn (event count, energy table) pairs into
    picojoules: exactly rounded, so materialized energies cannot drift
    with accumulation order. Shared by the EEU coefficient evaluation
    and the deferred LevelStats materialization.
    """
    return math.fsum(c * v for c, v in zip(counts, values))


@dataclass(frozen=True)
class LevelEnergyParams:
    """Hardware constants feeding the analytical model for one level."""

    sublevel_capacity_lines: Tuple[int, ...]
    sublevel_energy_pj: Tuple[float, ...]
    next_level_energy_pj: float
    include_insertion_energy: bool = True

    def __post_init__(self) -> None:
        if len(self.sublevel_capacity_lines) != len(self.sublevel_energy_pj):
            raise ValueError("sublevel spec lengths differ")

    @property
    def num_sublevels(self) -> int:
        return len(self.sublevel_energy_pj)

    @property
    def num_bins(self) -> int:
        return self.num_sublevels + 1

    def chunk_energy_pj(self, chunk: Sequence[int]) -> float:
        """Capacity-weighted mean access energy of a chunk's sublevels."""
        # Integral line counts; exact in any order.
        capacity = sum(self.sublevel_capacity_lines[s] for s in chunk)
        weighted = math.fsum(
            self.sublevel_capacity_lines[s] * self.sublevel_energy_pj[s]
            for s in chunk
        )
        return weighted / capacity


def slip_coefficients(slip: Slip, params: LevelEnergyParams) -> Tuple[float, ...]:
    """The alpha vector for one SLIP: energy per access = alpha . p.

    ``p`` is the binned reuse-distance distribution; bin i < K covers
    distances within cumulative sublevel capacity i, bin K covers
    distances at or beyond full capacity (misses are counted there).
    """
    num_bins = params.num_bins
    alpha = [0.0] * num_bins

    if slip.is_abp:
        for i in range(num_bins):
            alpha[i] += params.next_level_energy_pj
        return tuple(alpha)

    chunk_energies = [params.chunk_energy_pj(c) for c in slip.chunks]

    # Access energy (Eq. 3): chunk m serves the bins of its sublevels.
    for m, chunk in enumerate(slip.chunks):
        for sublevel in chunk:
            alpha[sublevel] += chunk_energies[m]

    # Movement energy (Eq. 2): a move m -> m+1 happens whenever the reuse
    # distance exceeds the cumulative capacity through chunk m, i.e. for
    # every bin past the last sublevel of chunk m.
    for m in range(slip.num_chunks - 1):
        last_sublevel = slip.chunks[m][-1]
        cost = chunk_energies[m] + chunk_energies[m + 1]
        for i in range(last_sublevel + 1, num_bins):
            alpha[i] += cost

    # Miss energy (Eq. 4): distances beyond the SLIP's total capacity.
    last_sublevel = slip.chunks[-1][-1]
    for i in range(last_sublevel + 1, num_bins):
        alpha[i] += params.next_level_energy_pj
        if params.include_insertion_energy:
            alpha[i] += chunk_energies[0]

    return tuple(alpha)


class SlipEnergyModel:
    """Coefficient tables for every SLIP of a level (Eq. 5)."""

    def __init__(self, space: SlipSpace, params: LevelEnergyParams) -> None:
        if space.num_sublevels != params.num_sublevels:
            raise ValueError("SlipSpace and params disagree on sublevels")
        self.space = space
        self.params = params
        self.alphas: Tuple[Tuple[float, ...], ...] = tuple(
            slip_coefficients(slip, params) for slip in space.slips
        )

    @property
    def num_bins(self) -> int:
        return self.params.num_bins

    def energy_of(self, slip_id: int,
                  probabilities: Sequence[float]) -> float:
        """Expected energy per access of one SLIP for a distribution."""
        return exact_dot(self.alphas[slip_id], probabilities)

    def best_slip(self, probabilities: Sequence[float],
                  allow_abp: bool = True) -> int:
        """Argmin-energy SLIP id (float reference implementation)."""
        best_id, best_energy = None, float("inf")
        for slip_id in range(len(self.space)):
            if not allow_abp and slip_id == self.space.abp_id:
                continue
            energy = self.energy_of(slip_id, probabilities)
            if energy < best_energy:
                best_id, best_energy = slip_id, energy
        assert best_id is not None
        return best_id

    def quantized_alphas(self, coefficient_bits: int = 16) -> List[List[int]]:
        """Fixed-point coefficient tables as burned into the EEUs.

        Coefficients share one power-of-two scale chosen so the largest
        fits an unsigned ``coefficient_bits``-wide value; the relative
        ordering of the dot products — all the optimizer needs — is
        preserved to within quantization error.
        """
        flat_max = max(max(alpha) for alpha in self.alphas)
        if flat_max <= 0:
            raise ValueError("degenerate coefficient table")
        scale = ((1 << coefficient_bits) - 1) / flat_max
        # Snap to a power of two so hardware scaling is a shift.
        power = 1
        while power * 2 <= scale:
            power *= 2
        return [
            [int(round(a * power)) for a in alpha] for alpha in self.alphas
        ]
