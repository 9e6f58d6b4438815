"""Wire-geometry energy model for banked caches.

Large caches are built from small SRAM banks joined by an interconnect
(Section 2.1 of the paper). The energy of an access is the bank-internal
energy plus the wire energy of moving a line between the cache controller
and the bank. This module models a rectangular bank array fed by a
vertical trunk (the hierarchical-bus topology of Figure 4a): reaching row
``i`` costs ``bank_energy + row_wire_energy * (i + 0.5)``.

The calibrated 45 nm instances in :mod:`repro.topology.nodes` reproduce
the paper's Table 2 sublevel energies (21/33/50 pJ for L2, 67/113/176 pJ
for L3) to within a few percent, and the same geometry re-derives the
H-tree penalty (Section 2.1) and the 22 nm technology study (Section 6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence, Tuple


@dataclass(frozen=True)
class TechnologyNode:
    """Process parameters relevant to wire-dominated cache energy."""

    name: str
    wire_energy_pj_per_bit_mm: float
    wire_delay_ns_per_mm: float
    # Fraction of the (line + metadata) bits that actually toggle per
    # transfer; the paper quotes wire energy *per transition*.
    activity_factor: float = 0.5

    def wire_energy_pj_per_mm(self, bits: int) -> float:
        """Energy to move ``bits`` of payload over 1 mm of interconnect."""
        return self.wire_energy_pj_per_bit_mm * bits * self.activity_factor


@dataclass(frozen=True)
class BankArrayGeometry:
    """A cache level as a ``rows x cols`` array of SRAM banks.

    Ways are interleaved across rows (Figure 4a): consecutive groups of
    ``ways // rows`` ways live in each row, nearest row first. ``row_pitch_mm``
    is the vertical trunk length added per row, including the average
    horizontal distribution within the row.
    """

    name: str
    rows: int
    cols: int
    ways: int
    bank_energy_pj: float
    row_pitch_mm: float
    node: TechnologyNode
    transfer_bits: int = 512

    def __post_init__(self) -> None:
        if self.ways % self.rows:
            raise ValueError("ways must divide evenly across rows")

    @property
    def ways_per_row(self) -> int:
        return self.ways // self.rows

    def row_of_way(self, way: int) -> int:
        if not 0 <= way < self.ways:
            raise IndexError(f"way {way} out of range")
        return way // self.ways_per_row

    def row_distance_mm(self, row: int) -> float:
        """Wire distance from the controller to the centre of a row."""
        return (row + 0.5) * self.row_pitch_mm

    def row_energy_pj(self, row: int) -> float:
        """Access energy of a line resident in the given row."""
        wire = self.node.wire_energy_pj_per_mm(self.transfer_bits)
        return self.bank_energy_pj + wire * self.row_distance_mm(row)

    def way_energy_pj(self, way: int) -> float:
        return self.row_energy_pj(self.row_of_way(way))

    def sublevel_energies_pj(
        self, sublevel_ways: Sequence[int]
    ) -> Tuple[float, ...]:
        """Average access energy of each sublevel.

        Sublevels are consecutive way groups starting from way 0; a
        sublevel covering several rows gets the capacity-weighted mean of
        its rows' energies.
        """
        if sum(sublevel_ways) != self.ways:
            raise ValueError("sublevel ways must sum to total ways")
        energies = []
        start = 0
        for n_ways in sublevel_ways:
            ways = range(start, start + n_ways)
            energies.append(
                math.fsum(self.way_energy_pj(w) for w in ways) / n_ways
            )
            start += n_ways
        return tuple(energies)

    def uniform_access_energy_pj(self) -> float:
        """Mean access energy across all ways (the baseline cache)."""
        return math.fsum(
            self.way_energy_pj(w) for w in range(self.ways)
        ) / self.ways

    def htree_access_energy_pj(self) -> float:
        """Access energy under an H-tree interconnect (Figure 4c).

        In an H-tree, reading any location consumes the same energy as
        reading the furthest location.
        """
        return self.row_energy_pj(self.rows - 1)

    def row_latency_cycles(self, row: int, frequency_ghz: float,
                           base_cycles: int) -> int:
        """Latency of a row: bank latency plus round-trip wire delay."""
        delay_ns = 2 * self.node.wire_delay_ns_per_mm * self.row_distance_mm(row)
        return base_cycles + round(delay_ns * frequency_ghz)

    def scaled(self, node: TechnologyNode, bank_energy_scale: float,
               pitch_scale: float) -> "BankArrayGeometry":
        """The same array in another technology node."""
        return replace(
            self,
            node=node,
            bank_energy_pj=self.bank_energy_pj * bank_energy_scale,
            row_pitch_mm=self.row_pitch_mm * pitch_scale,
        )
