"""Contention-aware NoC traffic accounting for one scheduling Round.

The simulator hands this module the set of inter-engine transfers a Round
performs; it returns the blocking delay and energy.  Latency model per
transfer: router overhead + hop latency + serialization of the payload over
the link width.  Contention: transfers sharing a directed link serialize on
it, so the Round's NoC delay is bounded below by the busiest link's total
occupancy (a standard static-network bound; the paper's STN schedules routes
at compile time, making this bound tight).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.config import EnergyConfig, NocConfig
from repro.intmath import ceil_div
from repro.noc.mesh import Mesh2D


@dataclass(frozen=True)
class Transfer:
    """One tensor movement between engines over the mesh.

    Attributes:
        src: Source engine index.
        dst: Destination engine index.
        size_bytes: Payload size.
    """

    src: int
    dst: int
    size_bytes: int

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError("size_bytes must be non-negative")


@dataclass(frozen=True)
class NocRoundCost:
    """NoC cost of one Round.

    Attributes:
        cycles: Blocking delay the Round's compute must wait for.
        energy_pj: Transfer energy (bits x hops x pJ/bit/hop).
        total_hop_bits: Sum over transfers of bits * hops (traffic volume).
        busiest_link_cycles: Occupancy of the most contended link.
    """

    cycles: int
    energy_pj: float
    total_hop_bits: int
    busiest_link_cycles: int


class NocModel:
    """Evaluates transfer batches on a 2D mesh.

    Args:
        mesh: Mesh topology.
        config: Link/router timing parameters.
        energy: Energy constants (uses ``noc_pj_per_bit_hop``).
    """

    def __init__(self, mesh: Mesh2D, config: NocConfig, energy: EnergyConfig) -> None:
        self.mesh = mesh
        self.config = config
        self.energy = energy

    def transfer_cycles(self, transfer: Transfer) -> int:
        """Uncontended latency of a single transfer."""
        if transfer.src == transfer.dst or transfer.size_bytes == 0:
            return 0
        hops = self.mesh.hop_distance(transfer.src, transfer.dst)
        serialization = ceil_div(8 * transfer.size_bytes, self.config.link_bits)
        return (
            self.config.router_overhead_cycles
            + hops * self.config.hop_cycles
            + serialization
        )

    def link_occupancy(
        self, srcs: list[int], dsts: list[int], sizes: list[int]
    ) -> dict[tuple[int, int], int]:
        """Serialization cycles per directed link for a transfer batch.

        The batch is given as parallel source/destination/payload lists,
        like :meth:`round_cost`.  The same occupancy :meth:`round_cost`
        bounds its delay with, kept as a separate walk so the hot search
        path pays nothing for it; timeline collection calls this once per
        Round.
        """
        occupancy: dict[tuple[int, int], int] = defaultdict(int)
        for src, dst, size in zip(srcs, dsts, sizes):
            if src == dst or size == 0:
                continue
            serialization = ceil_div(8 * size, self.config.link_bits)
            for link in self.mesh.route(src, dst):
                occupancy[link] += serialization
        return dict(occupancy)

    def round_cost(
        self, srcs: list[int], dsts: list[int], sizes: list[int]
    ) -> NocRoundCost:
        """Delay and energy of a batch of transfers issued together.

        The batch is given as parallel lists: transfer ``k`` moves
        ``sizes[k]`` bytes from engine ``srcs[k]`` to ``dsts[k]``.  Local
        and empty transfers cost nothing.  The batch's blocking delay is
        ``max(single-transfer latency, busiest-link occupancy)``: transfers
        on disjoint routes proceed in parallel, transfers sharing a link
        serialize.

        Vectorized over the batch against the mesh's cached distance/route
        tables; results are bit-identical to the per-transfer walk
        (serialization keeps the original ``ceil`` of a float quotient, and
        energy sums terms in transfer order).
        """
        src = np.asarray(srcs, dtype=np.int64)
        dst = np.asarray(dsts, dtype=np.int64)
        size = np.asarray(sizes, dtype=np.int64)
        moved = (src != dst) & (size != 0)
        if not moved.any():
            return NocRoundCost(
                cycles=0, energy_pj=0.0, total_hop_bits=0,
                busiest_link_cycles=0,
            )
        if not moved.all():
            src, dst, size = src[moved], dst[moved], size[moved]
        dist = self.mesh.distance_array()
        hops = dist[src, dst]
        # static-ok: LINT012 -- link payloads sit far below 2**53, so float
        # ceil is exact here and bit-identical to the scalar ceil_div path
        serialization = np.ceil(
            8.0 * size / self.config.link_bits
        ).astype(np.int64)
        singles = (
            self.config.router_overhead_cycles
            + hops * self.config.hop_cycles
            + serialization
        )
        link_ids, offsets, num_links = self.mesh.route_table()
        keys = src * self.mesh.num_engines + dst
        starts = offsets[keys]
        lens = offsets[keys + 1] - starts
        total_links = int(lens.sum())
        if total_links:
            # Ragged gather of every route's link ids into one flat array.
            shift = np.concatenate(
                ([0], np.cumsum(lens)[:-1])
            )
            gather = np.arange(total_links, dtype=np.int64) + np.repeat(
                starts - shift, lens
            )
            occupancy = np.zeros(num_links, dtype=np.int64)
            np.add.at(
                occupancy, link_ids[gather], np.repeat(serialization, lens)
            )
            busiest = int(occupancy.max())
        else:
            busiest = 0
        hop_bits = 8 * size * lens
        energy_pj = float(
            sum((hop_bits * self.energy.noc_pj_per_bit_hop).tolist())
        )
        return NocRoundCost(
            cycles=max(int(singles.max()), busiest),
            energy_pj=energy_pj,
            total_hop_bits=int(hop_bits.sum()),
            busiest_link_cycles=busiest,
        )
