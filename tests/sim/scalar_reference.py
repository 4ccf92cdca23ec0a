"""Test-only scalar reference of the system simulator's per-atom walk.

This is the simulator as it was before the flat predecessor table: one
helper per atom for inputs, weights and outputs, each edge's payload
looked up in ``dag.edge_bytes[(p, a)]``, the weight slice identified from
the atom's layer and output-channel tile, its source chosen with ``min`` over
``mesh.hop_distance``, one :class:`Transfer` per moved tensor, NoC cost
walked per transfer and per link, and compute energy from
:func:`atom_energy` on each atom's :class:`EngineCost`.  It shares
nothing with the production hot loop but the buffer policy, the HBM
model and the wormhole simulator, so ``ScalarReferenceSimulator`` is the
oracle the golden-equivalence tests hold :class:`SystemSimulator` to,
field for field and float for float.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

from repro.buffering.policy import BufferPolicy, weight_entry_key
from repro.engine.energy import atom_energy
from repro.memory.buffer import EngineBuffer, make_buffers
from repro.memory.hbm import HbmModel
from repro.metrics import EnergyBreakdown, RunResult
from repro.noc.traffic import NocRoundCost, Transfer
from repro.sim.simulator import (
    WEIGHT_RESIDENCY_FRACTION,
    RoundTrace,
    SystemSimulator,
)
from repro.sim.timeline import (
    EngineInterval,
    HbmSample,
    LinkSample,
    RoundWindow,
    SimTimeline,
)


@dataclass
class _RoundIO:
    blocking_transfers: list[Transfer] = field(default_factory=list)
    prefetch_transfers: list[Transfer] = field(default_factory=list)
    blocking_dram_bytes: int = 0
    blocking_dram_requests: int = 0
    prefetch_dram_bytes: int = 0
    prefetch_dram_requests: int = 0
    writeback_bytes: int = 0
    onchip_bytes: int = 0
    offchip_bytes: int = 0


def _scalar_round_cost(sim: SystemSimulator, transfers) -> NocRoundCost:
    """Per-transfer, per-link NoC walk; energy summed in transfer order."""
    config = sim.noc.config
    occupancy: dict[tuple[int, int], int] = defaultdict(int)
    max_single = 0
    total_hop_bits = 0
    energy_pj = 0.0
    for t in transfers:
        if t.src == t.dst or t.size_bytes == 0:
            continue
        serialization = math.ceil(8 * t.size_bytes / config.link_bits)
        route = sim.mesh.route(t.src, t.dst)
        max_single = max(
            max_single,
            config.router_overhead_cycles
            + sim.mesh.hop_distance(t.src, t.dst) * config.hop_cycles
            + serialization,
        )
        for link in route:
            occupancy[link] += serialization
        bits = 8 * t.size_bytes
        total_hop_bits += bits * len(route)
        energy_pj += bits * len(route) * sim.arch.energy.noc_pj_per_bit_hop
    busiest = max(occupancy.values(), default=0)
    return NocRoundCost(
        cycles=max(max_single, busiest),
        energy_pj=energy_pj,
        total_hop_bits=total_hop_bits,
        busiest_link_cycles=busiest,
    )


def _scalar_link_occupancy(sim: SystemSimulator, transfers):
    occupancy: dict[tuple[int, int], int] = defaultdict(int)
    for t in transfers:
        if t.src == t.dst or t.size_bytes == 0:
            continue
        serialization = math.ceil(8 * t.size_bytes / sim.noc.config.link_bits)
        for link in sim.mesh.route(t.src, t.dst):
            occupancy[link] += serialization
    return dict(occupancy)


class ScalarReferenceSimulator(SystemSimulator):
    """:class:`SystemSimulator` with the pre-flat-table per-atom walk."""

    def _noc_cycles_of(self, transfers, cost: NocRoundCost) -> int:
        if self._wormhole is not None and transfers:
            return self._wormhole.simulate(transfers).makespan
        return cost.cycles

    def _run(self, schedule, placement, collect_trace, collect_timeline=False):
        schedule.validate(self.dag, self.arch.num_engines)
        for rnd in schedule.rounds:
            for a in rnd.atom_indices:
                if a not in placement:
                    raise ValueError(f"atom {a} has no engine placement")
        dag = self.dag
        arch = self.arch
        policy = BufferPolicy(dag, schedule)
        buffers = make_buffers(arch.num_engines, arch.engine.buffer_bytes)
        hbm = HbmModel(arch.hbm, arch.energy, arch.engine.frequency_hz)
        atom_round = schedule.atom_round()
        atom_location: dict[int, int] = {}
        weight_locations: dict[tuple[int, int], set[int]] = {}
        weight_limit = arch.engine.buffer_bytes // WEIGHT_RESIDENCY_FRACTION

        total_cycles = 0
        compute_cycles_total = 0
        noc_blocking_total = 0
        dram_blocking_total = 0
        noc_energy_pj = 0.0
        dram_energy_pj = 0.0
        mac_energy_pj = 0.0
        sram_energy_pj = 0.0
        noc_bytes_hops = 0
        total_macs_pe = 0
        onchip_total = 0
        offchip_total = 0
        traces: list[RoundTrace] = []
        tl_rounds: list[RoundWindow] = []
        tl_intervals: list[EngineInterval] = []
        tl_links: list[LinkSample] = []
        tl_hbm: list[HbmSample] = []

        for rnd in schedule.rounds:
            io = _RoundIO()
            t = rnd.index
            for a in rnd.atom_indices:
                engine = placement[a]
                self._gather_inputs(
                    a, engine, t, atom_round, atom_location, buffers, io
                )
                self._gather_weights(
                    a, engine, weight_locations, buffers, weight_limit, io,
                    policy, t,
                )
                self._store_output(
                    a, engine, buffers, policy, t, atom_location,
                    weight_locations, io,
                )
                cost = dag.costs[a]
                e = atom_energy(cost, arch.energy)
                mac_energy_pj += e.mac_pj
                sram_energy_pj += e.sram_pj
                if cost.uses_pe_array:
                    total_macs_pe += cost.macs

            compute = max(dag.costs[a].cycles for a in rnd.atom_indices)
            blocking_noc = _scalar_round_cost(self, io.blocking_transfers)
            prefetch_noc = _scalar_round_cost(self, io.prefetch_transfers)
            blocking_noc_cycles = self._noc_cycles_of(
                io.blocking_transfers, blocking_noc
            )
            prefetch_noc_cycles = self._noc_cycles_of(
                io.prefetch_transfers, prefetch_noc
            )
            blocking_dram = hbm.batch_cycles(
                io.blocking_dram_bytes, io.blocking_dram_requests
            )
            prefetch_dram = hbm.batch_cycles(
                io.prefetch_dram_bytes + io.writeback_bytes,
                io.prefetch_dram_requests + (1 if io.writeback_bytes else 0),
            )
            round_time = (
                blocking_noc_cycles
                + blocking_dram
                + max(compute, prefetch_noc_cycles, prefetch_dram)
            )
            if collect_trace:
                traces.append(
                    RoundTrace(
                        index=t,
                        num_atoms=len(rnd.atom_indices),
                        compute_cycles=compute,
                        blocking_noc_cycles=blocking_noc_cycles,
                        blocking_dram_cycles=blocking_dram,
                        prefetch_noc_cycles=prefetch_noc_cycles,
                        prefetch_dram_cycles=prefetch_dram,
                        round_cycles=round_time,
                    )
                )
            if collect_timeline:
                tl_rounds.append(
                    RoundWindow(
                        index=t,
                        start=total_cycles,
                        compute_cycles=compute,
                        blocking_noc_cycles=blocking_noc_cycles,
                        blocking_dram_cycles=blocking_dram,
                        prefetch_noc_cycles=prefetch_noc_cycles,
                        prefetch_dram_cycles=prefetch_dram,
                        round_cycles=round_time,
                    )
                )
                stall = blocking_noc_cycles + blocking_dram
                for a in rnd.atom_indices:
                    cost = dag.costs[a]
                    tl_intervals.append(
                        EngineInterval(
                            engine=placement[a],
                            round_index=t,
                            atom=a,
                            label=str(dag.atoms[a].atom_id),
                            start=total_cycles + stall,
                            duration=cost.cycles,
                            macs=cost.macs,
                            uses_pe_array=cost.uses_pe_array,
                        )
                    )
                occupancy = _scalar_link_occupancy(
                    self, io.blocking_transfers + io.prefetch_transfers
                )
                for (src, dst), busy in sorted(occupancy.items()):
                    tl_links.append(LinkSample(t, src, dst, busy))
                moved = (
                    io.blocking_dram_bytes
                    + io.prefetch_dram_bytes
                    + io.writeback_bytes
                )
                tl_hbm.append(
                    HbmSample(
                        round_index=t,
                        start=total_cycles,
                        duration=round_time,
                        bytes_read=io.blocking_dram_bytes
                        + io.prefetch_dram_bytes,
                        bytes_written=io.writeback_bytes,
                        utilization=hbm.bandwidth_utilization(
                            moved, round_time
                        ),
                    )
                )
            total_cycles += round_time
            compute_cycles_total += compute
            noc_blocking_total += blocking_noc_cycles
            dram_blocking_total += blocking_dram
            noc_energy_pj += blocking_noc.energy_pj + prefetch_noc.energy_pj
            noc_bytes_hops += (
                blocking_noc.total_hop_bits + prefetch_noc.total_hop_bits
            ) // 8
            read_bytes = io.blocking_dram_bytes + io.prefetch_dram_bytes
            if read_bytes:
                dram_energy_pj += hbm.access(read_bytes).energy_pj
            if io.writeback_bytes:
                dram_energy_pj += hbm.access(
                    io.writeback_bytes, write=True
                ).energy_pj
            onchip_total += io.onchip_bytes
            offchip_total += io.offchip_bytes

        seconds = total_cycles / arch.engine.frequency_hz
        static_pj = (
            arch.energy.static_w_per_engine * arch.num_engines * seconds * 1e12
        )
        peak = compute_cycles_total * arch.num_engines * arch.engine.macs_per_cycle
        served = onchip_total + offchip_total
        result = RunResult(
            strategy=self.strategy,
            workload=dag.graph.name,
            batch=dag.batch,
            total_cycles=total_cycles,
            compute_cycles=compute_cycles_total,
            noc_blocking_cycles=noc_blocking_total,
            dram_blocking_cycles=dram_blocking_total,
            num_rounds=schedule.num_rounds,
            pe_utilization=(total_macs_pe / peak) if peak else 0.0,
            onchip_reuse_ratio=onchip_total / served if served else 0.0,
            dram_bytes_read=hbm.total_bytes_read,
            dram_bytes_written=hbm.total_bytes_written,
            noc_bytes_hops=noc_bytes_hops,
            energy=EnergyBreakdown(
                mac_pj=mac_energy_pj,
                sram_pj=sram_energy_pj,
                noc_pj=noc_energy_pj,
                dram_pj=dram_energy_pj,
                static_pj=static_pj,
            ),
            frequency_hz=arch.engine.frequency_hz,
        )
        timeline = None
        if collect_timeline:
            timeline = SimTimeline(
                workload=dag.graph.name,
                strategy=self.strategy,
                num_engines=arch.num_engines,
                frequency_hz=arch.engine.frequency_hz,
                macs_per_cycle=arch.engine.macs_per_cycle,
                total_cycles=total_cycles,
                compute_cycles=compute_cycles_total,
                rounds=tuple(tl_rounds),
                intervals=tuple(tl_intervals),
                links=tuple(tl_links),
                hbm=tuple(tl_hbm),
            )
        return result, traces, timeline

    def _gather_inputs(
        self, a, engine, t, atom_round, atom_location, buffers, io
    ) -> None:
        dag = self.dag
        if dag.dram_input_bytes[a]:
            io.prefetch_dram_bytes += dag.dram_input_bytes[a]
            io.prefetch_dram_requests += 1
        for p in dag.preds[a]:
            nbytes = dag.edge_bytes[(p, a)]
            if nbytes == 0:
                continue
            blocking = atom_round[p] == t - 1
            loc = atom_location.get(p)
            if loc is not None and buffers[loc].contains(p):
                if loc == engine:
                    io.onchip_bytes += nbytes
                    continue
                transfer = Transfer(src=loc, dst=engine, size_bytes=nbytes)
                if blocking:
                    io.blocking_transfers.append(transfer)
                else:
                    io.prefetch_transfers.append(transfer)
                io.onchip_bytes += nbytes
            else:
                if blocking:
                    io.blocking_dram_bytes += nbytes
                    io.blocking_dram_requests += 1
                else:
                    io.prefetch_dram_bytes += nbytes
                    io.prefetch_dram_requests += 1
                io.offchip_bytes += nbytes

    def _gather_weights(
        self, a, engine, weight_locations, buffers, weight_limit, io, policy, t
    ) -> None:
        dag = self.dag
        nbytes = dag.costs[a].weight_bytes
        if nbytes == 0:
            return
        atom = dag.atoms[a]
        wk = (atom.layer, atom.region.c[0] // dag.grids[atom.layer].tile.co)
        key = weight_entry_key(*wk)
        holders = weight_locations.get(wk, set())
        if engine in holders and buffers[engine].contains(key):
            io.onchip_bytes += nbytes
            return
        live = [h for h in sorted(holders) if buffers[h].contains(key)]
        if live:
            src = min(live, key=lambda h: self.mesh.hop_distance(h, engine))
            io.prefetch_transfers.append(
                Transfer(src=src, dst=engine, size_bytes=nbytes)
            )
            io.onchip_bytes += nbytes
        else:
            io.prefetch_dram_bytes += nbytes
            io.prefetch_dram_requests += 1
            io.offchip_bytes += nbytes
        if nbytes <= weight_limit:
            evs = policy.make_room(buffers[engine], nbytes, t)
            self._apply_evictions(evs, engine, weight_locations, io)
            if buffers[engine].fits(nbytes):
                buffers[engine].store(key, nbytes)
                weight_locations.setdefault(wk, set()).add(engine)

    def _store_output(
        self, a, engine, buffers: list[EngineBuffer], policy, t,
        atom_location, weight_locations, io,
    ) -> None:
        dag = self.dag
        nbytes = dag.costs[a].ofmap_bytes
        if nbytes == 0:
            return
        if not dag.succs[a] or nbytes > buffers[engine].capacity_bytes:
            io.writeback_bytes += nbytes
            return
        evs = policy.make_room(buffers[engine], nbytes, t + 1)
        self._apply_evictions(evs, engine, weight_locations, io)
        if buffers[engine].fits(nbytes):
            buffers[engine].store(a, nbytes)
            atom_location[a] = engine
        else:
            io.writeback_bytes += nbytes

    @staticmethod
    def _apply_evictions(evictions, engine, weight_locations, io) -> None:
        for ev in evictions:
            io.writeback_bytes += ev.writeback_bytes
            if isinstance(ev.key, tuple) and ev.key[0] == "w":
                weight_locations.get((ev.key[1], ev.key[2]), set()).discard(
                    engine
                )
