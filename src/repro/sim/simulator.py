"""System-level simulator of the scalable accelerator (Sec. V-A).

Executes a Round schedule with an atom-engine placement over the full
machine model — engines (compute), distributed buffers (capacity +
Algorithm 3 evictions), 2D-mesh NoC (contention), and HBM (bandwidth) —
and reports the paper's metrics: end-to-end cycles, PE utilization, NoC
blocking overhead, on-chip reuse ratio, DRAM traffic, and energy.

Timing model per Round ``t`` (double buffering):

* *blocking* I/O — data produced in Round ``t-1`` (no chance to prefetch)
  must arrive before compute starts;
* *prefetchable* I/O — weights, network inputs, and data produced earlier
  than ``t-1`` overlap with compute;
* ``round_time = blocking + max(compute, prefetch_noc, prefetch_dram)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.atoms.dag import AtomicDAG
from repro.atoms.table import AtomCostTable
from repro.buffering.policy import BufferPolicy, Eviction, weight_entry_key
from repro.config import ArchConfig
from repro.memory.buffer import make_buffers
from repro.memory.hbm import HbmModel
from repro.metrics import EnergyBreakdown, RunResult
from repro.noc.mesh import Mesh2D
from repro.noc.torus import make_topology
from repro.noc.traffic import NocModel, NocRoundCost, Transfer
from repro.noc.wormhole import WormholeSimulator
from repro.obs.tracer import get_tracer
from repro.scheduling.rounds import Schedule
from repro.sim.timeline import (
    EngineInterval,
    HbmSample,
    LinkSample,
    RoundWindow,
    SimTimeline,
)

#: Weight slices larger than this fraction of the buffer stream from DRAM
#: instead of being retained for reuse.
WEIGHT_RESIDENCY_FRACTION = 2


@dataclass(frozen=True)
class RoundTrace:
    """Timing breakdown of one executed Round (for profiling reports).

    Attributes:
        index: Round number.
        num_atoms: Atoms executed.
        compute_cycles: Slowest atom's compute.
        blocking_noc_cycles: NoC time serialized before compute.
        blocking_dram_cycles: DRAM time serialized before compute.
        prefetch_noc_cycles: NoC time overlapped with compute.
        prefetch_dram_cycles: DRAM time overlapped with compute.
        round_cycles: Total wall time of the Round.
    """

    index: int
    num_atoms: int
    compute_cycles: int
    blocking_noc_cycles: int
    blocking_dram_cycles: int
    prefetch_noc_cycles: int
    prefetch_dram_cycles: int
    round_cycles: int

    @property
    def bound_by(self) -> str:
        """What limited this Round: "compute", "noc", or "dram"."""
        overlapped = max(
            self.compute_cycles,
            self.prefetch_noc_cycles,
            self.prefetch_dram_cycles,
        )
        if overlapped == self.compute_cycles:
            return "compute"
        if overlapped == self.prefetch_noc_cycles:
            return "noc"
        return "dram"


class SystemSimulator:
    """Simulates one (schedule, placement) solution on one architecture.

    Args:
        arch: Machine configuration.
        dag: The atomic DAG being executed.
        strategy: Label recorded in the result (e.g. ``"AD"``).
        noc_mode: ``"analytical"`` (default) or ``"wormhole"``.
        mesh: Pre-built topology to reuse; built from ``arch`` when None.
    """

    def __init__(
        self,
        arch: ArchConfig,
        dag: AtomicDAG,
        strategy: str = "AD",
        noc_mode: str = "analytical",
        mesh: Mesh2D | None = None,
    ) -> None:
        if noc_mode not in ("analytical", "wormhole"):
            raise ValueError(f"unknown noc_mode {noc_mode!r}")
        self.arch = arch
        self.dag = dag
        self.strategy = strategy
        self.noc_mode = noc_mode
        # Search loops pass the mesh from their SearchContext so thousands
        # of candidate simulations share one topology object.
        self.mesh = mesh if mesh is not None else make_topology(
            arch.mesh_rows, arch.mesh_cols, arch.noc.topology
        )
        self.noc = NocModel(self.mesh, arch.noc, arch.energy)
        self._wormhole = (
            WormholeSimulator(self.mesh, arch.noc)
            if noc_mode == "wormhole"
            else None
        )

    def _noc_cycles(
        self,
        cost: NocRoundCost,
        srcs: list[int],
        dsts: list[int],
        sizes: list[int],
    ) -> int:
        """Round NoC delay under the selected fidelity model.

        ``cost`` is the analytical :meth:`NocModel.round_cost` of the same
        batch; only the wormhole model materializes :class:`Transfer`
        objects, in transfer order.
        """
        if self._wormhole is None or not srcs:
            return cost.cycles
        return self._wormhole.simulate(
            [Transfer(s, d, n) for s, d, n in zip(srcs, dsts, sizes)]
        ).makespan

    def run(self, schedule: Schedule, placement: dict[int, int]) -> RunResult:
        """Execute the schedule and return the full metric set.

        Raises:
            ValueError: When the schedule or placement is inconsistent with
                the DAG (validated up front).
        """
        with self._run_span():
            result, _, _ = self._run(schedule, placement, collect_trace=False)
        return result

    def run_traced(
        self, schedule: Schedule, placement: dict[int, int]
    ) -> tuple[RunResult, list[RoundTrace]]:
        """Like :meth:`run`, also returning the per-Round timing trace."""
        with self._run_span():
            result, traces, _ = self._run(
                schedule, placement, collect_trace=True
            )
        return result, traces

    def _run_span(self):
        """A ``sim.run`` tracer span labelling one whole simulation."""
        return get_tracer().span(
            "sim.run",
            category="sim",
            workload=self.dag.graph.name,
            strategy=self.strategy,
        )

    def run_timeline(
        self, schedule: Schedule, placement: dict[int, int]
    ) -> tuple[RunResult, SimTimeline]:
        """Like :meth:`run`, also building the full resource timeline.

        The returned :class:`~repro.sim.timeline.SimTimeline` carries
        per-engine busy intervals, Round windows, per-link NoC occupancy,
        and per-Round HBM bandwidth samples; the :class:`RunResult` is
        bit-identical to what :meth:`run` returns.
        """
        with self._run_span():
            result, _, timeline = self._run(
                schedule, placement, collect_trace=False, collect_timeline=True
            )
        assert timeline is not None
        return result, timeline

    def _run(
        self,
        schedule: Schedule,
        placement: dict[int, int],
        collect_trace: bool,
        collect_timeline: bool = False,
    ) -> tuple[RunResult, list[RoundTrace], SimTimeline | None]:
        schedule.validate(self.dag, self.arch.num_engines)
        for rnd in schedule.rounds:
            for a in rnd.atom_indices:
                if a not in placement:
                    raise ValueError(f"atom {a} has no engine placement")

        dag = self.dag
        arch = self.arch
        policy = BufferPolicy(dag, schedule)
        make_room = policy.make_room
        buffers = make_buffers(arch.num_engines, arch.engine.buffer_bytes)
        held = [b.entries for b in buffers]
        capacity = arch.engine.buffer_bytes
        weight_limit = capacity // WEIGHT_RESIDENCY_FRACTION
        hbm = HbmModel(arch.hbm, arch.energy, arch.engine.frequency_hz)
        dist = self.mesh.distance_matrix()

        # Flat per-atom views, index-aligned with the DAG's atoms.
        atom_round = policy.atom_round
        atom_location = [-1] * dag.num_atoms
        weight_locations: dict[tuple[int, int], set[int]] = {}
        preds = dag.preds
        pred_bytes = dag.pred_bytes
        succs = dag.succs
        dram_input_bytes = dag.dram_input_bytes
        weight_keys = dag.weight_keys
        atom_cycles = dag.atom_cycles
        costs = dag.costs
        if not isinstance(costs, AtomCostTable):
            costs = AtomCostTable.from_costs(costs)
        macs = costs.macs
        uses_pe_array = costs.uses_pe_array
        ifmap_bytes = costs.ifmap_bytes
        weight_bytes = costs.weight_bytes
        ofmap_bytes = costs.ofmap_bytes
        mac_pj = arch.energy.mac_pj
        sram_pj_per_bit = arch.energy.sram_pj_per_bit

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
        onchip_bytes_total = 0
        offchip_bytes_total = 0
        traces: list[RoundTrace] = []
        tl_rounds: list[RoundWindow] = []
        tl_intervals: list[EngineInterval] = []
        tl_links: list[LinkSample] = []
        tl_hbm: list[HbmSample] = []
        tracer = get_tracer()

        for rnd in schedule.rounds:
            with tracer.span(
                "sim.round",
                category="sim",
                index=rnd.index,
                atoms=len(rnd.atom_indices),
            ):
                t = rnd.index
                prev = t - 1
                # The Round's NoC transfers, as parallel src/dst/bytes
                # lists in transfer order (NoC energy sums in this order).
                b_src: list[int] = []
                b_dst: list[int] = []
                b_size: list[int] = []
                p_src: list[int] = []
                p_dst: list[int] = []
                p_size: list[int] = []
                blocking_dram_bytes = 0
                blocking_dram_requests = 0
                prefetch_dram_bytes = 0
                prefetch_dram_requests = 0
                writeback_bytes = 0
                onchip_bytes = 0
                offchip_bytes = 0
                # Atoms run one at a time in Round order: provisioning an
                # atom's output may evict an entry a later atom of the same
                # Round still reads, which that atom then fetches from DRAM.
                for a in rnd.atom_indices:
                    engine = placement[a]
                    buffer = buffers[engine]

                    # Inputs.  Network inputs always stream from DRAM
                    # (prefetchable).  Produced tiles come from the local
                    # buffer (free), a remote buffer (NoC), or DRAM if they
                    # were spilled; data produced in the immediately
                    # preceding Round cannot be prefetched and blocks.
                    nbytes = dram_input_bytes[a]
                    if nbytes:
                        prefetch_dram_bytes += nbytes
                        prefetch_dram_requests += 1
                    for p, nbytes in zip(preds[a], pred_bytes[a]):
                        if nbytes == 0:
                            continue
                        loc = atom_location[p]
                        if loc >= 0 and p in held[loc]:
                            onchip_bytes += nbytes
                            if loc == engine:
                                continue
                            if atom_round[p] == prev:
                                b_src.append(loc)
                                b_dst.append(engine)
                                b_size.append(nbytes)
                            else:
                                p_src.append(loc)
                                p_dst.append(engine)
                                p_size.append(nbytes)
                        else:
                            # Spilled to DRAM earlier; read it back.
                            if atom_round[p] == prev:
                                blocking_dram_bytes += nbytes
                                blocking_dram_requests += 1
                            else:
                                prefetch_dram_bytes += nbytes
                                prefetch_dram_requests += 1
                            offchip_bytes += nbytes

                    # Weight slice: local hit, nearest remote copy (first
                    # minimum over the sorted holders), or DRAM.
                    wk = weight_keys[a]
                    if wk is not None:
                        nbytes = weight_bytes[a]
                        key = weight_entry_key(*wk)
                        holders = weight_locations.get(wk)
                        if holders and engine in holders and key in held[engine]:
                            onchip_bytes += nbytes
                        else:
                            src = -1
                            if holders:
                                best = -1
                                for h in sorted(holders):
                                    if key in held[h]:
                                        d = dist[h][engine]
                                        if best < 0 or d < best:
                                            best, src = d, h
                            if src >= 0:
                                p_src.append(src)
                                p_dst.append(engine)
                                p_size.append(nbytes)
                                onchip_bytes += nbytes
                            else:
                                prefetch_dram_bytes += nbytes
                                prefetch_dram_requests += 1
                                offchip_bytes += nbytes
                            if nbytes <= weight_limit:
                                writeback_bytes += _drop_evicted(
                                    make_room(buffer, nbytes, t),
                                    engine,
                                    weight_locations,
                                )
                                if buffer.fits(nbytes):
                                    buffer.store(key, nbytes)
                                    weight_locations.setdefault(
                                        wk, set()
                                    ).add(engine)

                    # Output: retained on-chip for its consumers, or
                    # drained to DRAM (network outputs, tiles larger than
                    # the buffer, and tiles a drained buffer cannot hold).
                    nbytes = ofmap_bytes[a]
                    if nbytes:
                        if not succs[a] or nbytes > capacity:
                            writeback_bytes += nbytes
                        else:
                            writeback_bytes += _drop_evicted(
                                make_room(buffer, nbytes, t + 1),
                                engine,
                                weight_locations,
                            )
                            if buffer.fits(nbytes):
                                buffer.store(a, nbytes)
                                atom_location[a] = engine
                            else:
                                writeback_bytes += nbytes

                    # Compute-side energy, accumulated in atom order.
                    mac_energy_pj += macs[a] * mac_pj
                    sram_energy_pj += (
                        8 * (ifmap_bytes[a] + weight_bytes[a] + ofmap_bytes[a])
                        * sram_pj_per_bit
                    )
                    if uses_pe_array[a]:
                        total_macs_pe += macs[a]

                compute = max(atom_cycles[a] for a in rnd.atom_indices)
                blocking_noc = self.noc.round_cost(b_src, b_dst, b_size)
                prefetch_noc = self.noc.round_cost(p_src, p_dst, p_size)
                blocking_noc_cycles = self._noc_cycles(
                    blocking_noc, b_src, b_dst, b_size
                )
                prefetch_noc_cycles = self._noc_cycles(
                    prefetch_noc, p_src, p_dst, p_size
                )
                blocking_dram = hbm.batch_cycles(
                    blocking_dram_bytes, blocking_dram_requests
                )
                prefetch_dram = hbm.batch_cycles(
                    prefetch_dram_bytes + writeback_bytes,
                    prefetch_dram_requests + (1 if writeback_bytes else 0),
                )
                round_time = (
                    blocking_noc_cycles
                    + blocking_dram
                    + max(compute, prefetch_noc_cycles, prefetch_dram)
                )
                if collect_trace:
                    traces.append(
                        RoundTrace(
                            index=rnd.index,
                            num_atoms=len(rnd.atom_indices),
                            compute_cycles=compute,
                            blocking_noc_cycles=blocking_noc_cycles,
                            blocking_dram_cycles=blocking_dram,
                            prefetch_noc_cycles=prefetch_noc_cycles,
                            prefetch_dram_cycles=prefetch_dram,
                            round_cycles=round_time,
                        )
                    )
                read_bytes = blocking_dram_bytes + prefetch_dram_bytes
                if collect_timeline:
                    tl_rounds.append(
                        RoundWindow(
                            index=rnd.index,
                            start=total_cycles,
                            compute_cycles=compute,
                            blocking_noc_cycles=blocking_noc_cycles,
                            blocking_dram_cycles=blocking_dram,
                            prefetch_noc_cycles=prefetch_noc_cycles,
                            prefetch_dram_cycles=prefetch_dram,
                            round_cycles=round_time,
                        )
                    )
                    self._collect_round_timeline(
                        rnd, placement, total_cycles,
                        blocking_noc_cycles + blocking_dram, round_time,
                        (b_src + p_src, b_dst + p_dst, b_size + p_size),
                        read_bytes, writeback_bytes, hbm,
                        tl_intervals, tl_links, tl_hbm,
                    )
                total_cycles += round_time
                compute_cycles_total += compute
                noc_blocking_total += blocking_noc_cycles
                dram_blocking_total += blocking_dram
                noc_energy_pj += (
                    blocking_noc.energy_pj + prefetch_noc.energy_pj
                )
                noc_bytes_hops += (
                    blocking_noc.total_hop_bits + prefetch_noc.total_hop_bits
                ) // 8
                if read_bytes:
                    dram_energy_pj += hbm.access(read_bytes).energy_pj
                if writeback_bytes:
                    dram_energy_pj += hbm.access(
                        writeback_bytes, write=True
                    ).energy_pj
                onchip_bytes_total += onchip_bytes
                offchip_bytes_total += offchip_bytes

        seconds = total_cycles / arch.engine.frequency_hz
        static_pj = (
            arch.energy.static_w_per_engine * arch.num_engines * seconds * 1e12
        )
        energy = EnergyBreakdown(
            mac_pj=mac_energy_pj,
            sram_pj=sram_energy_pj,
            noc_pj=noc_energy_pj,
            dram_pj=dram_energy_pj,
            static_pj=static_pj,
        )
        peak = compute_cycles_total * arch.num_engines * arch.engine.macs_per_cycle
        served = onchip_bytes_total + offchip_bytes_total
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
            onchip_reuse_ratio=(
                onchip_bytes_total / served if served else 0.0
            ),
            dram_bytes_read=hbm.total_bytes_read,
            dram_bytes_written=hbm.total_bytes_written,
            noc_bytes_hops=noc_bytes_hops,
            energy=energy,
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

    def _collect_round_timeline(
        self,
        rnd,
        placement: dict[int, int],
        round_start: int,
        stall: int,
        round_time: int,
        transfers: tuple[list[int], list[int], list[int]],
        bytes_read: int,
        bytes_written: int,
        hbm: HbmModel,
        tl_intervals: list[EngineInterval],
        tl_links: list[LinkSample],
        tl_hbm: list[HbmSample],
    ) -> None:
        """Append one executed Round's resource occupancy to the timeline.

        Engine intervals start after the Round's blocking ``stall`` — the
        window in which the timing model lets compute proceed.  HBM bytes
        are the raw (pre-burst-rounding) payloads the Round moved.
        """
        dag = self.dag
        for a in rnd.atom_indices:
            cost = dag.costs[a]
            tl_intervals.append(
                EngineInterval(
                    engine=placement[a],
                    round_index=rnd.index,
                    atom=a,
                    label=str(dag.atoms[a].atom_id),
                    start=round_start + stall,
                    duration=cost.cycles,
                    macs=cost.macs,
                    uses_pe_array=cost.uses_pe_array,
                )
            )
        occupancy = self.noc.link_occupancy(*transfers)
        for (src, dst), busy in sorted(occupancy.items()):
            tl_links.append(LinkSample(rnd.index, src, dst, busy))
        tl_hbm.append(
            HbmSample(
                round_index=rnd.index,
                start=round_start,
                duration=round_time,
                bytes_read=bytes_read,
                bytes_written=bytes_written,
                utilization=hbm.bandwidth_utilization(
                    bytes_read + bytes_written, round_time
                ),
            )
        )


def _drop_evicted(
    evictions: list[Eviction],
    engine: int,
    weight_locations: dict[tuple[int, int], set[int]],
) -> int:
    """Forget evicted weight copies on ``engine``; return write-back bytes."""
    writeback = 0
    for ev in evictions:
        writeback += ev.writeback_bytes
        key = ev.key
        if isinstance(key, tuple) and len(key) == 3 and key[0] == "w":
            holders = weight_locations.get((key[1], key[2]))
            if holders:
                holders.discard(engine)
    return writeback
