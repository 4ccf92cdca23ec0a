"""The atomic DAG: batch-replicated, atom-granularity dependency graph.

Construction follows Sec. III of the paper: each (non-input) layer of each
batch sample is partitioned into a tile grid of atoms; fine-grained edges
connect an atom to exactly the producer atoms whose output regions its
receptive field touches (Fig. 6(b)).  All samples of a batch live in one
unified DAG of ``#Batch`` identical sub-DAGs.

Atoms are indexed densely (0..num_atoms-1) so schedulers can use flat
arrays; :class:`AtomId` remains available for reporting.

The builder is array-first: each layer's tile lattice is priced in one
vectorized :meth:`~repro.engine.batch.CostKernel.price_regions` call, and
dependency edges are derived per (consumer layer, input) from the
separable per-axis halo spans instead of per-atom Python region math.
Costs land in the structure-of-arrays :class:`~repro.atoms.table.
AtomCostTable`; scheduling and mapping read the flat ``atom_cycles`` /
``atom_weight_bytes`` lists, while per-atom :class:`EngineCost` objects
stay available as lazy views for the simulator and validators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.atoms.atom import Atom, AtomId, TileSize
from repro.atoms.partition import TileGrid, grid_bounds, grid_for
from repro.atoms.table import AtomCostTable
from repro.engine.batch import concat_overlap_mask, input_span_arrays
from repro.engine.cost_model import EngineCost, EngineCostModel
from repro.ir.graph import Graph
from repro.ir.ops import Concat, Input


@dataclass
class AtomicDAG:
    """Atom-level dependency graph over a (possibly batched) workload.

    Build with :func:`build_atomic_dag`; attributes are flat and index-
    aligned (position ``i`` describes atom ``i``).

    Attributes:
        graph: The layer graph the DAG was derived from.
        batch: Number of batch samples replicated into the DAG.
        atoms: All atoms.
        preds: Predecessor atom indices per atom (deduplicated, sorted).
        succs: Successor atom indices per atom.
        costs: Per-atom engine cost (cycles, traffic) from the cost model —
            an :class:`~repro.atoms.table.AtomCostTable` when built by
            :func:`build_atomic_dag`, a plain list otherwise.
        layer_depth: Layer id -> longest-path depth in the layer graph.
        dram_input_bytes: Per-atom bytes that must come from DRAM because
            the producer is the network input (no on-chip producer).
        grids: Layer id -> tile grid used to partition it.
        edge_bytes: (producer atom, consumer atom) -> bytes of producer
            output the consumer reads (the overlap of its receptive field
            with the producer's region) — the NoC payload of that edge.

    The post-tiling hot paths (simulator, mapper, scheduler) read the flat
    views :attr:`pred_bytes` and :attr:`weight_keys` instead of hashing
    ``(p, a)`` tuples into ``edge_bytes`` per edge, and :attr:`layer_keys`
    and :attr:`atom_rank` instead of reading :class:`Atom` properties.
    """

    graph: Graph
    batch: int
    atoms: list[Atom] = field(default_factory=list)
    preds: list[tuple[int, ...]] = field(default_factory=list)
    succs: list[tuple[int, ...]] = field(default_factory=list)
    costs: Sequence[EngineCost] = field(default_factory=list)
    layer_depth: dict[int, int] = field(default_factory=dict)
    dram_input_bytes: list[int] = field(default_factory=list)
    grids: dict[int, TileGrid] = field(default_factory=dict)
    edge_bytes: dict[tuple[int, int], int] = field(default_factory=dict)
    _base: dict[tuple[int, int], int] = field(default_factory=dict, repr=False)
    _atom_cycles: list[int] | None = field(default=None, repr=False)
    _atom_weight_bytes: list[int] | None = field(default=None, repr=False)
    _atom_ofmap_bytes: list[int] | None = field(default=None, repr=False)
    _pred_bytes: list[tuple[int, ...]] | None = field(default=None, repr=False)
    _weight_keys: list[tuple[int, int] | None] | None = field(
        default=None, repr=False
    )
    _layer_keys: list[tuple[int, int]] | None = field(default=None, repr=False)
    _atom_rank: list[int] | None = field(default=None, repr=False)

    @property
    def num_atoms(self) -> int:
        return len(self.atoms)

    @property
    def atom_cycles(self) -> list[int]:
        """Flat per-atom cycle list (index-aligned with :attr:`atoms`).

        The scheduler/mapping hot paths read this instead of touching an
        :class:`EngineCost` object per atom.  Derived lazily from
        :attr:`costs` for hand-built DAGs; do not mutate ``costs`` after
        first access.
        """
        if self._atom_cycles is None:
            table = self.costs
            if isinstance(table, AtomCostTable):
                self._atom_cycles = table.cycles
            else:
                self._atom_cycles = [c.cycles for c in table]
        return self._atom_cycles

    @property
    def atom_weight_bytes(self) -> list[int]:
        """Flat per-atom weight-traffic list (see :attr:`atom_cycles`)."""
        if self._atom_weight_bytes is None:
            table = self.costs
            if isinstance(table, AtomCostTable):
                self._atom_weight_bytes = table.weight_bytes
            else:
                self._atom_weight_bytes = [c.weight_bytes for c in table]
        return self._atom_weight_bytes

    @property
    def atom_ofmap_bytes(self) -> list[int]:
        """Flat per-atom output-traffic list (see :attr:`atom_cycles`)."""
        if self._atom_ofmap_bytes is None:
            table = self.costs
            if isinstance(table, AtomCostTable):
                self._atom_ofmap_bytes = table.ofmap_bytes
            else:
                self._atom_ofmap_bytes = [c.ofmap_bytes for c in table]
        return self._atom_ofmap_bytes

    @property
    def pred_bytes(self) -> list[tuple[int, ...]]:
        """Per-atom edge payloads, index-aligned with :attr:`preds`.

        ``pred_bytes[a][k]`` is ``edge_bytes[(preds[a][k], a)]``: the same
        payloads as one flat tuple per consumer, so walking an atom's
        inputs is a ``zip`` instead of a tuple-keyed dict lookup per edge.
        :func:`build_atomic_dag` fills it from its merged edge arrays;
        hand-built DAGs derive it lazily from :attr:`edge_bytes` (see
        :attr:`atom_cycles` on mutation).
        """
        if self._pred_bytes is None:
            edge_bytes = self.edge_bytes
            self._pred_bytes = [
                tuple(edge_bytes[(p, a)] for p in ps)
                for a, ps in enumerate(self.preds)
            ]
        return self._pred_bytes

    @property
    def weight_keys(self) -> list[tuple[int, int] | None]:
        """Flat per-atom :meth:`weight_key` list (see :attr:`pred_bytes`)."""
        if self._weight_keys is None:
            grids = self.grids
            self._weight_keys = [
                (atom.layer, atom.region.c[0] // grids[atom.layer].tile.co)
                if nbytes
                else None
                for atom, nbytes in zip(self.atoms, self.atom_weight_bytes)
            ]
        return self._weight_keys

    @property
    def layer_keys(self) -> list[tuple[int, int]]:
        """Flat per-atom ``(sample, layer)`` list (see :attr:`pred_bytes`).

        Atoms of one layer and sample share one tuple, so the table holds
        one small int tuple per layer instance rather than per atom.
        """
        if self._layer_keys is None:
            shared: dict[tuple[int, int], tuple[int, int]] = {}
            keys = []
            for atom in self.atoms:
                key = (atom.atom_id.sample, atom.atom_id.layer)
                keys.append(shared.setdefault(key, key))
            self._layer_keys = keys
        return self._layer_keys

    @property
    def atom_rank(self) -> list[int]:
        """Each atom's position in ``(sample, layer, tile index)`` order.

        ``sorted(atoms, key=atom_rank.__getitem__)`` is the scheduler's
        deterministic order without building an :class:`AtomId` tuple per
        comparison (see :attr:`pred_bytes` on mutation).
        """
        if self._atom_rank is None:
            atoms = self.atoms
            rank = [0] * len(atoms)
            for pos, a in enumerate(
                sorted(range(len(atoms)), key=lambda i: atoms[i].atom_id)
            ):
                rank[a] = pos
            self._atom_rank = rank
        return self._atom_rank

    def index_of(self, atom_id: AtomId) -> int:
        """Dense index of an atom by identity.

        Raises:
            KeyError: For unknown (sample, layer) pairs or out-of-range
                tile indices.
        """
        base = self._base[(atom_id.sample, atom_id.layer)]
        grid = self.grids[atom_id.layer]
        if not 0 <= atom_id.index < grid.num_tiles:
            raise KeyError(f"tile index out of range: {atom_id}")
        return base + atom_id.index

    def atoms_of_layer(self, layer: int, sample: int = 0) -> range:
        """Dense index range of one layer's atoms for one sample."""
        base = self._base[(sample, layer)]
        return range(base, base + self.grids[layer].num_tiles)

    def weight_key(self, atom_index: int) -> tuple[int, int] | None:
        """Identity of the weight slice an atom needs, or None if weightless.

        Atoms of the same layer covering the same output-channel tile share
        one weight slice; scheduling them on one engine reuses it.
        """
        return self.weight_keys[atom_index]

    def total_compute_cycles(self) -> int:
        """Sum of per-atom engine cycles (the serial lower bound's numerator)."""
        return sum(self.atom_cycles)

    def indegrees(self) -> list[int]:
        """Fresh indegree array for scheduler initialization."""
        return [len(p) for p in self.preds]

    def validate(self) -> None:
        """Check structural invariants.

        Verified: pred/succ symmetry, acyclicity via layer topology (edges
        only point from earlier layers to later ones within a sample), and
        full coverage (each layer's atoms tile its output exactly).

        Raises:
            ValueError: On any violation.
        """
        for i, ps in enumerate(self.preds):
            for p in ps:
                if i not in self.succs[p]:
                    raise ValueError(f"asymmetric edge {p}->{i}")
                if self.atoms[p].sample != self.atoms[i].sample:
                    raise ValueError(f"cross-sample edge {p}->{i}")
                if self.atoms[p].layer >= self.atoms[i].layer:
                    raise ValueError(f"non-topological edge {p}->{i}")
        for layer, grid in self.grids.items():
            covered = sum(r.num_elements for r in grid.regions())
            if covered != grid.shape.num_elements:
                raise ValueError(f"layer {layer} tiles do not cover its output")


def build_atomic_dag(
    graph: Graph,
    tiling: dict[int, TileSize],
    cost_model: EngineCostModel,
    batch: int = 1,
) -> AtomicDAG:
    """Partition a layer graph into its atomic DAG.

    Args:
        graph: Layer graph (typically already elementwise-fused).
        tiling: Tile size per non-input layer id (from the SA generator or a
            baseline policy).  Missing layers default to whole-layer tiles.
        cost_model: Engine cost model used to price each atom.
        batch: Batch size; the DAG contains ``batch`` identical sub-DAGs.

    Returns:
        The constructed :class:`AtomicDAG`.

    Raises:
        ValueError: On non-positive batch size.
    """
    if batch <= 0:
        raise ValueError("batch must be positive")

    dag = AtomicDAG(graph=graph, batch=batch)
    dag.layer_depth = graph.depths()

    layer_nodes = [n for n in graph.nodes if not isinstance(n.op, Input)]
    input_ids = {n.node_id for n in graph.nodes if isinstance(n.op, Input)}

    for node in layer_nodes:
        shape = node.output_shape
        in_shapes = graph.input_shapes(node.node_id)
        in_channels = in_shapes[0].channels if in_shapes else 1
        tile = tiling.get(
            node.node_id,
            TileSize(shape.height, shape.width, max(in_channels, 1), shape.channels),
        )
        dag.grids[node.node_id] = grid_for(shape, tile, in_channels)

    # Price each layer's whole tile lattice in one vectorized kernel call;
    # batch samples share the same tiles, so one pricing serves them all
    # (the scalar path's memo produced the same sharing, query by query).
    kernel = cost_model.kernel
    bounds_of: dict[int, np.ndarray] = {}
    columns_of: dict[int, tuple] = {}
    for node in layer_nodes:
        bounds = grid_bounds(dag.grids[node.node_id])
        bounds_of[node.node_id] = bounds
        in_shapes = graph.input_shapes(node.node_id)
        arrays = kernel.price_regions(node.op, in_shapes, bounds)
        columns_of[node.node_id] = (
            arrays.cycles.tolist(),
            arrays.macs.tolist(),
            arrays.pe_utilization.tolist(),
            arrays.uses_pe_array,
            arrays.ifmap_bytes.tolist(),
            arrays.weight_bytes.tolist(),
            arrays.ofmap_bytes.tolist(),
        )

    table = AtomCostTable()
    dag.costs = table
    for sample in range(batch):
        for node in layer_nodes:
            grid = dag.grids[node.node_id]
            dag._base[(sample, node.node_id)] = len(dag.atoms)
            for x in range(grid.num_tiles):
                region = grid.region(x)
                dag.atoms.append(Atom(AtomId(sample, node.node_id, x), region))
            table.extend_columns(*columns_of[node.node_id])
    num = dag.num_atoms
    dag.preds = [()] * num
    pred_bytes: list[tuple[int, ...]] = [()] * num
    dag._pred_bytes = pred_bytes
    dag.succs = [()] * num
    dag.dram_input_bytes = [0] * num
    dag._atom_cycles = table.cycles
    dag._atom_weight_bytes = table.weight_bytes

    # Edges, derived for sample 0 and replicated: the atom layout is
    # sample-major with identical per-sample blocks, so every index shifts
    # by a fixed stride per sample.
    per_sample = num // batch
    succs_mut: list[list[int]] = [[] for _ in range(num)]
    bpe = cost_model.bytes_per_element
    for node in layer_nodes:
        in_shapes = graph.input_shapes(node.node_id)
        statics = kernel.statics(node.op, in_shapes)
        bounds = bounds_of[node.node_id]
        base0 = dag._base[(0, node.node_id)]
        n_tiles = len(bounds)
        dram = np.zeros(n_tiles, dtype=np.int64)
        cons_parts: list[np.ndarray] = []
        prod_parts: list[np.ndarray] = []
        byte_parts: list[np.ndarray] = []
        for idx, src in enumerate(node.inputs):
            if isinstance(node.op, Concat):
                sel = np.nonzero(concat_overlap_mask(statics, idx, bounds))[0]
                if not len(sel):
                    continue
                b = bounds[sel]
            else:
                sel = np.arange(n_tiles, dtype=np.int64)
                b = bounds
            h_lo, h_hi, w_lo, w_hi, c_lo, c_hi = input_span_arrays(
                statics, idx, b
            )
            if src in input_ids:
                dram[sel] += (
                    (h_hi - h_lo + 1) * (w_hi - w_lo + 1) * (c_hi - c_lo + 1)
                ) * bpe
                continue
            src_grid = dag.grids[src]
            src_shape = src_grid.shape
            th, tw, tc = src_grid.tile.h, src_grid.tile.w, src_grid.tile.co
            # Clip to the producer tensor (tiles_covering's clipped_to).
            h_lo = np.maximum(h_lo, 0)
            h_hi = np.minimum(h_hi, src_shape.height - 1)
            w_lo = np.maximum(w_lo, 0)
            w_hi = np.minimum(w_hi, src_shape.width - 1)
            c_lo = np.maximum(c_lo, 0)
            c_hi = np.minimum(c_hi, src_shape.channels - 1)
            ih_lo, ih_hi = h_lo // th, h_hi // th
            iw_lo, iw_hi = w_lo // tw, w_hi // tw
            ic_lo, ic_hi = c_lo // tc, c_hi // tc
            nh = ih_hi - ih_lo + 1
            nw = iw_hi - iw_lo + 1
            nc = ic_hi - ic_lo + 1
            counts = nh * nw * nc
            total = int(counts.sum())
            if total == 0:
                continue
            offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
            rep = np.repeat(np.arange(len(b), dtype=np.int64), counts)
            local = np.arange(total, dtype=np.int64) - offsets[rep]
            nwc = (nw * nc)[rep]
            nc_rep = nc[rep]
            ih = ih_lo[rep] + local // nwc
            rest = local % nwc
            iw = iw_lo[rep] + rest // nc_rep
            ic = ic_lo[rep] + rest % nc_rep
            p_local = (
                ih * (src_grid.tiles_w * src_grid.tiles_c)
                + iw * src_grid.tiles_c
                + ic
            )
            ov_h = (
                np.minimum(h_hi[rep], np.minimum((ih + 1) * th, src_shape.height) - 1)
                - np.maximum(h_lo[rep], ih * th)
                + 1
            )
            ov_w = (
                np.minimum(w_hi[rep], np.minimum((iw + 1) * tw, src_shape.width) - 1)
                - np.maximum(w_lo[rep], iw * tw)
                + 1
            )
            ov_c = (
                np.minimum(c_hi[rep], np.minimum((ic + 1) * tc, src_shape.channels) - 1)
                - np.maximum(c_lo[rep], ic * tc)
                + 1
            )
            cons_parts.append(sel[rep])
            prod_parts.append(p_local + dag._base[(0, src)])
            byte_parts.append(ov_h * ov_w * ov_c * bpe)

        if dram.any():
            dram_list = dram.tolist()
            for sample in range(batch):
                off = sample * per_sample + base0
                for x, nbytes in enumerate(dram_list):
                    if nbytes:
                        dag.dram_input_bytes[off + x] = nbytes
        if not cons_parts:
            continue
        cons = np.concatenate(cons_parts)
        prod = np.concatenate(prod_parts)
        nbytes_all = np.concatenate(byte_parts)
        # Merge duplicate (consumer, producer) pairs — a consumer may read
        # one producer atom through several inputs — and sort by consumer
        # then producer, reproducing the scalar builder's accumulation into
        # a dict followed by tuple(sorted(...)).
        order = np.lexsort((prod, cons))
        cons, prod, nbytes_all = cons[order], prod[order], nbytes_all[order]
        fresh = np.concatenate(
            ([True], (cons[1:] != cons[:-1]) | (prod[1:] != prod[:-1]))
        )
        starts = np.nonzero(fresh)[0]
        merged_bytes = np.add.reduceat(nbytes_all, starts)
        cons_u = cons[starts]
        prod_u = prod[starts]
        group_starts = np.nonzero(
            np.concatenate(([True], cons_u[1:] != cons_u[:-1]))
        )[0]
        group_ends = np.concatenate((group_starts[1:], [len(cons_u)]))
        cons_list = cons_u[group_starts].tolist()
        prod_list = prod_u.tolist()
        bytes_list = merged_bytes.tolist()
        gs_list = group_starts.tolist()
        ge_list = group_ends.tolist()
        for sample in range(batch):
            shift = sample * per_sample
            gi_base = base0 + shift
            for c_local, lo, hi in zip(cons_list, gs_list, ge_list):
                gi = gi_base + c_local
                preds = tuple(p + shift for p in prod_list[lo:hi])
                dag.preds[gi] = preds
                pred_bytes[gi] = tuple(bytes_list[lo:hi])
                for p, nb in zip(preds, bytes_list[lo:hi]):
                    succs_mut[p].append(gi)
                    dag.edge_bytes[(p, gi)] = nb
    dag.succs = [tuple(s) for s in succs_mut]
    return dag
