"""Test-only reference of the mapper before the pull-matrix product.

This is :func:`~repro.mapping.transfer_cost.round_cost_matrix` and
:func:`~repro.mapping.placement.optimized_placement` as they were when a
Round's cost matrix was built by expanding one ``(transfer, slot)`` row
per moved tensor and scattering it with ``np.add.at``, layers were
grouped through :class:`~repro.atoms.atom.Atom` properties, and the
greedy assignment took ``np.argmin`` over a fancy-indexed row.  Only the
layer-permutation search, which this refactor left as it was, is shared
with production.  ``tests/mapping/test_pull_matrix_equivalence.py``
holds the production mapper to it.  Names are kept as they were; import
the module, not its names.
"""

from __future__ import annotations

import numpy as np

from repro.atoms.dag import AtomicDAG
from repro.mapping.placement import MAX_PERMUTATION_LAYERS, _best_permutation
from repro.mapping.transfer_cost import DRAM_HOP_PENALTY
from repro.noc.mesh import Mesh2D
from repro.scheduling.rounds import Schedule


def _gather_round_traffic(
    dag: AtomicDAG,
    placement: dict[int, int],
    round_atoms: tuple[int, ...],
    weight_home: dict[tuple[int, int], int] | None,
) -> tuple[list[int], list[int], list[int], int]:
    """Flatten one Round's incoming traffic into parallel arrays.

    Returns ``(rows, srcs, nbytes, dram_const)``: one entry per transfer
    whose source engine is known (``rows[k]`` indexes into ``round_atoms``),
    plus the slot-independent DRAM constant (spilled predecessors and
    homeless weight slices, charged :data:`DRAM_HOP_PENALTY` per byte).
    """
    rows: list[int] = []
    srcs: list[int] = []
    sizes: list[int] = []
    const = 0
    preds = dag.preds
    pred_bytes = dag.pred_bytes
    weight_keys = dag.weight_keys
    weight_bytes = dag.atom_weight_bytes
    for i, atom in enumerate(round_atoms):
        for p, nbytes in zip(preds[atom], pred_bytes[atom]):
            src = placement.get(p)
            if src is None:
                const += DRAM_HOP_PENALTY * nbytes
            else:
                rows.append(i)
                srcs.append(src)
                sizes.append(nbytes)
        if weight_home is not None:
            wk = weight_keys[atom]
            if wk is not None:
                home = weight_home.get(wk)
                if home is None:
                    const += DRAM_HOP_PENALTY * weight_bytes[atom]
                else:
                    rows.append(i)
                    srcs.append(home)
                    sizes.append(weight_bytes[atom])
    return rows, srcs, sizes, const


def round_cost_matrix(
    dag: AtomicDAG,
    mesh: Mesh2D,
    placement: dict[int, int],
    round_atoms: tuple[int, ...],
    slots: tuple[int, ...],
    weight_home: dict[tuple[int, int], int] | None = None,
) -> tuple[np.ndarray, int]:
    """Per-Round TransferCost as a dense ``(atom, slot)`` matrix.

    ``M[i, j]`` is the hop-weighted bytes ``round_atoms[i]`` pulls when it
    runs on ``slots[j]``; the returned constant is the slot-independent
    DRAM charge summed over the whole Round.  Any candidate assignment's
    :func:`round_transfer_cost` is then a diagonal-style gather:
    ``sum(M[row_of[ordered[j]], j]) + const`` — this is what lets the
    mapper price zig-zag, greedy, and all layer permutations off one
    matrix instead of re-walking edges per candidate.
    """
    rows, srcs, sizes, const = _gather_round_traffic(
        dag, placement, round_atoms, weight_home
    )
    matrix = np.zeros((len(round_atoms), len(slots)), dtype=np.int64)
    if rows:
        dist = mesh.distance_array()
        contrib = (
            dist[np.asarray(srcs, dtype=np.int64)][
                :, np.asarray(slots, dtype=np.int64)
            ]
            * np.asarray(sizes, dtype=np.int64)[:, None]
        )
        np.add.at(matrix, np.asarray(rows, dtype=np.int64), contrib)
    return matrix, const


def _group_by_layer(
    dag: AtomicDAG, atoms: tuple[int, ...]
) -> list[list[int]]:
    """Round atoms grouped by (sample, layer), preserving intra-layer order."""
    groups: dict[tuple[int, int], list[int]] = {}
    for a in atoms:
        atom = dag.atoms[a]
        groups.setdefault((atom.sample, atom.layer), []).append(a)
    return list(groups.values())


def optimized_placement(
    dag: AtomicDAG, mesh: Mesh2D, schedule: Schedule
) -> dict[int, int]:
    """The paper's mapping: per Round, pick the layer permutation with the
    minimum TransferCost (solution B beating solution A in Fig. 7).

    Rounds are placed in order, so each Round sees the final placement of
    all earlier Rounds and the accumulated weight-slice homes.  When a
    Round involves more than :data:`MAX_PERMUTATION_LAYERS` layers, a
    greedy per-atom assignment (heaviest incoming traffic first, cheapest
    free engine each) replaces enumeration.

    Returns:
        Map atom index -> engine index.
    """
    order = mesh.zigzag_order()
    placement: dict[int, int] = {}
    weight_home: dict[tuple[int, int], int] = {}
    weight_keys = dag.weight_keys
    for rnd in schedule.rounds:
        atoms = rnd.atom_indices
        groups = _group_by_layer(dag, atoms)
        slots = order[: len(atoms)]
        matrix, const = round_cost_matrix(
            dag, mesh, placement, atoms, slots, weight_home
        )
        row_of = {a: i for i, a in enumerate(atoms)}
        cols = np.arange(len(atoms), dtype=np.int64)

        def cost_of(ordered: list[int]) -> int:
            rows = np.fromiter(
                (row_of[a] for a in ordered),
                dtype=np.int64,
                count=len(ordered),
            )
            return int(matrix[rows, cols].sum()) + const

        candidates = [
            list(atoms),  # zig-zag as-is: optimal for slot-aligned chains
            _greedy_assignment(dag, atoms, matrix, row_of),
        ]
        if 1 < len(groups) <= MAX_PERMUTATION_LAYERS:
            candidates.append(
                _best_permutation(groups, matrix, row_of, const)
            )
        assignment = min(candidates, key=cost_of)
        for a, e in zip(assignment, slots):
            placement[a] = e
            wk = weight_keys[a]
            if wk is not None and wk not in weight_home:
                weight_home[wk] = e
    return placement


def _greedy_assignment(
    dag: AtomicDAG,
    atoms: tuple[int, ...],
    matrix: np.ndarray,
    row_of: dict[int, int],
) -> list[int]:
    """Assign heaviest-traffic atoms first to their cheapest free engine.

    Columns of ``matrix`` follow the Round's zig-zag slot order, so the
    free-engine scan is a row gather + argmin (first minimum wins, like
    ``min`` over the ordered free list did).
    """
    pred_bytes = dag.pred_bytes
    weight_keys = dag.weight_keys
    weight_bytes = dag.atom_weight_bytes

    def incoming(a: int) -> int:
        total = sum(pred_bytes[a])
        if weight_keys[a] is not None:
            total += weight_bytes[a]
        return total

    remaining = sorted(atoms, key=incoming, reverse=True)
    free = list(range(len(atoms)))  # column indices, in zig-zag slot order
    col_of: dict[int, int] = {}
    for a in remaining:
        row = matrix[row_of[a]]
        best_col = free[int(np.argmin(row[free]))]
        col_of[a] = best_col
        free.remove(best_col)
    # Re-express as an atom ordering over the zig-zag slots.
    atom_at = {col: a for a, col in col_of.items()}
    return [atom_at[col] for col in range(len(atoms))]
