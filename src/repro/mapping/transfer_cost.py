"""TransferCost evaluation for atom-engine mappings (Sec. IV-C).

The paper's objective for placing one Round's atoms:

    TransferCost(P) = sum_i sum_j D(i, j) * Size(tensor moved i -> j)

where ``D`` is the mesh hop distance and ``P`` a permutation of the layers
involved in the Round.  Data already resident on the destination engine
costs zero, which is exactly what good placements exploit.
"""

from __future__ import annotations

import numpy as np

from repro.atoms.dag import AtomicDAG
from repro.noc.mesh import Mesh2D


#: Hop-equivalent penalty for fetching a byte from DRAM instead of a
#: neighbouring buffer (an HBM access costs far more than one mesh hop).
DRAM_HOP_PENALTY = 8


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


def round_transfer_cost(
    dag: AtomicDAG,
    mesh: Mesh2D,
    placement: dict[int, int],
    round_atoms: tuple[int, ...],
    slots: tuple[int, ...],
    weight_home: dict[tuple[int, int], int] | None = None,
) -> int:
    """Hop-weighted bytes moved to feed one Round under a slot assignment.

    Args:
        dag: The atomic DAG (provides edges and payload sizes).
        mesh: The engine mesh (provides ``D(i, j)``).
        placement: Engine of every atom placed in *earlier* Rounds.
        round_atoms: Atoms of this Round, in slot order.
        slots: Engine index per round atom (parallel to ``round_atoms``).
        weight_home: Engine that first loaded each weight slice; when given,
            atoms are drawn toward their slice's home (reuse) and charged a
            DRAM penalty for homeless slices, so the permutation search also
            optimizes weight locality.

    Returns:
        Sum over dependencies of ``hops x bytes``.  Data that must come from
        DRAM (spilled predecessors, first-touch weights) is charged a flat
        position-independent penalty — it costs the same from any engine, so
        it must not bias the slot assignment.
    """
    rows, srcs, sizes, total = _gather_round_traffic(
        dag, placement, round_atoms, weight_home
    )
    if rows:
        dist = mesh.distance_array()
        dsts = [slots[i] for i in rows]
        total += int(
            (dist[srcs, dsts] * np.asarray(sizes, dtype=np.int64)).sum()
        )
    return total
