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


def _round_pulls(
    dag: AtomicDAG,
    mesh: Mesh2D,
    placement: dict[int, int],
    round_atoms: tuple[int, ...],
    weight_home: dict[tuple[int, int], int] | None,
) -> tuple[np.ndarray, int]:
    """One Round's incoming bytes as an ``(atom, source engine)`` matrix.

    ``pulls[i, e]`` is the bytes ``round_atoms[i]`` reads from engine
    ``e`` of ``mesh``: outputs of placed predecessors and, when
    ``weight_home`` is given, its homed weight slice.  The returned
    constant is the slot-independent DRAM charge (spilled predecessors
    and homeless weight slices, :data:`DRAM_HOP_PENALTY` per byte).
    Every engine in ``placement`` and ``weight_home`` must be one of
    ``mesh``'s.
    """
    num_engines = mesh.num_engines
    pulls = [0] * (len(round_atoms) * num_engines)
    const = 0
    where = placement.get
    preds = dag.preds
    pred_bytes = dag.pred_bytes
    weight_keys = dag.weight_keys
    weight_bytes = dag.atom_weight_bytes
    for i, atom in enumerate(round_atoms):
        row = i * num_engines
        for p, nbytes in zip(preds[atom], pred_bytes[atom]):
            src = where(p)
            if src is None:
                const += DRAM_HOP_PENALTY * nbytes
            else:
                pulls[row + src] += nbytes
        if weight_home is not None:
            wk = weight_keys[atom]
            if wk is not None:
                home = weight_home.get(wk)
                if home is None:
                    const += DRAM_HOP_PENALTY * weight_bytes[atom]
                else:
                    pulls[row + home] += weight_bytes[atom]
    matrix = np.array(pulls, dtype=np.int64).reshape(len(round_atoms), num_engines)
    return matrix, const


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

    The matrix is one integer product, :func:`_round_pulls` times the hop
    distances from every engine to each slot, exact in int64.
    """
    pulls, const = _round_pulls(dag, mesh, placement, round_atoms, weight_home)
    return pulls @ mesh.distance_array()[:, slots], const


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
    pulls, const = _round_pulls(dag, mesh, placement, round_atoms, weight_home)
    hops = mesh.distance_array()[:, slots].T
    return int((pulls * hops).sum()) + const
