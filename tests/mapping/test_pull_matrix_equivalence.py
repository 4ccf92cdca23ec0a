"""Golden equivalence: the pull-matrix mapper vs the scatter-add reference.

:func:`round_cost_matrix` scatters a Round's incoming bytes into an
``(atom, engine)`` pull matrix and multiplies it by the hop distances to
each slot; :mod:`tests.mapping.reference_placement` keeps the
``(transfer, slot)`` expansion and ``np.add.at`` it replaced.  Matrices
and DRAM constants must be equal entry for entry on random placements
(spilled predecessors, homeless and homed weight slices) on the mesh and
the torus, and :func:`optimized_placement` must place every atom where
the reference does.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.atoms import TileSize, build_atomic_dag, uniform_tiling
from repro.config import EngineConfig
from repro.engine import EngineCostModel, get_dataflow
from repro.ir.transforms import fuse_elementwise
from repro.mapping import optimized_placement, round_transfer_cost
from repro.mapping.transfer_cost import round_cost_matrix
from repro.models import get_model
from repro.noc import Mesh2D, Torus2D
from repro.scheduling import schedule_greedy, schedule_pruned

from tests.mapping import reference_placement as ref

MESHES = (Mesh2D(3, 3), Torus2D(3, 3), Torus2D(2, 4))


def _mesh_id(mesh: Mesh2D) -> str:
    return f"{type(mesh).__name__}-{mesh.rows}x{mesh.cols}"


@pytest.fixture(
    scope="module",
    params=[("mobilenet_v2_bench", 1), ("nasnet_bench", 2)],
    ids=lambda p: f"{p[0]}-batch{p[1]}",
)
def zoo_dag(request):
    model, batch = request.param
    graph = fuse_elementwise(get_model(model)).graph
    cost_model = EngineCostModel(
        EngineConfig(pe_rows=8, pe_cols=8), get_dataflow("kc")
    )
    return build_atomic_dag(
        graph, uniform_tiling(graph, TileSize(8, 8, 32, 32)), cost_model, batch
    )


def _weight_homes(dag, atoms, rng, num_engines):
    """No homes tracked, none known yet, some known, and all known."""
    keys = {dag.weight_keys[a] for a in atoms} - {None}
    partial = {
        wk: rng.randrange(num_engines)
        for wk in sorted(keys)
        if rng.random() < 0.5
    }
    full = {wk: rng.randrange(num_engines) for wk in sorted(keys)}
    return [None, {}, partial, full]


@pytest.mark.parametrize("mesh", MESHES, ids=_mesh_id)
def test_cost_matrix_matches_scatter_add_reference(zoo_dag, mesh):
    rng = random.Random(11)
    n = mesh.num_engines
    placement: dict[int, int] = {}
    spilled = 0
    for rnd in schedule_greedy(zoo_dag, n).rounds:
        atoms = rnd.atom_indices
        slots = tuple(rng.sample(range(n), len(atoms)))
        for home in _weight_homes(zoo_dag, atoms, rng, n):
            matrix, const = round_cost_matrix(
                zoo_dag, mesh, placement, atoms, slots, home
            )
            ref_matrix, ref_const = ref.round_cost_matrix(
                zoo_dag, mesh, placement, atoms, slots, home
            )
            assert matrix.dtype == np.int64
            assert np.array_equal(matrix, ref_matrix)
            assert const == ref_const
            ordered = list(atoms)
            rng.shuffle(ordered)
            row_of = {a: i for i, a in enumerate(atoms)}
            assert round_transfer_cost(
                zoo_dag, mesh, placement, tuple(ordered), slots, home
            ) == const + sum(
                int(matrix[row_of[a], j]) for j, a in enumerate(ordered)
            )
        for a in atoms:
            # A quarter of the outputs spill: their consumers pay the DRAM
            # constant instead of a hop distance.
            if rng.random() < 0.75:
                placement[a] = rng.randrange(n)
            else:
                spilled += 1
    assert spilled


@pytest.mark.parametrize("mesh", MESHES, ids=_mesh_id)
@pytest.mark.parametrize("scheduler", ["greedy", "pruned"])
def test_optimized_placement_matches_reference(zoo_dag, mesh, scheduler):
    n = mesh.num_engines
    if scheduler == "greedy":
        schedule = schedule_greedy(zoo_dag, n)
    else:
        schedule = schedule_pruned(zoo_dag, n, lookahead=1)
    assert optimized_placement(zoo_dag, mesh, schedule) == (
        ref.optimized_placement(zoo_dag, mesh, schedule)
    )
