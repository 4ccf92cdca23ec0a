"""Golden equivalence: the flat-table simulator vs the scalar reference.

:class:`SystemSimulator` walks each atom's inputs through the DAG's flat
``pred_bytes``/``weight_keys`` tables and carries NoC transfers as
parallel lists; :mod:`tests.sim.scalar_reference` keeps the per-atom
``edge_bytes`` walk it replaced.  Every result must be equal field for
field -- integer counters, float energies, the per-Round trace and the
full timeline -- on real zoo workloads, on the mesh and the torus, under
both NoC fidelity models, with buffers small enough that evictions,
spills and remote weight copies all occur.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.atoms import TileSize, build_atomic_dag, uniform_tiling
from repro.config import ArchConfig, EngineConfig, NocConfig
from repro.engine import EngineCostModel, get_dataflow
from repro.ir.transforms import fuse_elementwise
from repro.mapping import optimized_placement
from repro.models import get_model
from repro.noc import make_topology
from repro.scheduling import schedule_greedy
from repro.sim import SystemSimulator

from tests.sim.scalar_reference import ScalarReferenceSimulator

MODELS = ("vgg19_bench", "mobilenet_v2_bench")
TOPOLOGIES = ("mesh", "torus")
NOC_MODES = ("analytical", "wormhole")


def _arch(topology: str, buffer_bytes: int) -> ArchConfig:
    return ArchConfig(
        mesh_rows=3,
        mesh_cols=3,
        engine=EngineConfig(pe_rows=8, pe_cols=8, buffer_bytes=buffer_bytes),
        noc=NocConfig(topology=topology),
    )


@pytest.fixture(scope="module", params=MODELS)
def workload(request):
    """(dag, schedule) for one zoo model on a 9-engine machine."""
    arch = _arch("mesh", 8 * 1024)
    graph = fuse_elementwise(get_model(request.param)).graph
    cost_model = EngineCostModel(arch.engine, get_dataflow("kc"))
    dag = build_atomic_dag(
        graph, uniform_tiling(graph, TileSize(8, 8, 32, 32)), cost_model
    )
    return dag, schedule_greedy(dag, arch.num_engines)


def _shuffled_placement(dag, schedule, num_engines: int, seed: int):
    """Each Round's atoms on a random engine permutation (remote reads)."""
    rng = random.Random(seed)
    placement = {}
    for rnd in schedule.rounds:
        engines = rng.sample(range(num_engines), len(rnd.atom_indices))
        placement.update(zip(rnd.atom_indices, engines))
    return placement


def _assert_equivalent(arch, dag, schedule, placement, noc_mode):
    new = SystemSimulator(arch, dag, noc_mode=noc_mode)
    ref = ScalarReferenceSimulator(arch, dag, noc_mode=noc_mode)
    result, trace = new.run_traced(schedule, placement)
    ref_result, ref_trace = ref.run_traced(schedule, placement)
    assert result == ref_result
    assert result.energy == ref_result.energy  # floats, exactly
    assert trace == ref_trace
    assert new.run(schedule, placement) == ref_result
    assert new.run_timeline(schedule, placement) == ref.run_timeline(
        schedule, placement
    )
    return result


@pytest.mark.parametrize("noc_mode", NOC_MODES)
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_optimized_placement_matches_reference(workload, topology, noc_mode):
    dag, schedule = workload
    arch = _arch(topology, 8 * 1024)
    mesh = make_topology(arch.mesh_rows, arch.mesh_cols, topology)
    placement = optimized_placement(dag, mesh, schedule)
    result = _assert_equivalent(arch, dag, schedule, placement, noc_mode)
    # The small buffer really exercises spills and NoC reuse.
    assert result.dram_bytes_written > 0
    assert result.noc_bytes_hops > 0


@pytest.mark.parametrize("buffer_bytes", [2 * 1024, 64 * 1024])
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_shuffled_placement_matches_reference(workload, topology, buffer_bytes):
    dag, schedule = workload
    arch = _arch(topology, buffer_bytes)
    placement = _shuffled_placement(dag, schedule, arch.num_engines, seed=7)
    _assert_equivalent(arch, dag, schedule, placement, "analytical")


def test_plain_cost_list_matches_cost_table(workload):
    # A hand-built DAG may hold its costs as a plain EngineCost list.
    dag, schedule = workload
    arch = _arch("mesh", 8 * 1024)
    placement = _shuffled_placement(dag, schedule, arch.num_engines, seed=3)
    listed = replace(dag, costs=list(dag.costs))
    assert SystemSimulator(arch, listed).run_traced(
        schedule, placement
    ) == SystemSimulator(arch, dag).run_traced(schedule, placement)
