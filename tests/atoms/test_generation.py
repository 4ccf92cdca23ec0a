"""Tests for SA/GA atomic tensor generation (Algorithm 1)."""

import numpy as np
import pytest

from repro.atoms import (
    AtomGenerator,
    GAParams,
    SAParams,
    TileSize,
    derive_vector_tiling,
    layer_sequential_tiling,
    grid_for,
)
from repro.config import EngineConfig
from repro.engine import EngineCostModel, get_dataflow
from repro.ir import GraphBuilder, Input
from repro.ir.transforms import fuse_elementwise
from repro.models import resnet50


def _small_net():
    b = GraphBuilder(name="gen")
    x = b.input(16, 16, 16)
    x = b.conv_bn_relu(x, 32, kernel=3, name="c1")
    x = b.conv_bn_relu(x, 32, kernel=3, name="c2")
    x = b.max_pool(x, kernel=2, name="p")
    x = b.conv_bn_relu(x, 64, kernel=3, name="c3")
    return fuse_elementwise(b.build()).graph


@pytest.fixture
def generator():
    engine = EngineConfig(pe_rows=8, pe_cols=8, buffer_bytes=32 * 1024)
    cm = EngineCostModel(engine, get_dataflow("kc"))
    return AtomGenerator(_small_net(), cm, rng=np.random.default_rng(7))


class TestSA:
    def test_produces_tiling_for_all_layers(self, generator):
        res = generator.generate_sa(SAParams(max_iterations=30))
        graph = generator.graph
        non_input = [
            n.node_id for n in graph.nodes if not isinstance(n.op, Input)
        ]
        assert set(res.tiling) == set(non_input)

    def test_balances_cycles(self, generator):
        res = generator.generate_sa(SAParams(max_iterations=60))
        cycles = np.array(list(res.layer_cycles.values()), dtype=float)
        # Normalized std below 60%: layers with very different shapes end up
        # within the same cycle neighbourhood.
        assert cycles.std() / cycles.mean() < 0.6

    def test_history_recorded(self, generator):
        res = generator.generate_sa(SAParams(max_iterations=15))
        assert len(res.history) == res.iterations + 1

    def test_converges_not_worse_than_start(self, generator):
        res = generator.generate_sa(SAParams(max_iterations=60))
        assert res.energy <= res.history[0] + 1e-9

    def test_deterministic_given_seed(self):
        engine = EngineConfig(pe_rows=8, pe_cols=8, buffer_bytes=32 * 1024)
        cm = EngineCostModel(engine, get_dataflow("kc"))
        g = _small_net()
        r1 = AtomGenerator(g, cm, rng=np.random.default_rng(3)).generate_sa(
            SAParams(max_iterations=20)
        )
        r2 = AtomGenerator(g, cm, rng=np.random.default_rng(3)).generate_sa(
            SAParams(max_iterations=20)
        )
        assert r1.tiling == r2.tiling

    def test_parallel_hint_keeps_layers_fine_grained(self, generator):
        res = generator.generate_sa(SAParams(max_iterations=40), parallel_hint=8)
        graph = generator.graph
        for node in graph.compute_nodes():
            grid = grid_for(node.output_shape, res.tiling[node.node_id])
            # Layers large enough must yield at least a handful of atoms.
            if node.output_shape.num_elements >= 8 * 64:
                assert grid.num_tiles >= 4

    def test_tiles_respect_buffer(self, generator):
        res = generator.generate_sa(SAParams(max_iterations=30))
        for node in generator.graph.compute_nodes():
            cycles = generator.atom_cycles(
                node,
                generator._even_coeffs(node, 8),
            )
            assert cycles < 10**12  # feasible seed exists for each layer


class TestSharedGenerator:
    """A search anneals every restart and rung on one generator, so its
    cost lattice and axis memo must never change an answer."""

    @staticmethod
    def _fresh():
        engine = EngineConfig(pe_rows=8, pe_cols=8, buffer_bytes=32 * 1024)
        return AtomGenerator(
            _small_net(), EngineCostModel(engine, get_dataflow("kc"))
        )

    @pytest.mark.parametrize("hint", [8, None])
    def test_warm_generator_matches_fresh(self, hint):
        warm = self._fresh()
        warm.generate_sa(
            SAParams(max_iterations=25, temperature=4.0, schedule="linear"),
            parallel_hint=4,
            rng=np.random.default_rng(99),
        )
        warm.generate_sa(
            SAParams(max_iterations=25, cooling=0.9),
            parallel_hint=None,
            rng=np.random.default_rng(5),
        )
        assert any(warm._cost_lattice.values())
        assert any(warm._axis_memo.values())

        params = SAParams(max_iterations=40)
        got = warm.generate_sa(
            params, parallel_hint=hint, rng=np.random.default_rng(1)
        )
        want = self._fresh().generate_sa(
            params, parallel_hint=hint, rng=np.random.default_rng(1)
        )
        assert got.tiling == want.tiling
        assert got.energy == want.energy
        assert got.history == want.history
        assert got.layer_cycles == want.layer_cycles

    def test_rng_argument_is_the_chain_stream(self):
        """``rng=`` drives the chain; the generator's own stream is unused."""
        engine = EngineConfig(pe_rows=8, pe_cols=8, buffer_bytes=32 * 1024)
        cm = EngineCostModel(engine, get_dataflow("kc"))
        own = AtomGenerator(_small_net(), cm, rng=np.random.default_rng(3))
        passed = self._fresh()
        params = SAParams(max_iterations=20)
        before = passed.rng.bit_generator.state
        assert passed.generate_sa(
            params, rng=np.random.default_rng(3)
        ).tiling == own.generate_sa(params).tiling
        assert passed.rng.bit_generator.state == before


class TestGA:
    def test_ga_improves_over_generations(self, generator):
        res = generator.generate_ga(GAParams(generations=15, population=10))
        assert res.history[-1] <= res.history[0] + 1e-9

    def test_ga_history_monotone_nonincreasing(self, generator):
        # Elitism: the best individual survives each generation.
        res = generator.generate_ga(GAParams(generations=12, population=8))
        assert all(a >= b - 1e-12 for a, b in zip(res.history, res.history[1:]))


class TestDerivedTiling:
    def test_vector_layers_follow_producer_grid(self):
        g = _small_net()
        pool = next(n for n in g.nodes if type(n.op).__name__ == "Pool")
        compute_tiling = {
            n.node_id: TileSize(8, 8, 16, 16) for n in g.compute_nodes()
        }
        tiling = derive_vector_tiling(g, compute_tiling)
        producer = g.node(pool.inputs[0])
        pgrid = grid_for(producer.output_shape, tiling[producer.node_id])
        vgrid = grid_for(pool.output_shape, tiling[pool.node_id])
        assert (vgrid.tiles_h, vgrid.tiles_w, vgrid.tiles_c) == (
            pgrid.tiles_h,
            pgrid.tiles_w,
            pgrid.tiles_c,
        )

    def test_layer_sequential_tiling_covers_all(self):
        g = _small_net()
        tiling = layer_sequential_tiling(g, 16)
        assert all(
            n.node_id in tiling
            for n in g.nodes
            if not isinstance(n.op, Input)
        )

    def test_layer_sequential_yields_about_n_parts(self):
        g = fuse_elementwise(resnet50(input_size=64)).graph
        tiling = layer_sequential_tiling(g, 16)
        node = g.compute_nodes()[0]
        grid = grid_for(node.output_shape, tiling[node.node_id])
        assert 8 <= grid.num_tiles <= 32
