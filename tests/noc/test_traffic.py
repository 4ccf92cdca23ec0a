"""Tests for the contention-aware NoC traffic model."""

import math
import random
from collections import defaultdict

import pytest

from repro.config import EnergyConfig, NocConfig
from repro.noc import Mesh2D, NocModel, NocRoundCost, Torus2D, Transfer


def _columns(transfers):
    """A transfer batch as the parallel src/dst/bytes lists NocModel takes."""
    return (
        [t.src for t in transfers],
        [t.dst for t in transfers],
        [t.size_bytes for t in transfers],
    )


@pytest.fixture
def noc():
    return NocModel(
        Mesh2D(4, 4),
        NocConfig(hop_cycles=1, link_bits=64, router_overhead_cycles=2),
        EnergyConfig(noc_pj_per_bit_hop=0.61),
    )


class TestSingleTransfer:
    def test_latency_components(self, noc):
        # 64 B over 3 hops on a 64 b link: 2 + 3 + 8 cycles.
        t = Transfer(src=0, dst=3, size_bytes=64)
        assert noc.transfer_cycles(t) == 2 + 3 + 8

    def test_local_transfer_free(self, noc):
        assert noc.transfer_cycles(Transfer(src=5, dst=5, size_bytes=1000)) == 0

    def test_zero_bytes_free(self, noc):
        assert noc.transfer_cycles(Transfer(src=0, dst=1, size_bytes=0)) == 0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Transfer(src=0, dst=1, size_bytes=-1)


class TestRoundCost:
    def test_disjoint_transfers_run_in_parallel(self, noc):
        # 0->1 and 14->15 share no link: cost = one transfer's latency.
        ts = [Transfer(0, 1, 64), Transfer(14, 15, 64)]
        cost = noc.round_cost(*_columns(ts))
        assert cost.cycles == noc.transfer_cycles(ts[0])

    def test_shared_link_serializes(self, noc):
        # Both flows cross the (0,1) link east: occupancy adds up.
        ts = [Transfer(0, 1, 640), Transfer(0, 2, 640)]
        cost = noc.round_cost(*_columns(ts))
        assert cost.busiest_link_cycles == 2 * 80
        assert cost.cycles >= 160

    def test_energy_proportional_to_bit_hops(self, noc):
        ts = [Transfer(0, 3, 100)]  # 3 hops
        cost = noc.round_cost(*_columns(ts))
        assert cost.energy_pj == pytest.approx(8 * 100 * 3 * 0.61)
        assert cost.total_hop_bits == 8 * 100 * 3

    def test_empty_round_free(self, noc):
        cost = noc.round_cost(*_columns([]))
        assert cost.cycles == 0 and cost.energy_pj == 0.0

    def test_local_transfers_ignored(self, noc):
        cost = noc.round_cost(*_columns([Transfer(4, 4, 10_000)]))
        assert cost.cycles == 0 and cost.total_hop_bits == 0


def _reference_round_cost(model: NocModel, transfers) -> NocRoundCost:
    """The pre-vectorization per-transfer walk, kept as the golden oracle.

    Serialization is ``math.ceil`` of a float quotient, occupancy is a
    per-link dict over ``mesh.route``, hop-bits use the route *length*
    (not the hop distance — they differ if a routing scheme ever takes a
    non-minimal path), and energy accumulates sequentially in transfer
    order.  The vectorized :meth:`NocModel.round_cost` must match all
    four fields exactly, floats included.
    """
    link_occupancy: dict[tuple[int, int], int] = defaultdict(int)
    max_single = 0
    total_hop_bits = 0
    energy_pj = 0.0
    for t in transfers:
        if t.src == t.dst or t.size_bytes == 0:
            continue
        max_single = max(max_single, model.transfer_cycles(t))
        serialization = math.ceil(8 * t.size_bytes / model.config.link_bits)
        route = model.mesh.route(t.src, t.dst)
        for link in route:
            link_occupancy[link] += serialization
        bits = 8 * t.size_bytes
        total_hop_bits += bits * len(route)
        energy_pj += bits * len(route) * model.energy.noc_pj_per_bit_hop
    busiest = max(link_occupancy.values(), default=0)
    return NocRoundCost(
        cycles=max(max_single, busiest),
        energy_pj=energy_pj,
        total_hop_bits=total_hop_bits,
        busiest_link_cycles=busiest,
    )


class TestVectorizedRoundCostEquivalence:
    """Bit-identical contract of the batched round_cost."""

    @pytest.mark.parametrize("mesh", [Mesh2D(4, 4), Torus2D(4, 4)])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_batches_match_scalar_reference(self, mesh, seed):
        model = NocModel(mesh, NocConfig(), EnergyConfig())
        rng = random.Random(seed)
        n = mesh.num_engines
        transfers = [
            Transfer(
                src=rng.randrange(n),
                dst=rng.randrange(n),  # may equal src: must be filtered
                size_bytes=rng.choice(
                    [0, 1, 7, 63, 64, 65, rng.randrange(1, 100_000)]
                ),
            )
            for _ in range(rng.randrange(1, 40))
        ]
        assert model.round_cost(*_columns(transfers)) == _reference_round_cost(
            model, transfers
        )
        occupancy: dict[tuple[int, int], int] = defaultdict(int)
        for t in transfers:
            if t.src != t.dst and t.size_bytes:
                for link in mesh.route(t.src, t.dst):
                    occupancy[link] += math.ceil(8 * t.size_bytes / 64)
        assert model.link_occupancy(*_columns(transfers)) == dict(occupancy)
        assert model.round_cost(*_columns(transfers)).busiest_link_cycles == max(
            occupancy.values(), default=0
        )

    @pytest.mark.parametrize("mesh", [Mesh2D(4, 4), Torus2D(4, 4)])
    def test_degenerate_batches_match_scalar_reference(self, mesh):
        model = NocModel(mesh, NocConfig(), EnergyConfig())
        for transfers in (
            [],
            [Transfer(3, 3, 500)],  # local only
            [Transfer(0, 1, 0)],  # empty payload only
            [Transfer(2, 2, 0), Transfer(1, 1, 9)],
        ):
            assert model.round_cost(*_columns(transfers)) == _reference_round_cost(
                model, transfers
            )

    def test_torus_wraparound_differs_from_mesh(self):
        """Sanity: the caches are per-topology, not shared across classes."""
        t = Transfer(0, 3, 64)  # corner-to-corner in a 4-wide row
        mesh_cost = NocModel(
            Mesh2D(4, 4), NocConfig(), EnergyConfig()
        ).round_cost(*_columns([t]))
        torus_cost = NocModel(
            Torus2D(4, 4), NocConfig(), EnergyConfig()
        ).round_cost(*_columns([t]))
        assert torus_cost.total_hop_bits < mesh_cost.total_hop_bits
