"""Tests for the flit-level wormhole NoC simulator."""

import pytest

from repro.config import ArchConfig, NocConfig
from repro.noc import Mesh2D, NocModel, Transfer, WormholeSimulator


@pytest.fixture
def mesh():
    return Mesh2D(4, 4)


@pytest.fixture
def sim(mesh):
    return WormholeSimulator(
        mesh, NocConfig(hop_cycles=1, link_bits=64, router_overhead_cycles=2)
    )


class TestSinglePacket:
    def test_uncontended_latency(self, sim):
        # 64 B = 8 flits over 3 hops: 2 (router) + 3 (hops) + 8 (flits).
        res = sim.simulate([Transfer(0, 3, 64)])
        assert res.makespan == 2 + 3 + 8
        assert res.packets[0].latency == res.makespan

    def test_local_packet_free(self, sim):
        res = sim.simulate([Transfer(5, 5, 4096)])
        assert res.makespan == 0

    def test_empty_batch(self, sim):
        assert sim.simulate([]).makespan == 0

    def test_head_precedes_tail(self, sim):
        res = sim.simulate([Transfer(0, 15, 640)])
        p = res.packets[0]
        assert p.head_arrival < p.tail_arrival
        assert p.tail_arrival - p.head_arrival == 80  # flit count


class TestContention:
    def test_shared_link_serializes(self, sim):
        # Both packets leave engine 0 eastward: second head waits for the
        # first tail on link (0, 1).
        ts = [Transfer(0, 1, 640), Transfer(0, 2, 640)]
        res = sim.simulate(ts)
        lat = sorted(p.tail_arrival for p in res.packets)
        assert lat[1] >= lat[0] + 80  # serialized behind 80 flits

    def test_disjoint_routes_parallel(self, sim):
        ts = [Transfer(0, 1, 640), Transfer(14, 15, 640)]
        res = sim.simulate(ts)
        solo = sim.simulate([ts[0]]).makespan
        assert res.makespan == solo

    def test_start_times_offset(self, sim):
        ts = [Transfer(0, 1, 64), Transfer(0, 1, 64)]
        res = sim.simulate(ts, start_times=[0, 100])
        assert max(p.tail_arrival for p in res.packets) >= 100

    def test_start_times_length_checked(self, sim):
        with pytest.raises(ValueError):
            sim.simulate([Transfer(0, 1, 64)], start_times=[0, 1])

    def test_link_busy_accounting(self, sim, mesh):
        ts = [Transfer(0, 3, 64)]
        res = sim.simulate(ts)
        assert set(res.link_busy_cycles) == set(mesh.route(0, 3))
        assert res.busiest_link_cycles == 8


class TestAgainstAnalyticalModel:
    """The analytical Round bound must stay a lower bound on wormhole time
    and within a modest factor of it for realistic batches."""

    @pytest.mark.parametrize("pattern", ["fanout", "fanin", "shift", "mixed"])
    def test_bound_holds(self, mesh, pattern):
        cfg = NocConfig()
        analytical = NocModel(mesh, cfg, ArchConfig().energy)
        wormhole = WormholeSimulator(mesh, cfg)
        n = mesh.num_engines
        if pattern == "fanout":
            ts = [Transfer(0, d, 256) for d in range(1, n)]
        elif pattern == "fanin":
            ts = [Transfer(s, 0, 256) for s in range(1, n)]
        elif pattern == "shift":
            ts = [Transfer(i, (i + 1) % n, 256) for i in range(n)]
        else:
            ts = [Transfer(i, (i * 7 + 3) % n, 128 + 64 * i) for i in range(n)]
        bound = analytical.round_cost(
            [t.src for t in ts], [t.dst for t in ts], [t.size_bytes for t in ts]
        ).cycles
        exact = wormhole.simulate(ts).makespan
        assert bound <= exact
        assert exact <= 4 * bound + 64  # the bound is reasonably tight


class TestSimulatorIntegration:
    def test_wormhole_mode_runs_and_is_slower_or_equal(
        self, small_arch, chain_dag
    ):
        from repro.mapping import optimized_placement
        from repro.scheduling import schedule_greedy
        from repro.sim import SystemSimulator

        schedule = schedule_greedy(chain_dag, small_arch.num_engines)
        placement = optimized_placement(
            chain_dag, Mesh2D(small_arch.mesh_rows, small_arch.mesh_cols),
            schedule,
        )
        analytical = SystemSimulator(small_arch, chain_dag).run(
            schedule, placement
        )
        wormhole = SystemSimulator(
            small_arch, chain_dag, noc_mode="wormhole"
        ).run(schedule, placement)
        assert wormhole.total_cycles >= analytical.total_cycles
        # Same compute and traffic; only NoC timing differs.
        assert wormhole.compute_cycles == analytical.compute_cycles
        assert wormhole.dram_bytes_read == analytical.dram_bytes_read

    def test_unknown_mode_rejected(self, small_arch, chain_dag):
        from repro.sim import SystemSimulator

        with pytest.raises(ValueError, match="noc_mode"):
            SystemSimulator(small_arch, chain_dag, noc_mode="optical")
