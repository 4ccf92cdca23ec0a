"""Negative-path tests for the AD4xx buffering-feasibility rules.

Byte geometry of the tiny chain (see conftest): every atom output is
256 B; weight slices are 288 B (c1), 576 B (c2), 64 B (c3).  Capacities
below are chosen around those sizes to force each scenario.
"""

from __future__ import annotations

from repro.analysis import check_buffering
from repro.buffering import BufferPolicy
from repro.scheduling import Round, Schedule


def fired(dag, schedule, placement, capacity, **kw):
    return check_buffering(
        dag, schedule, placement, 2, capacity, **kw
    ).fired_rule_ids()


class TestCleanBuffering:
    def test_ample_capacity_is_clean(self, tiny_solution):
        dag, schedule, placement = tiny_solution
        report = check_buffering(dag, schedule, placement, 2, 1 << 15)
        assert report.ok and not report.diagnostics


class TestAD403OversizedOutput:
    def test_output_larger_than_buffer(self, tiny_solution):
        dag, schedule, placement = tiny_solution
        # 128 B buffers: every 256 B output with consumers (c1/c2 atoms)
        # can never be reused on-chip.  The only weight that still fits
        # (c3, 64 B) stores without eviction, so nothing else fires.
        report = check_buffering(dag, schedule, placement, 2, 128)
        assert report.fired_rule_ids() == {"AD403"}
        assert report.ok  # warnings only
        assert len(report.by_rule("AD403")) == 4


class _UnderFreeingPolicy(BufferPolicy):
    """A broken Algorithm 3 that never actually evicts anything."""

    def make_room(self, buffer, needed_bytes, t0):
        return []


class TestAD401CapacityOverflow:
    def test_under_freeing_policy_overflows(self, tiny_solution):
        dag, schedule, placement = tiny_solution
        # 600 B: engine 0 stores the c1 weight slice (288 B, under the
        # 300 B weight limit) and c1_0's output (256 B); storing c2_0's
        # output then needs an eviction the broken policy refuses.
        report = check_buffering(
            dag,
            schedule,
            placement,
            2,
            600,
            policy=_UnderFreeingPolicy(dag, schedule),
        )
        assert report.fired_rule_ids() == {"AD401"}
        assert not report.ok

    def test_real_policy_is_not_blamed(self, tiny_solution):
        dag, schedule, placement = tiny_solution
        assert "AD401" not in fired(dag, schedule, placement, 600)


class TestAD402PrematureEviction:
    def test_eviction_of_entry_needed_this_round(self, tiny_dag):
        # Serialize the two c1 atoms onto engine 0.  When c1_1's output is
        # stored while provisioning round 2, the only evictable entry is
        # c1_0's output — whose consumers (the c2 atoms) run in round 2.
        # Algorithm 3 must evict it anyway (320 B cannot hold both 256 B
        # outputs) and the validator flags the same-Round DRAM round-trip.
        schedule = Schedule(
            rounds=[
                Round(0, (0,)),
                Round(1, (1,)),
                Round(2, (2, 3)),
                Round(3, (4, 5)),
            ]
        )
        placement = {0: 0, 1: 0, 2: 0, 3: 1, 4: 0, 5: 1}
        report = check_buffering(tiny_dag, schedule, placement, 2, 320)
        assert report.fired_rule_ids() == {"AD402"}
        assert report.ok  # warning only
        # Storing c2_0's output (round 2) then drops c1_1's output, which
        # looks dead from round 3 but c2_1 (atom 3) still reads it in
        # round 2: the same-Round case below, flagged as well.
        first, second = report.by_rule("AD402")
        assert "needed again in round 2" in first.message
        assert "entry 1 " in second.message
        assert "atom 3 of round 2 still reads it" in second.message

    def test_eviction_of_entry_a_later_atom_of_the_round_reads(self, tiny_solution):
        # Greedy schedule: round 0 = (c1_0, c1_1), round 1 = (c2_0, c2_1)
        # on engines 0 and 1; both c2 atoms read both c1 outputs.  Storing
        # c2_0's output on engine 0 (provisioned for round 2) must drop
        # c1_0's output, which has no reader from round 2 on -- but c2_1,
        # later in round 1, still reads it and so fetches it from DRAM.
        dag, schedule, placement = tiny_solution
        assert schedule.rounds[1].atom_indices == (2, 3)
        assert placement[2] == 0 and 3 in dag.succs[0]
        report = check_buffering(dag, schedule, placement, 2, 320)
        assert report.fired_rule_ids() == {"AD402"}
        assert report.ok  # warning only
        [diag] = report.by_rule("AD402")
        assert diag.location == "engine 0"
        assert "entry 0 " in diag.message
        assert "atom 3 of round 1 still reads it" in diag.message
