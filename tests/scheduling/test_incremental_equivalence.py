"""Golden equivalence: the incremental scheduler vs the recomputing reference.

:class:`SchedulerState` keeps its per-Round facts (blocking bytes of the
atoms the last Round made ready, in-progress layers, their depths and
the pending count per sample) up to date on :meth:`~SchedulerState.
commit` and :meth:`~SchedulerState.uncommit`;
:mod:`tests.scheduling.reference_dp` keeps the scheduler that recomputed
them on every query.  Schedules must be identical Round for Round, and a
random commit/undo walk must agree with a from-scratch recomputation
after every step.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.atoms import TileSize, build_atomic_dag, uniform_tiling
from repro.config import EngineConfig
from repro.engine import EngineCostModel, get_dataflow
from repro.ir.transforms import fuse_elementwise
from repro.models import get_model
from repro.scheduling import (
    SchedulerState,
    candidate_combinations,
    classify_ready,
    fill_by_priority,
    schedule_greedy,
    schedule_pruned,
)

from tests.scheduling import reference_dp as ref

#: A chain with residual joins and a branchy cell network (same-depth
#: layers exercise priority rule 2).
MODELS = ("mobilenet_v2_bench", "nasnet_bench")
NUM_ENGINES = 9


def _dag(model: str, batch: int):
    graph = fuse_elementwise(get_model(model)).graph
    cost_model = EngineCostModel(
        EngineConfig(pe_rows=8, pe_cols=8), get_dataflow("kc")
    )
    return build_atomic_dag(
        graph, uniform_tiling(graph, TileSize(8, 8, 32, 32)), cost_model, batch
    )


@pytest.fixture(
    scope="module",
    params=[(m, b) for m in MODELS for b in (1, 3)],
    ids=lambda p: f"{p[0]}-batch{p[1]}",
)
def zoo_dag(request):
    return _dag(*request.param)


@pytest.mark.parametrize("lookahead", [0, 1, 2])
def test_pruned_schedule_matches_reference(zoo_dag, lookahead):
    new = schedule_pruned(zoo_dag, NUM_ENGINES, lookahead=lookahead)
    old = ref.schedule_pruned(zoo_dag, NUM_ENGINES, lookahead=lookahead)
    assert new.rounds == old.rounds
    new.validate(zoo_dag, NUM_ENGINES)


def test_rule_queries_match_reference_along_greedy_schedule(zoo_dag):
    """classify_ready/candidate_combinations agree before every Round."""
    state = SchedulerState(zoo_dag)
    mirror = ref.SchedulerState(zoo_dag)
    rounds = 0
    while state.remaining:
        assert classify_ready(state) == ref.classify_ready(mirror)
        assert candidate_combinations(
            state, NUM_ENGINES
        ) == ref.candidate_combinations(mirror, NUM_ENGINES)
        combo = tuple(fill_by_priority(state, NUM_ENGINES))
        state.commit(combo)
        mirror.commit(combo)
        rounds += 1
    assert rounds == schedule_greedy(zoo_dag, NUM_ENGINES).num_rounds


def _assert_matches_scratch(state: SchedulerState) -> None:
    """Every incremental fact equals a recomputation from ``scheduled``."""
    dag = state.dag
    keys = dag.layer_keys
    scheduled = state.scheduled
    ready = {
        a
        for a in range(dag.num_atoms)
        if not scheduled[a] and all(scheduled[p] for p in dag.preds[a])
    }
    assert state.ready == ready
    last = state.rounds_committed - 1
    for a in ready:
        expected = sum(
            nbytes
            for p, nbytes in zip(dag.preds[a], dag.pred_bytes[a])
            if state.round_of[p] == last
        )
        assert state.blocking_bytes(a) == expected
        assert state.blocking.get(a, 0) == expected
    total = Counter(keys)
    pending = Counter(keys[a] for a in range(dag.num_atoms) if not scheduled[a])
    assert state.layer_remaining == {key: pending[key] for key in total}
    in_progress = {key for key, n in total.items() if 0 < pending[key] < n}
    assert state.in_progress == in_progress
    assert state.depth_in_progress == dict(
        Counter(dag.layer_depth[layer] for _, layer in in_progress)
    )
    samples = Counter(key[0] for key in pending.elements())
    assert state.sample_remaining == {s: samples[s] for s in {k[0] for k in total}}
    assert state.current_sample() == min(samples, default=0)
    assert state.remaining == dag.num_atoms - sum(scheduled)


@pytest.mark.parametrize("seed", [0, 1])
def test_random_commit_undo_walk_matches_scratch(zoo_dag, seed):
    rng = random.Random(seed)
    state = SchedulerState(zoo_dag)
    mirror = ref.SchedulerState(zoo_dag)
    undos: list = []
    mirror_undos: list = []
    _assert_matches_scratch(state)
    for _ in range(120):
        if undos and (not state.remaining or rng.random() < 0.4):
            state.uncommit(undos.pop())
            ref._uncommit(mirror, mirror_undos.pop())
        else:
            ready = sorted(state.ready)
            combo = tuple(
                sorted(rng.sample(ready, rng.randint(1, min(len(ready), 12))))
            )
            undos.append(state.commit(combo))
            mirror_undos.append(ref._commit_with_undo(mirror, combo))
        _assert_matches_scratch(state)
        assert state.rounds_committed == mirror.rounds_committed
        assert state.round_of == mirror.round_of
        for a in state.ready:
            assert state.blocking_bytes(a) == mirror.blocking_bytes(a)
        assert classify_ready(state) == ref.classify_ready(mirror)
        assert state.current_sample() == mirror.current_sample()
    while undos:
        state.uncommit(undos.pop())
    fresh = SchedulerState(zoo_dag)
    for name in ("indegree", "ready", "scheduled", "remaining", "round_of"):
        assert getattr(state, name) == getattr(fresh, name)
    assert state.blocking == {}
    _assert_matches_scratch(state)


def test_rejected_commit_leaves_state_untouched(zoo_dag):
    state = SchedulerState(zoo_dag)
    state.commit(tuple(fill_by_priority(state, NUM_ENGINES)))
    blocked = next(a for a in range(zoo_dag.num_atoms) if state.indegree[a])
    ok = next(iter(sorted(state.ready)))
    with pytest.raises(ValueError):
        state.commit((ok, blocked))
    assert not state.scheduled[ok]
    _assert_matches_scratch(state)
