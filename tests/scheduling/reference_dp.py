"""Test-only reference of the pruned DP scheduler before incremental Round state.

This is :mod:`repro.scheduling.priority` and :func:`~repro.scheduling.dp.
schedule_pruned` as they were when every query recomputed its facts:
``blocking_bytes`` walks an atom's inputs against ``round_of`` on each
call, ``classify_ready`` rebuilds the in-progress layers, their depths
and the pending samples from ``layer_remaining``/``layer_started`` on
each call and sorts by :class:`~repro.atoms.atom.Atom` properties, and
the DP mutates the state through its own ``_commit_with_undo`` and
``_uncommit``.  It shares nothing with the production scheduler but the
DAG and the :class:`~repro.scheduling.rounds.Schedule` types, so
``tests/scheduling/test_incremental_equivalence.py`` holds the
incremental scheduler to it Round for Round.  Names are kept as they
were; import the module, not its names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.atoms.dag import AtomicDAG
from repro.scheduling.rounds import Round, Schedule

RoundCostFn = Callable[[AtomicDAG, tuple[int, ...]], float]


@dataclass
class SchedulerState:
    """Mutable bookkeeping shared by the priority rules and the searchers.

    Attributes:
        dag: The atomic DAG being scheduled.
        indegree: Remaining unscheduled predecessors per atom.
        ready: Atom indices whose dependencies have all completed.
        scheduled: Flags per atom.
        remaining: Count of unscheduled atoms.
        layer_remaining: (sample, layer) -> unscheduled atom count.
        layer_started: (sample, layer) pairs with at least one atom scheduled.
        round_of: Round index each scheduled atom ran in (-1 = unscheduled).
        rounds_committed: Rounds committed so far (the next Round's index).
    """

    dag: AtomicDAG
    indegree: list[int] = field(init=False)
    ready: set[int] = field(init=False)
    scheduled: list[bool] = field(init=False)
    remaining: int = field(init=False)
    layer_remaining: dict[tuple[int, int], int] = field(init=False)
    layer_started: set[tuple[int, int]] = field(init=False)
    round_of: list[int] = field(init=False)
    rounds_committed: int = field(init=False)

    def __post_init__(self) -> None:
        self.indegree = self.dag.indegrees()
        self.ready = {i for i, d in enumerate(self.indegree) if d == 0}
        self.scheduled = [False] * self.dag.num_atoms
        self.remaining = self.dag.num_atoms
        self.layer_remaining = {}
        for atom in self.dag.atoms:
            key = (atom.sample, atom.layer)
            self.layer_remaining[key] = self.layer_remaining.get(key, 0) + 1
        self.layer_started = set()
        self.round_of = [-1] * self.dag.num_atoms
        self.rounds_committed = 0

    def blocking_bytes(self, atom: int) -> int:
        """Bytes ``atom`` must receive from the *previous* Round if run now.

        Data produced in the immediately preceding Round cannot be
        prefetched; scheduling such consumers one Round later hides the
        transfer behind compute (the communication term of Algorithm 2's
        round cost).
        """
        last = self.rounds_committed - 1
        round_of = self.round_of
        dag = self.dag
        total = 0
        for p, nbytes in zip(dag.preds[atom], dag.pred_bytes[atom]):
            if round_of[p] == last:
                total += nbytes
        return total

    def current_sample(self) -> int:
        """Smallest sample index with unscheduled atoms (rule 4's 'current')."""
        pending = [s for (s, _), n in self.layer_remaining.items() if n > 0]
        return min(pending) if pending else 0

    def commit(self, chosen: tuple[int, ...]) -> None:
        """Mark a Round's atoms as executed and grow the ready set.

        Successors become ready only after the full Round commits, matching
        Round-synchronized execution.

        Raises:
            ValueError: If a chosen atom is not ready or already scheduled.
        """
        for a in chosen:
            if self.scheduled[a] or a not in self.ready:
                raise ValueError(f"atom {a} is not schedulable now")
        for a in chosen:
            self.scheduled[a] = True
            self.ready.discard(a)
            self.remaining -= 1
            self.round_of[a] = self.rounds_committed
            atom = self.dag.atoms[a]
            key = (atom.sample, atom.layer)
            self.layer_remaining[key] -= 1
            self.layer_started.add(key)
        for a in chosen:
            for s in self.dag.succs[a]:
                self.indegree[s] -= 1
                if self.indegree[s] == 0 and not self.scheduled[s]:
                    self.ready.add(s)
        self.rounds_committed += 1

    def snapshot_key(self) -> frozenset[int]:
        """Hashable identity of the untraversed sub-DAG (the DP Table key)."""
        return frozenset(
            i for i in range(self.dag.num_atoms) if not self.scheduled[i]
        )


def classify_ready(state: SchedulerState) -> tuple[list[int], ...]:
    """Split the ready set into the four priority levels.

    Returns:
        Four lists of atom indices (level 1..4), each sorted by
        (layer, tile index) for determinism.
    """
    dag = state.dag
    current = state.current_sample()
    in_progress = {
        key for key in state.layer_started if state.layer_remaining[key] > 0
    }
    active_depths = {dag.layer_depth[layer] for (_, layer) in in_progress}

    level1: list[int] = []
    level2: list[int] = []
    level3: list[int] = []
    level4: list[int] = []
    for a in state.ready:
        atom = dag.atoms[a]
        key = (atom.sample, atom.layer)
        if atom.sample != current:
            level4.append(a)
        elif key in in_progress:
            level1.append(a)
        elif dag.layer_depth[atom.layer] in active_depths:
            level2.append(a)
        else:
            level3.append(a)
    def order(a: int) -> tuple[int, int, int]:
        atom = dag.atoms[a]
        # Sample-major within a level: waves of consecutive samples stay
        # contiguous, so producer and consumer Rounds keep the same slot
        # alignment (level 4 holds several pending samples at once).
        return (atom.sample, atom.layer, atom.atom_id.index)

    for lst in (level1, level2, level3, level4):
        lst.sort(key=order)
    return level1, level2, level3, level4


def candidate_combinations(
    state: SchedulerState, num_engines: int, max_options: int = 5
) -> list[tuple[int, ...]]:
    """Generate the pruned option set ``{Comb_i}`` for one Round.

    Besides the canonical priority fill, emits a few principled variants the
    DP can compare (Algorithm 2 line 8): a cycle-balanced fill (largest atoms
    first, to shorten the max-synchronized Round), a fill that keeps strictly
    to the highest non-empty priority level, and a truncated fill that leaves
    slack when the marginal atoms are much smaller than the Round maximum
    (running a tiny atom next Round can beat stretching this one).
    """
    levels = classify_ready(state)
    flat = [a for level in levels for a in level]
    if not flat:
        return []
    dag = state.dag

    options: list[tuple[int, ...]] = []

    def push(combo: list[int]) -> None:
        t = tuple(sorted(combo))
        if t and t not in options:
            options.append(t)

    push(flat[:num_engines])

    atom_cycles = dag.atom_cycles
    by_cycles = sorted(flat, key=lambda a: -atom_cycles[a])
    push(by_cycles[:num_engines])

    first_level = next((lvl for lvl in levels if lvl), [])
    push(first_level[:num_engines])

    base = flat[:num_engines]
    if len(base) > 1:
        longest = max(atom_cycles[a] for a in base)
        trimmed = [a for a in base if atom_cycles[a] * 4 >= longest]
        if trimmed and len(trimmed) < len(base):
            push(trimmed)

    # Pipeline-friendly fill: prefer atoms whose inputs finished at least
    # two Rounds ago (their transfers prefetch behind compute), topping up
    # with fresh-dependent atoms only if slots remain.  This is how the DP
    # interleaves batch samples to hide inter-layer halo traffic.
    mature = [a for a in flat if state.blocking_bytes(a) == 0]
    if mature and len(mature) != len(flat):
        fill = mature[:num_engines]
        if len(fill) < num_engines:
            fill += [a for a in flat if a not in set(fill)][
                : num_engines - len(fill)
            ]
        push(fill)

    return options[:max_options]


def default_round_cost(dag: AtomicDAG, combo: tuple[int, ...]) -> float:
    """Synchronized Round cost: cycles of the slowest chosen atom."""
    cycles = dag.atom_cycles
    return float(max(cycles[a] for a in combo))


@dataclass
class _Undo:
    """Inverse record of one :meth:`SchedulerState.commit`."""

    chosen: tuple[int, ...]
    became_ready: tuple[int, ...]


def _commit_with_undo(state: SchedulerState, chosen: tuple[int, ...]) -> _Undo:
    became_ready: list[int] = []
    for a in chosen:
        state.scheduled[a] = True
        state.ready.discard(a)
        state.remaining -= 1
        state.round_of[a] = state.rounds_committed
        atom = state.dag.atoms[a]
        state.layer_remaining[(atom.sample, atom.layer)] -= 1
        state.layer_started.add((atom.sample, atom.layer))
    for a in chosen:
        for s in state.dag.succs[a]:
            state.indegree[s] -= 1
            if state.indegree[s] == 0 and not state.scheduled[s]:
                state.ready.add(s)
                became_ready.append(s)
    state.rounds_committed += 1
    return _Undo(chosen=chosen, became_ready=tuple(became_ready))


def _uncommit(state: SchedulerState, undo: _Undo) -> None:
    state.rounds_committed -= 1
    for s in undo.became_ready:
        state.ready.discard(s)
    for a in undo.chosen:
        for s in state.dag.succs[a]:
            state.indegree[s] += 1
    for a in undo.chosen:
        state.scheduled[a] = False
        state.ready.add(a)
        state.remaining += 1
        state.round_of[a] = -1
        atom = state.dag.atoms[a]
        key = (atom.sample, atom.layer)
        state.layer_remaining[key] += 1
        if state.layer_remaining[key] == state.dag.grids[atom.layer].num_tiles:
            state.layer_started.discard(key)


def schedule_pruned(
    dag: AtomicDAG,
    num_engines: int,
    round_cost_fn: RoundCostFn = default_round_cost,
    lookahead: int = 1,
    max_options: int = 5,
    link_bytes_per_cycle: float = 8.0,
) -> Schedule:
    """Priority-rule pruned scheduling with bounded lookahead.

    The per-Round cost the search minimizes is Algorithm 2's
    ``Cycle(Comb_i)``: compute (slowest atom) **plus** the communication the
    combination cannot prefetch — bytes produced in the immediately
    preceding Round, serialized over a NoC link.  This term is what steers
    the DP toward the pipeline-friendly interleavings (e.g. alternating
    batch samples) that hide inter-layer halo traffic behind compute.

    Args:
        dag: The atomic DAG.
        num_engines: Per-Round parallelism cap ``N``.
        round_cost_fn: Compute cost of one Round.
        lookahead: Extra Rounds explored recursively when comparing options
            (0 = pure greedy priority filling).
        max_options: Candidate combinations considered per Round.
        link_bytes_per_cycle: NoC link bandwidth used to convert blocking
            bytes into a cycle estimate.

    Returns:
        A valid :class:`Schedule`.

    Raises:
        ValueError: On non-positive engine counts.
    """
    if num_engines <= 0:
        raise ValueError("num_engines must be positive")
    state = SchedulerState(dag)
    atom_cycles = dag.atom_cycles
    total_remaining = float(dag.total_compute_cycles())

    def remainder_bound(remaining_cycles: float) -> float:
        """Work-conserving lower bound on finishing the untraversed DAG."""
        return remaining_cycles / num_engines

    def blocking_estimate(combo: tuple[int, ...]) -> float:
        return sum(state.blocking_bytes(a) for a in combo) / link_bytes_per_cycle

    def option_score(combo: tuple[int, ...], depth: int, remaining: float) -> float:
        cost = round_cost_fn(dag, combo) + blocking_estimate(combo)
        left = remaining - sum(atom_cycles[a] for a in combo)
        if depth == 0 or state.remaining == len(combo):
            return cost + remainder_bound(left)
        undo = _commit_with_undo(state, combo)
        options = candidate_combinations(state, num_engines, max_options)
        if options:
            best_next = min(
                option_score(o, depth - 1, left) for o in options
            )
        else:
            best_next = remainder_bound(left)
        _uncommit(state, undo)
        return cost + best_next

    schedule = Schedule()
    t = 0
    remaining_cycles = total_remaining
    while state.remaining > 0:
        options = candidate_combinations(state, num_engines, max_options)
        if not options:
            raise RuntimeError("no ready atoms but DAG not exhausted (cycle?)")
        if len(options) == 1:
            best = options[0]
        else:
            best = min(
                options,
                key=lambda o: option_score(o, lookahead, remaining_cycles),
            )
        state.commit(best)
        remaining_cycles -= sum(atom_cycles[a] for a in best)
        schedule.rounds.append(Round(index=t, atom_indices=best))
        t += 1
    return schedule
