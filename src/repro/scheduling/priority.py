"""The four priority rules pruning the DAG-scheduling combination space.

Sec. IV-B of the paper: with ``P`` ready atoms and ``N`` engines there are
``C(P, N)`` candidate combinations per Round; the scheduler prunes them by
filling engines in priority order:

1. remaining atoms of *traversed* (started, unfinished) layers — their
   ifmaps/weights are already resident on-chip;
2. atoms of layers at the *same depth* as traversed layers — they share
   common inputs, so scheduling them releases buffer capacity early;
3. atoms of *dependent* layers that became ready through atom-level edges;
4. atoms of the *next batch sample* — only touched when the current sample
   cannot fill all engines, to protect inference latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.atoms.dag import AtomicDAG


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


def fill_by_priority(state: SchedulerState, num_engines: int) -> list[int]:
    """Default combination: fill up to N engine slots in 1->2->3->4 order."""
    chosen: list[int] = []
    for level in classify_ready(state):
        for a in level:
            if len(chosen) == num_engines:
                return chosen
            chosen.append(a)
    return chosen


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
