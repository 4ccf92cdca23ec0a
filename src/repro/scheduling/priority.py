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
class RoundUndo:
    """Inverse record of one :meth:`SchedulerState.commit`."""

    chosen: tuple[int, ...]
    became_ready: tuple[int, ...]


@dataclass
class SchedulerState:
    """Mutable bookkeeping shared by the priority rules and the searchers.

    Every fact the rules query per Round is kept up to date by
    :meth:`commit` and :meth:`uncommit`, the one mutation path, instead of
    being recomputed on each query.

    Attributes:
        dag: The atomic DAG being scheduled.
        indegree: Remaining unscheduled predecessors per atom.
        ready: Atom indices whose dependencies have all completed.
        scheduled: Flags per atom.
        remaining: Count of unscheduled atoms.
        layer_remaining: (sample, layer) -> unscheduled atom count.
        in_progress: (sample, layer) pairs started but not finished.
        depth_in_progress: Layer depth -> count of in-progress pairs at
            that depth (depths with none are absent).
        sample_remaining: Sample -> unscheduled atom count.
        round_of: Round index each scheduled atom ran in (-1 = unscheduled).
        rounds_committed: Rounds committed so far (the next Round's index).
    """

    dag: AtomicDAG
    indegree: list[int] = field(init=False)
    ready: set[int] = field(init=False)
    scheduled: list[bool] = field(init=False)
    remaining: int = field(init=False)
    layer_remaining: dict[tuple[int, int], int] = field(init=False)
    in_progress: set[tuple[int, int]] = field(init=False)
    depth_in_progress: dict[int, int] = field(init=False)
    sample_remaining: dict[int, int] = field(init=False)
    round_of: list[int] = field(init=False)
    rounds_committed: int = field(init=False)
    _layer_tiles: dict[tuple[int, int], int] = field(init=False, repr=False)
    _blocking: list[dict[int, int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.indegree = self.dag.indegrees()
        self.ready = {i for i, d in enumerate(self.indegree) if d == 0}
        self.scheduled = [False] * self.dag.num_atoms
        self.remaining = self.dag.num_atoms
        self.layer_remaining = {}
        self.sample_remaining = {}
        for key in self.dag.layer_keys:
            self.layer_remaining[key] = self.layer_remaining.get(key, 0) + 1
            self.sample_remaining[key[0]] = self.sample_remaining.get(key[0], 0) + 1
        self._layer_tiles = dict(self.layer_remaining)
        self.in_progress = set()
        self.depth_in_progress = {}
        self.round_of = [-1] * self.dag.num_atoms
        self.rounds_committed = 0
        # One dict per committed Round: the atoms that Round made ready ->
        # bytes they read from it.  No other ready atom has an input in the
        # last committed Round, so the top dict answers blocking_bytes.
        self._blocking = [{}]

    @property
    def blocking(self) -> dict[int, int]:
        """Ready atom -> :meth:`blocking_bytes` (absent means 0)."""
        return self._blocking[-1]

    def blocking_bytes(self, atom: int) -> int:
        """Bytes ready ``atom`` must receive from the *previous* Round if run now.

        Data produced in the immediately preceding Round cannot be
        prefetched; scheduling such consumers one Round later hides the
        transfer behind compute (the communication term of Algorithm 2's
        round cost).  Defined for ready atoms only: an atom that is not
        ready still waits on inputs and reports 0.
        """
        return self._blocking[-1].get(atom, 0)

    def current_sample(self) -> int:
        """Smallest sample index with unscheduled atoms (rule 4's 'current')."""
        return min((s for s, n in self.sample_remaining.items() if n), default=0)

    def _shift(self, atoms: tuple[int, ...], delta: int) -> None:
        """Move ``atoms`` out of (-1) or back into (+1) the pending set."""
        moved: dict[tuple[int, int], int] = {}
        keys = self.dag.layer_keys
        for a in atoms:
            key = keys[a]
            moved[key] = moved.get(key, 0) + delta
        remaining, counts = self.layer_remaining, self.depth_in_progress
        for key, change in moved.items():
            before = remaining[key]
            after = before + change
            remaining[key] = after
            self.sample_remaining[key[0]] += change
            total = self._layer_tiles[key]
            started = 0 < after < total
            if started == (0 < before < total):
                continue
            depth = self.dag.layer_depth[key[1]]
            if started:
                self.in_progress.add(key)
                counts[depth] = counts.get(depth, 0) + 1
            else:
                self.in_progress.discard(key)
                counts[depth] -= 1
                if not counts[depth]:
                    del counts[depth]

    def commit(self, chosen: tuple[int, ...]) -> RoundUndo:
        """Mark a Round's atoms as executed and grow the ready set.

        Successors become ready only after the full Round commits, matching
        Round-synchronized execution.

        Returns:
            The record :meth:`uncommit` takes to restore the prior state.

        Raises:
            ValueError: If a chosen atom is not ready or already scheduled.
        """
        scheduled, ready, round_of = self.scheduled, self.ready, self.round_of
        for a in chosen:
            if scheduled[a] or a not in ready:
                raise ValueError(f"atom {a} is not schedulable now")
        t = self.rounds_committed
        for a in chosen:
            scheduled[a] = True
            ready.discard(a)
            round_of[a] = t
        self._shift(chosen, -1)
        self.remaining -= len(chosen)
        indegree, succs = self.indegree, self.dag.succs
        became_ready: list[int] = []
        for a in chosen:
            for s in succs[a]:
                left = indegree[s] - 1
                indegree[s] = left
                if not left and not scheduled[s]:
                    ready.add(s)
                    became_ready.append(s)
        preds, pred_bytes = self.dag.preds, self.dag.pred_bytes
        blocking: dict[int, int] = {}
        for s in became_ready:
            total = 0
            for p, nbytes in zip(preds[s], pred_bytes[s]):
                if round_of[p] == t:
                    total += nbytes
            blocking[s] = total
        self._blocking.append(blocking)
        self.rounds_committed = t + 1
        return RoundUndo(chosen=chosen, became_ready=tuple(became_ready))

    def uncommit(self, undo: RoundUndo) -> None:
        """Undo the most recent :meth:`commit`, given the record it returned."""
        self.rounds_committed -= 1
        self._blocking.pop()
        ready, indegree, succs = self.ready, self.indegree, self.dag.succs
        for s in undo.became_ready:
            ready.discard(s)
        for a in undo.chosen:
            for s in succs[a]:
                indegree[s] += 1
            self.scheduled[a] = False
            ready.add(a)
            self.round_of[a] = -1
        self._shift(undo.chosen, 1)
        self.remaining += len(undo.chosen)

    def snapshot_key(self) -> frozenset[int]:
        """Hashable identity of the untraversed sub-DAG (the DP Table key)."""
        return frozenset(
            i for i in range(self.dag.num_atoms) if not self.scheduled[i]
        )


def classify_ready(state: SchedulerState) -> tuple[list[int], ...]:
    """Split the ready set into the four priority levels.

    Returns:
        Four lists of atom indices (level 1..4), each sorted by
        (sample, layer, tile index) for determinism.
    """
    dag = state.dag
    current = state.current_sample()
    keys = dag.layer_keys
    layer_depth = dag.layer_depth
    in_progress = state.in_progress
    active_depths = state.depth_in_progress

    level1: list[int] = []
    level2: list[int] = []
    level3: list[int] = []
    level4: list[int] = []
    for a in state.ready:
        key = keys[a]
        if key[0] != current:
            level4.append(a)
        elif key in in_progress:
            level1.append(a)
        elif layer_depth[key[1]] in active_depths:
            level2.append(a)
        else:
            level3.append(a)
    # Sample-major (sample, layer, tile index) order within a level: waves
    # of consecutive samples stay contiguous, so producer and consumer
    # Rounds keep the same slot alignment (level 4 holds several pending
    # samples at once).
    order = dag.atom_rank.__getitem__
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
    blocking = state.blocking
    mature = [a for a in flat if not blocking.get(a)]
    if mature and len(mature) != len(flat):
        fill = mature[:num_engines]
        if len(fill) < num_engines:
            taken = set(fill)
            fill += [a for a in flat if a not in taken][
                : num_engines - len(fill)
            ]
        push(fill)

    return options[:max_options]
