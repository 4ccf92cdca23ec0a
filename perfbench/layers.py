"""Per-layer attribution for the traced benchmark run.

The program is not changed to be measured: :class:`LayerTracer` patches
the public functions of each layer at the names their callers resolve
(``repro.pipeline`` binds ``schedule_pruned``, ``optimized_placement``
and ``build_atomic_dag`` at import time, so those module attributes are
what gets wrapped) and restores every original on :meth:`uninstall`.

Each wrapped call is a span on a per-thread stack.  A layer's *self*
time is its spans' duration minus the part covered by spans of other
layers nested inside; a call that re-enters the layer already on top of
the stack (``generate_sa`` driving ``step_rung``, ``StagedSearch.run``
driving ``run_tempering``) is not a new span.
``on_result`` hooks read counts off arguments and return values where
the work happens (atoms simulated, rounds scheduled, swaps accepted).
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable


ENGINE_COUNTERS = (
    "engine.cost_cache_hits",
    "engine.cost_cache_misses",
    "engine.kernel_batch_calls",
    "engine.kernel_batch_rows",
)


@dataclass(frozen=True)
class Compiled:
    """What the per-layer report reads from one ``optimize()`` outcome."""

    key: tuple
    traces: tuple
    result: Any

    @classmethod
    def of(cls, outcome: Any) -> "Compiled":
        winner = next(t for t in outcome.traces if t.accepted)
        key = (outcome.dag.graph.name, winner.fingerprint, outcome.result.total_cycles)
        return cls(key=key, traces=outcome.traces, result=outcome.result)


@dataclass
class LayerStat:
    """Accumulated spans of one layer."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class _Frame:
    layer: str
    child_s: float = 0.0


@dataclass
class LayerTracer:
    """Wraps layer entry points and accumulates self/total time per layer."""

    stats: dict[str, LayerStat] = field(
        default_factory=lambda: defaultdict(LayerStat)
    )
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    captured: dict[str, list] = field(default_factory=lambda: defaultdict(list))
    enabled: bool = False
    _patches: list = field(default_factory=list)
    _local: threading.local = field(default_factory=threading.local)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def add(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    def capture(self, name: str, value: Any) -> None:
        with self._lock:
            self.captured[name].append(value)

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrapped(
        self,
        fn: Callable,
        layer: str,
        on_result: Callable[[tuple, Any], None] | None,
    ) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            if stack and stack[-1].layer == layer:
                result = fn(*args, **kwargs)
            else:
                result = self._span(stack, layer, fn, args, kwargs)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _span(
        self, stack: list[_Frame], layer: str, fn: Callable, args: tuple, kwargs: dict
    ) -> Any:
        frame = _Frame(layer)
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1].child_s += elapsed
            with self._lock:
                stat = self.stats[layer]
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - frame.child_s

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        on_result: Callable[[tuple, Any], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` (a function, method, classmethod or
        cached property)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr
        )
        if isinstance(original, functools.cached_property):
            replacement: Any = functools.cached_property(
                self._wrapped(original.func, layer, on_result)
            )
            replacement.__set_name__(owner, attr)
        elif isinstance(original, classmethod):
            replacement = classmethod(
                self._wrapped(original.__func__, layer, on_result)
            )
        else:
            replacement = self._wrapped(original, layer, on_result)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, last patch first."""
        self.enabled = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_s(self, layer: str) -> float:
        return self.stats[layer].self_s if layer in self.stats else 0.0

    def total_s(self, layer: str) -> float:
        return self.stats[layer].total_s if layer in self.stats else 0.0

    def calls(self, layer: str) -> int:
        return self.stats[layer].calls if layer in self.stats else 0

    @property
    def spans(self) -> int:
        return sum(stat.calls for stat in self.stats.values())


def span_cost_s(samples: int = 20_000) -> float:
    """Extra wall time one wrapped call costs, microbenchmarked."""

    class Probe:
        def noop(self) -> None:
            pass

    probe = Probe()
    t0 = time.perf_counter()
    for _ in range(samples):
        probe.noop()
    bare = time.perf_counter() - t0
    tracer = LayerTracer()
    tracer.wrap(Probe, "noop", "probe")
    tracer.enabled = True
    t0 = time.perf_counter()
    for _ in range(samples):
        probe.noop()
    wrapped = time.perf_counter() - t0
    tracer.uninstall()
    return max(wrapped - bare, 0.0) / samples


def install(tracer: LayerTracer) -> LayerTracer:
    """Wrap every layer boundary the benchmark attributes time to."""
    import repro.pipeline as pipeline
    from repro.atoms.generation import AtomGenerator
    from repro.framework import AtomicDataflowOptimizer
    from repro.service.events import EventLog
    from repro.service.jobs import JobJournal
    from repro.service.request import CompileRequest
    from repro.service.store import SolutionStore
    from repro.sim.simulator import SystemSimulator

    # Engine counters are cumulative per cost model, and a served
    # session's context outlives many searches: remember each context's
    # last reading and count the difference each optimize() adds.
    readings: dict[int, tuple[int, int, int, int]] = {}

    def engine_reading(ctx: Any) -> tuple[int, int, int, int]:
        model = ctx.cost_model
        return (*model.cache_counters(), *model.kernel.batch_counters())

    def on_context(args: tuple, ctx: Any) -> None:
        readings[id(ctx)] = engine_reading(ctx)

    def on_optimize(args: tuple, outcome: Any) -> None:
        ctx = args[0].context
        now = engine_reading(ctx)
        before = readings.get(id(ctx), (0, 0, 0, 0))
        readings[id(ctx)] = now
        for name, a, b in zip(ENGINE_COUNTERS, now, before):
            tracer.add(name, a - b)
        # Keep only what the report reads: holding whole outcomes would
        # slow every later garbage collection in the measured process.
        tracer.capture("compiles", Compiled.of(outcome))

    def on_tempering(args: tuple, outcome: Any) -> None:
        tracer.add("search.swaps_proposed", sum(outcome.swaps_proposed))
        tracer.add("search.swaps_accepted", sum(outcome.swaps_accepted))

    def on_dag(args: tuple, dag: Any) -> None:
        tracer.add("atoms.dag_atoms", dag.num_atoms)

    def on_schedule(args: tuple, schedule: Any) -> None:
        tracer.add("scheduling.rounds", schedule.num_rounds)

    def on_sim(args: tuple, result: Any) -> None:
        tracer.add("sim.atoms", args[0].dag.num_atoms)

    def on_store_get(args: tuple, payload: Any) -> None:
        tracer.add("service.store_lookups")
        if payload is not None:
            tracer.add("service.store_hits")

    tracer.wrap(pipeline.SearchContext, "create", "context", on_context)
    tracer.wrap(AtomicDataflowOptimizer, "optimize", "pipeline", on_optimize)
    tracer.wrap(pipeline.StagedSearch, "run", "search")
    tracer.wrap(pipeline, "run_tempering", "search", on_tempering)
    tracer.wrap(AtomGenerator, "generate_sa", "tiling")
    tracer.wrap(AtomGenerator, "step_rung", "tiling")
    tracer.wrap(pipeline, "layer_sequential_tiling", "tiling")
    tracer.wrap(pipeline, "build_atomic_dag", "dag", on_dag)
    tracer.wrap(pipeline, "schedule_pruned", "schedule", on_schedule)
    tracer.wrap(pipeline, "layer_sequential_schedule", "schedule", on_schedule)
    tracer.wrap(pipeline, "optimized_placement", "mapping")
    tracer.wrap(SystemSimulator, "run", "sim", on_sim)
    tracer.wrap(CompileRequest, "fingerprint", "service.fingerprint")
    tracer.wrap(SolutionStore, "get", "service.store_get", on_store_get)
    tracer.wrap(SolutionStore, "put", "service.store_put")
    tracer.wrap(JobJournal, "record", "service.journal_record")
    tracer.wrap(EventLog, "append", "service.event_append")
    return tracer
