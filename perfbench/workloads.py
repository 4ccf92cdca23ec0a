"""The benchmark's four workloads: seeded inputs, timed section, checks.

A search workload repeats a cycle of one ``optimize()`` call and a
window of cache hits until ``--seconds`` have passed (at least its fixed
number of cycles); ``serve-mixed`` sends its 200-request stream once.
Every workload runs in one process with ``jobs=1`` on the default 8x8
architecture.  ``perfbench/README.md`` records why each workload exists.

Timed intervals are read on two clocks (:class:`Stopwatch`).  The
end-to-end metrics use the process's CPU time; wall time is printed
beside it and used where a figure is compared with the program's own
wall-clock timers.
"""

from __future__ import annotations

import gc
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.analysis import validate_artifacts
from repro.config import DEFAULT_ARCH
from repro.framework import AtomicDataflowOptimizer, OptimizerOptions
from repro.models import get_model
from repro.obs.metrics import get_registry
from repro.obs.tracer import disable_tracing, ensure_tracing, tracing_enabled
from repro.pipeline import SearchContext
from repro.serialize import (
    canonical_solution_bytes,
    load_solution,
    solution_to_dict,
)
from repro.service import (
    CompileRequest,
    ReproService,
    ServeClient,
    ServiceError,
    serve,
)

from layers import LayerTracer


@dataclass(frozen=True)
class Pinned:
    """What the pinned search must decide at :data:`PINNED_SEED`."""

    total_cycles: int
    winner: str | None = None
    fingerprint: str | None = None


@dataclass(frozen=True)
class SearchWorkload:
    model: str
    options: dict
    pinned: Pinned
    #: Compile-and-hits cycles a run makes at least.  A fixed count, not
    #: one that follows from ``--seconds``: whether one more cycle fits
    #: would depend on the host's speed that run.
    cycles: int = 1


#: The search seed the pinned values belong to.  Search workloads always
#: compile at this seed (``--search-seed`` overrides it for held-out
#: checks): a search seed changes the tiling the annealer reaches, and
#: with it the DAG size and the host time of every later stage, by up
#: to 30% — far more than the regressions the benchmark must resolve.
PINNED_SEED = 0

SEARCH_WORKLOADS = {
    "search-resnet50": SearchWorkload(
        "resnet50", {"restarts": 8}, Pinned(1383855, "sa[4]", "c6cbbd0f81242d66")
    ),
    "nasnet-batch4": SearchWorkload(
        "nasnet_bench", {"batch": 4, "restarts": 2}, Pinned(279609)
    ),
    "tempering-resnet50": SearchWorkload(
        "resnet50_bench", {"rungs": 8}, Pinned(704911), cycles=2
    ),
}

#: ``serve-mixed``: 4 small zoo models x 3 requests each, 50 requests
#: per model in a 200-request closed-loop stream (so exactly 12 cold
#: searches and 188 cache hits).
SERVE_MODELS = (
    "vgg19_bench",
    "mobilenet_v2_bench",
    "resnet50_bench",
    "efficientnet_bench",
)
SERVE_SEEDS_PER_MODEL = 3
SERVE_STREAM = 200

#: Repeats of the compiled request served from the cache after a search
#: workload's compile: at least :data:`SEARCH_HITS` (p95 then has ten
#: samples beyond it), and for at least :data:`HIT_WINDOW_S` wall
#: seconds.  The host's speed shifts by about 1.5x in phases of a few
#: seconds, and a short window lands in one phase.
SEARCH_HITS = 200
HIT_WINDOW_S = 5.0

#: Fixed status-poll interval while a served request searches.
POLL_S = 0.02

#: Pings timed for ``service.socket_rtt_ms``.
RTT_PINGS = 50

#: Admission refusals: counted as failed requests, never retried.
REFUSALS = frozenset({"queue-full", "quota-exceeded", "draining"})


class Stopwatch:
    """One interval on two clocks.

    ``cpu`` is the CPU time of the whole benchmark process (every
    thread).  The process runs one thing at a time: a ``jobs=1``
    compile, or one closed-loop request that the daemon's threads serve
    while the client waits.  On a dedicated core ``cpu`` then equals
    ``wall`` up to I/O waits (an fsync per served hit, well under 1 ms)
    and the status-poll interval.  On a shared virtual machine ``wall``
    also counts the time the hypervisor gives the core to other guests,
    which the kernel's steal accounting keeps out of ``cpu``; that time
    moved the same compile by 30% between runs.
    """

    def __init__(self) -> None:
        self.cpu0 = time.process_time()
        self.wall0 = time.perf_counter()

    def read(self) -> tuple[float, float]:
        """(cpu seconds, wall seconds) since construction."""
        return time.process_time() - self.cpu0, time.perf_counter() - self.wall0


def runner_cpu_s() -> float:
    """CPU seconds of the daemon's runner threads so far."""
    return sum(
        time.clock_gettime(time.pthread_getcpuclockid(t.ident))
        for t in threading.enumerate()
        if t.name.startswith("repro-serve-runner-") and t.ident is not None
    )


# ---------------------------------------------------------------------------
# The in-process daemon and its closed-loop client
# ---------------------------------------------------------------------------


class Daemon:
    """A ``ReproService`` behind its unix socket, configured as
    ``repro serve`` runs it: tracing on, default knobs, one runner.

    The socket path is relative to the working directory, which the
    runner sets to its scratch directory: an absolute path under a deep
    checkout can exceed the platform's ``sun_path`` limit.
    """

    def __init__(self, state_dir: Path, name: str) -> None:
        self.state_dir = state_dir
        self.socket_path = f"{name}.sock"
        self.client = ServeClient(self.socket_path, timeout_s=120.0)
        self.service: ReproService | None = None
        self.thread: threading.Thread | None = None
        self.was_tracing = False

    def __enter__(self) -> "Daemon":
        self.was_tracing = tracing_enabled()
        ensure_tracing()
        self.service = ReproService(self.state_dir)
        self.thread = threading.Thread(
            target=serve, args=(self.service, self.socket_path), daemon=True
        )
        self.thread.start()
        deadline = time.monotonic() + 60.0
        while True:
            try:
                self.client.ping()
                return self
            except OSError:
                if time.monotonic() > deadline or not self.thread.is_alive():
                    raise RuntimeError("daemon did not come up") from None
                time.sleep(0.005)

    def __exit__(self, *exc_info: object) -> None:
        assert self.thread is not None
        self.client.shutdown()
        self.thread.join(timeout=60.0)
        if self.thread.is_alive():
            raise RuntimeError("daemon did not stop")
        if not self.was_tracing:
            disable_tracing()


@dataclass
class Served:
    """What one closed-loop stream observed.  Times are CPU seconds of
    the process (see :class:`Stopwatch`); ``*_wall_s`` are wall seconds."""

    cold_s: list[float] = field(default_factory=list)
    cold_wall_s: list[float] = field(default_factory=list)
    #: CPU seconds each cold job spent on the daemon's runner thread.
    cold_runner_s: list[float] = field(default_factory=list)
    hit_s: list[float] = field(default_factory=list)
    hit_wall_s: list[float] = field(default_factory=list)
    payloads: dict[str, str] = field(default_factory=dict)
    cycles: dict[str, int] = field(default_factory=dict)
    requests: dict[str, CompileRequest] = field(default_factory=dict)
    attempted: int = 0
    refused: int = 0
    failed: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    stream_s: float = 0.0
    stream_wall_s: float = 0.0

    @property
    def completed(self) -> int:
        return len(self.cold_s) + len(self.hit_s)


def drive(
    client: ServeClient, stream: Iterable[CompileRequest], served: Served
) -> None:
    """Send ``stream`` one request at a time; time submit-to-result.

    A searching job is polled at the fixed :data:`POLL_S` interval.
    Every cache hit must return the bytes the fingerprint was first
    served (or published) with.
    """
    whole = Stopwatch()
    for request in stream:
        served.attempted += 1
        runner0 = runner_cpu_s()
        watch = Stopwatch()
        try:
            submitted = client.call("submit", request=request.to_dict())
        except ServiceError as exc:
            if exc.code not in REFUSALS:
                raise
            served.refused += 1
            continue
        job_id = submitted["job_id"]
        job = None
        if submitted["state"] != "done":
            while True:
                time.sleep(POLL_S)
                job = client.status(job_id)
                if job["state"] in ("done", "failed", "cancelled"):
                    break
            if job["state"] != "done":
                served.failed.append(f"{job_id} {job['state']}: {job['error']}")
                continue
        result = client.result(job_id)
        latency, latency_wall = watch.read()
        fingerprint, payload = result["fingerprint"], result["solution_json"]
        if result["source"] == "cache":
            served.hit_s.append(latency)
            served.hit_wall_s.append(latency_wall)
            if served.payloads.get(fingerprint) != payload:
                served.problems.append(
                    f"cache hit {job_id} differs from the first result "
                    f"for {fingerprint}"
                )
        elif result["source"] == "search" and job is not None:
            if fingerprint in served.payloads:
                served.problems.append(f"{fingerprint} was searched twice")
            served.cold_s.append(latency)
            served.cold_wall_s.append(latency_wall)
            served.cold_runner_s.append(runner_cpu_s() - runner0)
            served.payloads[fingerprint] = payload
            served.cycles[fingerprint] = int(result["total_cycles"])
            served.requests[fingerprint] = request
        else:
            served.problems.append(f"{job_id}: unexpected source {result['source']!r}")
    cpu, wall = whole.read()
    served.stream_s += cpu
    served.stream_wall_s += wall


def repeats(
    request: CompileRequest, count: int, window_s: float
) -> Iterator[CompileRequest]:
    """``request``, at least ``count`` times and until ``window_s`` wall
    seconds have passed since the first."""
    start = time.perf_counter()
    sent = 0
    while sent < count or time.perf_counter() - start < window_s:
        yield request
        sent += 1


def socket_rtt_ms(client: ServeClient) -> float:
    samples = []
    for _ in range(RTT_PINGS):
        t0 = time.perf_counter()
        client.ping()
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


def counter_values() -> dict[str, int]:
    return {
        name: int(get_registry().counter(name).value)
        for name in ("session.hits", "session.misses")
    }


# ---------------------------------------------------------------------------
# One unit of each workload
# ---------------------------------------------------------------------------


@dataclass
class Unit:
    """Measurements and verdicts of one workload unit.  ``compile_s`` is
    CPU seconds (see :class:`Stopwatch`), ``compile_wall_s`` wall seconds."""

    compile_s: list[float] = field(default_factory=list)
    compile_wall_s: list[float] = field(default_factory=list)
    served: Served = field(default_factory=Served)
    total_cycles: int = 0
    energy_pj: float = 0.0
    candidates: int = 0
    failed_candidates: int = 0
    problems: list[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    rtt_ms: float = 0.0
    session_counters: dict[str, int] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return self.candidates + self.served.attempted

    @property
    def failed(self) -> int:
        return (
            self.failed_candidates
            + self.served.refused
            + len(self.served.failed)
        )

    @property
    def primary_s(self) -> float:
        """The timed work the tracing overhead is judged on."""
        return sum(self.compile_s) + self.served.stream_s


def run_search(
    name: str, seconds: float, search_seed: int, workdir: Path, end_timed
) -> Unit:
    """Compile the workload's request and serve the result from the cache
    (:func:`serve_hits`), at least ``cycles`` times and until ``seconds``
    pass.  Hit windows that follow separate compiles sample separate
    phases of the host's speed."""
    wl = SEARCH_WORKLOADS[name]
    graph = get_model(wl.model)
    options = OptimizerOptions(seed=search_seed, jobs=1, **wl.options)
    request = CompileRequest(model=wl.model, arch=DEFAULT_ARCH, options=options)
    unit = Unit()
    decisions = set()
    start = time.perf_counter()
    while (
        len(unit.compile_s) < wl.cycles or time.perf_counter() - start < seconds
    ):
        ctx = SearchContext.create(
            graph, DEFAULT_ARCH, dataflow=options.dataflow, batch=options.batch
        )
        watch = Stopwatch()
        outcome = AtomicDataflowOptimizer(
            graph, DEFAULT_ARCH, options, context=ctx
        ).optimize()
        cpu, wall = watch.read()
        unit.compile_s.append(cpu)
        unit.compile_wall_s.append(wall)
        winner = next(t for t in outcome.traces if t.accepted)
        decisions.add((outcome.result.total_cycles, winner.label, winner.fingerprint))
        unit.candidates += len(outcome.traces)
        unit.failed_candidates += sum(
            t.failed or t.interrupted for t in outcome.traces
        )

        # The solution checks run outside every timed interval, before
        # the hits, so the winner's objects can be dropped first: a
        # served hit must not pay the garbage collector for objects only
        # the benchmark keeps alive.
        if len(unit.compile_s) == 1:
            report = validate_artifacts(
                outcome.dag, schedule=outcome.schedule,
                placement=outcome.placement, arch=DEFAULT_ARCH,
            )
            if report.errors:
                unit.problems.append(
                    f"winner fails validation: {report.errors[0]}"
                    f" ({len(report.errors)} error(s))"
                )
        unit.total_cycles = outcome.result.total_cycles
        unit.energy_pj = outcome.result.energy.total_pj
        # Handed over in a list, so that serve_hits holds the only
        # reference and can drop it before the hits.
        docs = [solution_to_dict(outcome, options.dataflow, include_search=False)]
        del outcome, ctx
        unit.rtt_ms = serve_hits(
            workdir / f"hits{len(unit.compile_s)}", request, docs, unit.served
        )
    unit.peak_rss_mb = end_timed()

    if len(decisions) != 1:
        unit.problems.append(f"repeated compiles disagree: {sorted(decisions)}")
    total_cycles, label, fingerprint = next(iter(decisions))
    if search_seed == PINNED_SEED:
        pinned = wl.pinned
        got = Pinned(
            total_cycles,
            label if pinned.winner else None,
            fingerprint if pinned.fingerprint else None,
        )
        if got != pinned:
            unit.problems.append(f"pinned decision drifted: {got} != {pinned}")
    unit.problems += unit.served.problems
    if len(unit.served.hit_s) != unit.served.attempted:
        unit.problems.append(
            f"{len(unit.served.hit_s)}/{unit.served.attempted} repeats were "
            "cache hits"
        )
    return unit


def serve_hits(
    state_dir: Path, request: CompileRequest, docs: list[dict], served: Served
) -> float:
    """Publish ``docs.pop()`` for ``request`` to a fresh daemon's store, as the
    daemon publishes a finished search, then send ``request`` repeatedly
    (:func:`repeats`): every repeat is a cache hit.  Returns the socket
    round trip in ms.

    Every hit must return the bytes of the first solution published for
    the fingerprint, so later compiles must also publish the same bytes.
    """
    doc = docs.pop()
    with Daemon(state_dir, state_dir.name) as daemon:
        assert daemon.service is not None
        daemon.service.store.put(
            request.fingerprint, doc, graph=request.graph, arch=request.arch
        )
        served.payloads.setdefault(
            request.fingerprint, canonical_solution_bytes(doc).decode("utf-8")
        )
        del doc
        gc.collect()
        drive(daemon.client, repeats(request, SEARCH_HITS, HIT_WINDOW_S), served)
        return socket_rtt_ms(daemon.client)


def serve_stream(seed: int, search_seed: int) -> list[CompileRequest]:
    """The request stream: :data:`SERVE_STREAM` requests, an equal share
    per model split as evenly as possible over its requests, in an order
    drawn from ``seed``.

    The request seeds are ``search_seed * 3 + (0, 1, 2)``.  Like the
    search workloads' search seed they stay pinned by default: each
    request's compile time moves by up to 30% with its seed, and the
    request mix by model decides which latency cluster a median lands
    in, so only the order comes from ``seed``.
    """
    per_model = SERVE_STREAM // len(SERVE_MODELS)
    picks: list[CompileRequest] = []
    for model in SERVE_MODELS:
        for k in range(SERVE_SEEDS_PER_MODEL):
            request = CompileRequest(
                model=model,
                arch=DEFAULT_ARCH,
                options=OptimizerOptions(
                    restarts=1,
                    seed=search_seed * SERVE_SEEDS_PER_MODEL + k,
                    jobs=1,
                ),
            )
            share = per_model // SERVE_SEEDS_PER_MODEL + (
                k < per_model % SERVE_SEEDS_PER_MODEL
            )
            picks += [request] * share
    order = np.random.default_rng(seed).permutation(len(picks))
    return [picks[i] for i in order]


def run_serve(
    seed: int, search_seed: int, workdir: Path, name: str, end_timed
) -> Unit:
    """Send the seeded stream through a fresh daemon."""
    stream = serve_stream(seed, search_seed)
    unit = Unit()
    before = counter_values()
    with Daemon(workdir / name, name) as daemon:
        drive(daemon.client, stream, unit.served)
        unit.rtt_ms = socket_rtt_ms(daemon.client)
    after = counter_values()
    unit.session_counters = {k: after[k] - before[k] for k in after}
    unit.peak_rss_mb = end_timed()

    served = unit.served
    unit.problems += served.problems
    distinct = len({(r.model, r.options.seed) for r in stream})
    if len(served.cold_s) != distinct:
        unit.problems.append(
            f"{len(served.cold_s)} cold searches for {distinct} distinct requests"
        )
    # Every served solution re-binds to its graph, passes the artifact
    # validators, and re-simulates to the cycles the service reported.
    for fingerprint, payload in served.payloads.items():
        request = served.requests[fingerprint]
        path = workdir / f"{fingerprint}.json"
        path.write_text(payload)
        solution = load_solution(path, request.graph, DEFAULT_ARCH)
        report = validate_artifacts(
            solution.dag, schedule=solution.schedule,
            placement=solution.placement, arch=DEFAULT_ARCH,
        )
        if report.errors:
            unit.problems.append(
                f"{request.model} seed {request.options.seed} fails "
                f"validation: {report.errors[0]}"
            )
        ctx = SearchContext.create(request.graph, DEFAULT_ARCH)
        result = ctx.simulator(solution.dag).run(
            solution.schedule, solution.placement
        )
        if result.total_cycles != served.cycles[fingerprint]:
            unit.problems.append(
                f"{request.model} seed {request.options.seed}: re-simulated "
                f"{result.total_cycles} != served {served.cycles[fingerprint]}"
            )
        unit.total_cycles += result.total_cycles
        unit.energy_pj += result.energy.total_pj
    return unit


def run_unit(
    workload: str, seed: int, seconds: float, search_seed: int, workdir: Path,
    name: str, end_timed,
) -> Unit:
    if workload in SEARCH_WORKLOADS:
        return run_search(workload, seconds, search_seed, workdir / name, end_timed)
    return run_serve(seed, search_seed, workdir, name, end_timed)


def probe_setup(workload: str, workdir: Path, ready) -> None:
    """Everything before a workload's first timed call, then ``ready()``."""
    if workload in SEARCH_WORKLOADS:
        wl = SEARCH_WORKLOADS[workload]
        options = OptimizerOptions(jobs=1, **wl.options)
        SearchContext.create(
            get_model(wl.model), DEFAULT_ARCH,
            dataflow=options.dataflow, batch=options.batch,
        )
        ready()
        return
    with Daemon(workdir / "probe", "probe"):
        ready()


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _p(values: list[float], q: float) -> float:
    """The Harrell-Davis estimate of the ``q`` quantile of ``values``.

    A Beta-weighted mean of every order statistic rather than one or two
    of them.  Hit latencies form one cluster per model, and with 47 hits
    per model the sample median falls in the gap between two clusters:
    the single order statistic there jumped by 40% between runs.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    grid = np.linspace(0.0, 1.0, 20_001)[1:-1]
    log_pdf = (a - 1.0) * np.log(grid) + (b - 1.0) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2.0)])
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, grid, cdf)
    return float(np.diff(edges) @ x)


def deciles_ms(seconds: list[float]) -> list[float]:
    return [_p(seconds, q / 10) * 1e3 for q in range(11)]


def end_to_end(unit: Unit, setup_s: float) -> dict[str, tuple[float, str]]:
    served = unit.served
    compile_s = unit.compile_s or served.cold_runner_s
    cold_s = unit.compile_s + served.cold_s
    return {
        "setup_s": (setup_s, "s"),
        "compile_s": (statistics.fmean(compile_s), "s"),
        "total_cycles": (unit.total_cycles, "cycles"),
        "energy_pj": (unit.energy_pj, "pJ"),
        "peak_rss_mb": (unit.peak_rss_mb, "MB"),
        "ok_frac": (1.0 - unit.failed / unit.attempted, "ratio"),
        "served_rps": (served.completed / served.stream_s, "1/s"),
        "cold_p50_s": (_p(cold_s, 0.5), "s"),
        "hit_p50_ms": (_p(served.hit_s, 0.5) * 1e3, "ms"),
        "hit_p95_ms": (_p(served.hit_s, 0.95) * 1e3, "ms"),
    }


def wall_line(unit: Unit) -> str:
    """The timed intervals on the wall clock, for comparison with the
    CPU-time metrics."""
    served = unit.served
    parts = []
    if unit.compile_wall_s:
        parts.append(f"compile {statistics.fmean(unit.compile_wall_s):.3f} s")
    if served.cold_wall_s:
        parts.append(f"cold p50 {_p(served.cold_wall_s, 0.5):.3f} s")
    parts.append(f"hit p50 {_p(served.hit_wall_s, 0.5) * 1e3:.2f} ms")
    parts.append(f"stream {served.completed / served.stream_wall_s:.2f} req/s")
    return "wall clock: " + ", ".join(parts)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(unit: Unit, tracer: LayerTracer) -> dict[str, tuple[float, str]]:
    compiled = tracer.captured["compiles"]
    traces = [t for c in compiled for t in c.traces]
    evaluated = sum(t.evaluated and not t.restored for t in traces)
    results = list({c.key: c.result for c in compiled}.values())
    count = tracer.counts
    # A search workload's cold request is its direct compile.  Wall
    # seconds, the clock the tracer's spans are on.
    cold_latency = sum(unit.served.cold_wall_s) + sum(unit.compile_wall_s)
    session = unit.session_counters
    return {
        "pipeline.context_s": (tracer.total_s("context"), "s"),
        "pipeline.candidates": (len(traces), "count"),
        "pipeline.evaluated_ratio": (_ratio(evaluated, len(traces)), "ratio"),
        "pipeline.unattributed_s": (tracer.self_s("pipeline"), "s"),
        "atoms.tiling_s": (tracer.self_s("tiling"), "s"),
        "atoms.tiling_calls": (tracer.calls("tiling"), "count"),
        "engine.kernel_batch_calls": (count["engine.kernel_batch_calls"], "count"),
        "engine.kernel_batch_rows": (count["engine.kernel_batch_rows"], "count"),
        "engine.cost_cache_hit_ratio": (
            _ratio(
                count["engine.cost_cache_hits"],
                count["engine.cost_cache_hits"] + count["engine.cost_cache_misses"],
            ),
            "ratio",
        ),
        "atoms.dag_s": (tracer.self_s("dag"), "s"),
        "atoms.dag_atoms": (count["atoms.dag_atoms"], "count"),
        "scheduling.schedule_s": (tracer.self_s("schedule"), "s"),
        "scheduling.rounds": (count["scheduling.rounds"], "count"),
        "mapping.placement_s": (tracer.self_s("mapping"), "s"),
        "sim.run_s": (tracer.self_s("sim"), "s"),
        "sim.runs": (tracer.calls("sim"), "count"),
        "sim.host_us_per_atom": (
            _ratio(tracer.self_s("sim") * 1e6, count["sim.atoms"]), "us/atom"
        ),
        "sim.compute_cycles": (sum(r.compute_cycles for r in results), "cycles"),
        "sim.noc_blocking_cycles": (
            sum(r.noc_blocking_cycles for r in results), "cycles"
        ),
        "sim.dram_blocking_cycles": (
            sum(r.dram_blocking_cycles for r in results), "cycles"
        ),
        "sim.pe_utilization": (
            _ratio(sum(r.pe_utilization for r in results), len(results)), "ratio"
        ),
        "sim.onchip_reuse_ratio": (
            _ratio(sum(r.onchip_reuse_ratio for r in results), len(results)),
            "ratio",
        ),
        "search.ladder_self_s": (tracer.self_s("search"), "s"),
        "search.swap_accept_ratio": (
            _ratio(count["search.swaps_accepted"], count["search.swaps_proposed"]),
            "ratio",
        ),
        "resilience.attempts_per_candidate": (
            _ratio(sum(t.attempts for t in traces), len(traces)), "count"
        ),
        "service.fingerprint_s": (tracer.total_s("service.fingerprint"), "s"),
        "service.store_get_s": (tracer.total_s("service.store_get"), "s"),
        "service.store_put_s": (tracer.total_s("service.store_put"), "s"),
        "service.journal_record_s": (
            tracer.total_s("service.journal_record"), "s"
        ),
        "service.journal_records": (
            tracer.calls("service.journal_record"), "count"
        ),
        "service.event_append_s": (tracer.total_s("service.event_append"), "s"),
        "service.session_optimize_s": (tracer.total_s("pipeline"), "s"),
        "service.cold_overhead_frac": (
            1.0 - _ratio(tracer.total_s("pipeline"), cold_latency), "ratio"
        ),
        "service.store_hit_ratio": (
            _ratio(count["service.store_hits"], count["service.store_lookups"]),
            "ratio",
        ),
        "service.session_hit_ratio": (
            _ratio(
                session.get("session.hits", 0),
                session.get("session.hits", 0) + session.get("session.misses", 0),
            ),
            "ratio",
        ),
        "service.socket_rtt_ms": (unit.rtt_ms, "ms"),
    }


#: Outside per-stage totals (wrapped layers) against the program's own
#: ``CandidateTrace.stage_seconds`` sums: the stage timers enclose the
#: wrapped calls plus a little bookkeeping of their own.
CROSSCHECK_REL = 0.10
CROSSCHECK_ABS_S = 0.25
#: The program's stage names, which are also the wrapped layers' names.
STAGES = ("tiling", "dag", "schedule", "mapping", "sim")


def crosscheck(tracer: LayerTracer) -> list[tuple[str, float, float, bool]]:
    """(stage, outside seconds, program seconds, agrees) per stage."""
    traces = [t for c in tracer.captured["compiles"] for t in c.traces]
    rows = []
    for stage in STAGES:
        outside = tracer.total_s(stage)
        inside = sum(t.stage_seconds[stage] for t in traces)
        ok = abs(outside - inside) <= CROSSCHECK_ABS_S + CROSSCHECK_REL * inside
        rows.append((stage, outside, inside, ok))
    return rows
