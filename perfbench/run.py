#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one verdict.

Run from the root of a checkout::

    python3 perfbench/run.py --workload search-resnet50 --seed 0 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation,
on the process's CPU clock (``workloads.Stopwatch`` says why).
``--trace 1`` runs the workload unit once untraced and once with every
layer boundary wrapped (:mod:`layers`), and reports the per-layer
metrics, the tracing overhead and the outside-vs-program stage-time
cross-check.  Human-readable lines come first; the last line of
standard output is the JSON verdict ``{"correct", "attempted",
"failed", "metrics"}``.  A failed correctness check reports the failure
and no numbers, and exits 1.
"""

from __future__ import annotations

import os

# Single-threaded numerics: set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOADS = (
    "search-resnet50",
    "nasnet-batch4",
    "tempering-resnet50",
    "serve-mixed",
)

#: Fresh processes timed from start to ready; ``setup_s`` is their median.
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60.0

#: The hash seed every benchmark process runs at (:func:`pin_hash_seed`).
HASH_SEED = "0"

#: Scratch space inside the checkout (ignored by git).
SCRATCH = ".perfbench"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float, default=10.0,
        help="repeat a search workload's cycles until this long has passed "
        "(at least its fixed number of cycles)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--search-seed", type=int, default=None,
        help="search seed (serve-mixed: request seeds 3N..3N+2); default: the "
        "pinned seed. Another value skips only the pinned-value check",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_setup_s(args: argparse.Namespace, root: Path) -> tuple[float, float]:
    """(CPU seconds, wall seconds) from starting a fresh interpreter to its
    workload being ready for the first timed call.  The CPU figure is the
    child's own process time at that point, as it reports it."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-probe",
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        assert proc.stdout is not None
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    word, _, cpu = line.partition(" ")
    if word != "ready" or code != 0:
        raise RuntimeError(f"setup probe failed (exit {code}, said {line!r})")
    return float(cpu), elapsed


def machine_line() -> str:
    import numpy

    return (
        f"machine: cpu_count={os.cpu_count()} "
        f"python={platform.python_version()} numpy={numpy.__version__} "
        f"platform={platform.platform()}"
    )


def run(args: argparse.Namespace, root: Path, workdir: Path) -> dict:
    import workloads
    from layers import LayerTracer, install, span_cost_s

    if args.setup_probe:
        workloads.probe_setup(
            args.workload, workdir,
            ready=lambda: print(f"ready {time.process_time()!r}", flush=True),
        )
        return {}

    search_seed = (
        workloads.PINNED_SEED if args.search_seed is None else args.search_seed
    )
    print(machine_line())
    print(
        f"workload: {args.workload} seed={args.seed} search_seed={search_seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    tracer: LayerTracer | None = None

    def end_timed() -> float:
        if tracer is not None:
            tracer.enabled = False
        return peak_rss_mb()

    def unit(name: str):
        return workloads.run_unit(
            args.workload, args.seed, args.seconds, search_seed, workdir,
            name, end_timed,
        )

    problems: list[str] = []
    if not args.trace:
        # Probes on both sides of the timed work: host slowdowns come in
        # bursts of seconds, and back-to-back probes would share one.
        setup = [probe_setup_s(args, root) for _ in range(SETUP_PROBES // 2)]
        result = unit("run")
        problems += result.problems
        setup += [
            probe_setup_s(args, root) for _ in range(SETUP_PROBES - len(setup))
        ]
        print(
            "setup samples (cpu/wall): "
            f"{', '.join(f'{c:.3f}/{w:.3f}' for c, w in setup)} s"
        )
        print(workloads.wall_line(result))
        metrics = workloads.end_to_end(
            result, statistics.median(c for c, _ in setup)
        )
        if result.served.hit_s:
            deciles = workloads.deciles_ms(result.served.hit_s)
            print(f"hit latency deciles (ms): {' '.join(f'{d:.1f}' for d in deciles)}")
    else:
        untraced = unit("untraced")
        tracer = install(LayerTracer())
        try:
            tracer.enabled = True
            result = unit("traced")
        finally:
            tracer.uninstall()
        problems += untraced.problems + result.problems
        overhead = result.primary_s / untraced.primary_s - 1.0
        print(
            f"tracing overhead: {overhead:+.2%} (traced {result.primary_s:.3f} s "
            f"vs untraced {untraced.primary_s:.3f} s of timed work; one pair, "
            "so host noise of several percent is included)"
        )
        cost = span_cost_s()
        print(
            f"wrapper cost: {tracer.spans} spans x {cost * 1e6:.2f} us = "
            f"{tracer.spans * cost / untraced.primary_s:.4%} of the timed work"
        )
        print("stage cross-check (outside vs CandidateTrace.stage_seconds):")
        for stage, outside, inside, ok in workloads.crosscheck(tracer):
            print(
                f"  {stage:<9} {outside:9.3f} s {inside:9.3f} s "
                f"{'ok' if ok else 'DISAGREES'}"
            )
            if not ok:
                problems.append(
                    f"stage {stage}: outside {outside:.3f} s vs program "
                    f"{inside:.3f} s beyond tolerance"
                )
        metrics = workloads.per_layer(result, tracer)

    for name, (value, unit_name) in metrics.items():
        print(f"  {name:<36} {value:>16.6g} {unit_name}")
    print(f"attempted {result.attempted}, failed {result.failed}")
    for problem in problems:
        print(f"FAIL: {problem}")
    print("check: " + ("FAILED" if problems else "ok"))
    return {
        "correct": not problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {}
        if problems
        else {
            name: {"value": value, "unit": unit_name}
            for name, (value, unit_name) in metrics.items()
        },
    }


def pin_hash_seed() -> None:
    """Re-execute this interpreter with ``PYTHONHASHSEED=0`` unless it
    already runs with it.

    The hash seed orders str-keyed sets and dicts, and with them the
    order the compiler visits its work in.  Decisions do not depend on
    it, but host time does: the same ``tempering-resnet50`` compile took
    10.3 to 12.6 CPU seconds over six hash seeds, and 11.7 to 12.4 over
    five processes at one seed.  ``exec`` keeps the process (and its
    pid), so there is nothing extra to stop.
    """
    if os.environ.get("PYTHONHASHSEED") == HASH_SEED:
        return
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    os.execve(sys.executable, [sys.executable, *sys.argv], env)


def main(argv: list[str] | None = None) -> int:
    pin_hash_seed()
    args = parse_args(argv)
    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            "perfbench: run from the root of a repository checkout "
            f"(no src/repro under {root})",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(src))
    workdir = root / SCRATCH / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    os.chdir(workdir)
    try:
        verdict = run(args, root, workdir)
    except Exception:  # noqa: BLE001 - the run reports, never numbers
        traceback.print_exc()
        verdict = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    finally:
        os.chdir(root)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (root / SCRATCH).rmdir()
        except OSError:
            pass  # another run's scratch directory is still there
    if args.setup_probe:
        return 0 if verdict == {} else 1
    print(json.dumps(verdict))
    return 0 if verdict["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
