"""Pinned end-to-end search-performance benchmark (``repro bench``).

Measures the wall time of the exact workload the vectorized cost-kernel
refactor was tuned on: a ResNet-50 ``optimize`` with 8 restarts, seed 0,
serial evaluation, on the paper's default 8x8 platform.  The committed
``BENCH_perf.json`` records the numbers the README quotes; CI re-runs the
benchmark with ``--check`` against that file and fails when

* the search result drifts at all (``total_cycles`` or the winning
  candidate's fingerprint — the refactor's bit-exactness contract),
* the evaluation window's cost-kernel counters drift (they are
  bit-exact, so tiling pricing leaking into evaluation shows here), or
* wall time regresses more than ``--threshold`` (default 25%) over the
  committed measurement.  The failure names every search stage whose
  seconds grew past the same threshold over the committed
  ``stage_seconds``; stage seconds alone never fail the check.

Wall-seconds are honest measurements of the machine they ran on, so the
report carries ``cpu_count`` and the check compares runs of the same
pinned configuration only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.config import DEFAULT_ARCH
from repro.framework import AtomicDataflowOptimizer, OptimizerOptions
from repro.models import get_model

#: The pinned workload (do not change without refreshing BENCH_perf.json).
MODEL = "resnet50"

#: Wall time of the same pinned search on the scalar (pre-vectorization)
#: hot path, measured on the machine that produced BENCH_perf.json.
SCALAR_BASELINE_WALL_SECONDS = 102.55


def run_pinned_search(restarts: int, seed: int) -> dict:
    """Run the pinned search once and summarize it as a JSON-able dict."""
    options = OptimizerOptions(restarts=restarts, seed=seed, jobs=1)
    t0 = time.perf_counter()
    outcome = AtomicDataflowOptimizer(
        get_model(MODEL), DEFAULT_ARCH, options
    ).optimize()
    wall = time.perf_counter() - t0
    stats = outcome.search_stats
    winner = next(t for t in outcome.traces if t.accepted)
    return {
        "benchmark": "perf-smoke",
        "model": MODEL,
        "arch": f"{DEFAULT_ARCH.mesh_rows}x{DEFAULT_ARCH.mesh_cols} default",
        "restarts": restarts,
        "seed": seed,
        "jobs": 1,
        "cpu_count": os.cpu_count(),
        "wall_seconds": round(wall, 3),
        "candidates": stats.candidates,
        "evaluated": stats.evaluated,
        "candidates_per_second": round(stats.candidates / wall, 3),
        "total_cycles": outcome.result.total_cycles,
        "winner": {"label": winner.label, "fingerprint": winner.fingerprint},
        "cost_kernel": {
            "batch_calls": sum(t.kernel_batch_calls for t in outcome.traces),
            "batch_rows": sum(t.kernel_batch_rows for t in outcome.traces),
        },
        "stage_seconds": {
            stage: round(seconds, 3)
            for stage, seconds in stats.stage_seconds.items()
        },
        "scalar_baseline_wall_seconds": SCALAR_BASELINE_WALL_SECONDS,
        "speedup_vs_scalar_baseline": round(
            SCALAR_BASELINE_WALL_SECONDS / wall, 2
        ),
    }


def check_against(report: dict, reference: dict, threshold: float) -> list[str]:
    """Regression verdicts of a fresh run vs the committed reference."""
    problems: list[str] = []
    if report["total_cycles"] != reference["total_cycles"]:
        problems.append(
            "bit-exactness violated: total_cycles "
            f"{report['total_cycles']} != committed {reference['total_cycles']}"
        )
    if report["winner"] != reference["winner"]:
        problems.append(
            f"winner drifted: {report['winner']} != "
            f"committed {reference['winner']}"
        )
    if report["cost_kernel"] != reference["cost_kernel"]:
        problems.append(
            f"cost_kernel drifted: {report['cost_kernel']} != "
            f"committed {reference['cost_kernel']}"
        )
    limit = reference["wall_seconds"] * (1.0 + threshold)
    if report["wall_seconds"] > limit:
        problems.append(
            f"wall time regressed: {report['wall_seconds']:.2f}s > "
            f"{limit:.2f}s (committed {reference['wall_seconds']:.2f}s "
            f"+ {threshold:.0%})"
            + _regressed_stages(report, reference, threshold)
        )
    return problems


def _regressed_stages(report: dict, reference: dict, threshold: float) -> str:
    """``"; stages past threshold: ..."`` naming each stage that grew."""
    committed = reference.get("stage_seconds", {})
    grown = [
        f"{stage} {seconds:.2f}s > {committed[stage]:.2f}s"
        for stage, seconds in report.get("stage_seconds", {}).items()
        if stage in committed and seconds > committed[stage] * (1.0 + threshold)
    ]
    return "; stages past threshold: " + ", ".join(grown) if grown else ""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro bench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--restarts", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out", default="BENCH_perf.json", help="report JSON path"
    )
    parser.add_argument(
        "--check", action="store_true",
        help="compare against the committed --out file instead of "
        "rewriting it; exit 1 on result or cost-kernel drift or wall-time "
        "regression",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.25,
        help="allowed fractional wall-time regression in --check mode "
        "(default 0.25)",
    )
    args = parser.parse_args(argv)

    if args.check:
        with open(args.out) as f:
            reference = json.load(f)
        # Re-run exactly the committed configuration.
        report = run_pinned_search(
            int(reference["restarts"]), int(reference["seed"])
        )
    else:
        report = run_pinned_search(args.restarts, args.seed)

    print(
        f"{report['model']} restarts={report['restarts']} "
        f"seed={report['seed']}: {report['wall_seconds']:.2f}s "
        f"({report['candidates_per_second']:.2f} cand/s), "
        f"total_cycles={report['total_cycles']}, "
        f"{report['speedup_vs_scalar_baseline']:.2f}x vs scalar baseline"
    )
    print(
        "stages: " + ", ".join(
            f"{stage} {seconds:.2f}s"
            for stage, seconds in report["stage_seconds"].items()
        )
        + "; cost_kernel {batch_calls}/{batch_rows}".format(
            **report["cost_kernel"]
        )
    )

    if args.check:
        problems = check_against(report, reference, args.threshold)
        for p in problems:
            print(f"FAIL: {p}", file=sys.stderr)
        if not problems:
            print(
                f"check passed vs {args.out} "
                f"(committed {reference['wall_seconds']:.2f}s, "
                f"threshold +{args.threshold:.0%})"
            )
        return 1 if problems else 0

    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(f"report written to {args.out} (cpu_count={report['cpu_count']})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
