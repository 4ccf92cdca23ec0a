"""Tier-A validators for :class:`~repro.atoms.dag.AtomicDAG` artifacts.

A malformed DAG poisons every later stage (scheduling, mapping, buffering,
simulation), so these rules re-derive each structural invariant from the
flat arrays instead of trusting the builder:

* ``AD101`` — index alignment of the parallel flat arrays;
* ``AD102`` — pred/succ adjacency mirrors exactly;
* ``AD103`` — acyclicity (Kahn toposort over the pred arrays);
* ``AD104`` — ``edge_bytes`` keys/coverage match the adjacency exactly,
  and the flat ``pred_bytes`` table agrees with it edge for edge;
* ``AD105`` — batch sub-DAG isomorphism (every sample replicates sample 0);
* ``AD106`` — each layer's tile grid covers its output exactly.
"""

from __future__ import annotations

from collections import deque

from repro.analysis.diagnostics import Report, Severity, register_rule
from repro.atoms.dag import AtomicDAG

register_rule(
    "AD101",
    Severity.ERROR,
    "artifact",
    "AtomicDAG flat arrays (atoms/preds/succs/costs/dram_input_bytes) "
    "must be index-aligned (equal lengths)",
)
register_rule(
    "AD102",
    Severity.ERROR,
    "artifact",
    "preds and succs must mirror each other exactly",
)
register_rule(
    "AD103",
    Severity.ERROR,
    "artifact",
    "the atom dependency graph must be acyclic",
)
register_rule(
    "AD104",
    Severity.ERROR,
    "artifact",
    "edge_bytes keys must be exactly the DAG's edges (no phantom or "
    "missing entries), and pred_bytes must mirror them index for index",
)
register_rule(
    "AD105",
    Severity.ERROR,
    "artifact",
    "every batch sample's sub-DAG must be isomorphic to sample 0's",
)
register_rule(
    "AD106",
    Severity.ERROR,
    "artifact",
    "each layer's tile grid must cover its output shape exactly",
)


def check_dag(dag: AtomicDAG, report: Report | None = None) -> Report:
    """Run every AD1xx rule over one atomic DAG.

    Args:
        dag: The artifact under test.
        report: Optional report to append to (a fresh one otherwise).

    Returns:
        The report with any findings added.
    """
    report = report if report is not None else Report()
    report.mark_checked(f"AtomicDAG({dag.graph.name}, batch={dag.batch})")
    n = dag.num_atoms

    aligned = _check_alignment(dag, report)
    if not aligned:
        # Follow-on rules index the arrays against each other; misalignment
        # would turn every one of them into an IndexError storm.
        return report

    _check_mirroring(dag, report, n)
    _check_acyclic(dag, report, n)
    _check_edge_bytes(dag, report, n)
    _check_batch_isomorphism(dag, report)
    _check_coverage(dag, report)
    return report


def _check_alignment(dag: AtomicDAG, report: Report) -> bool:
    lengths = {
        "atoms": len(dag.atoms),
        "preds": len(dag.preds),
        "succs": len(dag.succs),
        "costs": len(dag.costs),
        "dram_input_bytes": len(dag.dram_input_bytes),
    }
    if len(set(lengths.values())) != 1:
        detail = ", ".join(f"{k}={v}" for k, v in lengths.items())
        report.emit("AD101", "dag", f"flat arrays disagree on length: {detail}")
        return False
    return True


def _check_mirroring(dag: AtomicDAG, report: Report, n: int) -> None:
    for i in range(n):
        for p in dag.preds[i]:
            if not 0 <= p < n:
                report.emit(
                    "AD102", f"atom {i}", f"pred {p} out of range [0, {n})"
                )
            elif i not in dag.succs[p]:
                report.emit(
                    "AD102",
                    f"atom {i}",
                    f"edge {p}->{i} in preds but {i} missing from succs[{p}]",
                )
        for s in dag.succs[i]:
            if not 0 <= s < n:
                report.emit(
                    "AD102", f"atom {i}", f"succ {s} out of range [0, {n})"
                )
            elif i not in dag.preds[s]:
                report.emit(
                    "AD102",
                    f"atom {i}",
                    f"edge {i}->{s} in succs but {i} missing from preds[{s}]",
                )


def _check_acyclic(dag: AtomicDAG, report: Report, n: int) -> None:
    """Kahn's algorithm over the pred arrays; leftovers sit on a cycle."""
    indegree = [
        sum(1 for p in ps if 0 <= p < n) for ps in dag.preds
    ]
    queue = deque(i for i in range(n) if indegree[i] == 0)
    visited = 0
    while queue:
        i = queue.popleft()
        visited += 1
        for s in dag.succs[i]:
            if 0 <= s < n and i in dag.preds[s]:
                indegree[s] -= 1
                if indegree[s] == 0:
                    queue.append(s)
    if visited != n:
        stuck = [i for i in range(n) if indegree[i] > 0]
        report.emit(
            "AD103",
            "dag",
            f"dependency cycle: {n - visited} atoms unreachable by "
            f"topological order (e.g. atoms {stuck[:5]})",
        )


def _check_edge_bytes(dag: AtomicDAG, report: Report, n: int) -> None:
    edges = {
        (p, i) for i in range(n) for p in dag.preds[i] if 0 <= p < n
    }
    for key in dag.edge_bytes:
        if key not in edges:
            report.emit(
                "AD104",
                f"edge {key[0]}->{key[1]}",
                "edge_bytes entry for a pair that is not a DAG edge",
            )
    missing = False
    for edge in sorted(edges):
        if edge not in dag.edge_bytes:
            missing = True
            report.emit(
                "AD104",
                f"edge {edge[0]}->{edge[1]}",
                "DAG edge has no edge_bytes entry",
            )
    if not missing:
        # The flat table the hot paths read instead of edge_bytes; a
        # hand-built DAG derives it lazily, which needs every entry.
        _check_pred_bytes(dag, report, n)


def _check_pred_bytes(dag: AtomicDAG, report: Report, n: int) -> None:
    pred_bytes = dag.pred_bytes
    if len(pred_bytes) != n:
        report.emit(
            "AD104",
            "dag",
            f"pred_bytes has {len(pred_bytes)} rows for {n} atoms",
        )
        return
    for i in range(n):
        preds, payloads = dag.preds[i], pred_bytes[i]
        if len(payloads) != len(preds):
            report.emit(
                "AD104",
                f"atom {i}",
                f"pred_bytes has {len(payloads)} entries for "
                f"{len(preds)} preds",
            )
            continue
        for p, nbytes in zip(preds, payloads):
            expected = dag.edge_bytes.get((p, i))
            if nbytes != expected:
                report.emit(
                    "AD104",
                    f"edge {p}->{i}",
                    f"pred_bytes says {nbytes} B, edge_bytes {expected} B",
                )


def _sub_dag_signature(
    dag: AtomicDAG, sample: int
) -> tuple | None:
    """Canonical form of one sample's sub-DAG, in stable-atom-id terms.

    Atoms are keyed ``(layer, tile_index)`` and edges carry their payload
    bytes, so two samples compare equal iff their sub-DAGs are isomorphic
    under the identity mapping on (layer, tile) — which is exactly the
    batch-replication contract of :func:`~repro.atoms.dag.build_atomic_dag`.
    Returns None when a cross-sample edge makes the signature undefined.
    """
    nodes = []
    edges = []
    for i, atom in enumerate(dag.atoms):
        if atom.sample != sample:
            continue
        nodes.append((atom.layer, atom.atom_id.index, dag.costs[i].cycles))
        for p in dag.preds[i]:
            pa = dag.atoms[p]
            if pa.sample != sample:
                return None
            edges.append(
                (
                    (pa.layer, pa.atom_id.index),
                    (atom.layer, atom.atom_id.index),
                    dag.edge_bytes.get((p, i)),
                )
            )
    return (tuple(sorted(nodes)), tuple(sorted(edges)))


def _check_batch_isomorphism(dag: AtomicDAG, report: Report) -> None:
    if dag.batch <= 1:
        return
    reference = _sub_dag_signature(dag, 0)
    if reference is None:
        report.emit("AD105", "sample 0", "sample 0 has a cross-sample edge")
        return
    for sample in range(1, dag.batch):
        sig = _sub_dag_signature(dag, sample)
        if sig is None:
            report.emit(
                "AD105", f"sample {sample}", "sub-DAG has a cross-sample edge"
            )
        elif sig != reference:
            report.emit(
                "AD105",
                f"sample {sample}",
                "sub-DAG is not isomorphic to sample 0's "
                f"({len(sig[0])} atoms/{len(sig[1])} edges vs "
                f"{len(reference[0])}/{len(reference[1])})",
            )


def _check_coverage(dag: AtomicDAG, report: Report) -> None:
    for layer, grid in dag.grids.items():
        covered = sum(r.num_elements for r in grid.regions())
        if covered != grid.shape.num_elements:
            report.emit(
                "AD106",
                f"layer {layer}",
                f"tiles cover {covered} of {grid.shape.num_elements} "
                "output elements",
            )
