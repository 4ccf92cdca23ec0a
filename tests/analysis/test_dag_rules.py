"""Negative-path tests: one minimally-broken DAG per AD1xx rule.

Each corruption is constructed so *only* the rule under test fires —
e.g. breaking pred/succ symmetry is done on the succ side so the Kahn
toposort (AD103) is unaffected, and seeded cycles keep ``edge_bytes``
and its flat ``pred_bytes`` mirror consistent so AD104 stays silent.
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis import check_dag
from repro.ir import TensorShape

from tests.analysis.conftest import build_tiny_dag, corrupted


def fired(dag):
    return check_dag(dag).fired_rule_ids()


class TestCleanDag:
    def test_no_findings(self, tiny_dag):
        report = check_dag(tiny_dag)
        assert report.ok
        assert not report.diagnostics
        assert report.checked  # analyzed something

    def test_batched_dag_clean(self):
        assert fired(build_tiny_dag(batch=2)) == frozenset()


class TestAD101IndexAlignment:
    def test_shortened_costs_array(self, tiny_dag):
        dag = corrupted(tiny_dag)
        dag.costs.pop()
        assert fired(dag) == {"AD101"}

    def test_extra_preds_entry(self, tiny_dag):
        dag = corrupted(tiny_dag)
        dag.preds.append(())
        assert fired(dag) == {"AD101"}


class TestAD102Mirroring:
    def test_succ_without_pred(self, tiny_dag):
        dag = corrupted(tiny_dag)
        last = dag.num_atoms - 1
        dag.succs[0] = dag.succs[0] + (last,)
        assert fired(dag) == {"AD102"}


class TestAD103Acyclicity:
    def test_two_atom_cycle(self, tiny_dag):
        dag = corrupted(tiny_dag)
        # Atom 2 (layer c2) already depends on atom 0 (layer c1); add the
        # reverse edge with full pred/succ/edge_bytes/pred_bytes
        # consistency so only the cycle itself is illegal.
        assert 0 in dag.preds[2]
        dag.preds[0] = dag.preds[0] + (2,)
        dag.pred_bytes[0] = dag.pred_bytes[0] + (1,)
        dag.succs[2] = dag.succs[2] + (0,)
        dag.edge_bytes[(2, 0)] = 1
        assert fired(dag) == {"AD103"}


class TestAD104EdgeBytes:
    def test_phantom_entry(self, tiny_dag):
        dag = corrupted(tiny_dag)
        assert 0 not in dag.preds[1]  # same-layer atoms share no edge
        dag.edge_bytes[(1, 0)] = 7
        assert fired(dag) == {"AD104"}

    def test_missing_entry(self, tiny_dag):
        dag = corrupted(tiny_dag)
        key = next(iter(dag.edge_bytes))
        del dag.edge_bytes[key]
        assert fired(dag) == {"AD104"}

    def test_pred_bytes_payload_disagrees(self, tiny_dag):
        dag = corrupted(tiny_dag)
        consumer = next(i for i in range(dag.num_atoms) if dag.preds[i])
        first, *rest = dag.pred_bytes[consumer]
        dag.pred_bytes[consumer] = (first + 1, *rest)
        report = check_dag(dag)
        assert report.fired_rule_ids() == {"AD104"}
        [diag] = report.by_rule("AD104")
        assert diag.location == f"edge {dag.preds[consumer][0]}->{consumer}"

    def test_pred_bytes_row_misaligned(self, tiny_dag):
        dag = corrupted(tiny_dag)
        consumer = next(i for i in range(dag.num_atoms) if dag.preds[i])
        dag.pred_bytes[consumer] = dag.pred_bytes[consumer][:-1]
        assert fired(dag) == {"AD104"}

    def test_pred_bytes_table_short(self, tiny_dag):
        dag = corrupted(tiny_dag)
        dag.pred_bytes.pop()
        assert fired(dag) == {"AD104"}

    def test_replace_carries_the_built_table(self, tiny_dag):
        # dataclasses.replace copies the built pred_bytes, so editing one
        # payload through edge_bytes alone leaves the two views apart.
        edge = next(iter(tiny_dag.edge_bytes))
        skewed = replace(
            tiny_dag,
            edge_bytes={**tiny_dag.edge_bytes, edge: tiny_dag.edge_bytes[edge] + 1},
        )
        assert skewed.pred_bytes is tiny_dag.pred_bytes
        assert fired(skewed) == {"AD104"}


class TestAD105BatchIsomorphism:
    def test_edge_dropped_from_second_sample(self):
        dag = corrupted(build_tiny_dag(batch=2))
        # Find an intra-sample edge of sample 1 and remove it everywhere
        # (preds, pred_bytes, succs, edge_bytes stay mutually consistent).
        consumer = next(
            i
            for i in range(dag.num_atoms)
            if dag.atoms[i].sample == 1 and dag.preds[i]
        )
        producer = dag.preds[consumer][0]
        assert dag.atoms[producer].sample == 1
        kept = [
            (p, nbytes)
            for p, nbytes in zip(dag.preds[consumer], dag.pred_bytes[consumer])
            if p != producer
        ]
        dag.preds[consumer] = tuple(p for p, _ in kept)
        dag.pred_bytes[consumer] = tuple(nbytes for _, nbytes in kept)
        dag.succs[producer] = tuple(
            s for s in dag.succs[producer] if s != consumer
        )
        del dag.edge_bytes[(producer, consumer)]
        assert fired(dag) == {"AD105"}


class _HalfCoverageGrid:
    """A grid whose regions leave part of the output uncovered."""

    def __init__(self, real_grid):
        self._real = real_grid
        self.shape = real_grid.shape
        self.tile = real_grid.tile
        self.num_tiles = real_grid.num_tiles

    def regions(self):
        return self._real.regions()[:-1]


class TestAD106Coverage:
    def test_uncovered_output(self, tiny_dag):
        dag = corrupted(tiny_dag)
        layer = next(iter(dag.grids))
        dag.grids[layer] = _HalfCoverageGrid(dag.grids[layer])
        assert fired(dag) == {"AD106"}
        assert isinstance(dag.grids[layer].shape, TensorShape)
