"""Structure-of-arrays atom cost table.

:func:`~repro.atoms.dag.build_atomic_dag` prices each layer's whole tile
lattice in one vectorized kernel call; this table keeps the result as flat
per-field arrays (plain Python lists of scalars, index-aligned with the
DAG's atoms) so schedulers and mapping read ``cycles``/``weight_bytes``
without touching a Python object per atom.  The familiar
:class:`~repro.engine.batch.EngineCost` objects remain available as
on-demand, memoized views through the sequence protocol — the simulator,
validators, and serialization see exactly what the old per-atom cost list
gave them.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.engine.batch import CostArrays, EngineCost


class AtomCostTable(Sequence):
    """Flat per-atom cost arrays with lazy :class:`EngineCost` views.

    Attributes (index-aligned with the owning DAG's atoms):
        cycles: Execution cycles per atom.
        macs: MAC count per atom.
        pe_utilization: PE utilization per atom.
        uses_pe_array: Whether each atom runs on the PE array.
        ifmap_bytes / weight_bytes / ofmap_bytes: Traffic terms per atom.
    """

    def __init__(self) -> None:
        self.cycles: list[int] = []
        self.macs: list[int] = []
        self.pe_utilization: list[float] = []
        self.uses_pe_array: list[bool] = []
        self.ifmap_bytes: list[int] = []
        self.weight_bytes: list[int] = []
        self.ofmap_bytes: list[int] = []
        self._views: dict[int, EngineCost] = {}

    @classmethod
    def from_costs(cls, costs: Sequence[EngineCost]) -> AtomCostTable:
        """A table holding the columns of a plain per-atom cost list."""
        table = cls()
        for cost in costs:
            table.append(cost)
        return table

    def __len__(self) -> int:
        return len(self.cycles)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(index)
        view = self._views.get(index)
        if view is None:
            view = self._views[index] = EngineCost(
                cycles=self.cycles[index],
                macs=self.macs[index],
                pe_utilization=self.pe_utilization[index],
                uses_pe_array=self.uses_pe_array[index],
                ifmap_bytes=self.ifmap_bytes[index],
                weight_bytes=self.weight_bytes[index],
                ofmap_bytes=self.ofmap_bytes[index],
            )
        return view

    def pop(self) -> EngineCost:
        """Remove and return the last atom's cost (list-compatible)."""
        last = len(self) - 1
        cost = self[last]
        self._views.pop(last, None)
        self.cycles.pop()
        self.macs.pop()
        self.pe_utilization.pop()
        self.uses_pe_array.pop()
        self.ifmap_bytes.pop()
        self.weight_bytes.pop()
        self.ofmap_bytes.pop()
        return cost

    def append(self, cost: EngineCost) -> None:
        """Append one scalar cost (list-compatible incremental build)."""
        self.cycles.append(cost.cycles)
        self.macs.append(cost.macs)
        self.pe_utilization.append(cost.pe_utilization)
        self.uses_pe_array.append(cost.uses_pe_array)
        self.ifmap_bytes.append(cost.ifmap_bytes)
        self.weight_bytes.append(cost.weight_bytes)
        self.ofmap_bytes.append(cost.ofmap_bytes)

    def extend_columns(
        self,
        cycles: list[int],
        macs: list[int],
        pe_utilization: list[float],
        uses_pe_array: bool,
        ifmap_bytes: list[int],
        weight_bytes: list[int],
        ofmap_bytes: list[int],
    ) -> None:
        """Append one layer's pre-listified columns (no per-atom objects)."""
        self.cycles.extend(cycles)
        self.macs.extend(macs)
        self.pe_utilization.extend(pe_utilization)
        self.uses_pe_array.extend([uses_pe_array] * len(cycles))
        self.ifmap_bytes.extend(ifmap_bytes)
        self.weight_bytes.extend(weight_bytes)
        self.ofmap_bytes.extend(ofmap_bytes)

    def extend_arrays(self, arrays: CostArrays) -> None:
        """Append a :class:`CostArrays` batch (converted to Python scalars)."""
        self.extend_columns(
            arrays.cycles.tolist(),
            arrays.macs.tolist(),
            arrays.pe_utilization.tolist(),
            arrays.uses_pe_array,
            arrays.ifmap_bytes.tolist(),
            arrays.weight_bytes.tolist(),
            arrays.ofmap_bytes.tolist(),
        )
