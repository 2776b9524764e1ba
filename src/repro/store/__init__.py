"""repro.store — the append-only columnar feedback event store.

The struct-of-arrays substrate behind the vectorized scoring kernels:
:class:`EventStore` holds feedback as interned-int32/float64 numpy
chunks, :class:`Interner` provides the stable string<->code tables, and
:mod:`repro.store.kernels` the segment reductions kernels share.  See
DESIGN.md §12 for the layout and the chunk/merge invariants.
"""

from repro.store.interner import MISSING_CODE, Interner
from repro.store.kernels import group_sums, latest_rows
from repro.store.store import (
    OVERALL_FACET,
    ColumnSet,
    EventStore,
    GroupIndex,
)

__all__ = [
    "ColumnSet",
    "EventStore",
    "GroupIndex",
    "Interner",
    "MISSING_CODE",
    "OVERALL_FACET",
    "group_sums",
    "latest_rows",
]
