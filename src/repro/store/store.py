"""Append-only columnar event store (struct-of-arrays feedback log).

Every feedback event is one logical row across five parallel columns:

====================  =======  ==========================================
column                dtype    meaning
====================  =======  ==========================================
``rater``             int32    interned consumer id (shared entity table)
``target``            int32    interned provider/service id (same table)
``facet``             int32    interned facet name; ``-1`` = overall
``value``             float64  the rating on ``[0, 1]``
``time``              float64  simulation time the report was filed
                      /int64   (int64 tick stores: ``repro.common.simtime``)
====================  =======  ==========================================

Rows live in sealed fixed-size numpy chunks plus a mutable Python-list
tail, so ``append`` is a few list appends (no numpy realloc per event)
while kernels see contiguous arrays via :meth:`EventStore.snapshot`.
The implicit row number (append order) is the store's int64 sequence
column — kernels that need "latest wins" tie-breaking get it from row
position, which is why the logical row order is part of the canonical
encoding.

Invariants the property suite pins:

* **chunking is invisible** — the same event stream produces the same
  :meth:`canonical_bytes` for any ``chunk_size``, because the encoding
  covers logical row order and interner tables only;
* **merge is concatenation + re-interning** — :meth:`merge_from`
  appends the other store's rows in their logical order (and
  :meth:`extend_coded` rows coded against any id table), translating
  codes through this store's interners exactly as an append loop over
  those rows would (the same canonical-merge discipline the obs
  registry uses);
* **bad events stop at the boundary** — every write path rejects a
  rating that is NaN, infinite or outside ``[0, 1]`` and a non-finite
  time with :class:`~repro.common.errors.InvalidEventError`;
  out-of-order times are legal and only clear :attr:`times_monotonic`;
* **indexes are views** — :meth:`by_target` etc. return group slices
  (stable argsort + searchsorted) over the snapshot, never copies of
  the event data.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import chain
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.common.errors import InvalidEventError
from repro.store.interner import Interner

__all__ = ["ColumnSet", "EventStore", "GroupIndex", "OVERALL_FACET"]

#: Facet code of the overall rating (facet column is -1 for rows that
#: carry the feedback's overall rating rather than one facet's).
OVERALL_FACET = -1

_EMPTY_I4 = np.empty(0, dtype=np.int32)
_EMPTY_F8 = np.empty(0, dtype=np.float64)
_EMPTY_I8 = np.empty(0, dtype=np.int64)


def _check_ratings(values: np.ndarray) -> None:
    """Reject NaN, infinite and out-of-``[0, 1]`` ratings."""
    bad = ~((values >= 0.0) & (values <= 1.0))
    if bad.any():
        row = int(np.argmax(bad))
        raise InvalidEventError(
            f"rating must be in [0, 1], got {values[row]!r} at row {row}"
        )


def _check_times(times: np.ndarray) -> None:
    """Reject non-finite float times (int64 ticks are finite)."""
    if times.dtype.kind == "f":
        bad = ~np.isfinite(times)
        if bad.any():
            row = int(np.argmax(bad))
            raise InvalidEventError(
                f"time must be finite, got {times[row]!r} at row {row}"
            )


def _first_appearance(codes: np.ndarray) -> np.ndarray:
    """The distinct *codes* in order of first appearance."""
    distinct, first = np.unique(codes, return_index=True)
    return distinct[np.argsort(first, kind="stable")]


def _translation(
    interner: Interner, values: Tuple[str, ...], codes: np.ndarray
) -> np.ndarray:
    """Map foreign *codes* (into *values*) onto *interner*'s codes,
    interning unseen values in first-appearance order of *codes*."""
    mapping = np.zeros(len(values), dtype=np.int32)
    seen = _first_appearance(codes)
    mapping[seen] = interner.intern_many(values[c] for c in seen.tolist())
    return mapping


@dataclass(frozen=True)
class ColumnSet:
    """An immutable struct-of-arrays view of the store at one version."""

    rater: np.ndarray
    target: np.ndarray
    facet: np.ndarray
    value: np.ndarray
    time: np.ndarray

    @property
    def n(self) -> int:
        return len(self.value)

    def pair_keys(self) -> np.ndarray:
        """int64 ``(rater << 32) | target`` keys, one per row."""
        return (self.rater.astype(np.int64) << 32) | self.target.astype(
            np.int64
        )

    def target_facet_keys(self) -> np.ndarray:
        """int64 ``(target << 32) | (facet + 1)`` keys, one per row."""
        return (self.target.astype(np.int64) << 32) | (
            self.facet.astype(np.int64) + 1
        )


class GroupIndex:
    """Zero-copy group slices over one code column.

    ``order`` is a stable argsort of the codes, so within one group the
    rows keep their logical (append) order unless a *secondary* sort
    key was supplied at build time.  ``rows(code)`` returns the row ids
    of one group as a slice of ``order`` — a view, not a copy.
    """

    __slots__ = ("order", "codes", "starts", "ends")

    def __init__(
        self, keys: np.ndarray, secondary: Optional[np.ndarray] = None
    ) -> None:
        if secondary is None:
            self.order = np.argsort(keys, kind="stable")
        else:
            # lexsort is a sequence of stable sorts: primary = keys,
            # secondary = the supplied key, full ties keep append order.
            self.order = np.lexsort((secondary, keys))
        grouped = keys[self.order]
        self.codes, self.starts = np.unique(grouped, return_index=True)
        self.ends = np.append(self.starts[1:], len(grouped))

    def __len__(self) -> int:
        return len(self.codes)

    def slot(self, code: int) -> int:
        """Position of *code* in :attr:`codes`, or -1 when absent."""
        i = int(np.searchsorted(self.codes, code))
        if i < len(self.codes) and self.codes[i] == code:
            return i
        return -1

    def rows(self, code: int) -> np.ndarray:
        """Row ids of one group (empty array when absent) — a view."""
        i = self.slot(code)
        if i < 0:
            return _EMPTY_I8
        return self.order[self.starts[i]: self.ends[i]]

    def group_sizes(self) -> np.ndarray:
        return self.ends - self.starts

    def ranks(self) -> np.ndarray:
        """Rank of each *sorted* position within its group (0-based).

        Aligned with :attr:`order`: ``ranks()[i]`` is the rank of row
        ``order[i]`` inside its group.
        """
        n = len(self.order)
        ranks = np.arange(n, dtype=np.int64)
        if len(self.starts):
            offsets = np.zeros(n, dtype=np.int64)
            offsets[self.starts] = self.starts
            np.maximum.accumulate(offsets, out=offsets)
            ranks -= offsets
        return ranks


class _Chunk:
    """One sealed, immutable block of rows."""

    __slots__ = ("rater", "target", "facet", "value", "time")

    def __init__(
        self,
        rater: np.ndarray,
        target: np.ndarray,
        facet: np.ndarray,
        value: np.ndarray,
        time: np.ndarray,
    ) -> None:
        self.rater = rater
        self.target = target
        self.facet = facet
        self.value = value
        self.time = time

    def __len__(self) -> int:
        return len(self.value)


class EventStore:
    """Append-only columnar feedback log with interned id columns.

    Args:
        chunk_size: rows per sealed chunk; purely a performance knob —
            the canonical encoding (and every query result) is
            independent of it.
        time_dtype: ``"float64"`` (default) or ``"int64"``.  An int64
            store keeps the time column as exact integer ticks
            (``repro.common.simtime``), the exchange format shard
            deltas use; its canonical encoding carries a distinct
            header tag, and :meth:`merge_from` refuses to mix the two.
    """

    _HEADERS = {
        np.dtype(np.float64): b"repro.store.v1\x00",
        np.dtype(np.int64): b"repro.store.v1:i64\x00",
    }

    def __init__(
        self,
        chunk_size: int = 4096,
        time_dtype: Union[str, np.dtype] = "float64",
    ) -> None:
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.chunk_size = chunk_size
        self.time_dtype = np.dtype(time_dtype)
        if self.time_dtype not in self._HEADERS:
            raise ValueError(
                "time_dtype must be 'float64' or 'int64', "
                f"got {time_dtype!r}"
            )
        self._time_is_int = self.time_dtype == np.dtype(np.int64)
        #: one shared table for raters *and* targets — several surveyed
        #: mechanisms (Sporas, Histos, PeerTrust) relate an entity's
        #: behaviour as rater to its standing as target, which needs a
        #: single code space.
        self.entities = Interner()
        self.facets = Interner()
        self._chunks: List[_Chunk] = []
        self._tail_rater: List[int] = []
        self._tail_target: List[int] = []
        self._tail_facet: List[int] = []
        self._tail_value: List[float] = []
        self._tail_time: List[float] = []
        self._sealed_rows = 0
        #: cached (version, ColumnSet) snapshot
        self._snapshot: Optional[Tuple[int, ColumnSet]] = None
        #: cached group indexes: name -> (version, GroupIndex)
        self._indexes: Dict[str, Tuple[int, GroupIndex]] = {}
        #: True while the time column is non-decreasing in append
        #: order — lets time-ordered kernels skip their lexsort.
        self._times_sorted = True
        self._last_time: Optional[float] = None

    # -- writing -------------------------------------------------------
    def __len__(self) -> int:
        return self._sealed_rows + len(self._tail_value)

    @property
    def version(self) -> int:
        """Monotone change counter (the store is append-only, so the
        row count is the version)."""
        return len(self)

    @property
    def times_monotonic(self) -> bool:
        """Whether every append so far arrived in non-decreasing time."""
        return self._times_sorted

    def append(
        self,
        rater: str,
        target: str,
        value: float,
        time: float,
        facet: Optional[str] = None,
    ) -> None:
        """Append one row (the ``record`` hot path)."""
        if not 0.0 <= value <= 1.0:
            raise InvalidEventError(f"rating must be in [0, 1], got {value!r}")
        if self._time_is_int:
            # Rejects floats outright: silent truncation of a float
            # timestamp is exactly the bug tick stores exist to prevent.
            time = operator.index(time)
        elif not math.isfinite(time):
            raise InvalidEventError(f"time must be finite, got {time!r}")
        self._tail_rater.append(self.entities.intern(rater))
        self._tail_target.append(self.entities.intern(target))
        self._tail_facet.append(
            OVERALL_FACET if facet is None else self.facets.intern(facet)
        )
        self._tail_value.append(value)
        self._tail_time.append(time)
        if self._times_sorted:
            last = self._last_time
            if last is not None and time < last:
                self._times_sorted = False
        self._last_time = time
        if len(self._tail_value) >= self.chunk_size:
            self._seal_tail()

    def extend(
        self,
        raters: Sequence[str],
        targets: Sequence[str],
        values: Sequence[float],
        times: Sequence[float],
    ) -> None:
        """Bulk-append overall rows from parallel columns.

        Produces exactly the rows the equivalent :meth:`append` loop
        would (same codes, same order); it just skips the per-event
        Python frame and list growth.
        """
        n = len(values)
        if not n:
            return
        ratings = np.asarray(values, dtype=np.float64)
        _check_ratings(ratings)
        arr = self._as_time_array(times)
        _check_times(arr)
        # Intern rater/target interleaved per row — interning all raters
        # first would assign different codes than the append loop when a
        # new id shows up in both columns.
        codes = np.array(
            self.entities.intern_list(
                list(chain.from_iterable(zip(raters, targets)))
            ),
            dtype=np.int32,
        )
        self._push(
            codes[0::2],
            codes[1::2],
            np.full(n, OVERALL_FACET, dtype=np.int32),
            ratings,
            arr,
        )

    def _push(
        self,
        rater: np.ndarray,
        target: np.ndarray,
        facet: np.ndarray,
        value: np.ndarray,
        time: np.ndarray,
    ) -> None:
        """Append validated, interned column arrays (at least one row).

        Tops the tail up to a chunk boundary, seals whole chunks
        straight from (copies of) the arrays, and keeps the remainder
        as the new tail — the same chunks an append loop would seal,
        without a round trip through Python lists.
        """
        n = len(value)
        if self._times_sorted:
            last = self._last_time
            if (last is not None and time[0] < last) or (
                n > 1 and bool(np.any(np.diff(time) < 0))
            ):
                self._times_sorted = False
        self._last_time = self._py_time(time[-1])
        columns = (rater, target, facet, value, time)
        tails = (
            self._tail_rater,
            self._tail_target,
            self._tail_facet,
            self._tail_value,
            self._tail_time,
        )
        size = self.chunk_size
        pos = min(n, size - len(self._tail_value)) if self._tail_value else 0
        if pos:
            for tail, column in zip(tails, columns):
                tail.extend(column[:pos].tolist())
            if len(self._tail_value) >= size:
                self._seal_tail()
        while n - pos >= size:
            self._chunks.append(
                _Chunk(*(column[pos : pos + size].copy() for column in columns))
            )
            self._sealed_rows += size
            pos += size
        if pos < n:
            for tail, column in zip(tails, columns):
                tail.extend(column[pos:].tolist())

    def _as_time_array(self, times: Sequence[float]) -> np.ndarray:
        arr = np.asarray(times)
        if not self._time_is_int:
            return arr.astype(np.float64, copy=False)
        if arr.dtype.kind not in "iu":
            raise TypeError(
                "int64-time store requires integer tick times "
                f"(got dtype {arr.dtype}); convert with "
                "repro.common.simtime.to_ticks"
            )
        return arr.astype(np.int64, copy=False)

    def _py_time(self, value: Union[int, float, np.number]) -> Union[int, float]:
        return int(value) if self._time_is_int else float(value)

    def _seal_tail(self, limit: Optional[int] = None) -> None:
        take = len(self._tail_value) if limit is None else limit
        if not take:
            return
        chunk = _Chunk(
            np.asarray(self._tail_rater[:take], dtype=np.int32),
            np.asarray(self._tail_target[:take], dtype=np.int32),
            np.asarray(self._tail_facet[:take], dtype=np.int32),
            np.asarray(self._tail_value[:take], dtype=np.float64),
            np.asarray(self._tail_time[:take], dtype=self.time_dtype),
        )
        self._chunks.append(chunk)
        self._sealed_rows += take
        del self._tail_rater[:take]
        del self._tail_target[:take]
        del self._tail_facet[:take]
        del self._tail_value[:take]
        del self._tail_time[:take]

    # -- reading -------------------------------------------------------
    def snapshot(self) -> ColumnSet:
        """Contiguous column arrays covering every row (cached per
        version; chunk boundaries are invisible in the result)."""
        version = self.version
        cached = self._snapshot
        if cached is not None and cached[0] == version:
            return cached[1]
        chunks = self._chunks
        tail_n = len(self._tail_value)
        if not chunks and not tail_n:
            columns = ColumnSet(
                _EMPTY_I4,
                _EMPTY_I4,
                _EMPTY_I4,
                _EMPTY_F8,
                _EMPTY_I8 if self._time_is_int else _EMPTY_F8,
            )
        else:
            parts: List[Tuple[np.ndarray, ...]] = [
                (c.rater, c.target, c.facet, c.value, c.time)
                for c in chunks
            ]
            if tail_n:
                parts.append(
                    (
                        np.asarray(self._tail_rater, dtype=np.int32),
                        np.asarray(self._tail_target, dtype=np.int32),
                        np.asarray(self._tail_facet, dtype=np.int32),
                        np.asarray(self._tail_value, dtype=np.float64),
                        np.asarray(self._tail_time, dtype=self.time_dtype),
                    )
                )
            if len(parts) == 1:
                columns = ColumnSet(*parts[0])
            else:
                columns = ColumnSet(
                    *(
                        np.concatenate([p[i] for p in parts])
                        for i in range(5)
                    )
                )
        self._snapshot = (version, columns)
        return columns

    def iter_rows(
        self, start: int = 0
    ) -> Iterator[Tuple[int, int, int, float, float]]:
        """Yield ``(rater, target, facet, value, time)`` per row from
        logical row *start*, without materializing a snapshot — the
        scalar reference replays consume this."""
        base = 0
        for chunk in self._chunks:
            n = len(chunk)
            if base + n > start:
                lo = max(0, start - base)
                yield from zip(
                    chunk.rater[lo:].tolist(),
                    chunk.target[lo:].tolist(),
                    chunk.facet[lo:].tolist(),
                    chunk.value[lo:].tolist(),
                    chunk.time[lo:].tolist(),
                )
            base += n
        lo = max(0, start - base)
        if lo < len(self._tail_value):
            yield from zip(
                self._tail_rater[lo:],
                self._tail_target[lo:],
                self._tail_facet[lo:],
                self._tail_value[lo:],
                self._tail_time[lo:],
            )

    def _index(
        self, name: str, build: Callable[[ColumnSet], GroupIndex]
    ) -> GroupIndex:
        version = self.version
        cached = self._indexes.get(name)
        if cached is not None and cached[0] == version:
            return cached[1]
        index = build(self.snapshot())
        self._indexes[name] = (version, index)
        return index

    def by_target(self) -> GroupIndex:
        """Rows grouped by target code, append order within groups."""
        return self._index("target", lambda c: GroupIndex(c.target))

    def by_rater(self) -> GroupIndex:
        """Rows grouped by rater code, append order within groups."""
        return self._index("rater", lambda c: GroupIndex(c.rater))

    def by_pair(self) -> GroupIndex:
        """Rows grouped by (rater, target), append order within groups."""
        return self._index(
            "pair", lambda c: GroupIndex(c.pair_keys())
        )

    def by_target_time(self) -> GroupIndex:
        """Rows grouped by target, time-ordered (ties keep append
        order) within groups — the windowed-history view."""
        if self._times_sorted:
            return self.by_target()
        return self._index(
            "target_time",
            lambda c: GroupIndex(c.target, secondary=c.time),
        )

    def by_target_facet(self) -> GroupIndex:
        """Rows grouped by (target, facet), append order within groups."""
        return self._index(
            "target_facet", lambda c: GroupIndex(c.target_facet_keys())
        )

    # -- canonical encoding / merge ------------------------------------
    def canonical_bytes(self) -> bytes:
        """Deterministic byte encoding of the store's logical content.

        Covers the interner tables (insertion order) and the five
        columns in logical row order; chunk boundaries and tail state
        are invisible, so equal event streams encode equal regardless
        of ``chunk_size`` — the merge/snapshot discipline the obs
        registry established, applied to event data.

        The header tags the time dtype, so a float64 store and an
        int64 tick store can never encode equal (and existing float64
        encodings are byte-unchanged).
        """
        columns = self.snapshot()
        return b"".join(
            (
                self._HEADERS[self.time_dtype],
                self.entities.canonical_bytes(),
                self.facets.canonical_bytes(),
                len(columns.value).to_bytes(8, "little"),
                np.ascontiguousarray(columns.rater).tobytes(),
                np.ascontiguousarray(columns.target).tobytes(),
                np.ascontiguousarray(columns.facet).tobytes(),
                np.ascontiguousarray(columns.value).tobytes(),
                np.ascontiguousarray(columns.time).tobytes(),
            )
        )

    def merge_from(self, other: "EventStore") -> None:
        """Append *other*'s rows (in their logical order), translating
        its codes through this store's interners.

        Unseen ids are interned in first-appearance order of the
        appended rows (rater before target), so the result is
        byte-identical to an :meth:`append` loop over them.

        Both stores must share a time dtype — merging float64 times
        into an int64 tick column (or vice versa) would silently
        reintroduce the rounding drift tick stores exist to rule out.
        Rows are validated like :meth:`extend`'s: a delta that crossed
        a process boundary is re-checked before it becomes canonical.
        """
        if other.time_dtype != self.time_dtype:
            raise ValueError(
                f"cannot merge a {other.time_dtype} time column into a "
                f"{self.time_dtype} store; convert with "
                "repro.common.simtime first"
            )
        columns = other.snapshot()
        if not columns.n:
            return
        self._append_coded(
            other.entities.values(),
            other.facets.values(),
            columns.rater,
            columns.target,
            columns.facet,
            columns.value,
            columns.time,
        )

    def extend_coded(
        self,
        names: Sequence[str],
        raters: np.ndarray,
        targets: np.ndarray,
        values: np.ndarray,
        times: np.ndarray,
    ) -> None:
        """Bulk-append overall rows whose ids are codes into *names*.

        The code-column twin of :meth:`extend`: *names* is a foreign id
        table (it may repeat an id under several codes, e.g. several
        stores' tables laid end to end) and ids are interned exactly as
        :meth:`extend` would intern ``names[raters]`` / ``names[targets]``.
        """
        if not len(values):
            return
        self._append_coded(
            tuple(names),
            (),
            np.asarray(raters),
            np.asarray(targets),
            np.full(len(values), OVERALL_FACET, dtype=np.int32),
            np.asarray(values, dtype=np.float64),
            self._as_time_array(times),
        )

    def _append_coded(
        self,
        names: Tuple[str, ...],
        facet_names: Tuple[str, ...],
        rater: np.ndarray,
        target: np.ndarray,
        facet: np.ndarray,
        values: np.ndarray,
        times: np.ndarray,
    ) -> None:
        """Validate, translate foreign codes, and push (shared by the
        merge and coded-extend paths)."""
        _check_ratings(values)
        _check_times(times)
        pairs = np.empty(2 * len(rater), dtype=np.int64)
        pairs[0::2] = rater
        pairs[1::2] = target
        entity_map = _translation(self.entities, names, pairs)
        overall = facet == OVERALL_FACET
        facets = np.full(len(facet), OVERALL_FACET, dtype=np.int32)
        if not overall.all():
            facet_map = _translation(self.facets, facet_names, facet[~overall])
            facets[~overall] = facet_map[facet[~overall]]
        self._push(entity_map[rater], entity_map[target], facets, values, times)
