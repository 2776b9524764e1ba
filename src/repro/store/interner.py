"""Stable string interning for columnar ids.

Entity and facet ids are strings everywhere above the store, but a
columnar kernel wants dense ``int32`` codes it can feed to
``np.bincount`` / ``searchsorted``.  :class:`Interner` maps strings to
codes in **first-appearance order** — the same stream of ids always
produces the same codes, no matter how the stream was chunked into
``record`` / ``record_many`` calls.  That stability is what makes the
store's canonical byte encoding (and therefore snapshot/merge
byte-identity) possible; the property suite pins it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

__all__ = ["Interner", "MISSING_CODE"]

#: Code returned for ids the interner has never seen (query-side only;
#: appends always intern).
MISSING_CODE = -1


class Interner:
    """Insertion-ordered ``str -> int32`` code table."""

    __slots__ = ("_index", "_values")

    def __init__(self) -> None:
        self._index: Dict[str, int] = {}
        self._values: List[str] = []

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value: str) -> bool:
        return value in self._index

    def intern(self, value: str) -> int:
        """Code for *value*, assigning the next code on first sight."""
        code = self._index.get(value)
        if code is None:
            code = len(self._values)
            self._index[value] = code
            self._values.append(value)
        return code

    def intern_list(self, values: Sequence[str]) -> List[int]:
        """Codes for *values* in order, interning unseen ones in
        first-appearance order (what an :meth:`intern` loop assigns).

        Every pass is a C-level loop: look everything up, and if some
        ids are unseen, register them (deduplicated, in order) in one
        bulk update and look up again.
        """
        index = self._index
        codes = list(map(index.get, values))
        if None not in codes:
            return codes
        unseen = [v for c, v in zip(codes, values) if c is None]
        fresh = list(dict.fromkeys(unseen))
        start = len(self._values)
        index.update(zip(fresh, range(start, start + len(fresh))))
        self._values.extend(fresh)
        return list(map(index.__getitem__, values))

    def intern_many(self, values: Iterable[str]) -> np.ndarray:
        """Codes for *values* (interning new ones), as an int32 array."""
        return np.array(self.intern_list(list(values)), dtype=np.int32)

    def code(self, value: str, default: int = MISSING_CODE) -> int:
        """Code for *value* without interning; *default* if unseen."""
        return self._index.get(value, default)

    def codes(self, values: Sequence[str]) -> np.ndarray:
        """Query-side bulk lookup; unseen ids map to :data:`MISSING_CODE`."""
        get = self._index.get
        return np.fromiter(
            (get(v, MISSING_CODE) for v in values),
            dtype=np.int32,
            count=len(values),
        )

    def value(self, code: int) -> str:
        """The string interned as *code*."""
        return self._values[code]

    def values(self) -> Tuple[str, ...]:
        """All interned strings in code order."""
        return tuple(self._values)

    def canonical_bytes(self) -> bytes:
        """Deterministic encoding of the table: count + NUL-joined ids.

        Two interners that saw the same ids in the same order encode
        identically; ids may not contain NUL (ids here are entity/facet
        names, which never do).
        """
        joined = "\x00".join(self._values)
        return (
            len(self._values).to_bytes(8, "little")
            + joined.encode("utf-8")
        )
