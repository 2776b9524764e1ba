"""R010 fixture: mutation of ``columns_since`` delta views.

Parsed, never imported.
"""

from repro.store import EventStore


class DeltaUser:
    def __init__(self) -> None:
        self._store = EventStore()
        self._state = [0.0]

    def assign_hit(self, start: int) -> None:
        delta = self._store.columns_since(start)
        delta.value[0] = 1.0

    def method_hit(self, start: int) -> None:
        delta = self._store.columns_since(start)
        delta.target.sort()

    def fold_ok(self, np, start: int) -> None:
        # Reading the delta into model-private state is the intended use.
        delta = self._store.columns_since(start)
        np.add.at(self._state, delta.target, delta.value)

    def mask_ok(self, start: int) -> None:
        delta = self._store.columns_since(start)
        recent = delta.value[delta.value > 0.5]
        recent.sort()
