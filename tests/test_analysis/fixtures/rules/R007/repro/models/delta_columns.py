"""R007 fixtures: per-row python loops over a ``columns_since`` delta.

Parsed by the linter, never imported — `store` is an implicit
EventStore-shaped object.
"""


def make_store():
    return None


store = make_store()


def looped_delta(start):
    delta = store.columns_since(start)
    total = 0.0
    for v in delta.value:                   # R007: delta column iteration
        total += v
    return total


def zipped_delta(start):
    delta = store.columns_since(start)
    return [
        (r, t) for r, t in zip(delta.rater, delta.target)  # R007
    ]


def folded_delta(np, state, start):
    delta = store.columns_since(start)
    np.add.at(state, delta.target, delta.value)
    return state


def counted_deltas(starts):
    for start in starts:                    # not a store column
        print(store.columns_since(start).n)
