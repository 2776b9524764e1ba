"""Exception hierarchy for the ``repro`` library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything the library may raise with a single ``except`` clause.
"""


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """A component was constructed or configured with invalid parameters."""


class InvalidEventError(ReproError, ValueError):
    """A feedback event was rejected where it enters canonical state.

    Raised by :class:`~repro.store.EventStore` for a rating that is NaN,
    infinite or outside ``[0, 1]``, or a time that is not finite.  Also
    a :class:`ValueError`, like the :class:`~repro.common.records.Feedback`
    check it backs up.
    """


class SimulationError(ReproError):
    """The simulation kernel was driven into an invalid state.

    Examples: scheduling an event in the past, or running a simulation
    that has already been stopped.
    """


class UnknownEntityError(ReproError, KeyError):
    """An entity id (service, provider, consumer, node) is not known.

    Inherits from :class:`KeyError` because lookups are dict-like; callers
    may catch either type.
    """


class RegistryError(ReproError):
    """A registry operation failed (duplicate publication, missing record,
    or the registry has been failed by fault injection)."""


class RoutingError(ReproError):
    """A P2P overlay could not route a message to a responsible node."""
