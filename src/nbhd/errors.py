"""Shared exception types."""


class ResourceLimitError(RuntimeError):
    """An enumeration or search exceeded its configured guard."""

    def __init__(self, message, count=None, limit=None):
        super().__init__(message)
        self.count = count
        self.limit = limit


class FreenessError(ValueError):
    """A free-involution precondition does not hold."""


class CollapseError(RuntimeError):
    """No free matched pair was available before the matching was exhausted."""


class ConsistencyError(RuntimeError):
    """Two independent oracles disagreed; the run cannot be trusted."""
