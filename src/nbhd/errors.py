"""Shared exception types."""


class ResourceLimitError(RuntimeError):
    """An enumeration or search exceeded its configured guard: ``stage``
    reached ``count`` ``unit``, above ``limit``."""

    def __init__(self, stage, count, unit, limit):
        super().__init__(f"{stage} reached {count} {unit}, above the limit of {limit}")
        self.count = count
        self.limit = limit


class FreenessError(ValueError):
    """A free-involution precondition does not hold."""


class CollapseError(RuntimeError):
    """No free matched pair was available before the matching was exhausted."""


class ConsistencyError(RuntimeError):
    """Two independent oracles disagreed; the run cannot be trusted."""
