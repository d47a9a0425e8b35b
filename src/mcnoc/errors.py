"""Errors raised when a routing or resource invariant is violated.

These derive from RuntimeError so callers can distinguish "you passed a bad
argument" (ValueError) from "the toolkit refused to continue or detected an
inconsistent state" (this family).
"""


class GuardLimitError(RuntimeError):
    """An operation was refused because the instance exceeds a size guard."""


class CorruptPacketError(RuntimeError):
    """A source-routed packet's framing or port code does not fit the topology."""


class RoutingError(RuntimeError):
    """A packet failed to reach its destination or a route walk diverged."""
