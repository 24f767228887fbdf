"""Typed errors for the collective-operations subsystem.

The DSM barrier rides the collective engine, so a duplicate arrival or
an out-of-range participant at a DSM barrier raises this error too.
"""

from __future__ import annotations

__all__ = ["CollectiveError"]


class CollectiveError(ValueError):
    """A collective-protocol violation (duplicate arrival, unknown
    participant, mismatched operation, unknown reducer) or an episode
    that timed out.  Subclasses :class:`ValueError` so callers that
    predate the typed hierarchy keep working."""
