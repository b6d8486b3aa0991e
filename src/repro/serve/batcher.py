"""Request ordering for the commit stage.

:class:`Sequencer` is a reorder buffer releasing requests in dense
global ``seq`` order.  With it, the server's single-writer commit stage
applies kernel mutations in schedule order *no matter how tenants'
submissions interleave*, which is what makes a concurrent run
bit-identical to a serial replay of the same schedule.

It is synchronous and allocation-free so the hypothesis suite can
hammer it directly (``tests/serve/test_properties.py``).
"""

from __future__ import annotations

from typing import Generic, TypeVar

from ..errors import ServeError

__all__ = ["Sequencer"]

_T = TypeVar("_T")


class Sequencer(Generic[_T]):
    """Release items tagged with a dense global sequence in order.

    ``push(seq, item)`` returns every item that just became releasable
    (possibly none, possibly a run ending far past ``seq``).  Duplicate
    or already-released sequence numbers are refused — a malformed
    schedule must fail loudly, not reorder silently.
    """

    def __init__(self, start: int = 0) -> None:
        self._next = start
        self._held: dict[int, _T] = {}

    @property
    def next_seq(self) -> int:
        """The sequence number the commit stage is waiting for."""
        return self._next

    @property
    def pending(self) -> int:
        """Items held back waiting for earlier sequence numbers."""
        return len(self._held)

    def push(self, seq: int, item: _T) -> list[_T]:
        if seq < self._next or seq in self._held:
            raise ServeError(
                f"duplicate or already-released sequence number {seq} "
                f"(next expected: {self._next})"
            )
        self._held[seq] = item
        released: list[_T] = []
        while self._next in self._held:
            released.append(self._held.pop(self._next))
            self._next += 1
        return released

    def drain(self) -> list[_T]:
        """Held-back items in sequence order; clears the buffer.

        Used at shutdown so a schedule cut short gets typed
        ``shutting-down`` responses instead of hung futures.
        """
        items = [self._held[seq] for seq in sorted(self._held)]
        self._held.clear()
        return items
