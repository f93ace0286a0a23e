"""Struct-of-arrays backing store for per-sequence serving state.

The serving engine's hot loops — completion detection, leap-window
computation, decode commits — used to walk Python lists of per-request
state objects.  At 100k-request scale that object soup was the
simulator's wall-clock floor; at 1M requests it was the wall.  This
module flips the layout: one :class:`SequenceTable` per scheduler holds
every sequence's clocks (``admitted_s`` / ``first_token_s``), sequence
lengths (``prompt_len`` / ``output_len`` / ``context_len``), remaining
decode work (``generated`` vs ``output_len``), paged-prefill progress
(``prefilled`` / ``prefill_target`` / ``cached_tokens``), KV block
accounting (``kv_tokens``), the issuing ``tenant`` and queue-state flags
(``phase``) as parallel numpy arrays, so the engine expresses a step
over a whole batch as a handful of array ops instead of a Python loop.

:class:`repro.serve.SequenceState` and
:class:`repro.serve.PagedSequenceState` stay the public per-sequence
API, but become *thin views*: each owns a ``(table, slot)`` pair and
exposes the same attributes as properties over the table row, so
``trace.py`` / ``metrics.py`` / existing tests keep working unchanged.
A property read costs more than a plain attribute, which is exactly the
point — anything hot reads the columns directly and pays the Python
cost once per *batch*, not once per sequence.

Slots are recycled LIFO.  :meth:`SequenceTable.alloc` does **not**
clear a recycled row: every view class fully initializes the columns it
owns in its constructor, and nothing reads a column its family never
writes (the peak-reservation schedulers never touch the paged-prefill
columns, for instance).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError

__all__ = [
    "PHASE_FREE",
    "PHASE_WAITING",
    "PHASE_RUNNING",
    "PHASE_SWAPPED",
    "SequenceTable",
]

#: Queue-state flags kept in :attr:`SequenceTable.phase` (one byte per
#: slot).  Schedulers update them on every lifecycle transition, so a
#: table can answer "which sequences are runnable" without touching the
#: Python-side waiting/running/swapped lists.
PHASE_FREE = 0
PHASE_WAITING = 1
PHASE_RUNNING = 2
PHASE_SWAPPED = 3


class SequenceTable:
    """Growable parallel arrays of per-sequence serving state.

    Columns are plain ``numpy`` arrays exposed as attributes; gather a
    batch with ``table.generated[slots]``, commit one with
    ``table.generated[slots] += 1``.  The table doubles in capacity
    when full; column attributes are *replaced* on growth, so hot code
    must re-read ``table.<column>`` after any allocation rather than
    caching the array object across admissions.
    """

    #: Token counters and identifiers (int64).
    INT_COLUMNS = (
        "req_id",
        "prompt_len",
        "output_len",
        "context_len",
        "generated",
        "prefilled",
        "prefill_target",
        "cached_tokens",
        "preemptions",
        "swapped_tokens",
        "kv_tokens",
        "tenant",
    )
    #: Wall clocks in seconds (float64; NaN encodes "not yet").
    FLOAT_COLUMNS = ("arrival_s", "admitted_s", "first_token_s")

    def __init__(self, capacity: int = 16):
        if capacity < 1:
            raise ConfigError("capacity must be positive")
        self._capacity = capacity
        for name in self.INT_COLUMNS:
            setattr(self, name, np.zeros(capacity, dtype=np.int64))
        for name in self.FLOAT_COLUMNS:
            setattr(self, name, np.full(capacity, np.nan))
        self.phase = np.full(capacity, PHASE_FREE, dtype=np.int8)
        self._top = 0
        self._free: list[int] = []

    def __len__(self) -> int:
        """Live (allocated) slots."""
        return self._top - len(self._free)

    @property
    def capacity(self) -> int:
        return self._capacity

    def _grow(self) -> None:
        new_cap = self._capacity * 2
        for name in (*self.INT_COLUMNS, *self.FLOAT_COLUMNS, "phase"):
            old = getattr(self, name)
            grown = np.empty(new_cap, dtype=old.dtype)
            grown[: self._top] = old[: self._top]
            setattr(self, name, grown)
        self._capacity = new_cap

    def alloc(self) -> int:
        """Claim a slot (recycled rows are *not* cleared — see module
        docstring)."""
        if self._free:
            return self._free.pop()
        if self._top == self._capacity:
            self._grow()
        slot = self._top
        self._top += 1
        return slot

    def free(self, slot: int) -> None:
        """Return ``slot`` to the pool and flag it :data:`PHASE_FREE`."""
        if not 0 <= slot < self._top:
            raise ConfigError(f"slot {slot} was never allocated")
        if self.phase[slot] == PHASE_FREE:
            raise ConfigError(f"slot {slot} freed twice")
        self.phase[slot] = PHASE_FREE
        self._free.append(slot)

    def free_many(self, slots: list[int]) -> None:
        """Return a cohort of distinct slots in order (same free-list
        sequence as calling :meth:`free` per slot)."""
        arr = np.asarray(slots, dtype=np.int64)
        if arr.size == 0:
            return
        if int(arr.min()) < 0 or int(arr.max()) >= self._top:
            raise ConfigError(f"slot batch {slots} holds slots that "
                              "were never allocated")
        if (self.phase[arr] == PHASE_FREE).any():
            raise ConfigError(f"slot batch {slots} frees a slot twice")
        self.phase[arr] = PHASE_FREE
        self._free.extend(slots)

    def live_slots(self) -> np.ndarray:
        """Allocated slot indices (unordered; mainly for invariants
        checking and tests — schedulers keep their own ordered lists)."""
        return np.flatnonzero(self.phase[: self._top] != PHASE_FREE)
