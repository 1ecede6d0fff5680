"""Per-segment speculative storage (the buffering substrate of HOSE).

The paper's speculative engines never let a speculative segment touch
non-speculative storage directly: every tracked reference goes through a
per-segment *speculative buffer* that holds the segment's write values
and the access information needed for violation detection (Definition
2).  This module models that substrate:

* a :class:`SegmentBuffer` -- one segment's buffered writes (address ->
  value), its *exposed-read set* (addresses whose value came from
  outside the buffer), and the set of tracked addresses that counts
  against capacity;
* a :class:`SpeculativeStore` -- all in-flight buffers ordered by
  segment *age* (sequential program order, Definition 1), with

  - **forwarding**: a read that misses its own buffer is served by the
    nearest older in-flight buffer holding the address, falling back to
    conventional memory;
  - **violation detection**: a write by an older segment reports every
    younger buffer whose exposed-read set contains the address -- those
    segments consumed a value the older segment has now changed and
    must roll back (flow-dependence violation detected against segment
    age);
  - **bounded capacity**: each buffer tracks at most ``capacity``
    distinct addresses (write values and read access-information both
    occupy entries, as lines do in cache-based speculative storage);
    an allocation past the bound is refused and the engine stalls the
    segment until it becomes the oldest, at which point the buffer can
    be drained to conventional memory;
  - **commit / squash**: committing drains the buffered values to the
    shared :class:`~repro.runtime.memory.MemoryImage` in one step (the
    segment's writes become architecturally visible atomically);
    squashing discards values and access information but keeps the
    buffer registered so the restarted segment reuses its slot.

The store also records occupancy high-water marks
(:attr:`SpeculativeStore.peak_entries`,
:attr:`SpeculativeStore.peak_segment_entries`) -- the quantities the
HOSE vs CASE benchmark scenario compares across capacities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Dict, List, Mapping, Optional, Set, Tuple

from repro.runtime.errors import SimulationError
from repro.runtime.memory import Address, MemoryImage


class SpecStoreError(SimulationError):
    """Raised for invalid speculative-store usage (engine bugs).

    Part of the :class:`~repro.runtime.errors.SimulationError`
    hierarchy: the engines treat it as a substrate failure and recover
    by degrading to sequential execution."""


@dataclass
class SegmentBuffer:
    """Speculative storage of one in-flight segment."""

    #: Printable identity of the segment occurrence (diagnostics only).
    key: Tuple
    #: Sequential program order; smaller is older (Definition 1).
    age: int
    #: Buffered write values, in first-write order.
    values: Dict[Address, float] = field(default_factory=dict)
    #: Addresses read from outside this buffer (exposed reads); the
    #: access information violation detection works from.
    read_set: Set[Address] = field(default_factory=set)
    #: All addresses occupying an entry (reads and writes both count).
    tracked: Set[Address] = field(default_factory=set)
    #: Times this buffer has been squashed (diagnostics).
    squashes: int = 0
    #: Integrity flag set by external checkers (the parity/ECC model of
    #: the fault injector) when a value served from or into this buffer
    #: is known to be corrupted.  The engine's per-round scrub squashes
    #: poisoned buffers (and everything younger); squashing clears it.
    poisoned: bool = False

    @property
    def entries(self) -> int:
        """Occupied entries (distinct tracked addresses)."""
        return len(self.tracked)

    def holds(self, address: Address) -> bool:
        """True when the buffer has a speculative value for ``address``."""
        return address in self.values


class SpeculativeStore:
    """All in-flight segment buffers of one engine, ordered by age."""

    def __init__(self, capacity: Optional[int] = 64):
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive or None, got {capacity}")
        #: Per-segment entry bound (``None`` = unbounded).
        self.capacity = capacity
        self._buffers: List[SegmentBuffer] = []
        #: Running total of tracked entries across all in-flight
        #: buffers (kept incrementally; allocation is the hot path).
        self._occupancy = 0
        #: High-water marks and lifetime totals (bench reporting).
        self.peak_entries = 0
        self.peak_segment_entries = 0
        self.total_commits = 0
        self.total_committed_entries = 0
        self.total_squashed_entries = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def open_segment(self, key: Tuple, age: int) -> SegmentBuffer:
        """Register a fresh buffer for a segment occurrence."""
        if self._buffers and age <= self._buffers[-1].age:
            raise SpecStoreError(
                f"segment ages must be opened in increasing order "
                f"({age} after {self._buffers[-1].age})"
            )
        buffer = SegmentBuffer(key=key, age=age)
        self._buffers.append(buffer)
        return buffer

    def commit(self, buffer: SegmentBuffer, memory: MemoryImage) -> int:
        """Drain the buffered values to ``memory``; returns entries written.

        Values land in first-write order (the order is irrelevant for the
        final state -- one value per address -- but keeps traces easy to
        read).  Every way into ``values`` stores a float, so they drain
        as they are.  The buffer is deregistered.
        """
        memory._values.update(buffer.values)
        committed = len(buffer.values)
        self.total_commits += 1
        self.total_committed_entries += committed
        self._remove(buffer)
        return committed

    def squash(self, buffer: SegmentBuffer) -> int:
        """Discard the buffer's contents; returns entries discarded.

        The buffer stays registered (same age slot) so the restarted
        execution of the segment reuses it.
        """
        discarded = buffer.entries
        self.total_squashed_entries += discarded
        self._occupancy -= discarded
        buffer.values.clear()
        buffer.read_set.clear()
        buffer.tracked.clear()
        buffer.squashes += 1
        buffer.poisoned = False
        return discarded

    def abandon(self, buffer: SegmentBuffer) -> int:
        """Deregister the buffer without committing (wrong-path discard)."""
        discarded = buffer.entries
        self.total_squashed_entries += discarded
        self._remove(buffer)
        return discarded

    def _remove(self, buffer: SegmentBuffer) -> None:
        try:
            self._buffers.remove(buffer)
        except ValueError:
            raise SpecStoreError(
                f"buffer {buffer.key!r} is not registered"
            ) from None
        self._occupancy -= buffer.entries

    # ------------------------------------------------------------------
    # accesses
    # ------------------------------------------------------------------
    def _allocate(self, buffer: SegmentBuffer, address: Address) -> bool:
        """Track ``address`` in ``buffer``; False when capacity is exhausted."""
        if address in buffer.tracked:
            return True
        if self.capacity is not None and buffer.entries >= self.capacity:
            return False
        buffer.tracked.add(address)
        if buffer.entries > self.peak_segment_entries:
            self.peak_segment_entries = buffer.entries
        self._occupancy += 1
        if self._occupancy > self.peak_entries:
            self.peak_entries = self._occupancy
        return True

    def record_read(self, buffer: SegmentBuffer, address: Address) -> bool:
        """Track an exposed read of ``address``; False on overflow.

        Callers only record reads that miss the segment's own buffer --
        a read of the segment's own speculative value needs no access
        information (it cannot be violated by construction).
        """
        if not self._allocate(buffer, address):
            return False
        buffer.read_set.add(address)
        return True

    def record_write(
        self, buffer: SegmentBuffer, address: Address, value: float
    ) -> bool:
        """Buffer a speculative write; False on overflow."""
        if not self._allocate(buffer, address):
            return False
        buffer.values[address] = float(value)
        return True

    def transfer(
        self,
        buffer: SegmentBuffer,
        reads: Collection[Address],
        wlog: Mapping[Address, float],
        swlog: Collection[Address],
    ) -> bool:
        """Bulk-install a batched attempt's access logs into ``buffer``.

        ``reads`` are the exposed reads, ``swlog`` the buffered write
        addresses in first-write order and ``wlog`` their values (floats
        already).  The result, including the partial state on overflow,
        is exactly that of :meth:`record_read` on every read, then
        :meth:`record_write` of ``wlog[address]`` on every write address,
        stopping at the first refused allocation: ``tracked``,
        ``read_set``, ``values`` and their order, occupancy, both peaks
        and the refusal point.  Returns ``False`` on refusal; like an
        interleaved attempt that stalls mid-segment, the partial state
        is kept so the entries stay visible to forwarding and occupancy
        accounting until the caller resolves the stall.
        """
        tracked = buffer.tracked
        before = len(tracked)
        capacity = self.capacity
        union = tracked.union(reads, swlog)
        if capacity is None or len(union) <= capacity:
            buffer.tracked = union
            buffer.read_set.update(reads)
            values = buffer.values
            for address in swlog:
                values[address] = wlog[address]
            ok = True
        else:
            ok = self._transfer_until_full(buffer, reads, wlog, swlog, capacity)
        entries = len(buffer.tracked)
        self._occupancy += entries - before
        if entries > self.peak_segment_entries:
            self.peak_segment_entries = entries
        if self._occupancy > self.peak_entries:
            self.peak_entries = self._occupancy
        return ok

    @staticmethod
    def _transfer_until_full(
        buffer: SegmentBuffer,
        reads: Collection[Address],
        wlog: Mapping[Address, float],
        swlog: Collection[Address],
        capacity: int,
    ) -> bool:
        """The overflowing :meth:`transfer`: installs entries in order
        until the buffer holds ``capacity`` and an untracked address
        comes next (peaks and occupancy are the caller's)."""
        tracked = buffer.tracked
        read_set = buffer.read_set
        values = buffer.values
        room = capacity - len(tracked)
        for address in reads:
            if address not in tracked:
                if room <= 0:
                    return False
                tracked.add(address)
                room -= 1
            read_set.add(address)
        for address in swlog:
            if address not in tracked:
                if room <= 0:
                    return False
                tracked.add(address)
                room -= 1
            values[address] = wlog[address]
        return True

    def forward(self, buffer: SegmentBuffer, address: Address) -> Optional[float]:
        """Value of ``address`` from the nearest older in-flight buffer.

        ``None`` means no older buffer holds the address and the value
        must come from conventional memory.
        """
        for other in reversed(self._buffers):
            if other.age >= buffer.age:
                continue
            if address in other.values:
                return other.values[address]
        return None

    def violators(self, writer_age: int, address: Address) -> List[SegmentBuffer]:
        """Younger buffers whose exposed-read set contains ``address``.

        These segments consumed a value that a write by the segment of
        age ``writer_age`` has now changed; the engine must roll them
        (and everything younger than the oldest of them) back.
        """
        return [
            buffer
            for buffer in self._buffers
            if buffer.age > writer_age and address in buffer.read_set
        ]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def occupancy(self) -> int:
        """Total entries across all in-flight buffers."""
        return self._occupancy

    def buffers(self) -> List[SegmentBuffer]:
        """In-flight buffers in age order (oldest first)."""
        return list(self._buffers)

    def __len__(self) -> int:
        return len(self._buffers)

    def stats(self) -> Dict[str, int]:
        """Lifetime counters for reports."""
        return {
            "peak_entries": self.peak_entries,
            "peak_segment_entries": self.peak_segment_entries,
            "total_commits": self.total_commits,
            "total_committed_entries": self.total_committed_entries,
            "total_squashed_entries": self.total_squashed_entries,
        }
