"""Speculative-store unit tests: forwarding, capacity, violations,
commit/squash lifecycle and occupancy tracking."""

import random

import pytest

from repro.ir.symbols import SymbolTable
from repro.runtime.memory import MemoryImage
from repro.runtime.specstore import SpeculativeStore, SpecStoreError


def make_memory(*scalars):
    table = SymbolTable()
    for name in scalars:
        table.scalar(name)
    return MemoryImage(table)


class TestLifecycle:
    def test_ages_must_increase(self):
        store = SpeculativeStore()
        store.open_segment(("R", 1), 1)
        with pytest.raises(SpecStoreError):
            store.open_segment(("R", 0), 1)

    def test_commit_drains_values_to_memory(self):
        store = SpeculativeStore()
        memory = make_memory("a", "b")
        buf = store.open_segment(("R", 1), 1)
        assert store.record_write(buf, ("a", 0), 3.5)
        assert store.record_write(buf, ("b", 0), 4.5)
        assert store.record_write(buf, ("a", 0), 5.5)  # overwrite, same entry
        assert buf.entries == 2
        committed = store.commit(buf, memory)
        assert committed == 2
        assert memory.load(("a", 0)) == 5.5
        assert memory.load(("b", 0)) == 4.5
        assert len(store) == 0

    def test_squash_clears_but_keeps_registration(self):
        store = SpeculativeStore()
        buf = store.open_segment(("R", 1), 1)
        store.record_write(buf, ("a", 0), 1.0)
        store.record_read(buf, ("b", 0))
        discarded = store.squash(buf)
        assert discarded == 2
        assert buf.entries == 0
        assert buf.squashes == 1
        assert store.buffers() == [buf]

    def test_abandon_removes_without_committing(self):
        store = SpeculativeStore()
        memory = make_memory("a")
        buf = store.open_segment(("R", 1), 1)
        store.record_write(buf, ("a", 0), 9.0)
        store.abandon(buf)
        assert len(store) == 0
        assert memory.load(("a", 0)) == 0.0  # nothing leaked

    def test_commit_of_unregistered_buffer_raises(self):
        store = SpeculativeStore()
        memory = make_memory("a")
        buf = store.open_segment(("R", 1), 1)
        store.commit(buf, memory)
        with pytest.raises(SpecStoreError):
            store.commit(buf, memory)


class TestCapacity:
    def test_allocation_refused_past_capacity(self):
        store = SpeculativeStore(capacity=2)
        buf = store.open_segment(("R", 1), 1)
        assert store.record_write(buf, ("a", 0), 1.0)
        assert store.record_read(buf, ("b", 0))
        assert not store.record_write(buf, ("c", 0), 1.0)
        assert not store.record_read(buf, ("d", 0))
        # Already-tracked addresses never overflow.
        assert store.record_write(buf, ("a", 0), 2.0)
        assert store.record_read(buf, ("b", 0))

    def test_capacity_is_per_segment(self):
        store = SpeculativeStore(capacity=1)
        b1 = store.open_segment(("R", 1), 1)
        b2 = store.open_segment(("R", 2), 2)
        assert store.record_write(b1, ("a", 0), 1.0)
        assert store.record_write(b2, ("b", 0), 1.0)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            SpeculativeStore(capacity=0)

    def test_unbounded_capacity(self):
        store = SpeculativeStore(capacity=None)
        buf = store.open_segment(("R", 1), 1)
        for i in range(500):
            assert store.record_write(buf, ("a", i), float(i))
        assert buf.entries == 500


class TestForwarding:
    def test_nearest_older_writer_wins(self):
        store = SpeculativeStore()
        old = store.open_segment(("R", 1), 1)
        mid = store.open_segment(("R", 2), 2)
        young = store.open_segment(("R", 3), 3)
        store.record_write(old, ("a", 0), 1.0)
        store.record_write(mid, ("a", 0), 2.0)
        assert store.forward(young, ("a", 0)) == 2.0
        # A buffer never forwards from itself or younger buffers.
        assert store.forward(mid, ("a", 0)) == 1.0
        assert store.forward(old, ("a", 0)) is None

    def test_miss_everywhere_returns_none(self):
        store = SpeculativeStore()
        b1 = store.open_segment(("R", 1), 1)
        b2 = store.open_segment(("R", 2), 2)
        store.record_read(b1, ("a", 0))
        assert store.forward(b2, ("a", 0)) is None


class TestViolations:
    def test_younger_readers_reported(self):
        store = SpeculativeStore()
        old = store.open_segment(("R", 1), 1)
        mid = store.open_segment(("R", 2), 2)
        young = store.open_segment(("R", 3), 3)
        store.record_read(mid, ("a", 0))
        store.record_read(young, ("a", 0))
        store.record_read(old, ("a", 0))  # older reader: never a violator
        violators = store.violators(1, ("a", 0))
        assert violators == [mid, young]
        assert store.violators(2, ("a", 0)) == [young]
        assert store.violators(3, ("a", 0)) == []

    def test_own_buffer_hits_are_not_violations(self):
        store = SpeculativeStore()
        old = store.open_segment(("R", 1), 1)
        young = store.open_segment(("R", 2), 2)
        store.record_write(young, ("a", 0), 2.0)
        # Younger wrote but never performed an exposed read.
        assert store.violators(1, ("a", 0)) == []
        assert store.violators(1, ("b", 0)) == []
        assert old.entries == 0


class TestOccupancy:
    def test_peaks_track_high_water_marks(self):
        store = SpeculativeStore()
        memory = make_memory("a", "b", "c")
        b1 = store.open_segment(("R", 1), 1)
        store.record_write(b1, ("a", 0), 1.0)
        store.record_write(b1, ("b", 0), 1.0)
        b2 = store.open_segment(("R", 2), 2)
        store.record_read(b2, ("c", 0))
        assert store.occupancy() == 3
        assert store.peak_entries == 3
        assert store.peak_segment_entries == 2
        store.commit(b1, memory)
        assert store.occupancy() == 1
        assert store.peak_entries == 3  # peak persists after commit


class TestFaultEdges:
    """Squash/abandon/commit edges driven by the resilience layer."""

    def test_squash_of_overflow_stalled_buffer(self):
        # A buffer refused its next allocation (the engine would stall
        # it); squashing it must release every entry so the re-executed
        # segment can allocate afresh.
        store = SpeculativeStore(capacity=2)
        buf = store.open_segment(("R", 1), 1)
        assert store.record_write(buf, ("a", 0), 1.0)
        assert store.record_write(buf, ("b", 0), 2.0)
        assert not store.record_write(buf, ("c", 0), 3.0)  # overflow
        store.squash(buf)
        assert buf.entries == 0
        assert store.occupancy() == 0
        assert store.record_write(buf, ("c", 0), 3.0)
        assert len(store) == 1  # still registered for re-execution

    def test_squash_clears_poison(self):
        store = SpeculativeStore()
        buf = store.open_segment(("R", 1), 1)
        buf.poisoned = True
        store.squash(buf)
        assert buf.poisoned is False

    def test_abandon_with_in_flight_forwarders(self):
        # A younger buffer was being served by an older one; once the
        # older is abandoned (wrong control path), the same read must
        # miss instead of returning the dead segment's value.
        store = SpeculativeStore()
        older = store.open_segment(("R", 1), 1)
        younger = store.open_segment(("R", 2), 2)
        store.record_write(older, ("a", 0), 7.0)
        assert store.forward(younger, ("a", 0)) == 7.0
        store.abandon(older)
        assert store.forward(younger, ("a", 0)) is None
        assert store.occupancy() == 0 + younger.entries

    def test_commit_after_transient_capacity_shrink(self):
        from repro.resilience.faults import (
            FaultInjector,
            FaultPlan,
            FaultySpeculativeStore,
        )

        injector = FaultInjector(
            FaultPlan.single("capacity_shrink", 1.0), seed=0
        )
        store = FaultySpeculativeStore(8, injector)
        memory = make_memory("a", "b")
        buf = store.open_segment(("R", 1), 1)
        # Rate 1.0: every new-entry allocation is refused once ...
        assert not store.record_write(buf, ("a", 0), 1.0)
        # ... but the fault is transient per opportunity, so disarming
        # it (as time passing would) lets the retry land and the commit
        # drain the full buffer.
        injector.plan = FaultPlan([])
        assert store.record_write(buf, ("a", 0), 1.5)
        assert store.record_write(buf, ("b", 0), 2.5)
        assert store.commit(buf, memory) == 2
        assert memory.load(("a", 0)) == 1.5
        assert memory.load(("b", 0)) == 2.5
        assert store.occupancy() == 0


class TestBulkTransfer:
    """``transfer`` against its per-address reference: ``record_read``
    of every read, then ``record_write`` of every buffered write,
    stopping at the first refusal."""

    @staticmethod
    def reference_transfer(store, buffer, reads, wlog, swlog):
        for address in reads:
            if not store.record_read(buffer, address):
                return False
        for address in swlog:
            if not store.record_write(buffer, address, wlog[address]):
                return False
        return True

    @staticmethod
    def make_store(capacity, older_writes, earlier):
        """A store with an older buffer holding ``older_writes`` and a
        target buffer that already tracks ``earlier`` (read, write)
        addresses; ``capacity`` applies from the transfer on."""
        store = SpeculativeStore(capacity=None)
        older = store.open_segment(("R", 1), 1)
        for address in older_writes:
            store.record_write(older, address, 9.0)
        target = store.open_segment(("R", 2), 2)
        reads, writes = earlier
        for address in reads:
            store.record_read(target, address)
        for address in writes:
            store.record_write(target, address, -1.0)
        store.capacity = capacity
        return store, target

    @staticmethod
    def state(store, buffer):
        return (
            store.occupancy(),
            store.peak_entries,
            store.peak_segment_entries,
            set(buffer.tracked),
            set(buffer.read_set),
            list(buffer.values.items()),
        )

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_per_address_sequence(self, seed):
        rng = random.Random(seed)
        pool = [("a", k) for k in range(12)] + [("b", k) for k in range(4)]
        older_writes = rng.sample(pool, rng.randint(0, 6))
        earlier = (rng.sample(pool, rng.randint(0, 3)), rng.sample(pool, rng.randint(1, 3)))
        # Reads may repeat; swlog is a dict in first-write order.
        reads = [rng.choice(pool) for _ in range(rng.randint(0, 10))]
        swlog = dict.fromkeys(rng.choice(pool) for _ in range(rng.randint(0, 8)))
        wlog = {address: rng.uniform(-5, 5) for address in pool}
        held = len(set(earlier[0]) | set(earlier[1]))
        needed = len(set(earlier[0]) | set(earlier[1]) | set(reads) | set(swlog))
        capacities = {
            "unbounded": None,
            "exact fit": needed,
            "one short": needed - 1,
            "zero room": held,
        }
        for label, capacity in capacities.items():
            if capacity is not None and capacity < held:
                continue  # below what the buffer already holds
            bulk_store, bulk = self.make_store(capacity, older_writes, earlier)
            ref_store, ref = self.make_store(capacity, older_writes, earlier)
            got = bulk_store.transfer(bulk, reads, wlog, swlog)
            expected = self.reference_transfer(ref_store, ref, reads, wlog, swlog)
            assert got == expected, label
            assert self.state(bulk_store, bulk) == self.state(ref_store, ref), label
            if label == "exact fit":
                assert got
            if label in ("one short", "zero room") and needed > held:
                assert not got

    def test_bulk_transfer_refuses_under_fault_injection(self):
        from repro.resilience.faults import (
            FaultInjector,
            FaultPlan,
            FaultySpeculativeStore,
        )

        # Bulk transfer bypasses ``_allocate``, where ``capacity_shrink``
        # fires; an injected run must never take it.
        store = FaultySpeculativeStore(8, FaultInjector(FaultPlan([]), seed=0))
        buf = store.open_segment(("R", 1), 1)
        with pytest.raises(SpecStoreError, match="fault injection"):
            store.transfer(buf, [("a", 0)], {}, {})
        assert buf.entries == 0

