"""Tests for the main-memory correlation table."""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.correlation_table import CorrelationTable
from repro.memory.main_memory import MainMemory, OutOfMemoryError


def make_table(n_entries=1024, addrs=4, **kwargs):
    return CorrelationTable(n_entries=n_entries, addrs_per_entry=addrs, **kwargs)


class TestLookup:
    def test_miss_on_empty(self):
        table = make_table()
        assert table.lookup(5) is None
        assert table.stats.lookups == 1 and table.stats.lookup_hits == 0

    def test_train_then_lookup(self):
        table = make_table()
        table.train(5, [10, 11, 12])
        index, lines = table.lookup(5)
        assert index == table.index_of(5)
        assert set(lines) == {10, 11, 12}

    def test_lookup_mru_first(self):
        table = make_table()
        table.train(5, [10, 11])
        table.touch(table.index_of(5), 10)  # 10 becomes MRU
        _, lines = table.lookup(5)
        assert lines[0] == 10

    def test_tag_mismatch_is_miss(self):
        table = make_table(n_entries=1)  # everything collides
        table.train(5, [10])
        assert table.lookup(6) is None


class TestTraining:
    def test_allocate_caps_payload(self):
        table = make_table(addrs=3)
        table.train(5, [10, 11, 12, 13, 14])
        _, lines = table.lookup(5)
        # Older-epoch addresses (payload front) win the capped slots.
        assert set(lines) == {10, 11, 12}

    def test_update_refreshes_existing(self):
        table = make_table(addrs=4)
        table.train(5, [10, 11])
        table.train(5, [11, 12])
        _, lines = table.lookup(5)
        assert set(lines) == {10, 11, 12}

    def test_lru_replacement_within_entry(self):
        table = make_table(addrs=2)
        table.train(5, [10, 11])
        table.touch(table.index_of(5), 10)  # 11 is now LRU
        table.train(5, [12])
        _, lines = table.lookup(5)
        assert set(lines) == {10, 12}
        assert table.stats.address_replacements == 1

    def test_same_batch_addresses_protected(self):
        """One training step's payload never evicts itself."""
        table = make_table(addrs=2)
        table.train(5, [10, 11])
        table.train(5, [20, 21, 22])  # 22 exceeds capacity: dropped, not 20/21
        _, lines = table.lookup(5)
        assert set(lines) == {20, 21}

    def test_conflict_overwrites_entry(self):
        table = make_table(n_entries=1)
        table.train(5, [10])
        table.train(6, [20])
        assert table.lookup(5) is None
        _, lines = table.lookup(6)
        assert lines == [20]
        assert table.stats.tag_conflicts == 1

    def test_useful_address_survives_retraining(self):
        """The paper's dynamic depth/width adaptation: prefetch-buffer
        hits keep useful addresses MRU so retraining replaces the rest."""
        table = make_table(addrs=2)
        table.train(5, [10, 11])
        index = table.index_of(5)
        table.touch(index, 10)
        table.touch(index, 10)
        table.train(5, [30])  # replaces LRU (11), never 10
        _, lines = table.lookup(5)
        assert 10 in lines and 30 in lines


class TestTouch:
    def test_touch_present(self):
        table = make_table()
        table.train(5, [10])
        assert table.touch(table.index_of(5), 10)

    def test_touch_absent_address(self):
        table = make_table()
        table.train(5, [10])
        assert not table.touch(table.index_of(5), 99)

    def test_touch_bad_index(self):
        assert not make_table().touch(-1, 10)
        assert not make_table(n_entries=4).touch(4, 10)


class TestResidency:
    def test_attach_allocates_physical_region(self):
        memory = MainMemory(size_bytes=1 << 26)
        table = make_table(n_entries=1024, memory=memory)
        assert table.is_resident
        assert table.allocation.size >= table.size_bytes
        assert memory.owns(table.entry_physical_address(0)) == table.allocation
        assert (
            table.entry_physical_address(1) - table.entry_physical_address(0)
            == table.entry_bytes
        )

    def test_detach_loses_state(self):
        memory = MainMemory(size_bytes=1 << 26)
        table = make_table(memory=memory)
        table.train(5, [10])
        table.detach_memory()
        assert not table.is_resident
        assert table.lookup(5) is None

    def test_unbacked_physical_address_raises(self):
        with pytest.raises(OutOfMemoryError):
            make_table().entry_physical_address(0)

    def test_size_bytes(self):
        assert make_table(n_entries=1024).size_bytes == 1024 * 64


class TestDeepCopy:
    @staticmethod
    def state(table):
        return (
            list(table._tags),
            [None if a is None else dict(a) for a in table._addrs],
            table._stamp,
            vars(table.stats).copy(),
        )

    def trained(self, **kwargs):
        table = make_table(n_entries=64, **kwargs)
        for key in range(40):
            table.train(key * 7, [key, key + 1, key + 2, key + 3, key + 4])
        table.touch(table.index_of(7), 2)
        return table

    def test_clone_has_the_same_state(self):
        table = self.trained()
        before = self.state(table)
        clone = copy.deepcopy(table)
        assert self.state(clone) == before
        assert self.state(table) == before
        assert clone.lookup(7) == table.lookup(7)

    def test_clone_is_independent(self):
        table = self.trained()
        before = self.state(table)
        clone = copy.deepcopy(table)
        assert clone.stats is not table.stats
        clone.train(7, [900, 901, 902, 903])
        clone.train(10_001, [5])
        clone.touch(clone.index_of(14), 3)
        clone.detach_memory()
        assert self.state(table) == before
        table.train(21, [77])
        assert clone.lookup(21) is None or 77 not in clone.lookup(21)[1]

    def test_shared_references_stay_shared(self):
        memory = MainMemory(size_bytes=1 << 26)
        table = self.trained(memory=memory)
        holder = {"table": table, "allocation": table.allocation}
        clone = copy.deepcopy(holder)
        assert clone["table"].allocation is clone["allocation"]
        assert clone["allocation"] == table.allocation
        assert clone["table"].is_resident


class TestValidation:
    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            CorrelationTable(0)
        with pytest.raises(ValueError):
            CorrelationTable(16, addrs_per_entry=0)

    def test_live_entries(self):
        table = make_table()
        assert table.live_entries == 0
        table.train(5, [10])
        assert table.live_entries == 1


class TestProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 200),
                st.lists(st.integers(0, 500), min_size=1, max_size=10),
            ),
            min_size=1,
            max_size=100,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_entry_capacity_invariant(self, trainings):
        table = CorrelationTable(n_entries=64, addrs_per_entry=4)
        for key, payload in trainings:
            table.train(key, payload)
        for index in range(table.n_entries):
            entry = table.entry_at(index)
            if entry is not None:
                assert len(entry.addrs) <= 4

    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_index_in_range(self, keys):
        table = CorrelationTable(n_entries=37)  # non power of two
        for key in keys:
            assert 0 <= table.index_of(key) < 37

    @given(st.integers(0, 1 << 40))
    @settings(max_examples=100, deadline=None)
    def test_index_deterministic(self, key):
        table = CorrelationTable(n_entries=1024)
        assert table.index_of(key) == table.index_of(key)
