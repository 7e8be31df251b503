"""Tests for the simulated disk's IO accounting."""

import pytest

from repro.cost.counters import OperationCounters
from repro.cost.parameters import TABLE2_DEFAULTS
from repro.sim.clock import SimulatedClock
from repro.storage.disk import SimulatedDisk
from repro.storage.page import Page


def page(pid=0, rows=((1,),)):
    p = Page(pid, 8)
    for r in rows:
        p.add(r)
    return p


@pytest.fixture
def disk():
    return SimulatedDisk(OperationCounters())


class TestFileNamespace:
    def test_create_and_open(self, disk):
        disk.create("f")
        assert disk.exists("f")
        assert disk.open("f").name == "f"

    def test_duplicate_create_rejected(self, disk):
        disk.create("f")
        with pytest.raises(FileExistsError):
            disk.create("f")

    def test_open_missing_rejected(self, disk):
        with pytest.raises(FileNotFoundError):
            disk.open("missing")

    def test_ensure_is_idempotent(self, disk):
        a = disk.ensure("f")
        b = disk.ensure("f")
        assert a is b

    def test_ensure_returns_existing_empty_file(self, disk):
        """Regression: empty DiskFile is falsy (len 0); ensure must still
        return it rather than re-creating."""
        disk.create("f")
        assert disk.ensure("f") is disk.open("f")

    def test_delete(self, disk):
        disk.create("f")
        disk.delete("f")
        assert not disk.exists("f")
        with pytest.raises(FileNotFoundError):
            disk.delete("f")

    def test_files_sorted(self, disk):
        disk.create("b")
        disk.create("a")
        assert disk.files() == ["a", "b"]


class TestIOClassification:
    def test_appends_to_one_file_are_sequential(self, disk):
        for i in range(5):
            disk.append("f", page(i))
        assert disk.counters.sequential_ios == 5
        assert disk.counters.random_ios == 0

    def test_alternating_files_are_random(self, disk):
        disk.create("a")
        disk.create("b")
        for i in range(3):
            disk.append("a", page(i))
            disk.append("b", page(i))
        # First append to "a" parks the head; every subsequent transfer
        # jumps files.
        assert disk.counters.random_ios >= 5

    def test_explicit_classification_wins(self, disk):
        disk.append("a", page(0), sequential=False)
        assert disk.counters.random_ios == 1
        disk.append("b", page(0), sequential=True)
        assert disk.counters.sequential_ios == 1

    def test_scan_is_sequential_after_first_page(self, disk):
        for i in range(10):
            disk.append("f", page(i))
        disk.counters.reset()
        assert len(disk.read_file("f")) == 10
        assert disk.counters.random_ios <= 1
        assert disk.counters.sequential_ios >= 9

    def test_random_read_pattern(self, disk):
        for i in range(10):
            disk.append("f", page(i))
        disk.counters.reset()
        disk.read("f", 7)
        disk.read("f", 2)
        disk.read("f", 9)
        assert disk.counters.random_ios == 3


class TestReadWrite:
    def test_read_returns_stored_page(self, disk):
        disk.append("f", page(0, [(42,)]))
        got = disk.read("f", 0)
        assert list(got) == [(42,)]

    def test_out_of_range_read(self, disk):
        disk.create("f")
        with pytest.raises(IndexError):
            disk.read("f", 0)

    def test_page_count(self, disk):
        disk.create("f")
        assert disk.page_count("f") == 0
        disk.append("f", page(0))
        assert disk.page_count("f") == 1


class TestClockIntegration:
    def test_clock_advances_by_io_times(self):
        clock = SimulatedClock()
        disk = SimulatedDisk(
            OperationCounters(), params=TABLE2_DEFAULTS, clock=clock
        )
        disk.append("f", page(0))          # first touch: sequential (head at start)
        disk.append("f", page(1))          # sequential
        disk.read("f", 0, sequential=False)  # random
        expected = 2 * TABLE2_DEFAULTS.io_seq + TABLE2_DEFAULTS.io_rand
        assert clock.now == pytest.approx(expected)
