"""Tests for the Section 3.3 hash-partitioning machinery."""

import math
from collections import Counter

import pytest

from repro.cost.counters import OperationCounters
from repro.join.partition import (
    SpillWriter,
    partition_fan_out,
    partition_hash,
    partition_relation,
    read_bucket,
)
from repro.storage.disk import SimulatedDisk

from tests.conftest import build_relation


class TestPartitionHash:
    def test_deterministic(self):
        assert partition_hash(42) == partition_hash(42)
        assert partition_hash("k") == partition_hash("k")

    def test_differs_from_builtin(self):
        # Salted so partitioning is independent of HashIndex's buckets.
        assert partition_hash(42) != hash(42)


class TestFanOut:
    def test_fits_in_memory(self):
        assert partition_fan_out(r_pages=100, memory_pages=200, fudge=1.2) == (0, 1.0)

    def test_exact_fit(self):
        assert partition_fan_out(100, 120, 1.2) == (0, 1.0)

    def test_spill_plan_buckets_fit(self):
        for memory in (15, 30, 60, 119):
            b, q = partition_fan_out(100, memory, 1.2)
            assert b >= 1
            assert 0 <= q < 1
            spilled_table_pages = 100 * 1.2 * (1 - q)
            assert spilled_table_pages / b <= memory + 1e-9

    def test_q_grows_with_memory(self):
        qs = [partition_fan_out(100, m, 1.2)[1] for m in (15, 40, 80, 110)]
        assert qs == sorted(qs)

    def test_tiny_memory_rejected(self):
        with pytest.raises(ValueError):
            partition_fan_out(100, 1, 1.2)


class TestPartitionRelation:
    def test_partitions_cover_input(self, counters):
        rel = build_relation("t", range(100))
        disk = SimulatedDisk(counters)
        files = partition_relation(
            rel, rel.key_of("key"), 4, disk, counters, "part"
        )
        assert len(files) == 4
        rows = []
        for f in files:
            rows.extend(read_bucket(disk, f))
        assert Counter(rows) == Counter(rel)

    def test_compatible_partitions_align(self, counters):
        """Partitioning R and S with the same h puts matching keys in
        matching buckets -- the property the bucket-wise join rests on."""
        r = build_relation("r", range(50))
        s = build_relation("s", list(range(25, 75)))
        disk = SimulatedDisk(counters)
        r_files = partition_relation(r, r.key_of("key"), 5, disk, counters, "r")
        s_files = partition_relation(s, s.key_of("key"), 5, disk, counters, "s")
        for i, (rf, sf) in enumerate(zip(r_files, s_files)):
            r_keys = {row[0] for row in read_bucket(disk, rf)}
            s_keys = {row[0] for row in read_bucket(disk, sf)}
            shared = r_keys & s_keys
            # Any key present in both relations must meet in bucket i only.
            for j, (rf2, sf2) in enumerate(zip(r_files, s_files)):
                if j == i:
                    continue
                other_s = {row[0] for row in read_bucket(disk, sf2)}
                assert not (shared & other_s)

    def test_charges_hash_per_tuple(self):
        counters = OperationCounters()
        rel = build_relation("t", range(64))
        disk = SimulatedDisk(counters)
        partition_relation(rel, rel.key_of("key"), 2, disk, counters, "p")
        assert counters.hashes == 64
        assert counters.moves == 64  # one per spilled tuple

    def test_zero_classes_rejected(self, counters):
        rel = build_relation("t", range(4))
        disk = SimulatedDisk(counters)
        with pytest.raises(ValueError):
            partition_relation(rel, rel.key_of("key"), 0, disk, counters, "p")


class TestSpillWriter:
    def test_single_bucket_writes_sequentially(self):
        counters = OperationCounters()
        disk = SimulatedDisk(counters)
        writer = SpillWriter(disk, ["only"], tuples_per_page=4, counters=counters)
        for i in range(16):
            writer.write(0, (i,))
        writer.close()
        assert counters.sequential_ios == 4
        assert counters.random_ios == 0

    def test_many_buckets_write_randomly(self):
        counters = OperationCounters()
        disk = SimulatedDisk(counters)
        writer = SpillWriter(
            disk, ["a", "b", "c"], tuples_per_page=2, counters=counters
        )
        for i in range(18):
            writer.write(i % 3, (i,))
        writer.close()
        assert counters.random_ios >= 6

    def test_close_flushes_partials(self):
        counters = OperationCounters()
        disk = SimulatedDisk(counters)
        writer = SpillWriter(disk, ["f"], tuples_per_page=10, counters=counters)
        writer.write(0, (1,))
        assert disk.page_count("f") == 0
        writer.close()
        assert disk.page_count("f") == 1

    def test_reuses_existing_file_name(self):
        counters = OperationCounters()
        disk = SimulatedDisk(counters)
        disk.create("f")
        writer = SpillWriter(disk, ["f"], tuples_per_page=2, counters=counters)
        writer.write(0, (1,))
        writer.close()
        assert disk.page_count("f") == 1
