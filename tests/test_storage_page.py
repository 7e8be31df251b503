"""Tests for the slotted page."""

import pytest

from repro.storage.page import Page
from repro.storage.tuples import DataType, make_schema


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        Page(0, 0)


def test_for_schema_sizing():
    schema = make_schema(("a", DataType.INTEGER), ("b", DataType.INTEGER))
    page = Page.for_schema(3, schema, 64)
    assert page.capacity == 8
    assert page.page_id == 3


def test_add_until_full():
    page = Page(0, 2)
    assert page.add((1,)) == 0
    assert page.add((2,)) == 1
    assert page.is_full
    with pytest.raises(OverflowError):
        page.add((3,))


def test_add_marks_dirty():
    page = Page(0, 4)
    assert not page.dirty
    page.add((1,))
    assert page.dirty


def test_iteration_and_indexing():
    page = Page(0, 4)
    page.add(("a",))
    page.add(("b",))
    assert list(page) == [("a",), ("b",)]
    assert page[1] == ("b",)
    assert len(page) == 2
    assert page.free_slots == 2


def test_replace_returns_old():
    page = Page(0, 2)
    page.add((1,))
    old = page.replace(0, (9,))
    assert old == (1,)
    assert page[0] == (9,)


def test_clear():
    page = Page(0, 4)
    page.add((1,))
    page.clear()
    assert page.is_empty
    assert len(page) == 0


def test_copy_is_independent():
    page = Page(0, 4)
    page.add((1,))
    clone = page.copy()
    page.add((2,))
    assert len(clone) == 1
    assert len(page) == 2
    assert clone.page_id == page.page_id
