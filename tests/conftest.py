"""Fixtures shared by the test modules."""

import pytest

from locmodel import errors


@pytest.fixture
def cold_memo(monkeypatch):
    """An empty package memo for this test alone: key -> (value, elements
    retained, units spent making it)."""
    memo = {}
    monkeypatch.setattr(errors, "_MEMO", memo)
    monkeypatch.setattr(errors, "_MEMO_RETAINED", 0)
    return memo
