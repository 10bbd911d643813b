"""Fixtures shared by the test modules."""

import pytest

from finord import clear_caches
from finord.automata import STATE_CAP_ENV


@pytest.fixture
def state_cap(monkeypatch):
    """``state_cap(value)`` sets ``FINORD_STATE_CAP`` and clears the caches,
    so the next construction reads it.  On the way out the variable is
    restored and the caches cleared again, so no cap leaks into the next
    test."""
    def set_cap(value) -> None:
        monkeypatch.setenv(STATE_CAP_ENV, str(value))
        clear_caches()

    clear_caches()
    yield set_cap
    monkeypatch.undo()
    clear_caches()
