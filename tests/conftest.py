"""Shared fixtures of the tier-1 suite."""

import pytest

from repro.gates import backends


@pytest.fixture
def use_backend(monkeypatch):
    """Select the execution backend the stack runs for this test.

    Returns ``select(name)``, which patches
    :data:`repro.gates.backends.DEFAULT_BACKEND` -- the one seam:
    :func:`~repro.gates.backends.resolve_backend_name` reads it at call
    time and ``engine_for`` caches engines per resolved name.  Call it
    again to switch mid-test; the patch is undone at teardown.  Whole-
    stack differential tests pass ``store=False``: store keys do not
    name the backend.
    """

    def select(name):
        monkeypatch.setattr(
            backends, "DEFAULT_BACKEND", backends.resolve_backend_name(name)
        )

    return select
