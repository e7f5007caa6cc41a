"""Fixtures shared by the test modules."""

import copy

import numpy as np
import pytest


def _clone(controller):
    """An independent copy of a controller, for replays: its writable
    arrays are copied, its read-only tables shared."""
    twin = copy.copy(controller)
    for name, value in vars(controller).items():
        if isinstance(value, np.ndarray) and value.flags.writeable:
            setattr(twin, name, value.copy())
    return twin


@pytest.fixture
def clone():
    """``_clone``: the library keeps no copy method, as only tests replay
    a controller from a point of its stream."""
    return _clone
