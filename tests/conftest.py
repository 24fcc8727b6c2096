"""Fixtures shared by several test modules."""

import gc

import pytest


@pytest.fixture()
def refcounting_only():
    """Run the test with the cyclic collector off, so what it sees freed
    was freed by reference counting alone."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
