"""Checks that hold after every test."""

import gc

import pytest


@pytest.fixture(autouse=True)
def collector_left_on():
    """gatgrad pauses the cyclic garbage collector, so every test must leave it on."""
    yield
    assert gc.isenabled(), "the test left the cyclic garbage collector off"
