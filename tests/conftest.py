"""Checks that apply to every test."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_unreaped_child():
    """Fail a test that leaves a child process running or unreaped."""
    yield
    if not hasattr(os, "fork"):
        return
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("the test left a child process unreaped")
