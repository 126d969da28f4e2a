"""Fixtures every test module uses."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left_behind():
    """Fail a test that leaves a child process running or unreaped, such as a
    path shard that ``_stepper.run_forked`` steps for
    ``chain._run_length_groups``: after the test,
    ``waitpid(-1, WNOHANG)`` must find no child at all."""
    yield
    if os.name != "posix":
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("the test left a child process running" if pid == 0 else
                f"the test left child process {pid} unreaped")
