import pytest

from repro.durability.manager import fork_safe


@pytest.fixture
def may_fork():
    """For tests of the forked checkpoint encoder: a process running a
    second thread checkpoints inline instead, so a thread an earlier
    test left running would make them test the wrong path."""
    assert fork_safe(), (
        "a thread an earlier test left running keeps checkpoints inline")
