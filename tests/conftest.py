import sys

import pytest


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail a test after which a child process of this one still runs.

    It sees the children that `multiprocessing` started, so it runs once a
    test has loaded that module, and never loads it itself.  The children
    are ended, so that the tests after it do not fail for them.
    """
    yield
    mp = sys.modules.get("multiprocessing")
    left = mp.active_children() if mp is not None else []
    message = f"child processes left running: {left}"
    for child in left:
        child.terminate()
        child.join()
    assert not left, message
