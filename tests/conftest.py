"""Session set-up shared by the tests."""

import shutil
import tempfile

from hypothesis.configuration import set_hypothesis_home_dir

_hypothesis_home = None


def pytest_configure(config):
    # While it collects property tests, Hypothesis caches the literals of the
    # local modules under its home directory, .hypothesis/ in the working
    # directory by default; keep that cache out of the tree
    global _hypothesis_home
    _hypothesis_home = tempfile.mkdtemp(prefix="hypothesis-")
    set_hypothesis_home_dir(_hypothesis_home)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    shutil.rmtree(_hypothesis_home, ignore_errors=True)
