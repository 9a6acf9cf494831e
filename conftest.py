"""Session set-up shared by every test under this directory."""

import pytest


@pytest.fixture(scope="session", autouse=True)
def kernel_cache(tmp_path_factory):
    """Build the compiled kernels into a session temporary directory, so
    a test run writes nothing under the user's home; subprocesses that
    tests start inherit it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg")))
        yield
