import pytest

from memcolor import _native


@pytest.fixture
def fresh_kernel():
    """Load the native kernel anew in the test, and again after it."""
    _native.kernel.cache_clear()
    yield
    _native.kernel.cache_clear()
