import pytest
from hypothesis import HealthCheck, settings

from accspec.checks import reference_run

settings.register_profile(
    "numeric",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numeric")


@pytest.fixture(scope="session")
def sine_run():
    """The self-check suite's reference run, built once because the
    eigendecomposition plus mode images dominate the suite's runtime."""
    return reference_run()
