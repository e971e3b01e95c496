import pytest
from hypothesis import HealthCheck, settings

from absquares.counting import FactorIndex
from absquares.substitutions import thue_morse_prefix
from paper_facts import fibonacci_word

settings.register_profile(
    "default",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture(scope="session")
def fib_prefix():
    return fibonacci_word(10_000)


@pytest.fixture(scope="session")
def fib_index(fib_prefix):
    return FactorIndex(fib_prefix)


@pytest.fixture(scope="session")
def tm_prefix():
    return thue_morse_prefix(65_536)


@pytest.fixture(scope="session")
def tm_index(tm_prefix):
    return FactorIndex(tm_prefix)
