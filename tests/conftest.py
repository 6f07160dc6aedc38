import pytest

from qlevy.cocycle import StepFunction
from qlevy.convolution import OperatorMap
from qlevy.fixtures import bundled_fixtures
from qlevy.harness import random_generator, random_step  # noqa: F401  (re-exported)


@pytest.fixture(scope="session")
def all_fixtures():
    return bundled_fixtures()


@pytest.fixture(scope="session")
def fixture_names(all_fixtures):
    return sorted(all_fixtures)


def random_operator_map(rng, b, p, q=None, scale=1.0):
    shape = (b.dim, p, q or p)
    return OperatorMap(b, scale * (rng.standard_normal(shape)
                                   + 1j * rng.standard_normal(shape)))


def random_element(rng, b, scale=1.0):
    return b.element(scale * (rng.standard_normal(b.dim)
                              + 1j * rng.standard_normal(b.dim)))


def reversed_steps(g):
    """The time-reversed step function s -> g(T - s) on [0, T), T the horizon
    of g: at a time-reversed pair the cocycle is the opposite cocycle."""
    return StepFunction(g.horizon - g.breakpoints[::-1], g.values[::-1])
