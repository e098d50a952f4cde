import numpy as np
import pytest
from hypothesis import settings

# CI selects this profile (--hypothesis-profile=ci): the same examples on every
# matrix leg, and a reproduction blob printed with any failure. Each test keeps
# its own max_examples.
settings.register_profile("ci", derandomize=True, print_blob=True)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
