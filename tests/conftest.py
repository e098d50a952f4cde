import numpy as np
import pytest
from hypothesis import settings

from cupid import similarity

# CI selects this profile (--hypothesis-profile=ci): the same examples on every
# matrix leg, and a reproduction blob printed with any failure. Each test keeps
# its own max_examples.
settings.register_profile("ci", derandomize=True, print_blob=True)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def threads_for_any_work(monkeypatch):
    """Tile runs take up to their thread cap whatever their work, so the
    small corpora of thread sweeps still run on several threads."""
    monkeypatch.setattr(similarity, "_GRAIN", 0)
