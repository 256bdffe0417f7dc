import os
import sys

import pytest
from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# the same examples on every run and no example database, so that a run
# depends on the checkout alone; tests keep their own max_examples
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


@pytest.fixture
def rng():
    import random
    return random.Random(0xC0FFEE)
