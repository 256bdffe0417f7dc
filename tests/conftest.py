import os
import sys
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

sys.path.insert(0, os.path.dirname(__file__))

# the same examples on every run and no example database, so that a run
# depends on the checkout alone; tests keep their own max_examples
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")

# hypothesis caches the constants it finds in local modules under its home
# directory, from collection on, before any fixture runs; keep that cache
# out of the checkout, in a directory removed when the run ends
_hypothesis_home = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_hypothesis_home.name)


@pytest.fixture
def rng():
    import random
    return random.Random(0xC0FFEE)
