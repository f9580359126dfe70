import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from mforge.sieve import Segment
from mforge.arith import profile_range


@pytest.fixture(scope="session")
def profile_1e4():
    """Profile of [1, 10^4], g included; shared across test modules."""
    return profile_range(Segment(1, 10**4 + 1))
