import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from helpers import woven_chain_corpus  # noqa: E402


@pytest.fixture(scope="session", autouse=True)
def free_woven_chain_corpus():
    """Drop the shared chain corpus when the session ends: it holds about a
    million objects, and every garbage collection pytest runs at exit would
    scan them all."""
    yield
    woven_chain_corpus.cache_clear()
