import pytest

from cyclodist import arith, density
from cyclodist.arith import default_pack


@pytest.fixture(scope="session")
def pack():
    """Shared sieve tables (default limit 2*10^7, built once per session)."""
    return default_pack()


@pytest.fixture
def sieve_builds(monkeypatch):
    """Limits of every sieve built during the test.

    The process-wide pack and the cached Artin value are cleared first, so
    that neither can hide a sieve the code under test would need."""
    limits = []
    build = arith._sieve_arrays_numpy

    def recording(limit):
        limits.append(limit)
        return build(limit)

    monkeypatch.setattr(arith, "_sieve_arrays_numpy", recording)
    monkeypatch.setattr(arith, "_default_pack", None)
    density._artin_default.cache_clear()
    yield limits
    density._artin_default.cache_clear()
