from collections import Counter

import pytest

from patfix import oracle


@pytest.fixture
def sweeps(monkeypatch):
    """Cold oracle caches, and a Counter of ``_chunk_stats`` calls keyed
    by the size n of the block swept.  The sweeps cached before the test
    are put back afterwards, so later tests do not pay for them again."""
    calls = Counter()
    real = oracle._chunk_stats

    def counting(chunk):
        calls[chunk.shape[1]] += 1
        return real(chunk)

    warm = dict(oracle._sweeps)
    oracle.clear_cache()
    monkeypatch.setattr(oracle, "_chunk_stats", counting)
    yield calls
    oracle.clear_cache()
    oracle._sweeps.update(warm)
