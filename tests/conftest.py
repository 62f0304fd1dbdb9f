from collections import Counter

import pytest

from patfix import oracle


@pytest.fixture
def sweeps(monkeypatch):
    """Cold oracle caches, and a Counter of the sizes n the oracle builds
    (calls to ``_run_sweep``).  The sizes cached before the test are put
    back afterwards, so later tests do not pay for them again."""
    calls = Counter()
    real = oracle._run_sweep

    def counting(n):
        calls[n] += 1
        return real(n)

    warm = dict(oracle._sweeps)
    oracle.clear_cache()
    monkeypatch.setattr(oracle, "_run_sweep", counting)
    yield calls
    oracle.clear_cache()
    oracle._sweeps.update(warm)
