import numpy as np
import pytest


@pytest.fixture()
def linalg_calls(monkeypatch):
    """Names of the ``np.linalg`` eigen-solvers called, in call order."""
    calls = []

    def counting(name, original):
        def wrapper(a):
            calls.append(name)
            return original(a)
        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    return calls
