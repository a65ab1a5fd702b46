import threading

import pytest

from lram import numerics, perturbed


@pytest.fixture(autouse=True)
def no_thread_outlives_the_test():
    """Fail a test that leaves a thread it started alive (``spde.run_spde`` joins its worker)."""
    before = set(threading.enumerate())
    yield
    alive = [thread.name for thread in threading.enumerate()
             if thread not in before and thread.is_alive()]
    if alive:
        pytest.fail(f"threads left alive: {alive}")


@pytest.fixture
def dense_flop_model(monkeypatch):
    """Weigh the sparse work as nothing: the complement form runs whenever N - k < k."""
    monkeypatch.setattr(perturbed, "SPARSE_SOLVE_WEIGHT", 0)
    monkeypatch.setattr(perturbed, "SAMPLE_LU_WEIGHT", 0)
    monkeypatch.setattr(perturbed, "SAMPLE_LU_OVERHEAD", 0)


@pytest.fixture
def no_bundled_openblas(monkeypatch):
    """The loader finds no bundled OpenBLAS library; its caches are cleared around the test."""
    monkeypatch.setattr(numerics, "_BUNDLED_OPENBLAS", {"scipy": "no-such-library-*.so",
                                                        "numpy": "no-such-library-*.so"})
    for cached in (numerics._bundled_openblas, numerics._dsbevd_2stage):
        cached.cache_clear()
    yield
    monkeypatch.undo()
    for cached in (numerics._bundled_openblas, numerics._dsbevd_2stage):
        cached.cache_clear()
