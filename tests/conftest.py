import pytest

from lram import perturbed


@pytest.fixture
def dense_flop_model(monkeypatch):
    """Weigh the sparse work as nothing: the complement form runs whenever N - k < k."""
    monkeypatch.setattr(perturbed, "SPARSE_SOLVE_WEIGHT", 0)
    monkeypatch.setattr(perturbed, "SAMPLE_LU_WEIGHT", 0)
    monkeypatch.setattr(perturbed, "SAMPLE_LU_OVERHEAD", 0)
