from pathlib import Path

import numpy as np
import pytest

from eigencount import materialize, numerics, regression_corpus

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def corpus():
    return regression_corpus(seed=0)


@pytest.fixture(scope="session")
def spec_path():
    return ROOT / "specs" / "shift_rank_one.json"


@pytest.fixture(scope="session")
def materialized(corpus):
    """Corpus models as (entry, l0, k) triples, materialized once."""
    out = []
    for entry in corpus:
        l0, k = materialize(entry.model)
        out.append((entry, l0, k))
    return out


def _count_calls(monkeypatch, name: str) -> list:
    calls = []
    original = getattr(np.linalg, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return calls


@pytest.fixture
def eigvals_calls(monkeypatch):
    """A list that gains one entry per np.linalg.eigvals call in the test."""
    return _count_calls(monkeypatch, "eigvals")


@pytest.fixture
def svd_calls(monkeypatch):
    """A list that gains one entry per np.linalg.svd call in the test."""
    return _count_calls(monkeypatch, "svd")


@pytest.fixture
def svd_shapes(monkeypatch):
    """A list that gains the input shape of each np.linalg.svd call in the test."""
    shapes, original = [], np.linalg.svd

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return shapes


@pytest.fixture
def blas_threads():
    """get() of numpy's OpenBLAS thread count, set to 2 for the test and
    put back after it; the test is skipped where numpy bundles no OpenBLAS."""
    threads = numerics._openblas_threads()
    if threads is None:
        pytest.skip("numpy links a BLAS other than its bundled OpenBLAS, "
                    "whose thread count the library does not set")
    get, set_ = threads
    before = get()
    set_(2)
    yield get
    set_(before)
