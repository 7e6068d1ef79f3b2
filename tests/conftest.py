import ctypes
from pathlib import Path

import numpy as np
import pytest

from eigencount import materialize, regression_corpus

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
def cholesky_calls(monkeypatch):
    """A list that gains one entry per np.linalg.cholesky call in the test."""
    return _count_calls(monkeypatch, "cholesky")


@pytest.fixture
def svd_shapes(monkeypatch):
    """A list that gains the input shape of each np.linalg.svd call in the test."""
    shapes, original = [], np.linalg.svd

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return shapes


def openblas_thread_count():
    """The thread count of numpy's bundled OpenBLAS, read through ctypes, or
    None where numpy bundles none (a numpy that links another BLAS)."""
    # the wheels keep the library in numpy.libs beside the package (Linux,
    # Windows) or in numpy/.dylibs (macOS); opening it again returns numpy's handle
    package = Path(np.__file__).parent
    for libs in (package.parent / "numpy.libs", package / ".dylibs"):
        for path in sorted(libs.glob("*openblas*")):
            lib = ctypes.CDLL(str(path))
            for name in ("scipy_openblas_get_num_threads64_",
                         "openblas_get_num_threads64_", "openblas_get_num_threads"):
                get = getattr(lib, name, None)
                if get is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    return get()
    return None
