import dataclasses

import numpy as np
import pytest

from eigencount import (
    DEFAULT,
    NormKind,
    SuiteResult,
    induced_norm,
    materialize,
    regression_corpus,
    run_suites,
    soundness_sweep,
    sweep_radii,
)
from eigencount.operators import Dense, Diagonal, Shift, Zero


def test_corpus_shape_and_coverage(corpus):
    assert len(corpus) >= 30
    names = [e.name for e in corpus]
    assert len(set(names)) == len(names)
    dims = {e.model.dim for e in corpus}
    assert min(dims) >= 8 and max(dims) <= 64 and len(dims) >= 8
    assert {e.model.norm for e in corpus} == {NormKind.L1, NormKind.L2,
                                              NormKind.LINF}
    base_kinds = {type(e.model.base) for e in corpus}
    assert base_kinds == {Shift, Diagonal, Dense, Zero}


def test_corpus_is_deterministic():
    a = regression_corpus(seed=0)
    b = regression_corpus(seed=0)
    assert [e.name for e in a] == [e.name for e in b]
    for x, y in zip(a, b):
        assert x.model == y.model


def test_corpus_perturbations_have_bounded_rank(corpus):
    for entry in corpus:
        _, k = materialize(entry.model)
        assert 1 <= np.linalg.matrix_rank(k) <= 4


def test_sweep_radii_are_admissible(corpus):
    entry = corpus[0]
    l0, k = materialize(entry.model)
    norm_l0 = induced_norm(l0, entry.model.norm)
    norm_k = induced_norm(k, entry.model.norm)
    radii = sweep_radii(norm_l0, norm_k)
    assert len(radii) == 10
    assert all(s > norm_l0 for s in radii)
    assert all(a < b for a, b in zip(radii, radii[1:]))


def test_quick_suites_pass():
    for result in run_suites(["lambert", "phi", "koenig"], seed=0):
        assert result.ok, result.failures[:1]
        assert result.checks > 0


def test_suites_pass_under_alternate_seed():
    for result in run_suites(["koenig"], seed=12345):
        assert result.ok, result.failures[:1]


def test_run_suites_rejects_unknown_name():
    with pytest.raises(ValueError):
        run_suites(["nope"])


def test_run_suites_rejects_tolerances_other_than_default():
    with pytest.raises(ValueError):
        run_suites(["lambert"], tol=dataclasses.replace(DEFAULT, rank_rtol=1e-8))


def test_suite_result_ok_flag():
    good = SuiteResult("x", checks=3, failure_count=0, failures=[])
    bad = SuiteResult("x", checks=3, failure_count=1, failures=[{"i": 0}])
    assert good.ok and not bad.ok


def test_soundness_sweep_subset_is_clean(corpus):
    log = soundness_sweep(corpus[:4], p_values=(1.0,))
    result = log.result("subset")
    assert result.ok, result.failures[:1]
    assert result.checks >= 4 * 10 * 3  # three bound kinds per radius
