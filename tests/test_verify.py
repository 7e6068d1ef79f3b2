import dataclasses
import json

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
from eigencount import verify
from eigencount.verify import suite_bounds


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
    results = run_suites(["lambert", "phi", "koenig"], seed=0)
    assert [(r.name, r.checks) for r in results] == [
        ("lambert", 2040), ("phi", 149), ("koenig", 300)]
    for result in results:
        assert result.ok, result.failures[:1]


def test_slow_suites_pass_with_pinned_check_counts():
    results = run_suites(["det", "bounds", "jensen"], seed=0)
    assert [(r.name, r.checks) for r in results] == [
        ("det", 6171), ("bounds", 8122), ("jensen", 34)]
    for result in results:
        assert result.ok, result.failures[:1]


def test_suites_pass_under_alternate_seed():
    for result in run_suites(["koenig"], seed=12345):
        assert result.ok, result.failures[:1]


def test_suites_run_on_one_blas_thread(blas_threads, monkeypatch):
    caller = blas_threads()
    seen = []
    phi = verify._SUITES["phi"]

    def recording(seed):
        seen.append(blas_threads())
        return phi(seed=seed)

    monkeypatch.setitem(verify._SUITES, "phi", recording)
    (result,) = run_suites(["phi"], seed=0)
    assert result.ok and result.checks > 0
    assert seen == [1]
    assert blas_threads() == caller


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


def test_the_sweep_checks_the_classical_row_with_the_others(corpus, monkeypatch):
    # a failing koenig_count_bound is recorded under its report's own kind
    entry = next(e for e in corpus if isinstance(e.model.base, Zero))
    classical = verify.koenig_count_bound
    monkeypatch.setattr(verify, "koenig_count_bound", lambda *args: dataclasses.replace(
        classical(*args), bound=-1.0))
    log = soundness_sweep([entry], p_values=(1.0,))
    prep = entry.prepared
    assert log.failure_count == len(sweep_radii(prep.norm_l0, prep.norm_k))
    assert {(f["kind"], f["bound_kind"]) for f in log.kept} == {
        ("soundness", "koenig_classical")}


def test_suite_bounds_eigensolves_each_model_once(eigvals_calls, monkeypatch):
    # the sweep and the moment checks share one Prepared per corpus model,
    # and the sweep is soundness_sweep itself
    sweeps = []
    sweep = verify.soundness_sweep

    def counting(*args, **kwargs):
        sweeps.append(args)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(verify, "soundness_sweep", counting)
    assert suite_bounds(seed=0).ok
    assert len(eigvals_calls) == len(regression_corpus(seed=0)) == 36
    assert len(sweeps) == 1


def test_soundness_sweep_eigensolves_each_model_once(eigvals_calls):
    log = soundness_sweep(seed=0)
    assert log.failure_count == 0
    assert len(eigvals_calls) == len(regression_corpus(seed=0)) == 36


def test_failure_records_are_json_safe_and_capped():
    log = verify._Log()
    assert log.check(True, value=1.0j)
    for i in range(12):
        assert not log.check(
            False, index=i, lam=complex(i, -1.0), z=np.complex128(2.0 - 0.5j),
            matrix=np.array([[1.0 + 2.0j, 0.0], [np.float64(3.0), -1.0j]]),
            norm=NormKind.LINF, pair=(np.int64(i), np.float32(0.5), np.bool_(True)),
            flag=np.bool_(False), scale=np.float64(0.25))
    result = log.result("demo")
    assert (result.checks, result.failure_count, result.ok) == (13, 12, False)
    assert len(result.failures) == 10
    for record in result.failures:
        json.dumps(record)
    assert result.failures[3] == {
        "index": 3, "lam": [3.0, -1.0], "z": [2.0, -0.5],
        "matrix": [[[1.0, 2.0], [0.0, 0.0]], [[3.0, 0.0], [0.0, -1.0]]],
        "norm": "linf", "pair": [3, 0.5, True], "flag": False, "scale": 0.25}
