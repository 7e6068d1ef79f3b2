import csv
import dataclasses
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
import warnings
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

from eigencount import (
    DEFAULT,
    BoundReport,
    Dense,
    Diagonal,
    NormKind,
    OperatorModel,
    RankOne,
    Shift,
    SuiteResult,
    Zero,
    count_bound_disk,
    count_bound_disk_simple,
    koenig_count_bound,
    materialize,
    parse_spec,
    prepare,
    serialize_spec,
)
import eigencount
from eigencount import cli
from eigencount.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_json_report(capsys, spec_path):
    code, out, err = _run(capsys, "bound", str(spec_path), "--p", "1", "--s", "1.5")
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "bound"
    assert report["input_digest"].startswith("sha256:")
    results = report["results"]
    kinds = [row["kind"] for row in results["bounds"]]
    assert kinds == ["disk_phi", "disk_simple"]
    for row in results["bounds"]:
        assert results["oracle_count"] <= row["bound"]
        assert row["certified"] is True
    assert results["oracle_count"] == 1
    assert "wall_time_s=" in err


_SPEC = "specs/shift_rank_one.json"


@pytest.mark.parametrize("golden, argv", [
    ("bound_p1_s1.5.json", ("bound", _SPEC, "--p", "1", "--s", "1.5")),
    ("bound_p1_s1.5.csv", ("bound", _SPEC, "--p", "1", "--s", "1.5", "--format", "csv")),
    ("bound_p1_point2.json", ("bound", _SPEC, "--p", "1", "--point", "2,0")),
    ("bound_p2_s1.5.json", ("bound", _SPEC, "--p", "2", "--s", "1.5")),
    ("bound_wide_scale_p20.json",
     ("bound", "specs/wide_scale_l2.json", "--p", "20", "--s", "2.7e15")),
    ("gamma_p0.05.txt", ("gamma", "--p", "0.05")),
    ("gamma_p0.5.txt", ("gamma", "--p", "0.5")),
    ("gamma_p2.txt", ("gamma", "--p", "2")),
    ("gamma_p3.txt", ("gamma", "--p", "3")),
    ("oracle_s1.2_q2.json", ("oracle", _SPEC, "--s", "1.2", "--q", "2")),
    ("oracle_wide_scale_s1e15_q2.json",
     ("oracle", "specs/wide_scale_l2.json", "--s", "1e15", "--q", "2")),
    ("example_shift_lacunary.csv",
     ("example-shift", "--family", "lacunary", "--dims", "8,16,32,64,128")),
    ("verify_all_seed0.txt", ("verify", "--suite", "all", "--seed", "0")),
    ("verify_all_seed3.txt", ("verify", "--suite", "all", "--seed", "3")),
])
def test_stdout_matches_the_golden_file(capsys, monkeypatch, golden, argv):
    # a report echoes the spec path, so it runs from the repo root with
    # the relative path the golden files were made with
    monkeypatch.chdir(ROOT)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, _ = _run(capsys, *argv)
    assert code == 0
    assert out == (ROOT / "tests" / "golden" / golden).read_text()


def test_a_utf16_spec_gives_the_golden_report(capsys, monkeypatch):
    # the committed spec's text as UTF-16 with a BOM: only the path and the
    # digest of the bytes differ
    monkeypatch.chdir(ROOT)
    path = "specs/shift_rank_one.utf16.json"
    code, out, err = _run(capsys, "bound", path, "--p", "1", "--s", "1.5")
    assert code == 0, err
    report = json.loads(out)
    golden = json.loads((ROOT / "tests" / "golden" / "bound_p1_s1.5.json").read_text())
    assert report["arguments"].pop("spec") == path
    assert report.pop("input_digest") == (
        "sha256:" + hashlib.sha256((ROOT / path).read_bytes()).hexdigest())
    del golden["arguments"]["spec"], golden["input_digest"]
    assert report == golden


def test_bound_columns_follow_the_report_fields(capsys, spec_path):
    names = [f.name for f in dataclasses.fields(BoundReport)]
    code, out, err = _run(capsys, "bound", str(spec_path), "--p", "1", "--s", "1.5",
                          "--mode", "empirical", "--format", "csv")
    assert code == 0, err
    assert next(csv.reader(io.StringIO(out))) == list(chain.from_iterable(
        (f"{n}_re", f"{n}_im") if n == "target" else (n,) for n in names))


def test_bound_report_is_byte_identical_on_rerun(capsys, spec_path):
    _, first, _ = _run(capsys, "bound", str(spec_path), "--p", "1", "--s", "1.5")
    _, second, _ = _run(capsys, "bound", str(spec_path), "--p", "1", "--s", "1.5")
    assert first == second
    assert json.dumps(json.loads(first), sort_keys=True, indent=2) + "\n" == first


def test_bound_csv_format(capsys, spec_path):
    code, out, _ = _run(capsys, "bound", str(spec_path), "--p", "1",
                        "--s", "1.5", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:4] == ["kind", "p", "target_re", "target_im"]
    assert len(rows) == 3  # header + two bound kinds
    assert {row[0] for row in rows[1:]} == {"disk_phi", "disk_simple"}


def test_bound_out_file(tmp_path, capsys, spec_path):
    target = tmp_path / "report.json"
    code, out, _ = _run(capsys, "bound", str(spec_path), "--p", "1",
                        "--s", "1.5", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["command"] == "bound"


def test_bound_point_target(capsys, spec_path):
    code, out, _ = _run(capsys, "bound", str(spec_path), "--p", "1",
                        "--point", "2,0")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["oracle_count"] == 1  # simple eigenvalue at 2
    assert [row["kind"] for row in results["bounds"]] == ["disk_phi", "disk_simple"]

    code, out, _ = _run(capsys, "bound", str(spec_path), "--p", "1",
                        "--point", "5,0")
    assert json.loads(out)["results"]["oracle_count"] == 0


def _bound_rows(capsys, *argv):
    code, out, err = _run(capsys, "bound", *argv)
    assert code == 0, err
    results = json.loads(out)["results"]
    return results["oracle_count"], results["bounds"]


@pytest.mark.parametrize("p", ["0.5", "1", "2"])
@pytest.mark.parametrize("zero_base", [False, True])
def test_point_rows_are_the_rows_at_its_modulus(capsys, tmp_path, spec_path, p, zero_base):
    # an off-axis point of modulus 1.5: every row, koenig_classical on a zero
    # base too, is the row of --s |lam0|; only the oracle differs, being the
    # multiplicity of lam0 (0) and not the count beyond 1.5 (1, the eigenvalue 2)
    doc = spec_path
    if zero_base:
        model = parse_spec(spec_path.read_bytes())
        doc = tmp_path / "compact.json"
        doc.write_text(serialize_spec(OperatorModel(
            model.dim, model.norm, Zero(), Dense(sum(materialize(model))))))
    s = abs(complex(0.9, 1.2))
    point_oracle, point_rows = _bound_rows(capsys, str(doc), "--p", p, "--point", "0.9,1.2")
    disk_oracle, disk_rows = _bound_rows(capsys, str(doc), "--p", p, "--s", repr(s))
    kinds = ["disk_phi", "disk_simple"] + ["koenig_classical"] * zero_base
    assert [row["kind"] for row in point_rows] == kinds
    assert (point_oracle, disk_oracle) == (0, 1)
    for point_row, disk_row in zip(point_rows, disk_rows):
        assert point_row["target"] == [s, 0.0]
        assert ({**point_row, "oracle_count": None}
                == {**disk_row, "oracle_count": None})


_ZERO_BASE = {"dim": 2, "norm": "l2", "base": {"kind": "zero"},
              "perturbation": {"kind": "diagonal", "values": [[1, 0], [0.5, 0]]}}


@pytest.mark.parametrize("mode", ["certified", "empirical"])
@pytest.mark.parametrize("doc, p, s, expected", [
    ("shift", "20", "1e20", 0),  # s^p overflows: the true bound is below 1
    ("zero_base", "20", "1e20", 0),
    ("zero_base", "40", "1e-10", 2),  # the bound, about s^-40, passes the largest float
])
def test_an_s_power_past_the_floats_is_a_zero_bound_or_refused(capsys, tmp_path, mode,
                                                               doc, p, s, expected):
    # all six once exited 1 with an OverflowError or ZeroDivisionError traceback
    path = ROOT / _SPEC
    if doc == "zero_base":
        path = tmp_path / "zero_base.json"
        path.write_text(json.dumps(_ZERO_BASE))
    code, out, err = _run(capsys, "bound", str(path), "--p", p, "--s", s, "--mode", mode)
    assert code == expected, err
    if code == 2:
        assert out == "" and "Traceback" not in err
        assert err.startswith(
            "error: no admissible N in [0, 2] for s = 1e-10; at N = rank K = 2: bound = "
            "e^959.964054 at p = 40.0, s = 1e-10 passes the largest float;")
        return
    results = json.loads(out)["results"]
    assert results["oracle_count"] == 0 and results["best_bound"] == 0.0
    for row in results["bounds"]:
        assert row["bound"] >= results["oracle_count"]


def test_a_singular_value_sum_past_the_floats_is_refused_without_a_warning(capsys, tmp_path):
    # numpy's sigma^20 sum overflowed with a RuntimeWarning and the bound read nan;
    # the disk rows are 0.0 at N = 0, and the classical row's alpha_sum, 1e400, is refused
    doc = tmp_path / "big_k.json"
    doc.write_text(json.dumps({**_ZERO_BASE, "perturbation": {
        "kind": "diagonal", "values": [[1e20, 0], [0.5, 0]]}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, "bound", str(doc), "--p", "20", "--s", "2e20")
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.startswith(
        "error: alpha_sum = e^921.034037 at p = 20.0, s = 2e+20 passes the largest float\n")
    prep = prepare(parse_spec(doc.read_bytes()))
    for bound in (count_bound_disk, count_bound_disk_simple):
        report = bound(prep, 20.0, 2e20)
        assert (report.n_rank, report.bound, report.phi_value) == (0, 0.0, 0.0)


def test_the_wide_scale_example_counts_its_eigenvalue(capsys, monkeypatch):
    # s^20 passes the largest float, which once refused the whole document
    monkeypatch.chdir(ROOT)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, "bound", "specs/wide_scale_l2.json",
                              "--p", "20", "--s", "2.7e15")
    assert code == 0, err
    results = json.loads(out)["results"]
    assert results["oracle_count"] == 1
    for row in results["bounds"]:
        assert row["certified"] and row["bound"] >= 1


def test_a_scaled_document_reports_the_unscaled_bound(capsys, tmp_path, spec_path):
    # scaled by 2^-1000, s^2 once underflowed and the command exited 2
    model = parse_spec(spec_path.read_bytes())
    scale = 2.0 ** -1000
    l0, k = materialize(model)
    doc = tmp_path / "scaled.json"
    doc.write_text(serialize_spec(OperatorModel(
        model.dim, model.norm, Dense(l0 * scale), Dense(k * scale))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, "bound", str(doc), "--p", "2", "--s", repr(1.5 * scale))
    assert code == 0, err
    golden = json.loads((ROOT / "tests" / "golden" / "bound_p2_s1.5.json").read_text())
    assert json.loads(out)["results"]["best_bound"] == golden["results"]["best_bound"]


# a spec whose only admissible rank puts x = ||L0|| / s within one ulp of 1
_EDGE = {"dim": 2, "norm": "l1",
         "base": {"kind": "diagonal", "values": [[1, 0], [0.5, 0]]},
         "perturbation": {"kind": "diagonal", "values": [[0, 0], [1, 0]]}}


@pytest.mark.parametrize("p", ["0.5", "2", "12", "20"])
@pytest.mark.parametrize("zero_k", [False, True])
def test_a_radius_one_ulp_past_the_base_norm_is_sound_or_refused(capsys, tmp_path,
                                                                  p, zero_k):
    # once: a certified disk_phi of -5.73e210 at p = 12, disk_phi above
    # disk_simple at p = 2, and a ZeroDivisionError with a zero K at p = 20;
    # a zero K then exited 2 at every p, though N = 0 has an empty alpha sum
    doc = tmp_path / "edge.json"
    spec = dict(_EDGE)
    if zero_k:
        spec["perturbation"] = {"kind": "zero"}
    doc.write_text(json.dumps(spec))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = _run(capsys, "bound", str(doc), "--p", p,
                              "--s", "1.0000000000000002")
    if code == 2 and not zero_k:
        assert out == "" and err.startswith("error: ") and "Traceback" not in err
        return
    assert code == 0, err
    results = json.loads(out)["results"]
    rows = {row["kind"]: row for row in results["bounds"]}
    for row in rows.values():
        assert row["certified"] and row["bound"] >= results["oracle_count"]
    assert rows["disk_phi"]["bound"] <= rows["disk_simple"]["bound"]
    if zero_k:
        assert results["best_bound"] == 0.0 and rows["disk_phi"]["phi_value"] == 0.0


@pytest.mark.parametrize("exponent", [-40, -1000])
def test_point_multiplicity_is_exact_under_power_of_two_scaling(capsys, tmp_path,
                                                               spec_path, exponent):
    # the shift plus rank-one spec as dense blocks scaled by 2^exponent, which
    # is exact; an absolute floor of 1e-8 on the clustering radius counted
    # all 50 eigenvalues at the scaled point 2
    model = parse_spec(spec_path.read_bytes())
    scale = 2.0 ** exponent
    l0, k = materialize(model)
    doc = tmp_path / "scaled.json"
    doc.write_text(serialize_spec(OperatorModel(
        model.dim, model.norm, Dense(l0 * scale), Dense(k * scale))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, "bound", str(doc), "--p", "1",
                              "--point", f"{2.0 * scale!r},0")
    assert code == 0, err
    results = json.loads(out)["results"]
    assert results["oracle_count"] == 1
    golden = json.loads((ROOT / "tests" / "golden" / "bound_p1_point2.json").read_text())
    assert results["bounds"][0]["bound"] == golden["results"]["bounds"][0]["bound"]


def test_bound_empirical_mode_adds_uncertified_row(capsys, spec_path):
    code, out, _ = _run(capsys, "bound", str(spec_path), "--p", "1",
                        "--s", "1.5", "--mode", "empirical")
    assert code == 0
    rows = json.loads(out)["results"]["bounds"]
    assert len(rows) == 3
    extra = rows[-1]
    assert extra["certified"] is False
    assert extra["t_star"] == rows[0]["t_star"]
    assert extra["bound"] <= rows[0]["bound"] * (1 + 1e-9)


def test_best_bound_is_the_best_certified_row(capsys, spec_path):
    code, out, _ = _run(capsys, "bound", str(spec_path), "--p", "2",
                        "--s", "1.5", "--mode", "empirical")
    assert code == 0
    results = json.loads(out)["results"]
    rows = results["bounds"]
    assert rows[-1]["certified"] is False
    assert rows[-1]["bound"] < results["best_bound"]
    assert results["best_bound"] == min(row["bound"] for row in rows
                                        if row["certified"])


def test_bound_empirical_mode_on_corpus_model(capsys, tmp_path, corpus):
    # the certified circle of m02 lies inside ||L0|| + alpha_3, so the
    # empirical row must skip the ranks that cannot use it
    model = corpus[2].model
    prep = prepare(model)
    s = prep.norm_l0 + 0.5 * (prep.norm_k + 1.0)
    doc = tmp_path / "m02.json"
    doc.write_text(serialize_spec(model))
    code, out, err = _run(capsys, "bound", str(doc), "--p", "1",
                          "--s", repr(s), "--mode", "empirical")
    assert code == 0, err
    results = json.loads(out)["results"]
    rows = results["bounds"]
    assert [row["kind"] for row in rows] == ["disk_phi", "disk_simple", "region"]
    assert rows[-1]["certified"] is False
    assert rows[-1]["t_star"] == rows[0]["t_star"]
    assert all(results["oracle_count"] <= row["bound"] for row in rows)


def _dense_l2_docs(tmp_path):
    # dim-16 l2 documents with a dense K, on a base of each kind
    rng = np.random.default_rng(3)
    l0, k = (rng.standard_normal((2, 16, 16))
             + 1j * rng.standard_normal((2, 16, 16)))
    for base in (Dense(0.1 * l0), Zero(), Shift(), Diagonal(0.1 * l0[0])):
        doc = tmp_path / "dense.json"
        doc.write_text(serialize_spec(OperatorModel(16, NormKind.L2, base,
                                                    Dense(k))))
        yield doc


def test_bound_computes_each_singular_value_set_once(capsys, tmp_path,
                                                     svd_calls):
    # on l2, K takes one SVD, which serves alpha and the koenig_classical row
    # of a zero base; ||L0||_2 takes none on any base: a Cholesky factorization
    # certifies a dense one, and the other kinds have closed forms
    for doc in _dense_l2_docs(tmp_path):
        svd_calls.clear()
        code, _, err = _run(capsys, "bound", str(doc), "--p", "1", "--s", "3")
        assert code == 0, err
        assert len(svd_calls) == 1


def test_oracle_takes_no_svd(capsys, tmp_path, svd_calls):
    # the oracle reads ||L0|| and never K's singular values, and no base kind
    # takes an SVD for ||L0||_2
    for doc in _dense_l2_docs(tmp_path):
        svd_calls.clear()
        code, _, err = _run(capsys, "oracle", str(doc), "--s", "1.2", "--q", "2")
        assert code == 0, err
        assert svd_calls == []


def test_inadmissible_radius_exits_two_before_the_eigensolve(capsys, spec_path,
                                                             eigvals_calls):
    for s in ("-1", "0.5"):
        eigvals_calls.clear()
        code, out, err = _run(capsys, "bound", str(spec_path), "--p", "1", "--s", s)
        assert code == 2, err
        assert "need s > ||L0||" in err and out == ""
        assert eigvals_calls == [], s


def test_koenig_row_is_a_bound_report(capsys, tmp_path, corpus):
    # m07 is a zero-base l2 model; the values were pinned before the row
    # became a BoundReport, and the bounds again once they were rounded outward
    model = corpus[7].model
    assert isinstance(model.base, Zero) and model.norm is NormKind.L2
    doc = tmp_path / "m07.json"
    doc.write_text(serialize_spec(model))
    pinned = {"0.5": ("0x1.812ef7869f377p+3", "0x1.34f218f025864p+2"),
              "1": ("0x1.2e933ee8ec323p+4", "0x1.854e9d8647560p+2")}
    for p, (bound, alpha_sum) in pinned.items():
        code, out, err = _run(capsys, "bound", str(doc), "--p", p, "--s", "1.5")
        assert code == 0, err
        results = json.loads(out)["results"]
        row = results["bounds"][-1]
        assert row == koenig_count_bound(prepare(model), float(p), 1.5).with_oracle(
            results["oracle_count"]).to_dict()
        assert (row["kind"], row["n_rank"], row["alpha_mode"]) == (
            "koenig_classical", 40, "exact")
        assert row["t_star"] is row["eps"] is row["gamma_p"] is None
        assert float.hex(row["bound"]) == bound
        assert float.hex(row["alpha_sum"]) == alpha_sum


@pytest.mark.parametrize("base, dim, norm", [
    (Shift(), 1, NormKind.L2),
    (Diagonal(np.zeros(3)), 3, NormKind.L1),
    (Dense(np.zeros((3, 3))), 3, NormKind.LINF),
])
def test_a_base_of_norm_zero_gets_the_classical_row(capsys, tmp_path, base, dim, norm):
    # a dim-1 shift and an all-zero diagonal or dense base have ||L0|| = 0 as a
    # zero base does, so their reports carry the koenig_classical row too
    e0 = np.eye(dim)[0]
    doc = tmp_path / "degenerate.json"
    doc.write_text(serialize_spec(OperatorModel(dim, norm, base, RankOne(1.5 * e0, e0))))
    code, out, err = _run(capsys, "bound", str(doc), "--p", "1", "--s", "1.2")
    assert code == 0, err
    results = json.loads(out)["results"]
    rows = results["bounds"]
    assert (results["norm_l0"], results["oracle_count"]) == (0.0, 1)
    assert [row["kind"] for row in rows] == ["disk_phi", "disk_simple", "koenig_classical"]
    assert all(results["oracle_count"] <= row["bound"] for row in rows)
    assert results["best_bound"] == min(row["bound"] for row in rows)


def test_oracle_commands_eigensolve_each_matrix_once(capsys, tmp_path,
                                                    spec_path, eigvals_calls):
    # every count, curve and moment is read from one Spectrum, and
    # example-shift reads its excess sum from the spectrum it counts from
    for argv in (("--s", "1.2", "--q", "2"), ("--curve", "--q", "2")):
        eigvals_calls.clear()
        code, _, err = _run(capsys, "oracle", str(spec_path), *argv)
        assert code == 0, err
        assert len(eigvals_calls) == 1, argv
    coeffs = tmp_path / "b.json"
    coeffs.write_text("[[2.0, 0.0]]")
    eigvals_calls.clear()
    code, _, err = _run(capsys, "example-shift", "--coeffs", str(coeffs),
                        "--dims", "8,16")
    assert code == 0, err
    assert len(eigvals_calls) == 2


def test_reports_echo_the_fixed_configuration(capsys, tmp_path, spec_path,
                                              corpus):
    tolerances = dataclasses.asdict(DEFAULT)
    assert set(tolerances) == {
        "cluster_rtol", "rank_rtol", "resolvent_rtol", "det_one_tol",
        "contour_min_modulus", "normalization_tol", "pair_gap_rtol"}
    # m02 is linf with a rank-3 K, so its alpha entries are certificates
    model = corpus[2].model
    prep = prepare(model)
    s = repr(prep.norm_l0 + 0.5 * (prep.norm_k + 1.0))
    doc = tmp_path / "m02.json"
    doc.write_text(serialize_spec(model))
    spec = str(spec_path)
    cases = [
        (("bound", spec, "--p", "1", "--s", "1.5"), "exact"),
        (("bound", spec, "--p", "2", "--s", "1.5", "--mode", "empirical"),
         "exact"),
        (("bound", spec, "--p", "1", "--point", "2,0"), "exact"),
        (("bound", str(doc), "--p", "1", "--s", s), "upper_bound"),
        (("bound", str(doc), "--p", "1", "--s", s, "--mode", "empirical"),
         "upper_bound"),
        (("oracle", spec, "--s", "1.2", "--q", "2"), None),
        (("oracle", spec, "--curve"), None),
    ]
    for argv, alpha_mode in cases:
        code, out, err = _run(capsys, *argv)
        assert code == 0, err
        assert json.loads(out)["config"] == {
            "tolerances": tolerances,
            "gamma_provenance": "envelope_certified",
            "alpha_mode": alpha_mode,
        }, argv


def test_bound_fixed_rank(capsys, spec_path):
    code, out, _ = _run(capsys, "bound", str(spec_path), "--p", "1",
                        "--s", "1.5", "--n", "1")
    assert code == 0
    assert all(row["n_rank"] == 1
               for row in json.loads(out)["results"]["bounds"])


def test_oracle_count_curve_and_moment(capsys, spec_path):
    code, out, _ = _run(capsys, "oracle", str(spec_path), "--s", "1.2", "--q", "2")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["count"] == {"s": 1.2, "value": 1}
    assert results["moment"]["value"] == pytest.approx(1.0)

    code, out, _ = _run(capsys, "oracle", str(spec_path), "--curve",
                        "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["kind", "x", "value"]
    assert all(row[0] == "curve" for row in rows[1:])
    # last breakpoint is the top eigenvalue modulus, count drops to zero
    assert float(rows[-1][1]) == pytest.approx(2.0)
    assert rows[-1][2] == "0"


def test_oracle_inadmissible_moment_exponent_still_computes(capsys, spec_path):
    # q below the bound threshold is fine for the oracle sum
    code, out, _ = _run(capsys, "oracle", str(spec_path), "--q", "1.1")
    assert code == 0
    assert json.loads(out)["results"]["moment"]["q"] == 1.1


def test_a_moment_past_the_largest_float_exits_two(capsys, tmp_path):
    # (1e200)^2 overflows: the report read "value": Infinity, which is not
    # JSON, after a RuntimeWarning
    doc = tmp_path / "huge.json"
    doc.write_text('{"dim": 2, "norm": "l2", "base": {"kind": "zero"}, "perturbation": '
                   '{"kind": "diagonal", "values": [[1e200, 0], [0.5, 0]]}}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, "oracle", str(doc), "--q", "2")
        assert (code, out) == (2, "")
        assert err.splitlines()[0] == (
            "error: moment sum at q = 2.0, base = 0.0 overflows a float")
        code, out, err = _run(capsys, "oracle", str(doc), "--q", "1.5")
    assert code == 0, err
    assert json.loads(out)["results"]["moment"]["value"] == np.float64(1e200) ** 1.5 + 0.5 ** 1.5


def test_gamma_output(capsys):
    code, out, _ = _run(capsys, "gamma", "--p", "1")
    assert code == 0
    lines = dict(line.split(" = ") for line in out.strip().splitlines())
    assert float(lines["gamma_p"]) == 1.0
    assert lines["provenance"] == "envelope_certified"


def test_verify_table_and_exit(capsys):
    code, out, _ = _run(capsys, "verify", "--suite", "lambert")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["suite", "checks", "failures", "status"]
    assert lines[1].split()[0] == "lambert"
    assert lines[-1].split()[0] == "total"
    assert lines[-1].split()[-1] == "pass"


def test_verify_failure_exits_four(capsys, monkeypatch):
    fake = SuiteResult("fake", checks=2, failure_count=1,
                       failures=[{"index": 7, "reason": "made up"}])
    monkeypatch.setattr("eigencount.cli.run_suites", lambda *a, **k: [fake])
    code, out, _ = _run(capsys, "verify", "--suite", "all")
    assert code == 4
    assert "FAIL" in out
    assert "counterexample" in out
    assert '"index": 7' in out


def test_example_shift_fixed_coefficients(tmp_path, capsys):
    coeffs = tmp_path / "b.json"
    coeffs.write_text("[[2.0, 0.0]]")
    code, out, _ = _run(capsys, "example-shift", "--coeffs", str(coeffs),
                        "--dims", "8,16,32")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:2] == ["dim", "excess_sum"]
    assert [row[0] for row in rows[1:]] == ["8", "16", "32"]
    for row in rows[1:]:
        assert float(row[1]) == pytest.approx(1.0, abs=1e-9)
        assert row[2] == "1"   # one eigenvalue above radius 1
        assert row[-1] == "0"  # none above radius 2


def test_example_shift_lacunary_family(capsys):
    # the excess sums grow with the truncation, from 0.8768 at dim 8 to 1.158 at 256
    code, out, _ = _run(capsys, "example-shift", "--family", "lacunary",
                        "--dims", "8,16,32,64,128,256")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [int(row[0]) for row in rows[1:]] == [8, 16, 32, 64, 128, 256]
    sums = [float(row[1]) for row in rows[1:]]
    assert sums == sorted(sums)
    assert sums[0] == pytest.approx(0.8768, abs=2e-3)
    assert sums[-1] == pytest.approx(1.158, abs=2e-2)
    assert sums[-1] / sums[0] > 1.25  # the growth ratio the removed probe reported


def test_exit_code_usage_errors(capsys, spec_path, tmp_path):
    assert _run(capsys, "bound", str(spec_path), "--p", "1")[0] == 1
    assert _run(capsys, "bound", str(spec_path), "--p", "1", "--s", "1",
                "--point", "2,0")[0] == 1
    assert _run(capsys, "bound", str(spec_path), "--p", "1",
                "--point", "nope")[0] == 1
    assert _run(capsys, "verify", "--suite", "bogus")[0] == 1
    assert _run(capsys, "oracle", str(spec_path))[0] == 1
    assert _run(capsys, "example-shift", "--family", "lacunary",
                "--dims", "8,8")[0] == 1
    assert _run(capsys)[0] == 1


def test_exit_code_missing_file(capsys, tmp_path):
    missing = tmp_path / "absent.json"
    code, _, err = _run(capsys, "bound", str(missing), "--p", "1", "--s", "2")
    assert code == 1
    assert "error:" in err


def test_an_allocation_that_fails_exits_one_without_a_traceback(capsys, tmp_path):
    # a dim-10^7 matrix asks for 1.42 PiB, past any address space, so the
    # request fails at once and touches no memory
    doc = tmp_path / "huge.json"
    doc.write_text('{"dim": 10000000, "norm": "l2", "base": {"kind": "zero"}, '
                   '"perturbation": {"kind": "zero"}}')
    code, out, err = _run(capsys, "bound", str(doc), "--p", "1", "--s", "2")
    assert (code, out) == (1, "")
    error, wall = err.splitlines()
    assert error.startswith("error: ") and wall.startswith("wall_time_s=")


def test_exit_code_inadmissible(capsys, spec_path):
    code, _, err = _run(capsys, "bound", str(spec_path), "--p", "1", "--s", "0.5")
    assert code == 2
    assert "error:" in err
    assert _run(capsys, "gamma", "--p", "-2")[0] == 2


@pytest.mark.parametrize("argv, expected", [
    (("gamma", "--p", "nan"), 2),
    (("gamma", "--p", "inf"), 2),
    (("gamma", "--p", "41"), 2),
    (("gamma", "--p", "60"), 2),
    (("bound", "SPEC", "--p", "nan", "--s", "1.5"), 2),
    (("bound", "SPEC", "--p", "inf", "--s", "1.5"), 2),
    (("bound", "SPEC", "--p", "1", "--s", "inf"), 2),
    (("bound", "SPEC", "--p", "1", "--s", "nan"), 2),
    (("bound", "SPEC", "--p", "1", "--point", "inf,0"), 2),
    (("bound", "SPEC", "--p", "1", "--point", "nan,0"), 2),
    (("bound", "SPEC", "--p", "1", "--point", "0,0"), 2),
    (("bound", "SPEC", "--p", "0.001", "--s", "1.5"), 2),
    (("bound", "SPEC", "--p", "0.00141", "--s", "1.5"), 2),
    (("gamma", "--p", "0.001"), 2),
    (("oracle", "SPEC", "--s", "nan"), 1),
    (("oracle", "SPEC", "--s", "1", "--q", "nan"), 1),
    (("oracle", "SPEC", "--s", "1", "--q", "inf"), 1),
])
def test_non_finite_or_out_of_range_parameters_are_typed_errors(
        capsys, spec_path, argv, expected):
    argv = [str(spec_path) if arg == "SPEC" else arg for arg in argv]
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (expected, "")
    assert err.startswith("error: ") and "Traceback" not in err


def test_a_p_below_the_old_radius_grid_is_served(capsys, spec_path):
    # 0.05 lies below the 0.07238 a radius grid ending at 1e6 could take
    code, out, err = _run(capsys, "gamma", "--p", "0.05")
    assert code == 0, err
    assert "gamma_p = 7.3575888241871" in out
    code, out, err = _run(capsys, "bound", str(spec_path), "--p", "0.05", "--s", "1.5")
    assert code == 0, err
    results = json.loads(out)["results"]
    assert all(results["oracle_count"] <= row["bound"] for row in results["bounds"])


def test_a_tiny_p_is_rejected_before_the_rank_sweep(capsys, spec_path):
    code, out, err = _run(capsys, "bound", str(spec_path), "--p", "0.001", "--s", "1.5")
    assert (code, out) == (2, "")
    assert err.startswith("error: p must be at least about 0.0014221")
    assert "no admissible N" not in err


def test_exit_code_malformed_spec(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 3}')
    assert _run(capsys, "bound", str(bad), "--p", "1", "--s", "2")[0] == 3
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{{{{")
    assert _run(capsys, "bound", str(notjson), "--p", "1", "--s", "2")[0] == 3
    huge = tmp_path / "huge.json"
    huge.write_text('{"dim": 2, "norm": "l2", "base": {"kind": "zero"}, '
                    '"perturbation": {"kind": "diagonal", '
                    '"values": [[%d, 0], [1, 0]]}}' % 10 ** 400)
    code, _, err = _run(capsys, "bound", str(huge), "--p", "1", "--s", "2")
    assert code == 3
    assert err.splitlines()[0] == ("error: not valid JSON: number is infinity when parsed "
                                   "as double: line 1 column 101 (char 100)")


def test_exit_code_malformed_coefficients(capsys, tmp_path):
    bad = tmp_path / "coeffs.json"
    bad.write_text('{"not": "a list"}')
    assert _run(capsys, "example-shift", "--coeffs", str(bad))[0] == 3
    infinite = "number is infinity when parsed as double"
    for text, message in (
            ("[true]", "[0]: complex scalars are [re, im] pairs"),
            ('[0.5, "1"]', "[1]: complex scalars are [re, im] pairs"),
            ("[[0.5, 1, 2]]", "[0]: complex scalars are [re, im] pairs"),
            ("[1, 1e400]", f"coefficient file is not JSON: {infinite}: line 1 column 5 (char 4)"),
            ("[NaN]", "coefficient file is not JSON: unexpected character: "
                      "line 1 column 2 (char 1)"),
            ("[[0.5, -Infinity]]", "coefficient file is not JSON: no digit after minus "
                                   "sign: line 1 column 8 (char 7)"),
            ("[0.5, 0.25, %d]" % 10 ** 400,
             f"coefficient file is not JSON: {infinite}: line 1 column 13 (char 12)"),
            ("[[0.5, %d]]" % -10 ** 400,
             f"coefficient file is not JSON: {infinite}: line 1 column 8 (char 7)")):
        bad.write_text(text)
        code, _, err = _run(capsys, "example-shift", "--coeffs", str(bad), "--dims", "8")
        assert code == 3
        assert err.splitlines()[0] == f"error: {message}"


_ZERO_DIAGONAL = (b'{"dim": 2, "norm": "l2", "base": {"kind": "zero"}, '
                  b'"perturbation": {"kind": "diagonal", "values": [[1, 0], %s]}}')


_AT = ": line 1 column {col} (char {at})"


@pytest.mark.parametrize("spec, coeffs, reason, chars", [
    (b'{"dim": \x80}', b"[0.5, \x80]",
     "'utf-8' codec can't decode byte 0x80 in position {at}: invalid start byte", (8, 6)),
    (b'{"dim": 2, "norm": "l2", "base": {"kind": "zero"}, '
     b'"perturbation": {"kind": "dense", "entries": ' + b"[" * 100_000,
     b"[" * 100_000, "unexpected end of data" + _AT, (100_096, 100_000)),
    (_ZERO_DIAGONAL % (b"[1" + b"0" * 4_400 + b", 0]"), b"[0.5, 1" + b"0" * 4_400 + b"]",
     "number is infinity when parsed as double" + _AT, (108, 6)),
    (_ZERO_DIAGONAL % b"[NaN, 0]", b"[0.5, NaN]", "unexpected character" + _AT, (108, 6)),
    (_ZERO_DIAGONAL % b"[0, -Infinity]", b"[0.5, -Infinity]", "no digit after minus sign" + _AT,
     (111, 6)),
    (_ZERO_DIAGONAL % b"[1e400, 0]", b"[0.5, 1e400]",
     "number is infinity when parsed as double" + _AT, (108, 6)),
    (_ZERO_DIAGONAL % b"[0, 1%s]" % (b"0" * 400), b"[0.5, 1%s]" % (b"0" * 400),
     "number is infinity when parsed as double" + _AT, (111, 6)),
    (b'{"dim": 2, "norm": "\\ud800"}', b'[0.5, "\\ud800"]',
     "no matched low surrogate in string" + _AT, (26, 13)),
], ids=["invalid-utf8", "deep-nesting", "oversized-integer", "nan", "minus-infinity",
        "float-overflow", "integer-overflow", "lone-surrogate"])
def test_undecodable_documents_exit_three(capsys, tmp_path, spec, coeffs, reason, chars):
    # the first three were exit 1 before the decoder's errors were mapped: a
    # bare codec message, a RecursionError traceback and a bare
    # integer-conversion message. Invalid UTF-8 gets the codec's message,
    # which names the byte and its position
    doc = tmp_path / "doc.json"
    for raw, at, argv, what in (
            (spec, chars[0], ("bound", str(doc), "--p", "1", "--s", "2"), "not valid JSON"),
            (coeffs, chars[1], ("example-shift", "--coeffs", str(doc), "--dims", "8"),
             "coefficient file is not JSON")):
        doc.write_bytes(raw)
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (3, "")
        assert "Traceback" not in err
        assert err.splitlines()[0] == f"error: {what}: {reason.format(at=at, col=at + 1)}"


def test_deep_balanced_nesting_exits_three(capsys, tmp_path):
    # orjson decodes it; the element checks reject it
    deep = b"[" * 100_000 + b"]" * 100_000
    doc = tmp_path / "doc.json"
    doc.write_bytes(b'{"dim": 2, "norm": "l2", "base": {"kind": "zero"}, '
                    b'"perturbation": {"kind": "dense", "entries": ' + deep + b"}}")
    code, _, err = _run(capsys, "bound", str(doc), "--p", "1", "--s", "2")
    assert code == 3 and "error: perturbation.entries[0]" in err
    doc.write_bytes(deep)
    code, _, err = _run(capsys, "example-shift", "--coeffs", str(doc), "--dims", "8")
    assert code == 3 and "error: [0]: " in err


def _low_rank_doc(tmp_path, dim=128, norm=NormKind.L2):
    # a dense base with ||L0|| = 0.8 in the document's norm and a dense rank-2 K
    # whose two outliers land well outside |lambda| = 1.6
    rng = np.random.default_rng(8)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    order = {NormKind.L1: 1, NormKind.L2: 2, NormKind.LINF: np.inf}[norm]
    l0 = 0.8 * g / np.linalg.norm(g, order)
    u, _ = np.linalg.qr(rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2)))
    k = (u * np.array([2.5, -3.0j])) @ u.conj().T
    doc = tmp_path / "low_rank.json"
    doc.write_text(serialize_spec(OperatorModel(dim, norm, Dense(l0), Dense(k))))
    return doc


@pytest.mark.parametrize("norm", [NormKind.L2, NormKind.L1, NormKind.LINF])
def test_bound_takes_no_svd_of_a_low_rank_k(capsys, tmp_path, svd_shapes, norm):
    # the sketch of K gives alpha and the count, and no norm of the dense L0
    # takes a dim x dim SVD
    doc = _low_rank_doc(tmp_path, norm=norm)
    code, out, err = _run(capsys, "bound", str(doc), "--p", "1", "--s", "1.6")
    assert code == 0, err
    results = json.loads(out)["results"]
    assert results["oracle_count"] == 2
    assert {row["alpha_mode"] for row in results["bounds"]} == (
        {"exact"} if norm is NormKind.L2 else {"upper_bound"})
    # besides: the B of the width-8 sketch, then of its rank + 4 = 6 re-sketch
    assert sorted(svd_shapes) == [(6, 128), (8, 128)]


def test_bound_counts_a_low_rank_model_without_an_eigensolve(capsys, tmp_path,
                                                             monkeypatch, eigvals_calls):
    doc = _low_rank_doc(tmp_path)
    argv = ("bound", str(doc), "--p", "1", "--s", "1.6")
    code, out, err = _run(capsys, *argv)
    assert code == 0, err
    assert eigvals_calls == []
    assert json.loads(out)["results"]["oracle_count"] == 2
    # the eigensolve fallback prints the same bytes
    monkeypatch.setattr("eigencount.bounds.low_rank_count_outside", lambda *args, **kwargs: None)
    assert _run(capsys, *argv)[:2] == (0, out)
    assert len(eigvals_calls) == 1


def test_counts_survive_entries_past_the_frobenius_overflow(capsys, tmp_path, corpus):
    # m07 (zero base, sparse diagonal K, l2, dim 40) has 4 eigenvalues
    # outside 0.5; scaled by 2^520, ||L||_F overflowed and the one cluster
    # left gave the count 0, with only a RuntimeWarning on stderr
    model = corpus[7].model
    scale = 2.0 ** 520
    doc = tmp_path / "m07_scaled.json"
    doc.write_text(serialize_spec(OperatorModel(
        model.dim, model.norm, model.base, Diagonal(model.perturbation.values * scale))))
    s = repr(0.5 * scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, "bound", str(doc), "--p", "1", "--s", s)
        assert code == 0, err
        assert json.loads(out)["results"]["oracle_count"] == 4
        code, out, err = _run(capsys, "oracle", str(doc), "--s", s)
        assert code == 0, err
        assert json.loads(out)["results"]["count"]["value"] == 4


@pytest.mark.parametrize("scale", [1e300, 1e-300])
def test_dense_l2_norm_is_proven_at_extreme_scales(capsys, tmp_path, scale):
    # dim-8 dense l2 documents with ||L0||_2 = 0.8 scale and a rank-one K that
    # moves one eigenvalue out to about 3 scale: a Gram matrix L0^H L0 formed
    # without power-of-two scaling overflows at 1e300 and underflows at 1e-300
    rng = np.random.default_rng(21)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    u = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    l0 = scale * (0.8 * g / np.linalg.norm(g, 2))
    k = scale * 3.0 * np.outer(u, u.conj()) / np.vdot(u, u).real
    doc = tmp_path / "extreme.json"
    doc.write_text(serialize_spec(OperatorModel(8, NormKind.L2, Dense(l0), Dense(k))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, "bound", str(doc), "--p", "1", "--s", repr(2.0 * scale))
    assert code == 0, err
    results = json.loads(out)["results"]
    assert results["norm_l0"] >= float(np.linalg.svd(l0, compute_uv=False)[0])
    assert results["oracle_count"] == 1


def _fresh_env(**variables):
    """The test's environment with src importable, no BLAS thread variable,
    and the given variables set."""
    env = {k: v for k, v in os.environ.items() if k not in cli._BLAS_THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update(variables)
    return env


def _last_line(code: str, *argv: str, env: dict) -> str:
    """The last stdout line of `python -c code argv...`, which must exit 0."""
    run = subprocess.run([sys.executable, "-c", code, *argv],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()[-1]


@pytest.mark.parametrize("code", [
    "import eigencount",
    "import eigencount.cli",
    "from eigencount.cli import main; main(['--help'])",
], ids=["package", "cli", "help"])
def test_the_package_and_the_cli_load_neither_numpy_nor_orjson(code):
    # numpy loads with the first command that computes, orjson with the first decode
    probe = code + "\nimport sys; print(sorted({'numpy', 'orjson'} & set(sys.modules)))"
    assert _last_line(probe, env=_fresh_env()) == "[]"


def test_every_public_name_is_its_defining_modules_object():
    assert eigencount.__all__[0] == "__version__"
    for name in eigencount.__all__[1:]:
        value = getattr(eigencount, name)
        assert getattr(importlib.import_module(value.__module__), name) is value, name
    assert set(eigencount.__all__) <= set(dir(eigencount))
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        eigencount.nope


# Runs the CLI on argv[2:] in a fresh process, then prints its exit code, the
# OPENBLAS_NUM_THREADS that numpy loaded under, and the count numpy's
# OpenBLAS runs at (tests/conftest.py reads it; None without OpenBLAS).
_THREAD_PROBE = """
import json, os, sys
seen = []

class Probe:  # a finder that declines every module and notes numpy's turn
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))

sys.meta_path.insert(0, Probe())
from eigencount.cli import main
code = main(sys.argv[2:])
sys.path.insert(0, sys.argv[1])
from conftest import openblas_thread_count
print(json.dumps([code, seen[0], openblas_thread_count()]))
"""
_BARE_COUNT = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "from conftest import openblas_thread_count; print(openblas_thread_count())")


@pytest.mark.parametrize("argv, variables, expected", [
    (["verify", "--suite", "lambert"], {}, "1"),
    (["bound", _SPEC, "--p", "1", "--s", "1.5"], {}, None),
    (["verify", "--suite", "lambert"], {"OPENBLAS_NUM_THREADS": "2"}, "2"),
    (["verify", "--suite", "lambert"], {"OMP_NUM_THREADS": "2"}, None),
], ids=["verify", "bound", "user-openblas", "user-omp"])
def test_only_verify_starts_numpy_on_one_blas_thread(argv, variables, expected):
    env = _fresh_env(**variables)
    tests = str(ROOT / "tests")
    code, seen, threads = json.loads(_last_line(_THREAD_PROBE, tests, *argv, env=env))
    assert (code, seen) == (0, expected)
    if threads is None:
        pytest.skip("numpy links a BLAS other than its bundled OpenBLAS, "
                    "whose thread count is not read here")
    # a bare numpy import under the variable the CLI left gets the same count
    bare = _last_line(_BARE_COUNT, tests, env=env if expected is None
                      else {**env, "OPENBLAS_NUM_THREADS": expected})
    assert threads == int(bare)
    if expected == "1":
        assert threads == 1


def test_verify_after_numpy_loaded_leaves_the_environment(capsys, monkeypatch):
    # a library caller that already imported numpy keeps its BLAS as it is
    for name in cli._BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    assert "numpy" in sys.modules
    before = dict(os.environ)
    assert _run(capsys, "verify", "--suite", "lambert")[0] == 0
    assert dict(os.environ) == before
