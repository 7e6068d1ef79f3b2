import csv
import dataclasses
import io
import json

import numpy as np
import pytest

from eigencount import (
    DEFAULT,
    Dense,
    NormKind,
    OperatorModel,
    SuiteResult,
    Zero,
    prepare,
    serialize_spec,
)
from eigencount.cli import main


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
    assert kinds == ["disk_phi", "disk_simple", "region"]
    for row in results["bounds"]:
        assert results["oracle_count"] <= row["bound"]
        assert row["certified"] is True
    assert results["oracle_count"] == 1
    assert "wall_time_s=" in err


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
    assert len(rows) == 4  # header + three bound kinds
    assert {row[0] for row in rows[1:]} == {"disk_phi", "disk_simple", "region"}


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
    assert [row["kind"] for row in results["bounds"]] == ["region"]

    code, out, _ = _run(capsys, "bound", str(spec_path), "--p", "1",
                        "--point", "5,0")
    assert json.loads(out)["results"]["oracle_count"] == 0


def test_bound_empirical_mode_adds_uncertified_row(capsys, spec_path):
    code, out, _ = _run(capsys, "bound", str(spec_path), "--p", "1",
                        "--s", "1.5", "--mode", "empirical")
    assert code == 0
    rows = json.loads(out)["results"]["bounds"]
    assert len(rows) == 4
    extra = rows[-1]
    certified_region = rows[2]
    assert extra["certified"] is False
    assert extra["bound"] <= certified_region["bound"] * (1 + 1e-9)


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
    assert [row["kind"] for row in rows] == [
        "disk_phi", "disk_simple", "region", "region"]
    assert rows[-1]["certified"] is False
    assert rows[-1]["t_star"] == rows[2]["t_star"]
    assert all(results["oracle_count"] <= row["bound"] for row in rows)


def test_bound_computes_each_singular_value_set_once(capsys, tmp_path,
                                                     monkeypatch):
    # ||L0|| and the approximation numbers of K need one SVD each on l2;
    # a zero base adds the koenig_classical row, which needs one more
    rng = np.random.default_rng(3)
    l0, k = (rng.standard_normal((2, 16, 16))
             + 1j * rng.standard_normal((2, 16, 16)))
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    for base, most in ((Dense(0.1 * l0), 2), (Zero(), 3)):
        doc = tmp_path / "dense.json"
        doc.write_text(serialize_spec(OperatorModel(16, NormKind.L2, base,
                                                    Dense(k))))
        calls.clear()
        code, _, err = _run(capsys, "bound", str(doc), "--p", "1", "--s", "3")
        assert code == 0, err
        assert len(calls) <= most


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
                        "--dims", "8,16")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:2] == ["dim", "excess_sum"]
    assert [row[0] for row in rows[1:]] == ["8", "16"]
    for row in rows[1:]:
        assert float(row[1]) == pytest.approx(1.0, abs=1e-9)
        assert row[2] == "1"   # one eigenvalue above radius 1
        assert row[-1] == "0"  # none above radius 2


def test_example_shift_lacunary_family(capsys):
    code, out, _ = _run(capsys, "example-shift", "--family", "lacunary",
                        "--dims", "8,16,32")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    sums = [float(row[1]) for row in rows[1:]]
    assert sums == sorted(sums)


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


def test_exit_code_inadmissible(capsys, spec_path):
    code, _, err = _run(capsys, "bound", str(spec_path), "--p", "1", "--s", "0.5")
    assert code == 2
    assert "error:" in err
    assert _run(capsys, "gamma", "--p", "-2")[0] == 2


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
    assert "error: perturbation.values[0]: " in err


def test_exit_code_malformed_coefficients(capsys, tmp_path):
    bad = tmp_path / "coeffs.json"
    bad.write_text('{"not": "a list"}')
    assert _run(capsys, "example-shift", "--coeffs", str(bad))[0] == 3
    bad.write_text('[true]')
    assert _run(capsys, "example-shift", "--coeffs", str(bad))[0] == 3
    for text, where in (("[1, 1e400]", "[1]"), ("[NaN]", "[0]"),
                        ("[[0.5, -Infinity]]", "[0]"), ("[0.5, 0.25, %d]" % 10 ** 400, "[2]"),
                        ("[[0.5, %d]]" % -10 ** 400, "[0]")):
        bad.write_text(text)
        code, _, err = _run(capsys, "example-shift", "--coeffs", str(bad), "--dims", "8")
        assert code == 3
        assert f"error: {where}: " in err
