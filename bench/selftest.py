"""Fast self-test of the benchmark at tiny sizes.

Usage: python3 bench/selftest.py    (about a minute; exit code 0 on success)

Checks that
- traced operations print byte-identical stdout to untraced ones,
- every metric named in BENCHMARK.json, and every per-layer metric of the
  trace summary, is emitted with its unit,
- doctored reports (a certified bound below the reference count, a wrong
  oracle count, a verify failure) count as failures,
- the benchmark exits non-zero without a result when the sources are absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

sys.path.insert(0, str(run.ROOT / "src"))
import traced  # noqa: E402  (imports eigencount)
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "cli-dense-l2": {"dim": 40},
    "cli-empirical-l1": {"dim": 30},
    "verify-all": {"suite": "jensen"},
}

problems: list[str] = []


def expect(ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def _cli(argv, *, trace_path=None):
    env = run.child_env(run.ROOT / "src")
    if trace_path is None:
        cmd = [sys.executable, "-m", "eigencount.cli", *argv]
    else:
        cmd = [sys.executable, str(run.BENCH_DIR / "traced.py"),
               str(trace_path), *argv]
    return subprocess.run(cmd, capture_output=True, env=env, cwd=run.ROOT,
                          timeout=120)


def traced_output_is_identical(tmp: Path) -> None:
    for name, params in TINY.items():
        workload = WORKLOADS[name](7, tmp, **params)
        plain = _cli(workload.argv)
        with_trace = _cli(workload.argv, trace_path=tmp / "trace.jsonl")
        expect(plain.returncode == with_trace.returncode == 0,
               f"{name}: exit codes {plain.returncode}, "
               f"{with_trace.returncode}")
        expect(plain.stdout == with_trace.stdout,
               f"{name}: traced stdout differs from untraced stdout")
        expect(workload.check(0, plain.stdout.decode()) is None,
               f"{name}: correct output rejected: "
               f"{workload.check(0, plain.stdout.decode())}")


def named_metrics_are_emitted() -> None:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for section, table in (("end_to_end", run.END_TO_END),
                           ("per_layer", run.PER_LAYER)):
        units = {m["name"]: m["unit"] for m in declared[section]}
        expect(units == table,
               f"BENCHMARK.json {section} differs from bench/run.py")
    layer_names = {f"{module}.{fn}" for module, fns in traced.TRACED.items()
                   for fn in fns} | {f"verify.{s}" for s in traced.SUITES}
    for name, params in TINY.items():
        for trace, table in ((False, run.END_TO_END), (True, run.PER_LAYER)):
            out = run.run(name, 7, 0.0, trace, params)
            result = out["result"]
            expect(result["correct"] and result["failed"] == 0,
                   f"{name} trace={trace}: {out['summary']['failures']}")
            expect(set(result["metrics"]) == set(table),
                   f"{name} trace={trace}: metrics differ from the declared")
            expect(all(m["unit"] == table[k]
                       for k, m in result["metrics"].items()),
                   f"{name} trace={trace}: a unit differs")
            if trace:
                layers = out["summary"]["layers"]
                for layer in layer_names:
                    spent = ("wall_s" if layer.startswith("verify")
                             else "self_s")
                    expect(f"{layer}.calls" in layers
                           and f"{layer}.{spent}" in layers,
                           f"{name}: no per-layer metrics for {layer}")
                expect("operators.parse_spec.mb_per_s" in layers,
                       f"{name}: no parse rate")


def doctored_reports_fail(tmp: Path) -> None:
    workload = WORKLOADS["cli-empirical-l1"](7, tmp, **TINY["cli-empirical-l1"])
    report = json.loads(_cli(workload.argv).stdout)

    low = json.loads(json.dumps(report))
    row = next(r for r in low["results"]["bounds"]
               if r["admissible"] and r["certified"])
    row["bound"] = workload.reference - 0.5
    expect(workload.check(0, json.dumps(low)) is not None,
           "a certified bound below the reference count passed the check")

    wrong = json.loads(json.dumps(report))
    wrong["results"]["oracle_count"] = workload.reference + 1
    expect(workload.check(0, json.dumps(wrong)) is not None,
           "a wrong oracle count passed the check")
    expect(workload.check(2, json.dumps(report)) is not None,
           "a non-zero exit code passed the check")
    expect(workload.check(0, "not json") is not None,
           "a report that is not JSON passed the check")

    verify = WORKLOADS["verify-all"](7, tmp, **TINY["verify-all"])
    table = _cli(verify.argv).stdout.decode()
    failing = table.replace("  0  pass", "  1  FAIL")
    expect(failing != table and verify.check(0, failing) is not None,
           "a verify table with failures passed the check")


def fails_without_sources() -> None:
    with tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_out") as tmp:
        bare = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH_DIR, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "verify-all",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, cwd=bare, timeout=120)
        expect(done.returncode != 0 and not done.stdout.strip(),
               "run.py succeeded or printed a result without the sources")


def main() -> int:
    (run.ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_out") as tmp:
        traced_output_is_identical(Path(tmp))
        doctored_reports_fail(Path(tmp))
    named_metrics_are_emitted()
    fails_without_sources()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
