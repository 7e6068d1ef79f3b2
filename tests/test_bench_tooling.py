import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from eigencount import ApproxSequence

ROOT = Path(__file__).resolve().parents[1]
TRACED_PATH = ROOT / "bench" / "traced.py"


def test_traced_functions_still_exist():
    # loading the module defines its tables without installing any wrapper
    spec = importlib.util.spec_from_file_location("bench_traced", TRACED_PATH)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    for module, names in traced.TRACED.items():
        for name in names:
            holder = (ApproxSequence if name == "head_power_sum"
                      else traced.MODULES[module])
            assert callable(getattr(holder, name, None)), f"{module}.{name}"


def test_traced_verify_matches_the_plain_cli(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    args = ["verify", "--suite", "lambert", "--seed", "0"]
    trace = tmp_path / "trace.jsonl"
    traced = subprocess.run(
        [sys.executable, str(TRACED_PATH), str(trace), *args],
        capture_output=True, text=True, env=env, timeout=300)
    plain = subprocess.run(
        [sys.executable, "-m", "eigencount.cli", *args],
        capture_output=True, text=True, env=env, timeout=300)
    assert traced.returncode == 0, traced.stderr
    assert plain.returncode == 0, plain.stderr
    assert traced.stdout == plain.stdout
    summary = json.loads(trace.read_text().splitlines()[-1])["summary"]
    assert summary["verify.suite_lambert.calls"] == 1
