import importlib.util
from pathlib import Path

from eigencount import ApproxSequence

TRACED_PATH = Path(__file__).resolve().parents[1] / "bench" / "traced.py"


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
