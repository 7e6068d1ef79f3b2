"""Closed-loop benchmark of the eigencount CLI; see bench/README.md.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository. One client runs
one operation at a time; each operation is a fresh
`python -m eigencount.cli ...` process, so every operation pays
interpreter start-up, imports and the cold gamma_p cache, as a CLI user
does. Inputs are generated from --seed. Every operation's output is
checked. The last stdout line is one JSON object: with --trace 0 it holds
the end-to-end metrics, with --trace 1 the per-layer metrics of traced
operations (alternated with untraced ones to measure the tracing
overhead).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

RUN_LIMIT_S = 170.0      # every run ends within 180 s
SETUP_IMPORTS = 4        # timed `import eigencount` processes at set-up
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS")
THREADS_ENV = "EIGENCOUNT_THREADS"

END_TO_END = {"op_p50_s": "s", "op_cpu_p50_s": "s", "peak_rss_mb": "MB",
              "setup_s": "s"}

# Per-layer metrics in the result line. Counts cover every traced
# function; times only those that run on every workload, so that no time
# reads 0 on every run of a workload. The trace summary line on stdout
# carries every per-layer metric, the times of the others included.
_COUNTED = (
    "operators.parse_spec", "operators.materialize",
    "numerics.eigenvalues", "numerics.singular_values",
    "numerics.induced_norm", "numerics.resolvent", "numerics.numerical_rank",
    "approx.approx_numbers", "approx.rank_n_approximant",
    "approx.head_power_sum",
    "determinants.gamma_p_upper", "determinants.perturbation_determinant",
    "determinants.det_bound_rhs",
    "bounds.count_bound_disk", "bounds.count_bound_disk_simple",
    "bounds.count_bound_region", "bounds.moment_bound",
    "bounds.koenig_count_bound", "bounds.pseudospectral_epsilon",
    "bounds.phi_p", "bounds.t_star",
    "oracle.eigen_count_outside", "oracle.count_curve", "oracle.moment_sum",
    "oracle.winding_count", "oracle.jensen_check",
    "verify.soundness_sweep",
)
_TIMED_EVERYWHERE = (
    "operators.materialize", "numerics.eigenvalues",
    "numerics.singular_values", "numerics.induced_norm",
    "approx.approx_numbers", "approx.head_power_sum",
    "determinants.gamma_p_upper", "bounds.count_bound_disk",
    "bounds.count_bound_disk_simple", "bounds.count_bound_region",
    "bounds.phi_p", "bounds.t_star", "oracle.eigen_count_outside",
)
PER_LAYER = {
    **{f"{name}.calls": "count" for name in _COUNTED},
    **{f"{name}.self_s": "s" for name in _TIMED_EVERYWHERE},
    "numerics.singular_values.work_n3": "n3_computed",
    "numerics.eigenvalues.work_n3": "n3_computed",
    "numerics.resolvent.work_n3": "n3_computed",
    "numerics.singular_values.distinct_frac": "frac",
    "determinants.gamma_p_upper.cache_misses": "count",
    **{f"{module}.errors": "count" for module in (
        "operators", "numerics", "approx", "determinants", "bounds",
        "oracle", "verify", "cli")},
    "cli.self_s": "s",
    "trace_overhead_frac": "frac",
}


class SetupError(RuntimeError):
    """The benchmark cannot run in this directory."""


def _source_dir() -> Path:
    src = ROOT / "src"
    if not (src / "eigencount" / "__init__.py").is_file():
        raise SetupError(f"no eigencount sources under {src}")
    return src


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


# --- the machine -------------------------------------------------------------


def _blas_runtime_threads() -> int | None:
    # numpy is loaded, so its BLAS is mapped into this process; ask it.
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps
                    if "blas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def machine_description() -> dict:
    """The environment every number depends on, recorded as found."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads_runtime": _blas_runtime_threads(),
        "blas_thread_env": {name: os.environ.get(name) for name in BLAS_ENV},
        THREADS_ENV: os.environ.get(THREADS_ENV),
    }


# --- one operation -----------------------------------------------------------


class Op:
    """Wall time, child CPU time and max RSS of one finished process."""

    def __init__(self, cmd: list[str], env: dict, out_dir: Path,
                 timeout: float):
        out_path, err_path = out_dir / "stdout", out_dir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env,
                                    cwd=ROOT)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            self.wall_s = time.perf_counter() - start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.stdout = out_path.read_text()
        self.stderr = err_path.read_text()


# --- the run -----------------------------------------------------------------


def _median(values) -> float:
    return float(statistics.median(values))


def _trace_summary(path: Path) -> dict:
    # the summary is the last line of a trace that can run to megabytes
    try:
        with open(path, "rb") as trace_file:
            trace_file.seek(max(0, path.stat().st_size - (1 << 20)))
            last = trace_file.read().splitlines()[-1]
        return json.loads(last)["summary"]
    except (OSError, IndexError, ValueError, KeyError) as exc:
        raise SetupError(f"traced operation left no summary: {exc!r}")


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        params: dict | None = None) -> dict:
    """Set up, measure for `seconds` (at least one operation) and report.

    params overrides the workload's sizes; the self-test makes them tiny.
    """
    started = time.perf_counter()
    src = _source_dir()
    env = child_env(src)
    work_dir = ROOT / ".bench_out" / workload_name
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    workload = WORKLOADS[workload_name](seed, work_dir, **(params or {}))
    cli = [sys.executable, "-m", "eigencount.cli", *workload.argv]
    traced = [sys.executable, str(BENCH_DIR / "traced.py"),
              str(work_dir / "trace.jsonl"), *workload.argv]

    def op(cmd) -> Op:
        left = RUN_LIMIT_S - (time.perf_counter() - started)
        return Op(cmd, env, work_dir, max(1.0, left))

    # set-up: fresh imports (the first one fills the bytecode cache), and
    # one read of the document, so that every timed operation finds it in
    # the file cache. More imports are timed before every operation, so
    # that setup_s does not rest on one moment's load.
    import_cmd = [sys.executable, "-c", "import eigencount"]
    imports = [op(import_cmd) for _ in range(1 + SETUP_IMPORTS)][1:]
    if any(i.code for i in imports):
        raise SetupError(f"import eigencount failed: {imports[0].stderr}")
    if workload.doc_path is not None:
        workload.doc_path.read_bytes()

    plain: list[Op] = []
    with_trace: list[Op] = []
    layers: list[dict] = []
    failures: list[str] = []

    def measure(cmd, into: list) -> None:
        result = op(cmd)
        into.append(result)
        reason = workload.check(result.code, result.stdout)
        if reason is not None:
            failures.append(reason)
        if cmd is traced:
            layers.append(_trace_summary(work_dir / "trace.jsonl"))

    # The loop starts another round while the round, at the median length
    # of those so far, would end no more than half a round past the
    # deadline. Runs then measure `seconds` on average, give or take half
    # a round, instead of overrunning by up to a whole round every time.
    rounds: list[float] = []
    deadline = time.perf_counter() + seconds
    while not rounds or (time.perf_counter() + 0.5 * _median(rounds)
                         < deadline):
        round_start = time.perf_counter()
        imports.append(op(import_cmd))
        if trace:
            # alternate which of the pair goes first
            order = ((cli, plain), (traced, with_trace))
            for cmd, into in order[::1 if len(plain) % 2 == 0 else -1]:
                measure(cmd, into)
        else:
            measure(cli, plain)
        rounds.append(time.perf_counter() - round_start)
        if time.perf_counter() - started > RUN_LIMIT_S - 10.0:
            break

    attempted = len(plain) + len(with_trace)
    summary = {
        "workload": workload_name, "seed": seed, "argv": list(workload.argv),
        "doc_bytes": workload.doc_bytes, "reference_count": workload.reference,
        "samples": len(plain), "traced_samples": len(with_trace),
        "attempted": attempted, "failed": len(failures),
        "fail_frac": len(failures) / attempted, "failures": failures[:5],
        "op_wall_s": [o.wall_s for o in plain],
        "import_wall_s": [o.wall_s for o in imports],
    }
    if trace:
        table = {k: _median(layer[k] for layer in layers) for k in layers[0]}
        table["trace_overhead_frac"] = (
            _median(o.wall_s for o in with_trace)
            / _median(o.wall_s for o in plain) - 1.0)
        summary["layers"] = table
        metrics = {k: {"value": table[k], "unit": unit}
                   for k, unit in PER_LAYER.items()}
    else:
        metrics = {
            "op_p50_s": _median(o.wall_s for o in plain),
            "op_cpu_p50_s": _median(o.cpu_s for o in plain),
            "peak_rss_mb": max(o.rss_mb for o in plain),
            "setup_s": _median(i.wall_s for i in imports),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in metrics.items()}
    return {"summary": summary, "result": {
        "correct": not failures, "attempted": attempted,
        "failed": len(failures), "metrics": metrics}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"machine": machine_description()}))
    print(json.dumps({"run": out["summary"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
