"""Run one eigencount CLI operation with spans around the public layer calls.

Usage: python bench/traced.py TRACE_PATH CLI_ARG...

The program itself is not changed: the listed public functions are wrapped
in every eigencount module that imported them, then cli.main runs with the
given arguments, so stdout is the program's own output. When main returns,
every span and a summary of per-layer counters are written to TRACE_PATH
as JSON lines, and the process exits with main's exit code.

A span records its name, thread, parent span, start and end. Self time is
a span's duration minus the durations of its direct children in the same
thread; the span stack is thread-local, so spans opened by the verify
thread pool are roots in their worker threads.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np

import eigencount
from eigencount import (approx, bounds, cli, determinants, numerics, operators,
                        oracle, verify)

# Public functions wrapped per module; verify's are reported as wall time.
TRACED = {
    "operators": ("parse_spec", "materialize"),
    "numerics": ("eigenvalues", "singular_values", "induced_norm", "resolvent",
                 "numerical_rank"),
    "approx": ("approx_numbers", "rank_n_approximant", "head_power_sum"),
    "determinants": ("gamma_p_upper", "perturbation_determinant",
                     "det_bound_rhs"),
    "bounds": ("count_bound_disk", "count_bound_disk_simple",
               "count_bound_region", "moment_bound", "koenig_count_bound",
               "pseudospectral_epsilon", "phi_p", "t_star"),
    "oracle": ("eigen_count_outside", "count_curve", "moment_sum",
               "winding_count", "jensen_check"),
    "verify": ("soundness_sweep",),
}
SUITES = tuple(f"suite_{name}" for name in verify.SUITE_NAMES)
WALL_ONLY = {"verify"}
N3_COUNTED = ("singular_values", "eigenvalues", "resolvent")
GAMMA_CACHE = determinants.gamma_p_upper   # the lru_cache, before wrapping
MODULES = {"operators": operators, "numerics": numerics, "approx": approx,
           "determinants": determinants, "bounds": bounds, "oracle": oracle,
           "verify": verify, "cli": cli}


SPAN_FIELDS = ("id", "parent", "thread", "name", "start", "end", "error")


class Tracer:
    """In-memory span log; spans are kept until the run ends."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.spans = []          # SPAN_FIELDS tuples
        self.work_n3 = defaultdict(int)
        self.svd_inputs = set()
        self.parse_bytes = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        error = False
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            error = True
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, threading.get_ident(), name,
                               start, end, error))

    def count_input(self, fn_name: str, args) -> None:
        if fn_name == "parse_spec":
            self.parse_bytes += len(args[0])
            return
        m = np.asarray(args[0], dtype=complex)
        if m.ndim == 2:
            with self._lock:
                self.work_n3[fn_name] += m.shape[0] ** 3
        if fn_name == "singular_values":
            digest = hashlib.blake2b(np.ascontiguousarray(m).tobytes(),
                                     digest_size=16).hexdigest()
            with self._lock:
                self.svd_inputs.add((m.shape, digest))


def _wrap(tracer: Tracer, module: str, name: str, fn):
    counted = name in N3_COUNTED or name == "parse_spec"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if counted:
            tracer.count_input(name, args)
        return tracer.call(f"{module}.{name}", fn, args, kwargs)

    return wrapper


def install(tracer: Tracer) -> None:
    """Replace each traced function wherever an eigencount module holds it."""
    holders = list(MODULES.values()) + [eigencount]
    for module, names in TRACED.items():
        for name in names:
            if name == "head_power_sum":
                original = approx.ApproxSequence.head_power_sum
                approx.ApproxSequence.head_power_sum = _wrap(
                    tracer, module, name, original)
                continue
            original = getattr(MODULES[module], name)
            wrapped = _wrap(tracer, module, name, original)
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapped)

    # The suites dispatch through a private table, so each suite is timed
    # around its own run_suites call.
    run_suites = verify.run_suites

    def suites_by_name(names, seed=0, tol=eigencount.DEFAULT):
        results = []
        for name in names:
            for one in (verify.SUITE_NAMES if name == "all" else (name,)):
                results.extend(tracer.call(
                    f"verify.suite_{one}", run_suites, ([one],),
                    {"seed": seed, "tol": tol}))
        return results

    cli.run_suites = suites_by_name


def summary(tracer: Tracer) -> dict:
    """Per-layer metrics of the run, one value per name."""
    child_time = defaultdict(float)
    for _, parent, _, _, start, end, _ in tracer.spans:
        if parent is not None:
            child_time[parent] += end - start
    calls, self_s, wall_s, errors = (defaultdict(int), defaultdict(float),
                                     defaultdict(float), defaultdict(int))
    for span_id, _, _, name, start, end, error in tracer.spans:
        calls[name] += 1
        wall_s[name] += end - start
        self_s[name] += end - start - child_time[span_id]
        errors[name.split(".")[0]] += error

    out = {}
    for module, names in TRACED.items():
        for fn in names + (SUITES if module == "verify" else ()):
            key = f"{module}.{fn}"
            out[f"{key}.calls"] = calls[key]
            if module in WALL_ONLY:
                out[f"{key}.wall_s"] = wall_s[key]
            else:
                out[f"{key}.self_s"] = self_s[key]
    parse_s = wall_s["operators.parse_spec"]
    out["operators.parse_spec.mb_per_s"] = (
        tracer.parse_bytes / 1e6 / parse_s if parse_s > 0 else 0.0)
    for fn in N3_COUNTED:
        out[f"numerics.{fn}.work_n3"] = tracer.work_n3[fn]
    svd_calls = calls["numerics.singular_values"]
    out["numerics.singular_values.distinct_frac"] = (
        len(tracer.svd_inputs) / svd_calls if svd_calls else 0.0)
    out["determinants.gamma_p_upper.cache_misses"] = (
        GAMMA_CACHE.cache_info().misses)
    for module in MODULES:
        out[f"{module}.errors"] = errors[module]
    out["cli.self_s"] = self_s["cli.main"]
    return out


def write_trace(tracer: Tracer, path: str) -> None:
    """A field-name header, one JSON array per span, then the summary."""
    with open(path, "w") as out:
        out.write(json.dumps({"span_fields": SPAN_FIELDS}) + "\n")
        for span_id, parent, thread, name, start, end, error in tracer.spans:
            out.write(f'[{span_id},{"null" if parent is None else parent},'
                      f'{thread},"{name}",{start!r},{end!r},'
                      f'{"true" if error else "false"}]\n')
        out.write(json.dumps({"summary": summary(tracer)}) + "\n")


def main(argv: list[str]) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    try:
        code = tracer.call("cli.main", cli.main, (cli_args,), {})
    finally:
        sys.stdout.flush()
        write_trace(tracer, trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
