"""Command-line front end.

Subcommands: bound (certified bounds on the count outside |lam| = s plus
the oracle count; --point lam0 reads the same rows at s = |lam0| against
the multiplicity of lam0), oracle (brute-force counts, curves, moment
sums), verify (the seeded property suites), gamma (the scalar envelope
constant), and example-shift (the shift plus rank-one family sweep).

Reports are JSON with sorted keys so identical invocations produce
byte-identical output in certified mode; wall time goes to stderr.
Exit codes: 0 success, 1 I/O, usage or an allocation that fails,
2 inadmissible parameters, 3 malformed operator spec, 4 verification
counterexample.

Arguments are parsed before numpy loads, and each subcommand imports only
the modules it uses; every command starts numpy's OpenBLAS on one thread
unless the environment already chose a count or numpy is already loaded.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import os
import sys
import time
from itertools import chain
from pathlib import Path

from . import __version__
from .config import DEFAULT, SUITE_NAMES
from .errors import EigencountError, SpecFormatError

_EXAMPLE_RADII = (1.0, 1.1, 1.25, 1.5, 2.0)
# the variables OpenBLAS reads its thread count from, when numpy loads it
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


class _Parser(argparse.ArgumentParser):
    # usage problems are exit code 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _point_type(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected a point as re,im")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad point {text!r}: {exc}") from exc


def _rank_type(text: str):
    if text == "auto":
        return None
    try:
        return int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            "rank must be 'auto' or an integer") from exc


def _dims_type(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            "dims must be comma-separated integers") from exc
    if not dims or any(d < 1 for d in dims):
        raise argparse.ArgumentTypeError("dims must be positive")
    if any(b <= a for a, b in zip(dims, dims[1:])):
        raise argparse.ArgumentTypeError("dims must be strictly increasing")
    return dims


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="eigencount",
                     description="Certified eigenvalue-count bounds and their oracles.")
    parser.set_defaults(handler=None)
    sub = parser.add_subparsers(dest="command")

    bound = sub.add_parser("bound", help="count bound outside a disk or at a point")
    bound.add_argument("spec", help="operator spec JSON path")
    bound.add_argument("--p", type=float, required=True, help="summability exponent")
    where = bound.add_mutually_exclusive_group(required=True)
    where.add_argument("--s", type=float, help="target disk radius")
    where.add_argument("--point", type=_point_type, help="target point re,im")
    bound.add_argument("--n", type=_rank_type, default=None,
                       help="approximant rank, 'auto' sweeps all (default)")
    bound.add_argument("--mode", choices=("certified", "empirical"),
                       default="certified")
    bound.add_argument("--out", default=None, help="output path (default stdout)")
    bound.add_argument("--format", choices=("json", "csv"), default="json")
    bound.set_defaults(handler=_cmd_bound)

    oracle = sub.add_parser("oracle", help="brute-force counts and moments")
    oracle.add_argument("spec", help="operator spec JSON path")
    what = oracle.add_mutually_exclusive_group()
    what.add_argument("--s", type=float, help="count eigenvalues of modulus above s")
    what.add_argument("--curve", action="store_true",
                      help="emit the whole piecewise-constant count curve")
    oracle.add_argument("--q", type=float, default=None,
                        help="also sum (|eig| - ||L0||)^q over |eig| > ||L0||")
    oracle.add_argument("--out", default=None)
    oracle.add_argument("--format", choices=("json", "csv"), default="json")
    oracle.set_defaults(handler=_cmd_oracle)

    verify = sub.add_parser("verify", help="run the seeded property suites")
    verify.add_argument("--suite", choices=("all",) + SUITE_NAMES, default="all")
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(handler=_cmd_verify)

    gamma = sub.add_parser("gamma", help="certified scalar envelope constant")
    gamma.add_argument("--p", type=float, required=True)
    gamma.set_defaults(handler=_cmd_gamma)

    example = sub.add_parser("example-shift",
                             help="shift plus rank-one family across dimensions")
    coeffs = example.add_mutually_exclusive_group(required=True)
    coeffs.add_argument("--coeffs", help="JSON file with the coefficient list")
    coeffs.add_argument("--family", choices=("lacunary",),
                        help="built-in coefficient family")
    example.add_argument("--dims", type=_dims_type, default=(8, 16, 32, 64, 128))
    example.add_argument("--out", default=None)
    example.set_defaults(handler=_cmd_example_shift)
    return parser


# --- report plumbing --------------------------------------------------------


def _assemble(command: str, arguments: dict, raw: bytes, results: dict,
              mode: str, alpha_mode: str | None) -> dict:
    return {
        "command": command,
        "arguments": arguments,
        "input_digest": "sha256:" + hashlib.sha256(raw).hexdigest(),
        "library_version": __version__,
        "mode": mode,
        "config": {"tolerances": dataclasses.asdict(DEFAULT), "alpha_mode": alpha_mode},
        "results": results,
    }


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _emit_json(report: dict, out: str | None) -> None:
    _write_text(json.dumps(report, sort_keys=True, indent=2) + "\n", out)


def _emit_csv(rows, out: str | None) -> None:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    _write_text(buffer.getvalue(), out)


def _bound_csv(rows: list[dict]):
    """The header, then one row per report: a column per BoundReport field in
    to_dict's order, two (re, im) for the complex target."""
    yield list(chain.from_iterable((f"{k}_re", f"{k}_im") if isinstance(v, list) else (k,)
                                   for k, v in rows[0].items()))
    for row in rows:
        cells = chain.from_iterable(v if isinstance(v, list) else (v,) for v in row.values())
        yield ["" if v is None else v for v in cells]


# --- subcommands ------------------------------------------------------------


def _cmd_bound(args) -> int:
    from .bounds import certified_rows, count_bound_region, prepare, pseudospectral_epsilon
    from .operators import parse_spec
    raw = Path(args.spec).read_bytes()
    model = parse_spec(raw)
    prep = prepare(model)

    # every bound checks its admissibility before the oracle's eigensolve; a
    # point lam0 reads the rows at s = |lam0|, which also cap the count on the circle
    s = args.s if args.point is None else abs(args.point)
    reports = certified_rows(prep, args.p, s, n_rank=args.n)
    if args.mode == "empirical":
        # same circle as the certified optimum, gap measured by sampling; it
        # follows the two disk rows
        t = reports[0].t_star
        reports.insert(2, count_bound_region(prep, args.p, s, t, n_rank=args.n,
                                             epsilon=pseudospectral_epsilon(prep, t)))

    if args.point is None:
        oracle = prep.count_outside(s)
    else:  # the multiplicity of the point, to the spectrum's clustering radius
        spec = prep.spectrum
        oracle = int(spec.multiplicities[abs(spec.values - args.point)
                                         <= spec.radius].sum())
    rows = [r.with_oracle(oracle).to_dict() for r in reports]
    results = {
        "dim": model.dim,
        "norm": model.norm.value,
        "norm_l0": prep.norm_l0,
        "norm_k": prep.norm_k,
        "oracle_count": oracle,
        "bounds": rows,
        "best_bound": min(r["bound"] for r in rows
                          if r["admissible"] and r["certified"]),
    }
    arguments = {
        "spec": args.spec, "p": args.p, "s": args.s,
        "point": None if args.point is None
        else [args.point.real, args.point.imag],
        "n": "auto" if args.n is None else args.n,
        "mode": args.mode, "format": args.format,
    }
    report = _assemble("bound", arguments, raw, results, args.mode,
                       reports[0].alpha_mode.value)
    if args.format == "json":
        _emit_json(report, args.out)
    else:
        _emit_csv(_bound_csv(rows), args.out)
    return 0


def _cmd_oracle(args) -> int:
    if args.s is None and not args.curve and args.q is None:
        raise ValueError("nothing to compute: pass --s, --curve, or --q")
    from .bounds import prepare
    from .operators import parse_spec
    from .oracle import count_curve, eigen_count_outside, moment_sum
    raw = Path(args.spec).read_bytes()
    model = parse_spec(raw)
    prep = prepare(model)
    spec, norm_l0 = prep.spectrum, prep.norm_l0

    results: dict = {"dim": model.dim, "norm": model.norm.value,
                     "norm_l0": norm_l0}
    csv_rows: list[list] = []
    if args.s is not None:
        count = eigen_count_outside(spec, args.s)
        results["count"] = {"s": args.s, "value": count}
        csv_rows.append(["count", args.s, count])
    if args.curve:
        curve = count_curve(spec)
        pairs = [[float(r), int(c)] for r, c in zip(curve.radii, curve.counts)]
        results["curve"] = {"breakpoints": pairs}
        csv_rows.extend(["curve", r, c] for r, c in pairs)
    if args.q is not None:
        moment = moment_sum(spec, norm_l0, args.q)
        results["moment"] = {"q": args.q, "base": norm_l0, "value": moment}
        csv_rows.append(["moment", args.q, moment])

    arguments = {"spec": args.spec, "s": args.s, "curve": args.curve,
                 "q": args.q, "format": args.format}
    report = _assemble("oracle", arguments, raw, results,
                       "certified", None)
    if args.format == "json":
        _emit_json(report, args.out)
    else:
        _emit_csv([("kind", "x", "value"), *csv_rows], args.out)
    return 0


def run_suites(names, seed=0):
    """verify.run_suites, which loads verify on the first call; bench/traced.py
    puts a timed version in this name's place."""
    from .verify import run_suites
    return run_suites(names, seed=seed)


def _cmd_verify(args) -> int:
    results = run_suites([args.suite], seed=args.seed)
    width = max(len(r.name) for r in results)
    print(f"{'suite':<{width}}  {'checks':>8}  {'failures':>8}  status")
    total_checks = total_failures = 0
    first_failure = None
    for result in results:
        status = "pass" if result.ok else "FAIL"
        print(f"{result.name:<{width}}  {result.checks:>8}  "
              f"{result.failure_count:>8}  {status}")
        total_checks += result.checks
        total_failures += result.failure_count
        if first_failure is None and result.failures:
            first_failure = {"suite": result.name, **result.failures[0]}
    print(f"{'total':<{width}}  {total_checks:>8}  {total_failures:>8}  "
          f"{'pass' if total_failures == 0 else 'FAIL'}")
    if total_failures:
        print("first counterexample:")
        print(json.dumps(first_failure, sort_keys=True, indent=2))
        return 4
    return 0


def _cmd_gamma(args) -> int:
    from .determinants import gamma_p_upper
    gamma = gamma_p_upper(args.p)
    print(f"p = {gamma.p!r}")
    print(f"gamma_p = {gamma.value!r}")
    print(f"r_star = {gamma.r_star!r}")
    print(f"c_p = {gamma.c_p!r}")
    return 0


def _load_coefficients(path: str):
    from .operators import _as_complex_array, _decode_json
    data = _decode_json(Path(path).read_bytes(), "coefficient file is not JSON")
    if not isinstance(data, list) or not data:
        raise SpecFormatError("coefficient file must hold a non-empty list")
    # a bare number x is the pair [x, 0]; the block reader checks the rest
    return _as_complex_array([[x, 0] if type(x) in (int, float) else x for x in data], "", 1)


def _cmd_example_shift(args) -> int:
    from .bounds import prepare
    from .oracle import eigen_count_outside, lacunary_coefficients, moment_sum, shift_example
    fixed = None if args.coeffs is None else _load_coefficients(args.coeffs)
    header = ["dim", "excess_sum"] + [f"n_above_{s}" for s in _EXAMPLE_RADII]
    rows = []
    for dim in args.dims:
        b = lacunary_coefficients(dim) if fixed is None else fixed
        spectrum = prepare(shift_example(b, dim)[0]).spectrum
        rows.append([dim, moment_sum(spectrum, 1.0, 1.0)]
                    + [eigen_count_outside(spectrum, s) for s in _EXAMPLE_RADII])
    _emit_csv([header, *rows], args.out)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.handler is None:
        parser.print_help(sys.stderr)
        return 1
    if "numpy" not in sys.modules and not any(
            name in os.environ for name in _BLAS_THREAD_VARIABLES):
        # OpenBLAS reads the count once, as numpy loads; a second thread
        # spins beside the first and shortens few calls here (see README)
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    start = time.monotonic()
    try:
        return args.handler(args)
    except (EigencountError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, SpecFormatError):
            return 3
        return 2 if isinstance(exc, EigencountError) else 1
    finally:
        print(f"wall_time_s={time.monotonic() - start:.3f}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
