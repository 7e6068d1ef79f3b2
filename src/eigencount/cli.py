"""Command-line front end.

Subcommands: bound (certified disk/point count bounds plus the oracle
count), oracle (brute-force counts, curves, moment sums), verify (the
seeded property suites), gamma (the scalar envelope constant), and
example-shift (the shift plus rank-one family sweep).

Reports are JSON with sorted keys so identical invocations produce
byte-identical output in certified mode; wall time goes to stderr.
Exit codes: 0 success, 1 I/O or usage, 2 inadmissible parameters,
3 malformed operator spec, 4 verification counterexample.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .approx import koenig_constant
from .bounds import (
    ExteriorDisk,
    Point,
    RegionSpec,
    count_bound_disk,
    count_bound_disk_simple,
    count_bound_region,
    prepare,
    pseudospectral_epsilon,
)
from .config import DEFAULT
from .determinants import GammaProvenance, gamma_p_upper
from .errors import EigencountError, SpecFormatError
from .numerics import eigenvalues, induced_norm, singular_values
from .operators import Zero, materialize, parse_spec
from .oracle import (
    blaschke_divergence_probe,
    count_curve,
    eigen_count_outside,
    lacunary_coefficients,
    moment_sum,
    shift_example,
)
from .verify import SUITE_NAMES, run_suites

_BOUND_COLUMNS = (
    "kind", "p", "target_re", "target_im", "n_rank", "t_star", "eps",
    "gamma_p", "c_p", "phi_value", "alpha_sum", "alpha_mode", "bound",
    "admissible", "certified", "oracle_count",
)

_EXAMPLE_RADII = (1.0, 1.1, 1.25, 1.5, 2.0)


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


def _digest(raw: bytes) -> str:
    return "sha256:" + hashlib.sha256(raw).hexdigest()


def _config_echo(alpha_mode: str | None) -> dict:
    return {
        "tolerances": dataclasses.asdict(DEFAULT),
        "gamma_provenance": GammaProvenance.ENVELOPE_CERTIFIED.value,
        "alpha_mode": alpha_mode,
    }


def _assemble(command: str, arguments: dict, digest: str, results: dict,
              mode: str, alpha_mode: str | None) -> dict:
    return {
        "command": command,
        "arguments": arguments,
        "input_digest": digest,
        "library_version": __version__,
        "mode": mode,
        "config": _config_echo(alpha_mode),
        "results": results,
    }


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _emit_json(report: dict, out: str | None) -> None:
    _write_text(json.dumps(report, sort_keys=True, indent=2) + "\n", out)


def _emit_csv(header, rows, out: str | None) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _write_text(buffer.getvalue(), out)


def _bound_csv_rows(rows: list[dict]):
    for row in rows:
        flat = dict(row)
        target = flat.pop("target")
        flat["target_re"], flat["target_im"] = target
        yield ["" if flat.get(col) is None else flat.get(col)
               for col in _BOUND_COLUMNS]


def _multiplicity_at(matrix: np.ndarray, lam0: complex) -> int:
    radius = DEFAULT.cluster_rtol * max(1.0, float(np.linalg.norm(matrix)))
    return eigenvalues(matrix).count_where(
        lambda v: abs(complex(v) - lam0) <= radius)


# --- subcommands ------------------------------------------------------------


def _cmd_bound(args) -> int:
    raw = Path(args.spec).read_bytes()
    model = parse_spec(raw)
    prep = prepare(model)
    full = prep.l0 + prep.k

    reports = []
    if args.point is None:
        s = args.s
        oracle = eigen_count_outside(full, s)
        reports.append(count_bound_disk(prep, args.p, s, n_rank=args.n)
                       .with_oracle(oracle))
        reports.append(count_bound_disk_simple(prep, args.p, s, n_rank=args.n)
                       .with_oracle(oracle))
        region = count_bound_region(prep, args.p, RegionSpec(ExteriorDisk(s)),
                                    n_rank=args.n).with_oracle(oracle)
        reports.append(region)
        target = ExteriorDisk(s)
    else:
        oracle = _multiplicity_at(full, args.point)
        region = count_bound_region(prep, args.p, RegionSpec(Point(args.point)),
                                    n_rank=args.n).with_oracle(oracle)
        reports.append(region)
        target = Point(args.point)

    if args.mode == "empirical":
        # same circle as the certified optimum, gap measured by sampling
        eps = pseudospectral_epsilon(prep.l0, region.t_star, model.norm)
        reports.append(count_bound_region(
            prep, args.p, RegionSpec(target, t=region.t_star), n_rank=args.n,
            epsilon=eps).with_oracle(oracle))

    rows = [r.to_dict() for r in reports]
    if isinstance(model.base, Zero) and args.point is None:
        sv = singular_values(prep.k)
        alpha_sum = float(np.sum(sv ** args.p))
        rows.append({
            "kind": "koenig_classical", "p": args.p,
            "target": [args.s, 0.0], "n_rank": model.dim, "t_star": None,
            "eps": None, "gamma_p": None, "c_p": koenig_constant(args.p),
            "phi_value": 1.0, "alpha_sum": alpha_sum, "alpha_mode": "exact",
            "bound": koenig_constant(args.p) / args.s ** args.p * alpha_sum,
            "admissible": True, "certified": True, "oracle_count": oracle,
        })

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
    report = _assemble("bound", arguments, _digest(raw), results, args.mode,
                       reports[0].alpha_mode.value)
    if args.format == "json":
        _emit_json(report, args.out)
    else:
        _emit_csv(_BOUND_COLUMNS, _bound_csv_rows(rows), args.out)
    return 0


def _cmd_oracle(args) -> int:
    if args.s is None and not args.curve and args.q is None:
        raise ValueError("nothing to compute: pass --s, --curve, or --q")
    raw = Path(args.spec).read_bytes()
    model = parse_spec(raw)
    l0, k = materialize(model)
    full = l0 + k
    norm_l0 = induced_norm(l0, model.norm)

    results: dict = {"dim": model.dim, "norm": model.norm.value,
                     "norm_l0": norm_l0}
    csv_rows: list[list] = []
    if args.s is not None:
        count = eigen_count_outside(full, args.s)
        results["count"] = {"s": args.s, "value": count}
        csv_rows.append(["count", args.s, count])
    if args.curve:
        curve = count_curve(full)
        pairs = [[float(r), int(c)] for r, c in zip(curve.radii, curve.counts)]
        results["curve"] = {"breakpoints": pairs}
        csv_rows.extend(["curve", r, c] for r, c in pairs)
    if args.q is not None:
        moment = moment_sum(full, norm_l0, args.q)
        results["moment"] = {"q": args.q, "base": norm_l0, "value": moment}
        csv_rows.append(["moment", args.q, moment])

    arguments = {"spec": args.spec, "s": args.s, "curve": args.curve,
                 "q": args.q, "format": args.format}
    report = _assemble("oracle", arguments, _digest(raw), results,
                       "certified", None)
    if args.format == "json":
        _emit_json(report, args.out)
    else:
        _emit_csv(("kind", "x", "value"), csv_rows, args.out)
    return 0


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
    gamma = gamma_p_upper(args.p)
    print(f"p = {gamma.p!r}")
    print(f"gamma_p = {gamma.value!r}")
    print(f"r_star = {gamma.r_star!r}")
    print(f"c_p = {gamma.c_p!r}")
    print(f"provenance = {gamma.provenance.value}")
    return 0


def _load_coefficients(path: str) -> np.ndarray:
    raw = Path(path).read_bytes()
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"coefficient file is not JSON: {exc}") from exc
    if not isinstance(data, list) or not data:
        raise SpecFormatError("coefficient file must hold a non-empty list")
    values = []
    for i, item in enumerate(data):
        if isinstance(item, (int, float)) and not isinstance(item, bool):
            item = [item, 0.0]
        elif not (isinstance(item, list) and len(item) == 2
                  and all(isinstance(c, (int, float)) and not isinstance(c, bool)
                          for c in item)):
            raise SpecFormatError(
                "coefficients are numbers or [re, im] pairs", f"[{i}]")
        try:
            value = complex(item[0], item[1])
        except OverflowError as exc:
            raise SpecFormatError("integer too large for a float", f"[{i}]") from exc
        if not np.isfinite(value):
            raise SpecFormatError("coefficients must be finite", f"[{i}]")
        values.append(value)
    return np.asarray(values, dtype=complex)


def _cmd_example_shift(args) -> int:
    if args.coeffs is not None:
        fixed = _load_coefficients(args.coeffs)
        family = lambda dim: fixed  # noqa: E731 - tiny closure over the list
    else:
        family = lacunary_coefficients
    probe = blaschke_divergence_probe(family, args.dims)

    header = ["dim", "excess_sum"] + [f"n_above_{s}" for s in _EXAMPLE_RADII]
    rows = []
    for row in probe.rows:
        model, _ = shift_example(family(row.dim), row.dim)
        l0, k = materialize(model)
        full = l0 + k
        counts = [eigen_count_outside(full, s) for s in _EXAMPLE_RADII]
        rows.append([row.dim, row.excess_sum] + counts)
    _emit_csv(header, rows, args.out)
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
    start = time.monotonic()
    try:
        return args.handler(args)
    except SpecFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except EigencountError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        print(f"wall_time_s={time.monotonic() - start:.3f}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
