"""Seeded inputs, operation commands and output checks for each workload.

Every document is generated here from the benchmark seed and written to
the scratch directory; none is committed. The reference count of each
document comes from numpy.linalg.eigvals on the matrices generated here,
never from the program under test.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Sizes of the full workloads; the self-test passes smaller ones.
DENSE_DIM = 600
DENSE_RANK = 4
DENSE_BASE_NORM = 0.8
SHIFT_DIM = 400
SHIFT_OUTLIERS = 6


@dataclass(frozen=True)
class Workload:
    """A prepared workload: the CLI arguments of an operation, its check."""

    name: str
    argv: tuple[str, ...]
    reference: int | None   # eigenvalue count outside S, for bound workloads
    doc_path: Path | None
    doc_bytes: int

    def check(self, code: int, stdout: str) -> str | None:
        """None when the operation's output is correct, else the reason."""
        if code != 0:
            return f"exit code {code}"
        if self.reference is None:
            return check_verify(stdout)
        return check_bound(stdout, self.reference)


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def _complex_gaussian(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _pairs(m: np.ndarray) -> list:
    return np.stack([m.real, m.imag], axis=-1).tolist()


def _write_doc(path: Path, dim: int, norm: str, base: dict, pert: dict) -> int:
    text = json.dumps({"dim": dim, "norm": norm, "base": base,
                       "perturbation": pert})
    # flushed to disk now, so that no write-back runs during timed operations
    with open(path, "w") as doc:
        doc.write(text)
        doc.flush()
        os.fsync(doc.fileno())
    return len(text)


def _count_outside(m: np.ndarray, s: float) -> int:
    return int(np.sum(np.abs(np.linalg.eigvals(m)) > s))


def _radius_between(inner: float, eigs: np.ndarray) -> float:
    # S halfway between ||L0|| and the smallest outlier, so no eigenvalue
    # sits near the circle and the count is unambiguous
    outliers = np.abs(eigs)[np.abs(eigs) > inner * (1.0 + 1e-6)]
    if outliers.size == 0:
        raise RuntimeError("no outlier eigenvalue was planted")
    return round(0.5 * (inner + float(np.min(outliers))), 6)


def dense_l2(seed: int, work_dir: Path, dim: int = DENSE_DIM) -> Workload:
    """Dense base with ||L0||_2 = 0.8 plus a dense rank-4 perturbation.

    The perturbation is U diag(mu) W^H with orthonormal U, W close to U
    and |mu| in [2, 3.5], so exactly four eigenvalues of L leave the
    disk of radius ||L0|| (at most rank K can) and land well beyond it.
    """
    rng = _rng(seed, 1)
    g = _complex_gaussian(rng, (dim, dim))
    l0 = DENSE_BASE_NORM * g / np.linalg.norm(g, 2)
    u, _ = np.linalg.qr(_complex_gaussian(rng, (dim, DENSE_RANK)))
    w, _ = np.linalg.qr(u + 0.1 * _complex_gaussian(rng, (dim, DENSE_RANK))
                        / np.sqrt(dim))
    mu = rng.uniform(2.0, 3.5, DENSE_RANK) * np.exp(
        2j * np.pi * rng.uniform(0.0, 1.0, DENSE_RANK))
    k = (u * mu) @ w.conj().T
    eigs = np.linalg.eigvals(l0 + k)
    s = _radius_between(DENSE_BASE_NORM, eigs)
    path = work_dir / "dense_l2.json"
    size = _write_doc(path, dim, "l2",
                      {"kind": "dense", "entries": _pairs(l0)},
                      {"kind": "dense", "entries": _pairs(k)})
    return Workload("cli-dense-l2",
                    ("bound", str(path), "--p", "1", "--s", repr(s)),
                    int(np.sum(np.abs(eigs) > s)), path, size)


def empirical_l1(seed: int, work_dir: Path, dim: int = SHIFT_DIM) -> Workload:
    """Truncated shift plus e_1 b^T on l1, as in oracle.shift_example.

    The companion structure makes the characteristic polynomial
    lam^(dim-m) prod(lam - z_i), so the planted roots z_i with moduli in
    [1.5, 2.5] are the only eigenvalues outside the unit disk.
    """
    rng = _rng(seed, 2)
    roots = rng.uniform(1.5, 2.5, SHIFT_OUTLIERS) * np.exp(
        2j * np.pi * rng.uniform(0.0, 1.0, SHIFT_OUTLIERS))
    b = np.zeros(dim, dtype=complex)
    b[:SHIFT_OUTLIERS] = -np.poly(roots)[1:]
    l0 = np.eye(dim, k=-1, dtype=complex)
    k = np.zeros((dim, dim), dtype=complex)
    k[0, :] = b
    s = _radius_between(1.0, roots)
    reference = _count_outside(l0 + k, s)
    if reference != SHIFT_OUTLIERS:
        raise RuntimeError(f"eigvals finds {reference} of the "
                           f"{SHIFT_OUTLIERS} planted roots outside {s}")
    left = np.zeros(dim, dtype=complex)
    left[0] = 1.0
    path = work_dir / "empirical_l1.json"
    size = _write_doc(path, dim, "l1", {"kind": "shift"},
                      {"kind": "rank_one", "left": _pairs(left),
                       "right": _pairs(b)})
    return Workload("cli-empirical-l1",
                    ("bound", str(path), "--p", "2", "--s", repr(s),
                     "--mode", "empirical"),
                    reference, path, size)


def verify_all(seed: int, work_dir: Path, suite: str = "all") -> Workload:
    """The seeded property suites; the program builds its own models."""
    return Workload("verify-all", ("verify", "--suite", suite, "--seed",
                                   str(seed)), None, None, 0)


WORKLOADS = {
    "cli-dense-l2": dense_l2,
    "cli-empirical-l1": empirical_l1,
    "verify-all": verify_all,
}


# --- output checks -----------------------------------------------------------
# They rest only on what every bound report must satisfy, not on the current
# set of rows or on best_bound.


def check_bound(stdout: str, reference: int) -> str | None:
    try:
        results = json.loads(stdout)["results"]
        rows = results["bounds"]
        oracle = results["oracle_count"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"report is not a bound report: {exc!r}"
    if oracle != reference:
        return f"oracle_count {oracle} differs from the reference {reference}"
    certified = [r for r in rows if r.get("admissible") and r.get("certified")]
    if not certified:
        return "no admissible certified row"
    for row in certified:
        if not row["bound"] >= reference:
            return (f"certified {row.get('kind')} bound {row['bound']} is "
                    f"below the reference count {reference}")
    return None


_VERIFY_ROW = re.compile(r"^(\S+)\s+(\d+)\s+(\d+)\s+(pass|FAIL)$")


def check_verify(stdout: str) -> str | None:
    rows = {}
    for line in stdout.splitlines():
        match = _VERIFY_ROW.match(line.strip())
        if match:
            rows[match[1]] = (int(match[2]), int(match[3]))
    if "total" not in rows:
        return "no total line in the verify table"
    checks, failures = rows.pop("total")
    if not rows or sum(c for c, _ in rows.values()) != checks or checks < 1:
        return f"suite rows do not add up to the {checks} total checks"
    if failures or any(f for _, f in rows.values()):
        return f"{failures} verify failures"
    return None
