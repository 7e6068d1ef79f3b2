"""Operator models and their JSON wire format.

A model is a base operator plus a perturbation on (C^dim, norm). Bases:
shift (ones on the subdiagonal), diagonal, dense, zero. Perturbations:
rank_one (outer product left * right^T, right holding the coefficients of
the dual functional), diagonal, dense, zero. A base kind's norm(dim, kind)
is ||matrix(dim)|| in kind's norm, with no SVD: exact or proven above. Its
solve(dim, lams, rhs) solves (lam - matrix(dim)) X = rhs at each lam, by
forward substitution for a shift, division for a diagonal or zero base and
LU for a dense one, residual-checked as numerics.shifted_solve checks.

Wire format: a JSON object {"dim": N, "norm": "l1"|"l2"|"linf",
"base": {...}, "perturbation": {...}} where every complex scalar is a
[re, im] pair. Unknown keys are rejected so typos cannot silently change
an experiment. A document is JSON as RFC 8259 defines it, decoded by
orjson alone (see _decode_json): NaN and Infinity are not JSON.
"""

from __future__ import annotations

import gc
import json
import math
from dataclasses import dataclass, field, fields
from itertools import chain
from typing import ClassVar

import numpy as np

from . import _exports
from .errors import SpecFormatError
from .numerics import (NormKind, _checked_solution, _frobenius, _modulus_up,
                       _proven_l2_norm, _proven_sum_norm, induced_norm, point_blocks,
                       shifted_solve)

__all__ = _exports(__name__)


class _Block:
    """A block kind: its wire tag, its complex array fields and its matrix.

    Each array field is declared with _array, in wire order. The arrays
    are converted to complex on construction; == compares the kind and
    the arrays, and the hash is the kind's.
    """

    tag: ClassVar[str]

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, np.asarray(getattr(self, f.name), dtype=complex))

    def __eq__(self, other):
        return type(other) is type(self) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self))

    def __hash__(self):
        return hash(type(self))

    def matrix(self, dim: int) -> np.ndarray:
        """The dim x dim matrix of the block."""
        raise NotImplementedError

    def check(self, dim: int, where: str) -> None:
        """SpecFormatError unless every array has its shape for dim and is finite."""
        for f in fields(self):
            arr, name = getattr(self, f.name), f"{where}.{f.name}"
            if arr.shape != (dim,) * f.metadata["depth"]:
                raise SpecFormatError(
                    f.metadata["shape_error"].format(dim=dim, shape=arr.shape), name)
            if not np.all(np.isfinite(arr)):
                raise SpecFormatError("entries must be finite", name)

    @classmethod
    def from_doc(cls, node: dict, where: str):
        """The block of a wire object whose kind is cls.tag."""
        arrays = fields(cls)
        _reject_unknown(node, {"kind", *(f.name for f in arrays)}, where)
        for f in arrays:
            if f.name not in node:
                raise SpecFormatError(f"{cls.tag} block needs '{f.name}'", where)
        return cls(*(_as_complex_array(node[f.name], f"{where}.{f.name}", f.metadata["depth"])
                     for f in arrays))

    def to_doc(self) -> dict:
        """The wire object of the block."""
        return {"kind": self.tag, **{f.name: _pairs(getattr(self, f.name)) for f in fields(self)}}


def _array(depth: int, shape_error: str):
    # a block's array field: depth 1 for a vector of dim entries, 2 for a
    # dim x dim matrix; shape_error is formatted with dim and shape
    return field(metadata={"depth": depth, "shape_error": shape_error})


@dataclass(frozen=True, eq=False)
class Shift(_Block):
    """Truncated shift: basis vector e_j maps to e_{j+1}, the last to 0."""

    tag = "shift"

    def matrix(self, dim: int) -> np.ndarray:
        return np.eye(dim, k=-1, dtype=complex)

    def norm(self, dim: int, kind: NormKind) -> float:
        # each row and column holds at most one 1, and some 1 only from dim 2
        return float(dim > 1)

    def solve(self, dim: int, lams: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """The (k, dim, r) stack X with (lam - S) X = rhs at each of the k lams.

        Row i reads lam X_i - X_{i-1} = rhs_i, solved top down by forward
        substitution, which is backward stable (Higham 2002, Thm 8.5)."""
        lams, rhs = _solve_args(lams, rhs)
        # rows[i] is X_i at every lam; x is rows as a (k, dim, r) stack
        rows = np.empty((dim, len(lams)) + rhs.shape[1:], dtype=complex)
        scale = lams[:, None]
        with np.errstate(all="ignore"):  # a zero or tiny lam fails the check
            np.divide(rhs[0], scale, out=rows[0])
            for i in range(1, dim):
                np.divide(np.add(rhs[i], rows[i - 1], out=rows[i]), scale, out=rows[i])
            x = np.ascontiguousarray(rows.transpose(1, 0, 2))
            residual = lams[:, None, None] * x - rhs
            residual[:, 1:] -= x[:, :-1]
            # lam - S has dim entries lam and dim - 1 entries -1
            shifted = np.concatenate((np.repeat(lams[:, None], dim, axis=1),
                                      np.ones((len(lams), dim - 1))), axis=1)
            return _checked_solution(lams, x, residual, shifted, _frobenius(rhs[None]),
                                     lams == 0.0)


@dataclass(frozen=True, eq=False)
class Diagonal(_Block):
    tag = "diagonal"
    values: np.ndarray = _array(1, "diagonal needs exactly dim = {dim} values, got {shape}")

    def matrix(self, dim: int) -> np.ndarray:
        return np.diag(self.values)

    def norm(self, dim: int, kind: NormKind) -> float:
        # max |d_j| in every norm, each modulus at or above the exact one
        return float(np.max(_modulus_up(self.values)))

    def solve(self, dim: int, lams: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """The (k, dim, r) stack X with (lam - D) X = rhs at each of the k lams."""
        return _diagonal_solve(self.values, lams, rhs)


@dataclass(frozen=True, eq=False)
class Dense(_Block):
    tag = "dense"
    entries: np.ndarray = _array(2, "dense block must be {dim} x {dim}, got {shape}")

    def matrix(self, dim: int) -> np.ndarray:
        return self.entries.copy()

    def norm(self, dim: int, kind: NormKind) -> float:
        # on l2 the Cholesky-certified upper bound, on l1 and linf the abs sums
        # rounded up
        if kind is NormKind.L2:
            return _proven_l2_norm(self.entries)
        return _proven_sum_norm(self.entries, kind)

    def solve(self, dim: int, lams: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """The (k, dim, r) stack X with (lam - A) X = rhs at each of the k lams, by LU."""
        lams, rhs = _solve_args(lams, rhs)
        return shifted_solve(self.entries, lams, rhs)


@dataclass(frozen=True, eq=False)
class Zero(_Block):
    """The zero operator."""

    tag = "zero"

    def matrix(self, dim: int) -> np.ndarray:
        return np.zeros((dim, dim), dtype=complex)

    def norm(self, dim: int, kind: NormKind) -> float:
        return 0.0

    def solve(self, dim: int, lams: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """The (k, dim, r) stack X with lam X = rhs at each of the k lams."""
        return _diagonal_solve(np.zeros(dim, dtype=complex), lams, rhs)


def _solve_args(lams, rhs) -> tuple[np.ndarray, np.ndarray]:
    lams = np.asarray(lams, dtype=complex)
    if lams.ndim != 1:
        raise ValueError(f"lams must be a 1-D array, got shape {lams.shape}")
    return lams, np.asarray(rhs, dtype=complex)


def _diagonal_solve(values: np.ndarray, lams, rhs) -> np.ndarray:
    # X = rhs / (lam - d) row by row, at each lam; a zero lam - d_j is singular
    lams, rhs = _solve_args(lams, rhs)
    shifted = lams[:, None] - values
    with np.errstate(all="ignore"):  # a lam at or near some d_j fails the check
        x = rhs / shifted[:, :, None]
        residual = shifted[:, :, None] * x - rhs
        return _checked_solution(lams, x, residual, shifted, _frobenius(rhs[None]),
                                 np.any(shifted == 0.0, axis=1))


@dataclass(frozen=True, eq=False)
class RankOne(_Block):
    """left * right^T; right is entered as the dual functional's coefficients."""

    tag = "rank_one"
    left: np.ndarray = _array(1, "rank_one left vector needs length {dim}, got {shape}")
    right: np.ndarray = _array(1, "rank_one right vector needs length {dim}, got {shape}")

    def matrix(self, dim: int) -> np.ndarray:
        return np.outer(self.left, self.right)


# the kinds each role admits, by wire tag
BASE_KINDS = {kind.tag: kind for kind in (Shift, Diagonal, Dense, Zero)}
PERT_KINDS = {kind.tag: kind for kind in (RankOne, Diagonal, Dense, Zero)}
_ROLES = {"base": BASE_KINDS, "perturbation": PERT_KINDS}


@dataclass(frozen=True, eq=False)
class OperatorModel:
    dim: int
    norm: NormKind
    base: Shift | Diagonal | Dense | Zero
    perturbation: RankOne | Diagonal | Dense | Zero

    def __post_init__(self):
        if self.dim < 1:
            raise SpecFormatError("dim must be a positive integer", "dim")
        for role, kinds in _ROLES.items():
            block = getattr(self, role)
            if not isinstance(block, tuple(kinds.values())):
                raise SpecFormatError(f"unsupported {role} kind {type(block).__name__}", role)
            block.check(self.dim, role)

    def __eq__(self, other):
        return (isinstance(other, OperatorModel)
                and self.dim == other.dim
                and self.norm is other.norm
                and self.base == other.base
                and self.perturbation == other.perturbation)


def materialize(model: OperatorModel) -> tuple[np.ndarray, np.ndarray]:
    """Concrete (base, perturbation) matrices for the model."""
    return model.base.matrix(model.dim), model.perturbation.matrix(model.dim)


def _resolvent_norms(model: OperatorModel, lams: np.ndarray) -> np.ndarray:
    """||(lam - L0)^{-1}|| in the model's norm at each lam of a 1-D array.

    The base kind solves for the resolvents one point_blocks stack at a
    time, so in every norm SingularResolventError names the first lam that
    fails the solve's check."""
    eye = np.eye(model.dim, dtype=complex)
    norms = np.empty(len(lams))
    for block in point_blocks(len(lams), model.dim):
        norms[block] = induced_norm(model.base.solve(model.dim, lams[block], eye), model.norm)
    return norms


# --- wire format ---------------------------------------------------------


def _decode_json(raw: str | bytes, what: str = "not valid JSON"):
    """The JSON value in raw; SpecFormatError "<what>: ..." if it has none.

    Bytes with a BOM or in UTF-16 or UTF-32 (json.detect_encoding reads
    the first four) are decoded to str first. What the codec or orjson
    refuses, NaN and 1e400 included, gets their message; where orjson
    refuses UTF-8 bytes, the codec's message names an invalid byte and its
    position. An integer outside [-2^63, 2^64) becomes the nearest float,
    so every number fits a float. orjson is imported here, so commands
    that decode no JSON never load it. The GC is paused while the tree is
    built.
    """
    from orjson import JSONDecodeError, loads

    try:
        if isinstance(raw, bytes) and (encoding := json.detect_encoding(raw)) != "utf-8":
            raw = raw.decode(encoding)
        with _GCPaused():
            return loads(raw)
    except ValueError as exc:  # orjson's JSONDecodeError or the codec's UnicodeDecodeError
        if isinstance(exc, JSONDecodeError) and isinstance(raw, bytes):
            try:  # orjson reports invalid UTF-8 at line 1 column 1
                raw.decode("utf-8")
            except UnicodeDecodeError as codec_error:
                exc = codec_error
        raise SpecFormatError(f"{what}: {exc}") from exc


class _GCPaused:
    """The cyclic GC off inside the with block, and as the caller had it after.

    A dense dim-600 document decodes into 720,000 lists, each counted as a
    GC allocation: enough to start several full collections, which find
    nothing, since a JSON tree holds no reference cycles.
    """

    def __enter__(self):
        self.was_enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info):
        if self.was_enabled:
            gc.enable()


def _check_pair(node, where: str) -> None:
    if not (isinstance(node, list) and len(node) == 2
            and all(type(c) in (int, float) for c in node)):
        raise SpecFormatError("complex scalars are [re, im] pairs", where)


def _check_vector(node, where: str) -> None:
    if not isinstance(node, list):
        raise SpecFormatError("expected a list of [re, im] pairs", where)
    for i, c in enumerate(node):
        _check_pair(c, f"{where}[{i}]")


def _check_matrix(node, where: str) -> None:
    if not isinstance(node, list) or not node:
        raise SpecFormatError("expected a non-empty list of rows", where)
    for i, row in enumerate(node):
        _check_vector(row, f"{where}[{i}]")
    width = len(node[0])
    for i, row in enumerate(node):
        if len(row) != width:
            raise SpecFormatError(f"row {i} has length {len(row)}, expected {width}",
                                  f"{where}[{i}]")


def _leaves(node, depth: int):
    # the items depth lists below node, as one iterator; map and chain over
    # it keep the loop out of bytecode
    for _ in range(depth):
        node = chain.from_iterable(node)
    return node


def _only_numbers(node, depth: int) -> bool:
    # numpy reads true as 1.0, null as nan and "1.5" as 1.5, so the leaf
    # types are checked too
    return set(map(type, _leaves(node, depth))) <= {int, float}


def _block_shape(node, depth: int) -> tuple[int, ...] | None:
    # (n, 2) or (rows, cols, 2) when each nesting level of the block has a
    # single length and the innermost lists are pairs, else None. A str or
    # dict in place of a pair has a length other than 2 or str items, which
    # the leaf check rejects. An empty vector or empty rows get the pair
    # axis too, so that they reach the model's shape errors.
    if type(node) is not list or (depth == 2 and not node):
        return None
    vectors = node if depth == 2 else [node]
    if set(map(type, vectors)) != {list}:
        return None
    widths = set(map(len, vectors))
    if len(widths) != 1:
        return None
    width = widths.pop()
    try:
        if width and set(map(len, _leaves(vectors, 1))) != {2}:
            return None
    except TypeError:  # a number, bool or null in place of a pair
        return None
    return (len(node), width, 2) if depth == 2 else (width, 2)


def _as_complex_array(node, where: str, depth: int) -> np.ndarray:
    """The [re, im] pairs of a block nested depth lists deep, bit for bit.

    depth is 1 for a vector and 2 for a matrix. A well-formed block is
    read in one flat pass over its leaves; only a malformed one is walked
    element by element, to name the first offending element.
    """
    shape = _block_shape(node, depth)
    if shape is not None and _only_numbers(node, depth):
        flat = np.fromiter(_leaves(node, depth), float, count=math.prod(shape))
        # the view keeps the sign of a zero imaginary part, re + 1j * im does not
        return flat.reshape(shape).view(np.complex128)[..., 0]
    (_check_vector if depth == 1 else _check_matrix)(node, where)
    raise SpecFormatError("expected [re, im] pairs", where)


def _reject_unknown(node: dict, allowed: set[str], where: str) -> None:
    extra = sorted(set(node) - allowed)
    if extra:
        raise SpecFormatError(f"unknown keys {extra}", where)


def _parse_block(node, role: str):
    if not isinstance(node, dict):
        raise SpecFormatError("expected an object with a 'kind' tag", role)
    kind = node.get("kind")
    # a str test first: an unhashable tag such as [1] is an unknown kind too
    block = _ROLES[role].get(kind) if isinstance(kind, str) else None
    if block is None:
        raise SpecFormatError(f"unknown {role} kind {kind!r}", f"{role}.kind")
    return block.from_doc(node, role)


def parse_spec(text: str | bytes) -> OperatorModel:
    """Parse the JSON wire format into a validated OperatorModel."""
    # the blocks are read and the tree freed before the GC resumes, since
    # a collection that starts while the tree lives walks all its lists
    with _GCPaused():
        return _model_from_doc(_decode_json(text))


def _model_from_doc(doc) -> OperatorModel:
    if not isinstance(doc, dict):
        raise SpecFormatError("top level must be an object")
    _reject_unknown(doc, {"dim", "norm", "base", "perturbation"}, "")
    for key in ("dim", "norm", "base", "perturbation"):
        if key not in doc:
            raise SpecFormatError(f"missing required key '{key}'")
    dim = doc["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise SpecFormatError("dim must be a positive integer", "dim")
    if not isinstance(doc["norm"], str):
        raise SpecFormatError("norm must be one of 'l1', 'l2', 'linf'", "norm")
    try:
        norm = NormKind.parse(doc["norm"])
    except ValueError as exc:
        raise SpecFormatError(str(exc), "norm") from exc
    return OperatorModel(dim=dim, norm=norm, base=_parse_block(doc["base"], "base"),
                         perturbation=_parse_block(doc["perturbation"], "perturbation"))


def _pairs(arr: np.ndarray) -> list:
    return np.stack([arr.real, arr.imag], -1).tolist()


def serialize_spec(model: OperatorModel) -> str:
    """Wire-format JSON for the model; parse_spec(serialize_spec(m)) == m."""
    doc = {
        "dim": model.dim,
        "norm": model.norm.value,
        "base": model.base.to_doc(),
        "perturbation": model.perturbation.to_doc(),
    }
    return json.dumps(doc, sort_keys=True)
