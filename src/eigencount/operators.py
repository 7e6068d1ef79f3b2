"""Operator models and their JSON wire format.

A model is a base operator plus a perturbation on (C^dim, norm). Bases:
shift (ones on the subdiagonal), diagonal, dense, zero. Perturbations:
rank_one (outer product left * right^T, right holding the coefficients of
the dual functional), diagonal, dense, zero. A base kind's norm(dim, kind)
is ||matrix(dim)|| in kind's norm, with no SVD: on l2 exact or proven above.

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

from .errors import SpecFormatError
from .numerics import NormKind, _proven_l2_norm, _up, induced_norm

__all__ = [
    "Shift",
    "Diagonal",
    "Dense",
    "Zero",
    "RankOne",
    "OperatorModel",
    "materialize",
    "parse_spec",
    "serialize_spec",
]


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


@dataclass(frozen=True, eq=False)
class Diagonal(_Block):
    tag = "diagonal"
    values: np.ndarray = _array(1, "diagonal needs exactly dim = {dim} values, got {shape}")

    def matrix(self, dim: int) -> np.ndarray:
        return np.diag(self.values)

    def norm(self, dim: int, kind: NormKind) -> float:
        # max |d_j|; on l2 a non-real d_j's math.hypot, under a float off, moves up one
        if kind is not NormKind.L2:
            return float(np.max(np.abs(self.values)))
        return max(_up(math.hypot(d.real, d.imag)) if d.imag else abs(d.real)
                   for d in self.values.tolist())


@dataclass(frozen=True, eq=False)
class Dense(_Block):
    tag = "dense"
    entries: np.ndarray = _array(2, "dense block must be {dim} x {dim}, got {shape}")

    def matrix(self, dim: int) -> np.ndarray:
        return self.entries.copy()

    def norm(self, dim: int, kind: NormKind) -> float:
        # on l2 the Cholesky-certified upper bound, on l1 and linf the abs sums
        if kind is NormKind.L2:
            return _proven_l2_norm(self.entries)
        return induced_norm(self.entries, kind)


@dataclass(frozen=True, eq=False)
class Zero(_Block):
    """The zero operator."""

    tag = "zero"

    def matrix(self, dim: int) -> np.ndarray:
        return np.zeros((dim, dim), dtype=complex)

    def norm(self, dim: int, kind: NormKind) -> float:
        return 0.0


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
