"""Operator models and their JSON wire format.

A model is a base operator plus a perturbation on (C^dim, norm). Bases:
shift (ones on the subdiagonal), diagonal, dense, zero. Perturbations:
rank_one (outer product left * right^T, right holding the coefficients of
the dual functional), diagonal, dense, zero.

Wire format: a JSON object {"dim": N, "norm": "l1"|"l2"|"linf",
"base": {...}, "perturbation": {...}} where every complex scalar is a
[re, im] pair. Unknown keys are rejected so typos cannot silently change
an experiment. Documents are decoded by orjson; stdlib json reads only
what orjson refuses (see _decode_json).
"""

from __future__ import annotations

import gc
import json
import math
from dataclasses import dataclass, fields
from itertools import chain

import numpy as np

from .errors import SpecFormatError
from .numerics import NormKind

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


@dataclass(frozen=True)
class Shift:
    """Truncated shift: basis vector e_j maps to e_{j+1}, the last to 0."""


@dataclass(frozen=True, eq=False)
class _ArrayBlock:
    """Every field a complex array; equal to a block of its type with equal arrays."""

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, np.asarray(getattr(self, f.name), dtype=complex))

    def __eq__(self, other):
        return type(other) is type(self) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self))


@dataclass(frozen=True, eq=False)
class Diagonal(_ArrayBlock):
    values: np.ndarray


@dataclass(frozen=True, eq=False)
class Dense(_ArrayBlock):
    entries: np.ndarray


@dataclass(frozen=True)
class Zero:
    """The zero operator."""


@dataclass(frozen=True, eq=False)
class RankOne(_ArrayBlock):
    """left * right^T; right is entered as the dual functional's coefficients."""

    left: np.ndarray
    right: np.ndarray


BASE_KINDS = (Shift, Diagonal, Dense, Zero)
PERT_KINDS = (RankOne, Diagonal, Dense, Zero)


@dataclass(frozen=True, eq=False)
class OperatorModel:
    dim: int
    norm: NormKind
    base: Shift | Diagonal | Dense | Zero
    perturbation: RankOne | Diagonal | Dense | Zero

    def __post_init__(self):
        if self.dim < 1:
            raise SpecFormatError("dim must be a positive integer", "dim")
        if not isinstance(self.base, BASE_KINDS):
            raise SpecFormatError(f"unsupported base kind {type(self.base).__name__}",
                                  "base")
        if not isinstance(self.perturbation, PERT_KINDS):
            raise SpecFormatError(
                f"unsupported perturbation kind {type(self.perturbation).__name__}",
                "perturbation")
        _check_shapes(self.base, self.dim, "base")
        _check_shapes(self.perturbation, self.dim, "perturbation")

    def __eq__(self, other):
        return (isinstance(other, OperatorModel)
                and self.dim == other.dim
                and self.norm is other.norm
                and self.base == other.base
                and self.perturbation == other.perturbation)


def _check_shapes(spec, dim: int, where: str) -> None:
    if isinstance(spec, Diagonal):
        if spec.values.shape != (dim,):
            raise SpecFormatError(
                f"diagonal needs exactly dim = {dim} values, got {spec.values.shape}",
                f"{where}.values")
        _require_finite(spec.values, f"{where}.values")
    elif isinstance(spec, Dense):
        if spec.entries.shape != (dim, dim):
            raise SpecFormatError(
                f"dense block must be {dim} x {dim}, got {spec.entries.shape}",
                f"{where}.entries")
        _require_finite(spec.entries, f"{where}.entries")
    elif isinstance(spec, RankOne):
        for name, vec in (("left", spec.left), ("right", spec.right)):
            if vec.shape != (dim,):
                raise SpecFormatError(
                    f"rank_one {name} vector needs length {dim}, got {vec.shape}",
                    f"{where}.{name}")
            _require_finite(vec, f"{where}.{name}")


def _require_finite(arr, where: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise SpecFormatError("entries must be finite", where)


def materialize(model: OperatorModel) -> tuple[np.ndarray, np.ndarray]:
    """Concrete (base, perturbation) matrices for the model."""
    return (_materialize_one(model.base, model.dim),
            _materialize_one(model.perturbation, model.dim))


def _materialize_one(spec, dim: int) -> np.ndarray:
    if isinstance(spec, Shift):
        m = np.zeros((dim, dim), dtype=complex)
        idx = np.arange(dim - 1)
        m[idx + 1, idx] = 1.0
        return m
    if isinstance(spec, Diagonal):
        return np.diag(spec.values)
    if isinstance(spec, Dense):
        return spec.entries.copy()
    if isinstance(spec, RankOne):
        return np.outer(spec.left, spec.right)
    return np.zeros((dim, dim), dtype=complex)


# --- wire format ---------------------------------------------------------


def _decode_json(raw: str | bytes, what: str = "not valid JSON"):
    """The JSON value in raw; SpecFormatError "<what>: ..." if it has none.

    orjson decodes every document it accepts as stdlib json does, except
    that it reads an integer outside [-2^63, 2^64) as the nearest float.
    It refuses some documents the stdlib accepts (NaN and Infinity,
    numbers that overflow a float, lone surrogates, a BOM, UTF-16 and
    UTF-32), so only when it raises is raw decoded again by the stdlib:
    those documents still reach the same validation, and a malformed one
    gets the stdlib's message. Invalid UTF-8, nesting too deep for the
    stdlib and integers past its digit limit are malformed documents too.
    orjson is imported here, so commands that decode no JSON never load it.
    The cyclic GC is paused while either decoder builds the tree.
    """
    import orjson

    with _GCPaused():
        try:
            return orjson.loads(raw)
        except orjson.JSONDecodeError:
            pass
        try:
            return json.loads(raw)
        except (ValueError, RecursionError) as exc:
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
    if (not isinstance(node, (list, tuple)) or len(node) != 2
            or not all(isinstance(c, (int, float)) and not isinstance(c, bool)
                       for c in node)):
        raise SpecFormatError("complex scalars are [re, im] pairs", where)
    try:
        complex(node[0], node[1])
    except OverflowError as exc:
        raise SpecFormatError("integer too large for a float", where) from exc


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
        try:
            flat = np.fromiter(_leaves(node, depth), float, count=math.prod(shape))
        except OverflowError:  # an integer too large for a float
            pass
        else:
            # the view keeps the sign of a zero imaginary part, re + 1j * im does not
            return flat.reshape(shape).view(np.complex128)[..., 0]
    (_check_vector if depth == 1 else _check_matrix)(node, where)
    raise SpecFormatError("expected [re, im] pairs", where)


def _reject_unknown(node: dict, allowed: set[str], where: str) -> None:
    extra = sorted(set(node) - allowed)
    if extra:
        raise SpecFormatError(f"unknown keys {extra}", where)


def _parse_block(node, where: str, *, is_base: bool):
    if not isinstance(node, dict):
        raise SpecFormatError("expected an object with a 'kind' tag", where)
    kind = node.get("kind")
    if kind == "shift" and is_base:
        _reject_unknown(node, {"kind"}, where)
        return Shift()
    if kind == "zero":
        _reject_unknown(node, {"kind"}, where)
        return Zero()
    if kind == "diagonal":
        _reject_unknown(node, {"kind", "values"}, where)
        if "values" not in node:
            raise SpecFormatError("diagonal block needs 'values'", where)
        return Diagonal(_as_complex_array(node["values"], f"{where}.values", 1))
    if kind == "dense":
        _reject_unknown(node, {"kind", "entries"}, where)
        if "entries" not in node:
            raise SpecFormatError("dense block needs 'entries'", where)
        return Dense(_as_complex_array(node["entries"], f"{where}.entries", 2))
    if kind == "rank_one" and not is_base:
        _reject_unknown(node, {"kind", "left", "right"}, where)
        for key in ("left", "right"):
            if key not in node:
                raise SpecFormatError(f"rank_one block needs '{key}'", where)
        return RankOne(_as_complex_array(node["left"], f"{where}.left", 1),
                       _as_complex_array(node["right"], f"{where}.right", 1))
    role = "base" if is_base else "perturbation"
    raise SpecFormatError(f"unknown {role} kind {kind!r}", f"{where}.kind")


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
    base = _parse_block(doc["base"], "base", is_base=True)
    pert = _parse_block(doc["perturbation"], "perturbation", is_base=False)
    return OperatorModel(dim=dim, norm=norm, base=base, perturbation=pert)


def _pairs(arr: np.ndarray) -> list:
    return np.stack([arr.real, arr.imag], -1).tolist()


def _block_doc(spec) -> dict:
    if isinstance(spec, Shift):
        return {"kind": "shift"}
    if isinstance(spec, Zero):
        return {"kind": "zero"}
    if isinstance(spec, Diagonal):
        return {"kind": "diagonal", "values": _pairs(spec.values)}
    if isinstance(spec, Dense):
        return {"kind": "dense", "entries": _pairs(spec.entries)}
    return {"kind": "rank_one", "left": _pairs(spec.left), "right": _pairs(spec.right)}


def serialize_spec(model: OperatorModel) -> str:
    """Wire-format JSON for the model; parse_spec(serialize_spec(m)) == m."""
    doc = {
        "dim": model.dim,
        "norm": model.norm.value,
        "base": _block_doc(model.base),
        "perturbation": _block_doc(model.perturbation),
    }
    return json.dumps(doc, sort_keys=True)
