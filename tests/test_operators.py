import gc
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigencount import (
    Dense,
    Diagonal,
    NormKind,
    OperatorModel,
    RankOne,
    Shift,
    SingularResolventError,
    SpecFormatError,
    Zero,
    materialize,
    parse_spec,
    prepare,
    resolvent_norms,
    serialize_spec,
    shifted_solve,
)
from eigencount import operators
from eigencount.numerics import _proven_l2_norm


def _sample_model():
    return OperatorModel(
        dim=4,
        norm=NormKind.L2,
        base=Diagonal(np.array([0.5, 0.25, 0.0, -0.5], dtype=complex)),
        perturbation=RankOne(
            left=np.array([1.0, 0.0, 0.0, 0.0], dtype=complex),
            right=np.array([2.0, 1.0, 0.0, 0.0], dtype=complex),
        ),
    )


def test_round_trip_every_kind():
    models = [
        OperatorModel(3, NormKind.L1, Shift(), Zero()),
        _sample_model(),
        OperatorModel(2, NormKind.LINF, Zero(),
                      Dense(np.array([[1.0, 1j], [0.0, 2.0]]))),
        OperatorModel(2, NormKind.L2,
                      Dense(np.array([[0.0, 0.5], [0.5, 0.0]])),
                      Diagonal(np.array([1.0 + 1j, 0.0]))),
    ]
    for model in models:
        again = parse_spec(serialize_spec(model))
        assert again == model


def test_materialize_shift_and_rank_one():
    model = OperatorModel(3, NormKind.L1, Shift(),
                          RankOne(left=np.array([1.0, 0, 0], dtype=complex),
                                  right=np.array([2.0, 0, 0], dtype=complex)))
    l0, k = materialize(model)
    expected = np.zeros((3, 3), dtype=complex)
    expected[1, 0] = expected[2, 1] = 1.0
    assert np.array_equal(l0, expected)
    assert np.array_equal(k, np.outer([1.0, 0, 0], [2.0, 0, 0]))


def test_materialize_diagonal_zero_dense():
    model = OperatorModel(2, NormKind.L2,
                          Diagonal(np.array([1j, 2.0])),
                          Dense(np.array([[0.0, 1.0], [0.0, 0.0]])))
    l0, k = materialize(model)
    assert np.array_equal(l0, np.diag([1j, 2.0 + 0j]))
    assert k[0, 1] == 1.0
    zero_model = OperatorModel(2, NormKind.L2, Zero(), Zero())
    l0, k = materialize(zero_model)
    assert not l0.any() and not k.any()


def test_parse_rejects_unknown_keys_with_location():
    doc = json.loads(serialize_spec(_sample_model()))
    doc["extra"] = 1
    with pytest.raises(SpecFormatError) as info:
        parse_spec(json.dumps(doc))
    assert "extra" in str(info.value)

    doc = json.loads(serialize_spec(_sample_model()))
    doc["perturbation"]["bogus"] = 1
    with pytest.raises(SpecFormatError) as info:
        parse_spec(json.dumps(doc))
    assert "perturbation" in str(info.value)


@pytest.mark.parametrize("mutate, fragment", [
    (lambda d: d.update(dim=0), "dim"),
    (lambda d: d.update(dim="four"), "dim"),
    (lambda d: d.update(norm="l7"), "norm"),
    (lambda d: d.pop("base"), "base"),
    (lambda d: d["base"].update(kind="mystery"), "kind"),
])
def test_parse_rejects_bad_fields(mutate, fragment):
    doc = json.loads(serialize_spec(_sample_model()))
    mutate(doc)
    with pytest.raises(SpecFormatError) as info:
        parse_spec(json.dumps(doc))
    assert fragment in str(info.value)


def test_parse_rejects_wrong_length_vectors():
    doc = json.loads(serialize_spec(_sample_model()))
    doc["perturbation"]["left"] = [[1.0, 0.0]]  # dim is 4
    with pytest.raises(SpecFormatError):
        parse_spec(json.dumps(doc))


def test_parse_rejects_non_json():
    with pytest.raises(SpecFormatError):
        parse_spec(b"not json at all")


def test_model_validates_component_dimensions():
    with pytest.raises(SpecFormatError):
        OperatorModel(3, NormKind.L2,
                      Diagonal(np.array([1.0, 2.0])), Zero())


def test_component_equality_is_by_value():
    a = Diagonal(np.array([1.0, 2.0]))
    b = Diagonal(np.array([1.0, 2.0]))
    c = Diagonal(np.array([1.0, 3.0]))
    assert a == b and a != c
    assert Shift() == Shift()
    assert Zero() != Shift()
    # equality is by exact type: the same numbers in another block differ
    v = np.array([1.0, 2.0])
    assert Diagonal(v) != Dense(np.diag(v)) and Diagonal(v) != Dense(v)
    assert RankOne(v, v) == RankOne(v, v.astype(complex)) != RankOne(v, 2 * v)


def _dense_doc():
    """A dim-3 l2 document with a dense base and a rank-one perturbation."""
    rng = np.random.default_rng(3)
    return json.loads(serialize_spec(OperatorModel(
        3, NormKind.L2,
        Dense(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))),
        RankOne(left=np.array([1.0, 2.0, 3.0], dtype=complex),
                right=np.array([0.5j, 0.0, -1.0], dtype=complex)))))


def _set(path, value):
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return mutate


@pytest.mark.parametrize("mutate, location, fragment", [
    (_set(("base", "entries", 1, 2), [True, 0.0]), "base.entries[1][2]", "[re, im] pairs"),
    (_set(("base", "entries", 1, 2), [0.5, False]), "base.entries[1][2]", "[re, im] pairs"),
    (_set(("base", "entries", 1, 2), True), "base.entries[1][2]", "[re, im] pairs"),
    (_set(("base", "entries", 1, 2), [0.5, "1"]), "base.entries[1][2]", "[re, im] pairs"),
    (_set(("base", "entries", 1, 2), ["x", 0.0]), "base.entries[1][2]", "[re, im] pairs"),
    (_set(("base", "entries", 1, 2), None), "base.entries[1][2]", "[re, im] pairs"),
    (_set(("base", "entries", 1, 2), [None, 0.0]), "base.entries[1][2]", "[re, im] pairs"),
    (_set(("base", "entries", 1, 2), [1.0, 0.0, 0.0]), "base.entries[1][2]", "[re, im] pairs"),
    (_set(("base", "entries", 1, 2), 1.5), "base.entries[1][2]", "[re, im] pairs"),
    (_set(("base", "entries", 1, 2), []), "base.entries[1][2]", "[re, im] pairs"),
    (lambda d: d["base"]["entries"][1].pop(), "base.entries[1]",
     "row 1 has length 2, expected 3"),
    (lambda d: d["base"]["entries"][0].append([0.0, 0.0]), "base.entries[1]",
     "row 1 has length 3, expected 4"),
    (_set(("base", "entries", 2), 7), "base.entries[2]", "list of [re, im] pairs"),
    (_set(("base", "entries"), []), "base.entries", "non-empty list of rows"),
    (_set(("base", "entries"), 5), "base.entries", "non-empty list of rows"),
    (_set(("base", "entries"), [[], [], []]), "base.entries", "must be 3 x 3"),
    (_set(("base", "entries"), [[1.0, 0.0]] * 3), "base.entries[0][0]", "[re, im] pairs"),
    (lambda d: d["perturbation"].update(left=[[p] for p in d["perturbation"]["left"]]),
     "perturbation.left[0]", "[re, im] pairs"),
    (_set(("perturbation", "right", 2), [0.0, True]), "perturbation.right[2]",
     "[re, im] pairs"),
    (_set(("perturbation", "right"), "abc"), "perturbation.right",
     "list of [re, im] pairs"),
    (_set(("perturbation", "right"), []), "perturbation.right", "needs length 3"),
    (_set(("base",), {"kind": "diagonal", "values": []}), "base.values",
     "exactly dim = 3 values"),
    # a str or dict has a length, so these pass a length check and fail on type
    (_set(("base", "entries", 1, 2), "12"), "base.entries[1][2]", "[re, im] pairs"),
    (_set(("base", "entries", 1, 2), {"a": 1, "b": 2}), "base.entries[1][2]",
     "[re, im] pairs"),
    (_set(("base", "entries", 1), "abc"), "base.entries[1]", "list of [re, im] pairs"),
    (_set(("base", "entries"), [[], {}, []]), "base.entries[1]", "list of [re, im] pairs"),
    (_set(("perturbation", "left"), {}), "perturbation.left", "list of [re, im] pairs"),
    (_set(("perturbation", "left", 1), ["1.5", 0.0]), "perturbation.left[1]",
     "[re, im] pairs"),
    (_set(("perturbation", "left", 1), [1.0]), "perturbation.left[1]", "[re, im] pairs"),
])
def test_malformed_blocks_name_the_offending_element(mutate, location, fragment):
    doc = _dense_doc()
    mutate(doc)
    with pytest.raises(SpecFormatError) as info:
        parse_spec(json.dumps(doc))
    assert info.value.location == location
    assert fragment in str(info.value)


@pytest.mark.parametrize("path, value, token, reason", [
    (("base", "entries", 0, 0), [float("nan"), 0.0], "NaN", "unexpected character"),
    (("perturbation", "right", 1), [0.0, float("inf")], "Infinity", "unexpected character"),
    (("perturbation", "left", 0), [float("-inf"), 0.0], "-Infinity",
     "no digit after minus sign"),
])
def test_non_finite_entries_are_not_json(path, value, token, reason):
    # stdlib json writes them, but RFC 8259 has no NaN or Infinity: the
    # decoder refuses the document at the token, and the same tree read
    # without the decoder fails the model's finiteness check
    doc = _dense_doc()
    _set(path, value)(doc)
    text = json.dumps(doc)
    at = text.index(token)
    with pytest.raises(SpecFormatError) as info:
        parse_spec(text)
    assert info.value.location == ""
    assert str(info.value) == f"not valid JSON: {reason}: line 1 column {at + 1} (char {at})"
    with pytest.raises(SpecFormatError) as info:
        operators._model_from_doc(doc)
    assert str(info.value) == "%s.%s: entries must be finite" % path[:2]


def _drop(role, key):
    return lambda d: d[role].pop(key)


_LEFT = [[1.0, 0.0]] * 3


@pytest.mark.parametrize("mutate, message", [
    (_set(("perturbation",), {"kind": "shift"}),
     "perturbation.kind: unknown perturbation kind 'shift'"),
    (_set(("base",), {"kind": "rank_one", "left": _LEFT, "right": _LEFT}),
     "base.kind: unknown base kind 'rank_one'"),
    (_set(("base", "kind"), [1]), "base.kind: unknown base kind [1]"),
    (_set(("perturbation", "kind"), {"a": 1}),
     "perturbation.kind: unknown perturbation kind {'a': 1}"),
    (_drop("base", "kind"), "base.kind: unknown base kind None"),
    (_set(("perturbation", "kind"), 7), "perturbation.kind: unknown perturbation kind 7"),
    (_drop("base", "entries"), "base: dense block needs 'entries'"),
    (_set(("base",), {"kind": "diagonal"}), "base: diagonal block needs 'values'"),
    (_set(("perturbation",), {"kind": "diagonal"}),
     "perturbation: diagonal block needs 'values'"),
    (_set(("perturbation",), {"kind": "dense"}),
     "perturbation: dense block needs 'entries'"),
    (_drop("perturbation", "left"), "perturbation: rank_one block needs 'left'"),
    (_drop("perturbation", "right"), "perturbation: rank_one block needs 'right'"),
    (_set(("perturbation",), {"kind": "rank_one"}),
     "perturbation: rank_one block needs 'left'"),
    (_set(("base", "bogus"), 1), "base: unknown keys ['bogus']"),
    (_set(("base",), {"kind": "zero", "values": _LEFT}), "base: unknown keys ['values']"),
    (_set(("base",), {"kind": "diagonal", "values": _LEFT[:2]}),
     "base.values: diagonal needs exactly dim = 3 values, got (2,)"),
    (_set(("base", "entries"), [[], [], []]),
     "base.entries: dense block must be 3 x 3, got (3, 0)"),
    (_set(("perturbation",), {"kind": "dense", "entries": [_LEFT] * 2}),
     "perturbation.entries: dense block must be 3 x 3, got (2, 3)"),
    (_set(("perturbation", "left"), _LEFT[:1]),
     "perturbation.left: rank_one left vector needs length 3, got (1,)"),
    (_set(("perturbation", "right"), _LEFT * 2),
     "perturbation.right: rank_one right vector needs length 3, got (6,)"),
])
def test_block_table_errors_keep_their_exact_messages(mutate, message):
    doc = _dense_doc()
    mutate(doc)
    with pytest.raises(SpecFormatError) as info:
        parse_spec(json.dumps(doc))
    assert str(info.value) == message


@pytest.mark.parametrize("base, pert, message", [
    (RankOne(np.ones(2), np.ones(2)), Zero(), "base: unsupported base kind RankOne"),
    (Zero(), Shift(), "perturbation: unsupported perturbation kind Shift"),
    (Zero(), RankOne(np.ones(2), np.ones(3)),
     "perturbation.right: rank_one right vector needs length 2, got (3,)"),
    (Diagonal([1.0, np.inf]), Zero(), "base.values: entries must be finite"),
])
def test_models_reject_blocks_outside_their_role(base, pert, message):
    with pytest.raises(SpecFormatError) as info:
        OperatorModel(2, NormKind.L2, base, pert)
    assert str(info.value) == message


def test_each_kind_is_one_class_and_one_table_entry():
    assert operators.BASE_KINDS == {"shift": Shift, "diagonal": Diagonal,
                                    "dense": Dense, "zero": Zero}
    assert operators.PERT_KINDS == {"rank_one": RankOne, "diagonal": Diagonal,
                                    "dense": Dense, "zero": Zero}
    v = np.array([1.0, 2j])
    for block in (Shift(), Zero(), Diagonal(v), Dense(np.outer(v, v)), RankOne(v, v)):
        doc = block.to_doc()
        assert doc["kind"] == block.tag
        assert type(block).from_doc(doc, "base") == block
        assert block.matrix(2).shape == (2, 2)
    # == is by kind and arrays, and the hash is the kind's
    assert Shift() == Shift() and hash(Shift()) == hash(Shift())
    assert {Zero(), Zero(), Shift()} == {Zero(), Shift()}
    assert hash(Diagonal(v)) == hash(Diagonal(2 * v)) and Diagonal(v) != Diagonal(2 * v)


_EDGE_PAIRS = [
    [0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [3, -7], [0, -0],
    [2 ** 53 + 1, -(2 ** 64 + 1)], [10 ** 300, -10 ** 300],
    [5e-324, -5e-324], [1.1125369292536007e-308, -2.225073858507201e-308],
    [1.7976931348623157e308, -1.7976931348623157e308],
    [1e308, -9.999999999999999e307], [0.1, -1 / 3],
    # integer leaves, read by orjson as int from -2^63 up to 2^64 - 1
    [0, -0], [2 ** 53 + 1, 2 ** 63], [2 ** 64 - 1, -2 ** 63],
]


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=complex).view(np.uint64)


def test_parse_is_bit_exact():
    dim = len(_EDGE_PAIRS)
    rows = [_EDGE_PAIRS[i:] + _EDGE_PAIRS[:i] for i in range(dim)]
    text = json.dumps({"dim": dim, "norm": "l2",
                       "base": {"kind": "diagonal", "values": _EDGE_PAIRS},
                       "perturbation": {"kind": "dense", "entries": rows}})
    model = parse_spec(text)
    expected = [complex(float(re), float(im)) for re, im in _EDGE_PAIRS]
    assert np.array_equal(_bits(model.base.values), _bits(expected))
    assert np.array_equal(_bits(model.perturbation.entries),
                          _bits([[complex(float(re), float(im)) for re, im in row]
                                 for row in rows]))

    text = json.dumps({"dim": dim, "norm": "l1", "base": {"kind": "zero"},
                       "perturbation": {"kind": "rank_one", "left": _EDGE_PAIRS,
                                        "right": _EDGE_PAIRS[::-1]}})
    model = parse_spec(text)
    assert np.array_equal(_bits(model.perturbation.left), _bits(expected))
    assert np.array_equal(_bits(model.perturbation.right), _bits(expected[::-1]))


def test_oversized_integer_is_a_format_error():
    # orjson reads an integer of 2^64 or more as a float, and one past the
    # largest float is no number: refused at its first character
    for path, number in ((("perturbation", "left", 0, 0), 10 ** 300 * 10 ** 300),
                         (("base", "entries", 2, 1, 1), -10 ** 400)):
        doc = _dense_doc()
        _set(path, number)(doc)
        text = json.dumps(doc)
        at = text.index(str(number))
        with pytest.raises(SpecFormatError) as info:
            parse_spec(text)
        assert info.value.location == ""
        assert str(info.value) == ("not valid JSON: number is infinity when parsed as "
                                   f"double: line 1 column {at + 1} (char {at})")


def _loop_serialize(model):
    """The element-by-element serializer, kept as the reference."""
    def pairs(arr):
        return [[float(c.real), float(c.imag)] for c in np.asarray(arr, dtype=complex)]

    def block(spec):
        if isinstance(spec, (Shift, Zero)):
            return {"kind": "shift" if isinstance(spec, Shift) else "zero"}
        if isinstance(spec, Diagonal):
            return {"kind": "diagonal", "values": pairs(spec.values)}
        if isinstance(spec, Dense):
            return {"kind": "dense", "entries": [pairs(row) for row in spec.entries]}
        return {"kind": "rank_one", "left": pairs(spec.left), "right": pairs(spec.right)}

    return json.dumps({"dim": model.dim, "norm": model.norm.value,
                       "base": block(model.base),
                       "perturbation": block(model.perturbation)}, sort_keys=True)


def test_serialize_matches_the_element_loop():
    rng = np.random.default_rng(64)
    dense = rng.standard_normal((64, 64, 2)) * np.logspace(-300, 300, 64)[:, None, None]
    dense[0, :4] = [[0.0, -0.0], [-0.0, 0.0], [5e-324, -0.0], [1e308, 2.5]]
    models = [
        OperatorModel(3, NormKind.L1, Shift(), Zero()),
        _sample_model(),
        OperatorModel(2, NormKind.LINF, Zero(),
                      Dense(np.array([[1.0, 1j], [0.0, 2.0]]))),
        OperatorModel(64, NormKind.L2, Dense(dense.view(complex)[..., 0]),
                      Diagonal(dense[1].view(complex)[..., 0])),
        OperatorModel(64, NormKind.L1, Shift(),
                      RankOne(dense[2].view(complex)[..., 0],
                              dense[3].view(complex)[..., 0])),
    ]
    for model in models:
        text = serialize_spec(model)
        assert text == _loop_serialize(model)
        again = parse_spec(text)
        assert again == model


# --- decoding: orjson against the stdlib json it replaced ------------------

_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                2.2250738585072014e-308, 1.7976931348623157e308, 0.1)
_NUMBER_TEXT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(_EDGE_FLOATS).map(repr),
    st.integers(-10 ** 300, 10 ** 300).map(str),
    st.integers(2 ** 63 - 2, 2 ** 64 + 2).map(str),
    # long decimals, rounded to the nearest float by each decoder
    st.builds("{}{}.{}e{}".format, st.sampled_from(["", "-"]),
              st.integers(0, 9), st.text("0123456789", min_size=1, max_size=40),
              st.integers(-340, 300)),
)


@st.composite
def _documents(draw):
    """Text of a well-formed document of random kinds, dim and numbers."""
    dim = draw(st.integers(1, 4))

    def pairs():
        return "[%s]" % ", ".join("[%s, %s]" % (draw(_NUMBER_TEXT), draw(_NUMBER_TEXT))
                                  for _ in range(dim))

    def block(kind):
        if kind in ("shift", "zero"):
            return '{"kind": "%s"}' % kind
        if kind == "diagonal":
            return '{"kind": "diagonal", "values": %s}' % pairs()
        if kind == "dense":
            return '{"kind": "dense", "entries": [%s]}' % ", ".join(
                pairs() for _ in range(dim))
        return '{"kind": "rank_one", "left": %s, "right": %s}' % (pairs(), pairs())

    norm = draw(st.sampled_from(["l1", "l2", "linf"]))
    base = block(draw(st.sampled_from(["shift", "zero", "diagonal", "dense"])))
    pert = block(draw(st.sampled_from(["zero", "diagonal", "dense", "rank_one"])))
    return '{"dim": %d, "norm": "%s", "base": %s, "perturbation": %s}' % (
        dim, norm, base, pert)


_BLOCK_ARRAYS = ("values", "entries", "left", "right")


def _stdlib_arrays(text: str) -> list:
    """The reference: stdlib json.loads, then one numpy conversion per block."""
    doc = json.loads(text)
    return [np.asarray(doc[role][key], dtype=float).view(np.complex128)[..., 0]
            for role in ("base", "perturbation") for key in _BLOCK_ARRAYS
            if key in doc[role]]


def _model_arrays(model) -> list:
    return [getattr(spec, key) for spec in (model.base, model.perturbation)
            for key in _BLOCK_ARRAYS if hasattr(spec, key)]


@settings(deadline=None, max_examples=150)
@given(_documents())
def test_decoding_matches_stdlib_json_bit_for_bit(text):
    expected = _stdlib_arrays(text)
    for raw in (text, text.encode()):
        got = _model_arrays(parse_spec(raw))
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert a.shape == b.shape
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


_HEAD = ('{"dim": 2, "norm": "l2", "base": {"kind": "zero"}, '
         '"perturbation": {"kind": "diagonal", "values": [[0.5, 0], %s]}}')


@pytest.mark.parametrize("raw, message", [
    # stdlib json reads the first five; none is JSON by RFC 8259
    (_HEAD % "[NaN, 0]", "unexpected character: line 1 column 111 (char 110)"),
    (_HEAD % "[0, -Infinity]", "no digit after minus sign: line 1 column 114 (char 113)"),
    (_HEAD % "[1e400, 0]",
     "number is infinity when parsed as double: line 1 column 111 (char 110)"),
    (_HEAD % "[1, %d]" % 10 ** 400,
     "number is infinity when parsed as double: line 1 column 114 (char 113)"),
    ('{"dim": 2, "norm": "\\ud800", "base": {"kind": "zero"}, '
     '"perturbation": {"kind": "zero"}}',
     "no matched low surrogate in string: line 1 column 27 (char 26)"),
    (_HEAD % "[1, 0]" + " x",
     "unexpected content after document: line 1 column 120 (char 119)"),
    ("", "input length is 0: line 1 column 1 (char 0)"),
])
def test_malformed_documents_get_the_decoders_message(raw, message):
    for doc in (raw, raw.encode()):
        with pytest.raises(SpecFormatError) as info:
            parse_spec(doc)
        assert info.value.location == ""
        assert str(info.value) == "not valid JSON: " + message


def test_bom_utf16_and_utf32_documents_parse():
    text = _HEAD % "[-0.0, 2]"
    model = parse_spec(text)
    assert np.array_equal(_bits(model.perturbation.values), _bits([0.5, complex(-0.0, 2)]))
    for raw in (text.encode("utf-16"), text.encode("utf-32"),
                text.encode("utf-16-le"), b"\xef\xbb\xbf" + text.encode()):
        assert parse_spec(raw) == model


def _collections_during(fn, *args) -> list:
    """The generation of each GC collection that starts while fn(*args) runs."""
    starts = []

    def record(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    # from zero allocations, so the few made before a pause cannot start one
    gc.collect()
    gc.callbacks.append(record)
    try:
        fn(*args)
    finally:
        gc.callbacks.remove(record)
    return starts


def _dense_text(dim: int) -> str:
    rng = np.random.default_rng(dim)
    entries = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return serialize_spec(OperatorModel(dim, NormKind.L2, Dense(entries), Zero()))


def test_no_gc_collection_starts_while_parsing():
    # 10,100 lists, each a GC allocation: about 14 collections with the GC on
    text = _dense_text(100)
    assert gc.isenabled()
    assert len(_collections_during(json.loads, text)) >= 10
    assert _collections_during(operators._decode_json, text) == []
    assert _collections_during(operators._decode_json, text.encode()) == []
    # nor while the blocks are read: the tree is gone before the GC resumes
    assert _collections_during(parse_spec, text) == []
    # nor while a document in another encoding is decoded
    assert _collections_during(operators._decode_json, text.encode("utf-16")) == []
    # nor while a refused document is decoded, which raises from inside the pause
    doc = json.loads(text)
    doc["base"]["entries"][-1][-1] = [float("nan"), 0.0]
    refused = json.dumps(doc)
    at = refused.index("NaN")

    def refuse():
        with pytest.raises(SpecFormatError) as info:
            operators._decode_json(refused)
        assert str(info.value) == (
            f"not valid JSON: unexpected character: line 1 column {at + 1} (char {at})")

    assert _collections_during(refuse) == []
    assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False])
def test_decoding_leaves_the_gc_as_the_caller_had_it(enabled):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        parse_spec(serialize_spec(_sample_model()))
        assert gc.isenabled() is enabled
        for raw, message in (
                (b"not json at all", "invalid literal: line 1 column 1 (char 0)"),
                (_HEAD % "[NaN, 0]", "unexpected character: line 1 column 111 (char 110)"),
                (b"\xff\xfe\x00", "'utf-16-le' codec can't decode byte 0x00 in "
                                  "position 2: truncated data")):
            with pytest.raises(SpecFormatError) as info:
                parse_spec(raw)
            assert str(info.value) == "not valid JSON: " + message
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_dim_past_two_to_the_64_is_not_an_integer():
    # orjson reads an integer literal of 2^64 or more as a float
    text = '{"dim": %d, "norm": "l2", "base": {"kind": "zero"}, "perturbation": {"kind": "zero"}}'
    with pytest.raises(SpecFormatError, match="dim must be a positive integer"):
        parse_spec(text % 2 ** 64)


# --- the base kinds' norms --------------------------------------------------


def _modulus_squared(z: complex) -> Fraction:
    return Fraction(z.real) ** 2 + Fraction(z.imag) ** 2


def _low_abs_entry() -> complex | None:
    # a seeded value of modulus at least 1 whose np.abs rounds below its exact
    # modulus: the first more than one float below (numpy 2.4's complex abs
    # errs by up to about 1.6 floats), else the first below at all
    rng = np.random.default_rng(33)
    values = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
    values = values[np.abs(values) >= 1.0]
    low = [(z, m) for z, m in zip(values.tolist(), np.abs(values).tolist())
           if Fraction(m) ** 2 < _modulus_squared(z)]
    far = [z for z, m in low if Fraction(math.nextafter(m, math.inf)) ** 2 < _modulus_squared(z)]
    return (far or [z for z, _ in low] or [None])[0]


_LOW_ABS = _low_abs_entry()


def _norm_table_base(tag: str, dim: int, k: int, real: bool = False):
    # seeded values times 2^k; a diagonal leads with _LOW_ABS, its largest entry
    rng = np.random.default_rng([dim, k + 1070])
    if tag == "diagonal":
        rest = 0.1 * (rng.standard_normal(dim - 1) + 1j * rng.standard_normal(dim - 1))
        values = np.concatenate(([_LOW_ABS], rest)) * 2.0 ** k
        return Diagonal(values.real if real else values)
    if tag == "dense":
        shape = (dim, dim)
        return Dense((rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 2.0 ** k)
    return operators.BASE_KINDS[tag]()


def test_the_norm_table_has_a_diagonal_entry_whose_numpy_modulus_rounds_low():
    assert _LOW_ABS is not None
    assert Fraction(np.abs(np.array([_LOW_ABS]))[0]) ** 2 < _modulus_squared(_LOW_ABS)


@pytest.mark.parametrize("k", [-1070, -1000, 0, 1000])
@pytest.mark.parametrize("dim", [1, 2, 50])
@pytest.mark.parametrize("kind", list(NormKind))
@pytest.mark.parametrize("tag", sorted(operators.BASE_KINDS))
def test_each_base_kind_gives_its_norm(tag, kind, dim, k):
    base = _norm_table_base(tag, dim, k)
    norm = base.norm(dim, kind)
    assert type(norm) is float
    if tag in ("shift", "zero"):
        assert norm == (1.0 if tag == "shift" and dim > 1 else 0.0)
    elif tag == "dense" and kind is NormKind.L2:
        # the route ||L0|| took before the base kinds owned it
        assert norm == _proven_l2_norm(base.entries)
        half = 2.0 ** (k // 2)  # 2^k in two exact steps, as 2^1070 overflows
        sigma = np.linalg.svd(base.entries / half / half, compute_uv=False)[0]
        assert norm >= sigma * half * half
    elif tag == "dense":
        # at or above the exact norm, and above it by at most the rounding of
        # the sums and one float per modulus
        low, high = _exact_sum_norm_between(base.entries, kind)
        assert high <= Fraction(norm) <= (low * (1 + Fraction(dim + 3, 2 ** 52))
                                          + Fraction(2 * dim, 2 ** 1074))
    else:
        # at or above the exact largest modulus, and at most one float above
        # the smallest float at or above it; on l1 and linf the dense twin's bits
        exact = max(map(_modulus_squared, base.values.tolist()))
        below = math.nextafter(math.nextafter(norm, 0.0), 0.0)
        assert Fraction(below) ** 2 < exact <= Fraction(norm) ** 2
        if kind is not NormKind.L2:
            assert norm == Dense(np.diag(base.values)).norm(dim, kind)
    if tag == "diagonal":
        real = _norm_table_base(tag, dim, k, real=True)
        assert real.norm(dim, kind) == float(np.max(np.abs(real.values)))


def _modulus_between(z: complex) -> tuple[Fraction, Fraction]:
    # rationals l <= |z| <= u, 2^-1300 apart, far below the smallest float 2^-1074
    root = math.isqrt(math.floor(_modulus_squared(z) * 4 ** 1300))
    return Fraction(root, 2 ** 1300), Fraction(root + 1, 2 ** 1300)


def _exact_sum_norm_between(m: np.ndarray, kind: NormKind) -> tuple[Fraction, Fraction]:
    # rationals below and above ||m||_1 (kind L1) or ||m||_inf (LINF), exactly
    lines = [[_modulus_between(z) for z in line]
             for line in (m.T if kind is NormKind.L1 else m).tolist()]
    return (max(sum(low for low, _ in line) for line in lines),
            max(sum(high for _, high in line) for line in lines))


@pytest.mark.parametrize("kind", [NormKind.L1, NormKind.LINF])
def test_complex_base_norms_are_at_or_above_the_exact_norm(kind):
    # numpy's complex abs rounds some moduli low, _LOW_ABS by more than a
    # float, so its abs sums could sit below ||L0||
    rng = np.random.default_rng(35)
    for dim in (1, 3, 40):
        entries = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        entries[0, 0] = 4.0 * _LOW_ABS
        for base in (Dense(entries), Diagonal(np.diag(entries).copy())):
            norm_l0 = prepare(OperatorModel(dim, kind, base, Zero())).norm_l0
            assert _exact_sum_norm_between(base.matrix(dim), kind)[1] <= Fraction(norm_l0)


# --- the base kinds' solves -------------------------------------------------


def _circle(t: float) -> np.ndarray:
    return t * np.exp(2j * np.pi * np.arange(64) / 64)


def test_each_base_kind_solves_as_lu_does(corpus):
    # the base kind's route against the dense LU of numerics, on circles
    # inside, near and far outside the base's norm, in every norm
    seen = set()
    for entry in corpus:
        model = entry.model
        prep = prepare(model)
        rhs = np.random.default_rng(model.dim).standard_normal((model.dim, 3)) + 0j
        for t in (0.5 * prep.norm_l0 + 0.01, prep.norm_l0 + 0.25,
                  prep.norm_l0 + prep.norm_k + 1.0):
            circle = _circle(t)
            norms = operators._resolvent_norms(model, circle)
            lu = resolvent_norms(prep.l0, circle, model.norm)
            assert np.allclose(norms, lu, rtol=1e-12, atol=0.0), entry.name
            x, x_lu = model.base.solve(model.dim, circle, rhs), shifted_solve(prep.l0, circle, rhs)
            assert x.shape == (64, model.dim, 3)
            assert np.all(np.linalg.norm(x - x_lu, axis=(1, 2))
                          <= 1e-12 * np.linalg.norm(x_lu, axis=(1, 2))), entry.name
        seen.add((model.base.tag, model.norm))
    assert len(seen) == 12


@pytest.mark.parametrize("base, lam", [
    (Diagonal(np.array([0.5, 1.2j, -0.3, 1.2j])), 1.2j),
    (Shift(), 0j),
    (Zero(), 0j),
], ids=["diagonal", "shift", "zero"])
def test_a_lam_on_the_base_spectrum_is_named(base, lam):
    # the first offending lam of the stack, as LAPACK's singular LU is named
    model = OperatorModel(4, NormKind.L1, base, Zero())
    lams = np.array([2.0, lam, -0.3, lam])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularResolventError, match="is an eigenvalue") as info:
            base.solve(4, lams, np.eye(4))
        assert info.value.lam == lam
        for kind in NormKind:
            with pytest.raises(SingularResolventError) as info:
                operators._resolvent_norms(OperatorModel(4, kind, base, Zero()), lams)
            assert info.value.lam == lam
    with pytest.raises(SingularResolventError, match="is an eigenvalue"):
        shifted_solve(model.base.matrix(4), lam, np.eye(4))


def test_a_shift_resolvent_that_overflows_names_lambda():
    # 1e-3^-400 passes the largest float: forward substitution leaves inf and NaN
    lams = np.array([2.0, 1e-3j, 1e-3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularResolventError, match="within tolerance") as info:
            Shift().solve(400, lams, np.eye(400))
    assert info.value.lam == 1e-3j
