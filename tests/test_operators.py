import json

import numpy as np
import pytest

from eigencount import (
    Dense,
    Diagonal,
    NormKind,
    OperatorModel,
    RankOne,
    Shift,
    SpecFormatError,
    Zero,
    materialize,
    parse_spec,
    serialize_spec,
)


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
    (_set(("base", "entries", 0, 0), [float("nan"), 0.0]), "base.entries",
     "entries must be finite"),
    (_set(("perturbation", "right", 1), [0.0, float("inf")]), "perturbation.right",
     "entries must be finite"),
    (_set(("perturbation", "left", 0), [float("-inf"), 0.0]), "perturbation.left",
     "entries must be finite"),
])
def test_malformed_blocks_name_the_offending_element(mutate, location, fragment):
    doc = _dense_doc()
    mutate(doc)
    with pytest.raises(SpecFormatError) as info:
        parse_spec(json.dumps(doc))
    assert info.value.location == location
    assert fragment in str(info.value)


_EDGE_PAIRS = [
    [0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [3, -7], [0, -0],
    [2 ** 53 + 1, -(2 ** 64 + 1)], [10 ** 300, -10 ** 300],
    [5e-324, -5e-324], [1.1125369292536007e-308, -2.225073858507201e-308],
    [1.7976931348623157e308, -1.7976931348623157e308],
    [1e308, -9.999999999999999e307], [0.1, -1 / 3],
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
    expected = [complex(re, im) for re, im in _EDGE_PAIRS]
    assert np.array_equal(_bits(model.base.values), _bits(expected))
    assert np.array_equal(_bits(model.perturbation.entries),
                          _bits([[complex(re, im) for re, im in row] for row in rows]))

    text = json.dumps({"dim": dim, "norm": "l1", "base": {"kind": "zero"},
                       "perturbation": {"kind": "rank_one", "left": _EDGE_PAIRS,
                                        "right": _EDGE_PAIRS[::-1]}})
    model = parse_spec(text)
    assert np.array_equal(_bits(model.perturbation.left), _bits(expected))
    assert np.array_equal(_bits(model.perturbation.right), _bits(expected[::-1]))


def test_oversized_integer_is_a_format_error():
    doc = _dense_doc()
    doc["perturbation"]["left"][0] = [10 ** 300 * 10 ** 300, 0]
    with pytest.raises(SpecFormatError) as info:
        parse_spec(json.dumps(doc))
    assert info.value.location == "perturbation.left[0]"
    doc = _dense_doc()
    doc["base"]["entries"][2][1] = [0, -10 ** 400]
    with pytest.raises(SpecFormatError) as info:
        parse_spec(json.dumps(doc))
    assert info.value.location == "base.entries[2][1]"


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
