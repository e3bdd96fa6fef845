"""JSON schema validation, canonical encoding, digests, set roundtrips."""

import json

import numpy as np
import pytest

from okacert.errors import SchemaError
from okacert.gallery import build_example, gallery_names
from okacert.specjson import (
    canonical_json,
    digest,
    load_set,
    parse_set_spec,
    plain,
    read_json,
    write_json,
)


# ---------------------------------------------------------------------------
# canonical encoding
# ---------------------------------------------------------------------------

def test_plain_converts_numpy_and_complex():
    blob = {
        "a": np.float64(1.5),
        "b": np.int32(7),
        "c": np.bool_(True),
        "d": np.array([[1.0, 2.0], [3.0, 4.0]]),
        "e": complex(2.0, -3.0),
        "f": [np.float32(0.25)],
        "g": np.array([3.0 - 4.0j, 0.5 + 0.0j]),
        "h": np.array([True, False]),
        "i": np.array([3, -4], dtype=np.int64),
        "j": np.array([[0.5, 0.25], [1.0, -2.0]], dtype=np.float32),
        "k": (0.5, -1.0),
        "l": [0.5, np.float64(2.5)],
    }
    out = plain(blob)
    assert out == {"a": 1.5, "b": 7, "c": True,
                   "d": [[1.0, 2.0], [3.0, 4.0]],
                   "e": [2.0, -3.0], "f": [0.25],
                   "g": [[3.0, -4.0], [0.5, 0.0]],
                   "h": [True, False], "i": [3, -4],
                   "j": [[0.5, 0.25], [1.0, -2.0]],
                   "k": [0.5, -1.0], "l": [0.5, 2.5]}

    def types(v):
        """The same nesting with each leaf replaced by its exact type; a tuple,
        an array or a numpy scalar shows up as itself."""
        if type(v) is dict:
            return {k: types(x) for k, x in v.items()}
        if type(v) is list:
            return [types(x) for x in v]
        return type(v)

    assert types(out) == {"a": float, "b": int, "c": bool,
                          "d": [[float, float], [float, float]],
                          "e": [float, float], "f": [float],
                          "g": [[float, float], [float, float]],
                          "h": [bool, bool], "i": [int, int],
                          "j": [[float, float], [float, float]],
                          "k": [float, float], "l": [float, float]}
    json.dumps(out)  # encodable without custom hooks


def test_canonical_json_is_sorted_and_compact():
    s = canonical_json({"b": 1, "a": {"z": 2, "y": [3, 4]}})
    assert s == '{"a":{"y":[3,4],"z":2},"b":1}'
    assert canonical_json({"a": 1, "b": 2}) == canonical_json({"b": 2, "a": 1})


def test_canonical_json_rejects_nan():
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})


def test_digest_is_stable_and_sensitive():
    a = digest({"x": [1, 2, 3]})
    assert a == digest({"x": [1, 2, 3]})
    assert a != digest({"x": [1, 2, 4]})
    assert len(a) == 64 and all(ch in "0123456789abcdef" for ch in a)


def test_write_then_read_roundtrip(tmp_path):
    path = tmp_path / "blob.json"
    obj = {"name": "probe", "values": [1.5, -2.0], "nested": {"k": 3}}
    text = write_json(path, obj)
    assert text.endswith("\n")
    assert read_json(path) == obj


# ---------------------------------------------------------------------------
# set descriptions
# ---------------------------------------------------------------------------

def test_every_gallery_set_roundtrips_through_json():
    rng = np.random.default_rng(711)
    for name in gallery_names():
        E = build_example(name)
        blob = E.to_jsonable()
        assert "type" in blob
        E2 = parse_set_spec(json.loads(canonical_json(blob)))
        assert E2.m == E.m
        # same membership on random probes
        for _ in range(50):
            x = rng.uniform(-4, 4, size=E.m)
            assert E.contains(x) == E2.contains(x)
        assert canonical_json(E2.to_jsonable()) == canonical_json(blob)


def test_parse_polyhedron_and_ball():
    E = parse_set_spec({"type": "polyhedron",
                        "A": [[1.0, 0.0], [0.0, 1.0]], "b": [1.0, 2.0]})
    assert E.contains(np.array([0.5, 0.5]))
    B = parse_set_spec({"type": "ball", "center": [1.0, 0.0], "radius": 2.0})
    assert B.contains(np.array([2.5, 0.0]))
    assert not B.contains(np.array([3.5, 0.0]))


@pytest.mark.parametrize("data, loc", [
    ("not a dict", "$"),
    ({}, "$.type"),
    ({"type": "made-up"}, "$.type"),
    ({"type": "polyhedron", "A": [[1.0]]}, "$.b"),
    ({"type": "polyhedron", "A": [[1.0], [2.0]], "b": [1.0]}, "$.b"),
    ({"type": "polyhedron", "A": [[1.0, 2.0], [3.0]], "b": [1, 2]}, "$.A[1]"),
    ({"type": "polyhedron", "A": "x", "b": [1.0]}, "$.A"),
    ({"type": "ball", "center": [0.0], "radius": -1.0}, "$.radius"),
    ({"type": "ball", "center": [0.0, True], "radius": 1.0}, "$.center"),
    ({"type": "siegel", "n": 1}, "$.n"),
    ({"type": "siegel", "n": 2.5}, "$.n"),
    ({"type": "normcombo", "n": 2, "a": [1.0, 1.0], "b": [1.0], "c": 1.0},
     "$.a"),
    ({"type": "epigraph", "m": 2, "graph_index": 1, "base_indices": [0],
      "phi": "nope"}, "$.phi"),
    ({"type": "tube", "base": {"type": "ball", "center": [0, 0], "radius": 1},
      "base_indices": [0, 1]}, "$.fiber_indices"),
    ({"type": "dilation", "base": {"type": "made-up"}, "factor": 2.0},
     "$.base.type"),
    ({"type": "dilation", "base": {"type": "siegel", "n": 2}, "factor": 2.0,
      "center": [0.0, 1.0]}, "$.center"),
    ({"type": "epigraph", "m": 2, "graph_index": 1, "base_indices": [0],
      "phi": {"kind": "maxaffine", "A": [[1.0]], "b": 1.0}}, "$.phi"),
])
def test_schema_errors_pinpoint_location(data, loc):
    with pytest.raises(SchemaError) as exc_info:
        parse_set_spec(data)
    assert exc_info.value.path == loc


def test_programming_errors_are_not_schema_errors(monkeypatch):
    """Only input errors become SchemaError; a bug in a constructor propagates."""
    from okacert import specjson

    def broken(*args, **kwargs):
        raise RuntimeError("bug")

    monkeypatch.setattr(specjson, "HPolyhedron", broken)
    with pytest.raises(RuntimeError, match="bug"):
        parse_set_spec({"type": "polyhedron", "A": [[1.0, 0.0]], "b": [1.0]})


def test_load_set_reports_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json", encoding="utf-8")
    with pytest.raises(SchemaError) as exc_info:
        load_set(path)
    assert exc_info.value.path == "$"
    good = tmp_path / "ok.json"
    write_json(good, {"type": "siegel", "n": 2})
    E = load_set(good)
    assert E.m == 4


def test_certificate_digest_depends_on_plan():
    """The certificate digest covers set and sampling plan, so different
    budgets yield different digests for the same set."""
    from okacert.certify import SamplingPlan, certify_oka_complement
    from okacert.sets import QuadricBall
    E = QuadricBall(np.zeros(4), 1.0)
    c1 = certify_oka_complement(E, SamplingPlan().scaled(30))
    c2 = certify_oka_complement(E, SamplingPlan().scaled(40))
    assert c1.input_digest != c2.input_digest
