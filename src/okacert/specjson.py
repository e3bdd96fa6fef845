"""JSON input/output: schema-checked set descriptions, canonical encoding,
and content digests.

Canonical encoding = sorted keys, no whitespace, plain floats; two runs of
the same computation therefore produce byte-identical primary outputs.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

import numpy as np

from .errors import OkacertError, SchemaError
from .functions import function_from_jsonable
from .sets import (
    ConvexSet,
    Dilation,
    Epigraph,
    HPolyhedron,
    QuadricBall,
    SiegelClosure,
    Tube,
    normcombo_cone_set,
)


def plain(obj: Any) -> Any:
    """Recursively convert numpy scalars/arrays to plain Python values."""
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "biuf":
            return obj.tolist()
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if all(type(v) is float for v in obj):
            return list(obj)
        return [plain(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, complex):
        return [float(obj.real), float(obj.imag)]
    return obj


def canonical_json(obj: Any) -> str:
    return json.dumps(plain(obj), sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def digest(obj: Any) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def write_json(path, obj) -> str:
    text = canonical_json(obj) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# set descriptions
# ---------------------------------------------------------------------------

def _req(data: dict, key: str, path: str):
    if key not in data:
        raise SchemaError(f"{path}.{key}", "missing required field")
    return data[key]


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, f"expected a number, got {type(value).__name__}")
    return float(value)


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"expected an integer, got {type(value).__name__}")
    return int(value)


def _vector(value, path: str) -> np.ndarray:
    if not isinstance(value, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
        raise SchemaError(path, "expected a list of numbers")
    return np.asarray(value, dtype=float)


def _matrix(value, path: str) -> np.ndarray:
    if not isinstance(value, list) or not value or not all(
            isinstance(row, list) for row in value):
        raise SchemaError(path, "expected a list of rows")
    width = len(value[0])
    rows = []
    for i, row in enumerate(value):
        if len(row) != width:
            raise SchemaError(f"{path}[{i}]", "ragged matrix rows")
        rows.append(_vector(row, f"{path}[{i}]"))
    return np.vstack(rows)


def _indices(value, path: str) -> list:
    if not isinstance(value, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in value):
        raise SchemaError(path, "expected a list of integers")
    return list(value)


def parse_set_spec(data, path: str = "$") -> ConvexSet:
    """Build a convex set from its JSON description; SchemaError pinpoints
    the offending field on malformed input."""
    if not isinstance(data, dict):
        raise SchemaError(path, "expected an object")
    kind = _req(data, "type", path)
    if kind == "polyhedron":
        A = _matrix(_req(data, "A", path), f"{path}.A")
        b = _vector(_req(data, "b", path), f"{path}.b")
        if A.shape[0] != b.shape[0]:
            raise SchemaError(f"{path}.b", "length must match the number of rows of A")
        try:
            return HPolyhedron(A, b)
        except (OkacertError, ValueError) as exc:
            raise SchemaError(path, f"invalid polyhedron: {exc}")
    if kind == "ball":
        center = _vector(_req(data, "center", path), f"{path}.center")
        radius = _number(_req(data, "radius", path), f"{path}.radius")
        if radius <= 0:
            raise SchemaError(f"{path}.radius", "must be positive")
        return QuadricBall(center, radius)
    if kind == "siegel":
        n = _integer(_req(data, "n", path), f"{path}.n")
        if n < 2:
            raise SchemaError(f"{path}.n", "must be at least 2")
        return SiegelClosure(n)
    if kind == "normcombo":
        n = _integer(_req(data, "n", path), f"{path}.n")
        a = _vector(_req(data, "a", path), f"{path}.a")
        b = _vector(_req(data, "b", path), f"{path}.b")
        c = _number(_req(data, "c", path), f"{path}.c")
        if len(a) != n - 1 or len(b) != n - 1:
            raise SchemaError(f"{path}.a", "coefficient lists need length n-1")
        try:
            return normcombo_cone_set(n, a, b, c)
        except (OkacertError, ValueError) as exc:
            raise SchemaError(path, f"invalid coefficients: {exc}")
    if kind == "epigraph":
        m = _integer(_req(data, "m", path), f"{path}.m")
        gi = _integer(_req(data, "graph_index", path), f"{path}.graph_index")
        bi = _indices(_req(data, "base_indices", path), f"{path}.base_indices")
        fi = _indices(data.get("free_indices", []), f"{path}.free_indices")
        phi_data = _req(data, "phi", path)
        if not isinstance(phi_data, dict):
            raise SchemaError(f"{path}.phi", "expected an object")
        try:
            phi = function_from_jsonable(phi_data)
        except (OkacertError, ValueError, LookupError, TypeError) as exc:
            raise SchemaError(f"{path}.phi", str(exc))
        try:
            return Epigraph(phi, m, graph_index=gi, base_indices=bi, free_indices=fi)
        except (OkacertError, ValueError) as exc:
            raise SchemaError(path, f"invalid epigraph: {exc}")
    if kind == "tube":
        base = parse_set_spec(_req(data, "base", path), f"{path}.base")
        bi = _indices(_req(data, "base_indices", path), f"{path}.base_indices")
        fi = _indices(_req(data, "fiber_indices", path), f"{path}.fiber_indices")
        try:
            return Tube(base, bi, fi)
        except (OkacertError, ValueError) as exc:
            raise SchemaError(path, f"invalid tube: {exc}")
    if kind == "dilation":
        base = parse_set_spec(_req(data, "base", path), f"{path}.base")
        factor = _number(_req(data, "factor", path), f"{path}.factor")
        center = data.get("center")
        if center is not None:
            center = _vector(center, f"{path}.center")
            if center.shape[0] != base.m:
                raise SchemaError(f"{path}.center", "length must match the base dimension")
        try:
            return Dilation(base, factor, center)
        except (OkacertError, ValueError) as exc:
            raise SchemaError(path, f"invalid dilation: {exc}")
    raise SchemaError(f"{path}.type", f"unknown set type {kind!r}")


def load_set(path) -> ConvexSet:
    try:
        data = read_json(path)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError("$", f"cannot read a JSON set: {exc}")
    return parse_set_spec(data)
