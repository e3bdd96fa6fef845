"""Built-in example sets, addressable by name from the API and the CLI."""

from __future__ import annotations

import numpy as np

from .sets import ConvexSet, HPolyhedron, QuadricBall, SiegelClosure, Tube, \
    normcombo_cone_set

# name -> (builder, expected overall verdict, description)
_GALLERY = {
    "siegel2": (
        lambda: SiegelClosure(2),
        "verified-sampled",
        "closure of {Im z2 > |z1|^2} in C^2; contains real lines but every "
        "tangent slice is a point",
    ),
    "siegel3": (
        lambda: SiegelClosure(3),
        "verified-sampled",
        "closure of {Im z3 > |z1|^2 + |z2|^2} in C^3",
    ),
    "cone-ex14": (
        lambda: normcombo_cone_set(2, [1.0], [1.0], 1.0),
        "certified-exact",
        "{Im z2 >= |Re z1| + |Im z1| + |Re z2|} in C^2: pointed cone with "
        "non-smooth boundary, smoothable norm-combination graph",
    ),
    "tube-ex45": (
        lambda: QuadricBall(np.zeros(4), 1.0),
        "certified-exact",
        "bounded chart reduction of a tube around a totally real subspace; "
        "analyzed here through its reduced (ball) model in C^2",
    ),
    "disc-tube-prop49": (
        lambda: Tube(QuadricBall(np.zeros(3), 1.0), [1, 2, 3], [0]),
        "verified-sampled",
        "{(Im z1)^2 + |z2|^2 <= 1} in C^2: disc tube with one real fiber "
        "direction",
    ),
    "r2-in-c2": (
        lambda: HPolyhedron(
            [[0.0, 1.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0],
             [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, -1.0]],
            [0.0, 0.0, 0.0, 0.0]),
        "refuted",
        "the totally real plane {Im z1 = Im z2 = 0} in C^2: every disjoint "
        "hyperplane is unstable",
    ),
    "halfspace": (
        lambda: HPolyhedron([[0.0, 0.0, 0.0, -1.0]], [0.0]),
        "refuted",
        "{Im z2 >= 0} in C^2: tangent slices contain full lines",
    ),
    "ball": (
        lambda: QuadricBall(np.zeros(4), 1.0),
        "certified-exact",
        "closed unit ball of C^2",
    ),
}


def gallery_names():
    return list(_GALLERY.keys())


def build_example(name: str) -> ConvexSet:
    if name not in _GALLERY:
        raise KeyError(f"unknown example {name!r}; known: {', '.join(_GALLERY)}")
    return _GALLERY[name][0]()


def expected_overall(name: str) -> str:
    return _GALLERY[name][1]


def describe_examples():
    out = []
    for name, (builder, expected, desc) in _GALLERY.items():
        E = builder()
        out.append({
            "name": name,
            "type": E.to_jsonable()["type"],
            "ambient_real_dim": E.m,
            "expected_overall": expected,
            "description": desc,
        })
    return out
