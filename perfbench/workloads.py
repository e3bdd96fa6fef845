"""The operations of each workload, and the seeded inputs they run on.

Every operation is one `okacert` command line run in-process through
``okacert.cli.main``: it reads a JSON spec or config written by the benchmark,
builds its set from scratch and writes its output file, as a user's single
command does. The program sees only those files.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

SAMPLES = "30"  # okacert certify --samples: connectivity still dominates smooth sets
APPROX_ARGS = ("--steps", "12", "--window", "5")
BASIN_GRID = 80  # grid_n of the seeded basin configs (the default config uses 200)

WORKLOADS = ("certify-smooth", "certify-polyhedral", "constructions")

# Gallery sets, as the benchmark's own spec JSON.
SIEGEL2 = {"type": "siegel", "n": 2}
SIEGEL3 = {"type": "siegel", "n": 3}
# The gallery's tube-ex45 is this ball (its reduced chart model), so it runs once, as "ball".
BALL = {"type": "ball", "center": [0.0, 0.0, 0.0, 0.0], "radius": 1.0}
DISC_TUBE = {"type": "tube", "base": {"type": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0},
             "base_indices": [1, 2, 3], "fiber_indices": [0]}
CONE_EX14 = {"type": "normcombo", "n": 2, "a": [1.0], "b": [1.0], "c": 1.0}
R2_IN_C2 = {"type": "polyhedron",
            "A": [[0.0, 1.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, -1.0]],
            "b": [0.0, 0.0, 0.0, 0.0]}
HALFSPACE = {"type": "polyhedron", "A": [[0.0, 0.0, 0.0, -1.0]], "b": [0.0]}
CUBE = {"type": "polyhedron", "A": np.vstack([np.eye(4), -np.eye(4)]).tolist(), "b": [1.0] * 8}

# Pointed polyhedral cones {x : A x <= b} in C^2 (six facets, b = A x0 at the apex x0) on
# which `certify --samples 30` emits a false hyperplane-meets-set witness:
# hyperplane_disjoint never tries the phase that Hyperplane.__init__ strips
# from the coefficients, which is the angle that separates a hyperplane built
# from a real normal. They do not depend on --seed, so these operations fail
# in every pass of every run and are counted in "failed".
POINTED_CONES = [
    ([[0.832695, 0.342572, -0.221863, -0.374219], [0.683274, 0.711058, -0.161042, -0.039976],
      [0.651092, 0.546447, -0.463249, -0.25075], [0.324265, 0.243151, -0.856319, -0.320075],
      [-0.043702, 0.810131, -0.584399, 0.015959], [0.449397, 0.516027, -0.394933, -0.613013]],
     [0.120099, -0.170765, -0.028719, 0.090641, -0.363966, 0.012728]),
    ([[-0.090907, -0.342462, -0.417537, 0.836731], [-0.571289, -0.66526, -0.480632, 0.007169],
      [-0.896531, -0.333342, -0.284719, -0.063638], [-0.771608, -0.283265, -0.465418, -0.328282],
      [-0.808915, -0.497233, -0.227199, -0.216322], [-0.342654, -0.043952, -0.839544, 0.419312]],
     [0.04859, 0.169458, -0.462783, -0.290798, -0.182432, -0.297704]),
]


@dataclass(frozen=True)
class Op:
    name: str
    command: str  # "certify" | "approx" | "basin"
    spec: dict | None = None  # set spec (certify, approx) or basin config; None = default
    expect: str = "verified"  # certify: "verified" or "refuted"
    known_fault: bool = False  # fails through the hyperplane_disjoint phase fault


def _rng(seed: int, label: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(label.encode("ascii"))])


def _r(values):
    return [float(v) for v in np.ravel(values)]


def seeded_ball(rng):
    return {"type": "ball", "center": _r(rng.uniform(-2.0, 2.0, 4)),
            "radius": float(rng.uniform(0.5, 2.0))}


def seeded_siegel_dilation(rng):
    """factor * (Siegel2 - c) + c for a point c of the Siegel set: a complex-affine image."""
    a, b, c = rng.uniform(-1.0, 1.0, 3)
    center = [a, b, c, a * a + b * b + rng.uniform(0.1, 1.0)]
    return {"type": "dilation", "base": SIEGEL2, "factor": float(rng.uniform(1.5, 3.0)),
            "center": _r(center)}


def seeded_disc_tube(rng):
    return {"type": "tube",
            "base": {"type": "ball", "center": _r(rng.uniform(-1.0, 1.0, 3)),
                     "radius": float(rng.uniform(0.5, 1.5))},
            "base_indices": [1, 2, 3], "fiber_indices": [0]}


def seeded_polytope(rng):
    """A box with random offsets cut by four random halfspaces: bounded, line-free."""
    cuts = rng.normal(size=(4, 4))
    cuts /= np.linalg.norm(cuts, axis=1, keepdims=True)
    A = np.vstack([np.eye(4), -np.eye(4), cuts])
    b = np.concatenate([rng.uniform(0.5, 1.5, 8), rng.uniform(0.3, 1.0, 4)])
    return {"type": "polyhedron", "A": A.tolist(), "b": _r(b)}


def seeded_box(rng):
    """-l <= x <= u with offsets in [0.5, 1.5]."""
    return {"type": "polyhedron", "A": np.vstack([np.eye(4), -np.eye(4)]).tolist(),
            "b": _r(rng.uniform(0.5, 1.5, 8))}


def seeded_basin_config(rng):
    """Default fixed point and rates; K and the gridded slice vary."""
    k1 = 2.0 * np.exp(1j * rng.uniform(-np.pi, np.pi))
    return {"k_center": [[float(k1.real), float(k1.imag)], [0.0, 0.0]],
            "k_radius": float(rng.uniform(0.3, 0.6)),
            "grid_center": _r(rng.uniform(-0.5, 1.5, 2)),
            "grid_halfwidth": float(rng.uniform(1.5, 3.0)),
            "grid_n": BASIN_GRID,
            "slice_plane": str(rng.choice(["re", "im", "z1", "z2"]))}


def build(workload: str, seed: int) -> list:
    """The operations of one pass, in order."""
    if workload == "certify-smooth":
        return [Op("siegel2", "certify", SIEGEL2), Op("siegel3", "certify", SIEGEL3),
                Op("disc-tube-prop49", "certify", DISC_TUBE), Op("ball", "certify", BALL),
                Op("seeded-ball", "certify", seeded_ball(_rng(seed, "ball"))),
                Op("seeded-siegel-dilation", "certify",
                   seeded_siegel_dilation(_rng(seed, "dilation"))),
                Op("seeded-disc-tube", "certify", seeded_disc_tube(_rng(seed, "disc-tube")))]
    if workload == "certify-polyhedral":
        return ([Op("cube", "certify", CUBE)]
                + [Op("seeded-polytope", "certify", seeded_polytope(_rng(seed, "polytope")))]
                + [Op(f"pointed-cone-{k}", "certify",
                      {"type": "polyhedron", "A": A, "b": b}, known_fault=True)
                   for k, (A, b) in enumerate(POINTED_CONES)]
                + [Op("cone-ex14", "certify", CONE_EX14),
                   Op("r2-in-c2", "certify", R2_IN_C2, expect="refuted"),
                   Op("halfspace", "certify", HALFSPACE, expect="refuted")])
    if workload == "constructions":
        return ([Op("basin-default", "basin")]
                + [Op(f"seeded-basin-{k}", "basin", seeded_basin_config(_rng(seed, f"basin{k}")))
                   for k in range(2)]
                + [Op("approx-ball", "approx", BALL), Op("approx-cone-ex14", "approx", CONE_EX14),
                   Op("approx-cube", "approx", CUBE),
                   Op("approx-seeded-box", "approx", seeded_box(_rng(seed, "box")))])
    raise ValueError(f"unknown workload {workload!r}")


def warm_up_ops(workload: str) -> list:
    """Cheap operations that load every code path a workload's passes use."""
    if workload == "constructions":
        return [Op("warm-basin", "basin", {"grid_n": 8}), Op("warm-approx", "approx", BALL)]
    return [Op("warm-certify", "certify", HALFSPACE)]
