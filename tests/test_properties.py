"""Property tests for the set primitives: support, support_values, nearest_boundary."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from okacert.sets import (  # noqa: E402
    Dilation,
    HPolyhedron,
    QuadricBall,
    SiegelClosure,
    Tube,
    normcombo_cone_set,
)

# Derandomized and without an example database: every run tries the same inputs.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# A box cut by four unit halfspaces: the seed-1 polytope of the benchmark's
# certify-polyhedral workload, to six decimals.
CUTS = [[-0.451956, -0.844327, 0.042724, 0.284644], [-0.781108, 0.107384, -0.374952, -0.487597],
        [0.60712, -0.551225, 0.560799, -0.114285], [0.330189, -0.279401, 0.752065, 0.497302]]
CUT_OFFSETS = [0.952978, 1.456337, 1.167077, 1.277376, 1.423815, 0.98562, 0.939941, 0.587335,
               0.59703, 0.820092, 0.858243, 0.524802]
# A pointed cone {x : A x <= b} with six facets (tests/test_stability.py::_POINTED_CONES[0]).
POINTED_CONE = (
    [[0.832695, 0.342572, -0.221863, -0.374219], [0.683274, 0.711058, -0.161042, -0.039976],
     [0.651092, 0.546447, -0.463249, -0.25075], [0.324265, 0.243151, -0.856319, -0.320075],
     [-0.043702, 0.810131, -0.584399, 0.015959], [0.449397, 0.516027, -0.394933, -0.613013]],
    [0.120099, -0.170765, -0.028719, 0.090641, -0.363966, 0.012728])

SETS = {
    "box": HPolyhedron(np.vstack([np.eye(4), -np.eye(4)]), [1.0, 1.0, 2.0, 3.0, 1.0, 2.0, 1.0, 0.0]),
    "cut-polytope": HPolyhedron(np.vstack([np.eye(4), -np.eye(4), CUTS]), CUT_OFFSETS),
    "pointed-cone": HPolyhedron(*POINTED_CONE),
    "halfspace": HPolyhedron(np.array([[0.0, 0.0, 0.0, -1.0]]), np.array([0.0])),
    "ball": QuadricBall(np.array([1.0, -1.0, 0.5, 0.0]), 2.0),
    "siegel2": SiegelClosure(2),
    "disc-tube": Tube(QuadricBall(np.array([0.2, -0.1, 0.3]), 0.8), [1, 2, 3], [0]),
    "siegel-dilation": Dilation(SiegelClosure(2), 2.5, center=np.array([0.3, -0.4, 0.1, 1.0])),
    "cone-ex14": normcombo_cone_set(2, [1.0], [1.0], 1.0),
}

coords = st.floats(-5.0, 5.0, allow_nan=False, allow_subnormal=False)
vectors = st.lists(coords, min_size=4, max_size=4).map(np.array)
names = st.sampled_from(sorted(SETS))


def _tol(*scales):
    return 1e-6 * (1.0 + sum(abs(float(s)) for s in scales))


@PROPERTY
@given(name=names, c=vectors, seed=st.integers(0, 2 ** 16))
def test_support_dominates_sampled_members(name, c, seed):
    E = SETS[name]
    assume(np.linalg.norm(c) > 1e-3)
    res = E.support(c)
    xs = E.sample_boundary(np.random.default_rng(seed), 20, window=6.0)
    if not res.finite:
        return
    assert E.contains(res.point, tol=1e-6)
    assert float(c @ res.point) == pytest.approx(res.value, abs=_tol(res.value))
    for x in xs:
        assert float(c @ x) <= res.value + _tol(res.value, np.linalg.norm(c) * np.linalg.norm(x))


@PROPERTY
@given(name=names, C=st.lists(vectors, min_size=1, max_size=6))
def test_support_values_equal_rowwise_support(name, C):
    E = SETS[name]
    C = np.array(C)
    got = np.array(list(E.support_values(C)), dtype=float)
    want = np.array([E.support(c).value for c in C])
    assert got.shape == want.shape
    assert np.array_equal(np.isinf(got), np.isinf(want))
    fin = np.isfinite(want)
    np.testing.assert_allclose(got[fin], want[fin], rtol=1e-12, atol=1e-12)


@PROPERTY
@given(name=names, q=vectors)
def test_nearest_boundary_gives_an_outward_normal(name, q):
    """q - p is an outward normal at p = nearest_boundary(q): the support of
    E in that direction is attained at p."""
    E = SETS[name]
    assume(not E.contains(q, tol=1e-6))
    p = E.nearest_boundary(q)
    n = q - p
    assert E.contains(p, tol=1e-6)
    res = E.support(n)
    assert res.finite
    assert res.value <= float(n @ p) + _tol(np.linalg.norm(n) * (1.0 + np.linalg.norm(p)))
