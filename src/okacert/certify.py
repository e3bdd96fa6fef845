"""Sampled certification that the complement of a closed convex set is Oka-like.

The certifier never claims the analytic conclusion itself; it verifies
sufficient geometric hypotheses (line-freeness, tangent-slice behavior,
stable separating hyperplanes) on sampled data and reports one of four
verdicts per check:

* ``certified-exact``   -- decided by exact algebra (rational/structural),
* ``verified-sampled``  -- every sampled instance satisfied the hypothesis,
* ``refuted``           -- an explicit witness violates the hypothesis,
* ``inconclusive``      -- the check does not apply or sampling was blocked.

Checks are grouped into routes; the overall verdict is the best outcome over
routes (a set can fail one route and still verify through another, so a
refuted check forces overall "refuted" only when no route verifies).

Complex hyperplanes are stored in bilinear form {z : sum_j c_j z_j = beta}
with Hermitian-unit, phase-canonical coefficients.
"""

from __future__ import annotations

import functools
import zlib
from dataclasses import asdict, dataclass, field, replace
from typing import List, Optional

import numpy as np

from .errors import (
    LPNumericalFailure,
    PointInsideSet,
    ProjectionDidNotConverge,
    UnsupportedVariant,
    ZeroGradient,
)
from .geometry import (
    AffineSubspaceC,
    complex_gradient_from_real,
    complex_tangent,
    complexify,
    realify,
)
from .sets import ConvexSet
from .stability import (
    StabilityVerdict,
    TubeFound,
    halfline_in_intersection,
    is_stable,
    stability_states,
    tube_or_support,
)

CERTIFIED = "certified-exact"
VERIFIED = "verified-sampled"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"

# route -> the checks that must all verify for the route to certify.  A route
# counts only when all its checks are in the certificate, so the smoothing
# route exists only for norm-combination epigraphs.
ROUTES = {
    "lineality": ("no_affine_line",),
    "tangent_slices": ("tangent_slice_halflines",),
    "projective": ("weak_projective", "line_lift", "connectivity", "chart_compact"),
    "normcombo_smoothing": ("normcombo_smoothing",),
}

_ANCHORS = {
    "no_affine_line": "no-affine-line",
    "tangent_slice_halflines": "tangent-slice-halflines",
    "weak_projective": "exterior-stable-hyperplane",
    "line_lift": "line-lifts-to-hyperplane",
    "connectivity": "hyperplane-graph-connectivity",
    "chart_compact": "cone-chart-compactness",
    "normcombo_smoothing": "irreducible-normcombo-smoothing",
}


@dataclass(frozen=True)
class SamplingPlan:
    """Deterministic sampling budget shared by all checks."""

    seed: int = 42
    boundary: int = 500
    exterior: int = 200
    lines: int = 100
    hyperplanes: int = 60
    path_steps: int = 64
    window: float = 10.0

    def __post_init__(self):
        for name in ("boundary", "exterior", "lines", "hyperplanes", "path_steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.window <= 0:
            raise ValueError("window must be positive")

    def rng(self, label: str) -> np.random.Generator:
        return np.random.default_rng([self.seed, zlib.crc32(label.encode("ascii"))])

    def scaled(self, samples: int) -> "SamplingPlan":
        """Rescale every per-check budget proportionally to ``samples`` boundary points."""
        f = samples / 500.0
        return replace(self, boundary=max(1, samples), exterior=max(1, int(round(200 * f))),
                       lines=max(1, int(round(100 * f))), hyperplanes=max(2, int(round(60 * f))))

    def to_jsonable(self):
        return asdict(self)


class Hyperplane:
    """Complex affine hyperplane {z : coeffs . z = offset} (bilinear pairing).

    ``stripped_theta`` is the phase divided out of the given coefficients:
    ``real_eta(stripped_theta)`` is the real covector of the coefficients as
    given, which for ``from_real_normal`` is the real normal itself.  It is
    the angle the hyperplane was built with.  On a shadow that
    ``E.shadow_angles`` leaves undecided, ``_disjoint_rows`` tries that angle
    only: a projection hyperplane through an exterior point, and its
    ``translated`` lifts, miss E there by exactly their distance from E, and
    a random conormal, whose offset lies past its support value at angle 0,
    has phase 0.
    """

    __slots__ = ("coeffs", "offset", "stripped_theta")

    def __init__(self, coeffs, offset):
        c = np.asarray(coeffs, dtype=complex).ravel()
        norm = np.sqrt(np.sum(np.abs(c) ** 2))
        if norm < 1e-14:
            raise ValueError("hyperplane coefficients are zero")
        c = c / norm
        self.stripped_theta = float(-np.angle(c[np.argmax(np.abs(c) > 1e-12)]))
        phase = np.exp(1j * self.stripped_theta)
        self.coeffs, self.offset = c * phase, complex(offset) / norm * phase

    @property
    def n(self) -> int:
        return self.coeffs.shape[0]

    @classmethod
    def from_real_normal(cls, point_real, normal_real):
        """The complex tangent hyperplane, through ``point``, of the real
        hyperplane with outward normal ``normal`` at that point."""
        nu = np.asarray(normal_real, dtype=float)
        if np.linalg.norm(nu) < 1e-13:
            raise ZeroGradient("normal direction vanishes")
        c = np.conj(complexify(nu / np.linalg.norm(nu)))
        z = complexify(np.asarray(point_real, dtype=float))
        return cls(c, np.dot(c, z))

    def eval(self, z) -> complex:
        return complex(np.dot(self.coeffs, np.asarray(z, dtype=complex)) - self.offset)

    def base_point(self) -> np.ndarray:
        c = self.coeffs
        return self.offset * np.conj(c) / float(np.sum(np.abs(c) ** 2))

    def subspace(self) -> AffineSubspaceC:
        return complex_tangent(self.coeffs, self.base_point())

    def real_eta(self, theta: float) -> np.ndarray:
        """Real covector of x -> Re(e^{-i theta} (coeffs . z))."""
        return realify(np.conj(np.exp(-1j * theta) * self.coeffs))

    def translated(self, delta_offset: complex) -> "Hyperplane":
        H = Hyperplane(self.coeffs, self.offset + delta_offset)
        H.stripped_theta = self.stripped_theta
        return H

    def key(self):
        parts = [round(float(v), 6) for pair in
                 ((z.real, z.imag) for z in self.coeffs) for v in pair]
        parts += [round(self.offset.real, 6), round(self.offset.imag, 6)]
        return tuple(parts)

    def to_jsonable(self):
        return {
            "coeffs": [[float(z.real), float(z.imag)] for z in self.coeffs],
            "offset": [float(self.offset.real), float(self.offset.imag)],
        }

    @classmethod
    def from_jsonable(cls, data):
        c = np.array([complex(re, im) for re, im in data["coeffs"]])
        beta = complex(data["offset"][0], data["offset"][1])
        return cls(c, beta)


def _disjoint_rows(E: ConvexSet, coeffs, offsets, stripped):
    """(ok, theta, margin) per hyperplane row {coeffs_i . z = offsets_i}:
    does the offset lie outside the shadow coeffs_i . E in C?  The margin at
    theta is sup_E Re(e^{-i theta}(coeffs_i . z - offsets_i)), ok is a margin
    below -1e-10 (1 + |offsets_i|), and a row takes its least finite margin,
    (False, 0.0, inf) when none is finite.

    A row that ``E.shadow_angles`` decides is tried at its exact angles, so
    theta is the best angle and the margin minus the offset's distance from
    the shadow.  Any other row is tried at its stripped phase only, the angle
    its hyperplane was built with (``Hyperplane``)."""
    exact, decided = E.shadow_angles(coeffs, offsets)
    angles = np.hstack([exact, stripped[:, None]])
    angles[decided, -1] = np.nan
    angles[~decided, :-1] = np.nan
    r, j = np.nonzero(~np.isnan(angles))
    rot = np.exp(-1j * angles[r, j])
    values = np.fromiter(E.support_values(realify(np.conj(rot[:, None] * coeffs[r]))),
                         float, count=r.size)
    margins = np.full(angles.shape, np.inf)
    margins[r, j] = np.where(np.isfinite(values), values - np.real(rot * offsets[r]), np.inf)
    rows = np.arange(angles.shape[0])
    pick = margins.argmin(axis=1)
    margin = margins[rows, pick]
    theta = np.where(np.isfinite(margin), angles[rows, pick], 0.0)
    return margin < -1e-10 * (1.0 + np.abs(offsets)), theta, margin


def _hyperplane_rows(planes, n):
    """(coeffs, offsets, stripped phases) of ``planes``, one row each, for ``_disjoint_rows``."""
    return (np.array([H.coeffs for H in planes]).reshape(-1, n),
            np.array([H.offset for H in planes], dtype=complex),
            np.array([H.stripped_theta for H in planes], dtype=float))


def hyperplane_disjoint(E: ConvexSet, H: Hyperplane):
    """``_disjoint_rows`` of the one hyperplane H, as (ok, theta, margin): at
    the exact angles where ``E.shadow_angles`` decides H, else at its
    stripped phase only.  Every hyperplane the certifier builds separates
    there when it misses E; for any other H, False shows only that this angle
    does not separate."""
    ok, theta, margin = _disjoint_rows(E, *_hyperplane_rows([H], H.n))
    return bool(ok[0]), float(theta[0]), float(margin[0])


def hyperplane_common_point(E: ConvexSet, H: Hyperplane):
    """A point of E on H, or None; used to make 'H meets E' concrete."""
    try:
        x = E.slice_point(H.subspace().to_real())
    except UnsupportedVariant:
        return None
    if x is None:
        return None
    z = complexify(x)
    if abs(H.eval(z)) > 1e-6 * (1 + np.linalg.norm(x)):
        return None
    return x


@dataclass
class CheckResult:
    """One check's verdict; ``_check`` stamps ``name`` and ``seed``."""

    verdict: str
    witnesses: list = field(default_factory=list)
    samples: int = 0
    detail: str = ""
    name: str = ""
    seed: int = 0

    @property
    def anchor(self) -> str:
        return _ANCHORS[self.name]

    @property
    def verified(self) -> bool:
        return self.verdict in (CERTIFIED, VERIFIED)

    def to_jsonable(self):
        return {
            "name": self.name,
            "anchor": self.anchor,
            "verdict": self.verdict,
            "witnesses": self.witnesses,
            "samples": int(self.samples),
            "seed": int(self.seed),
            "detail": self.detail,
        }


@dataclass
class Certificate:
    input_digest: str
    checks: List[CheckResult]
    overall: str

    def check(self, name: str) -> Optional[CheckResult]:
        for c in self.checks:
            if c.name == name:
                return c
        return None

    def to_jsonable(self):
        return {
            "input_digest": self.input_digest,
            "checks": [c.to_jsonable() for c in self.checks],
            "overall": self.overall,
        }


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def _in_complex_plane(E: ConvexSet) -> bool:
    try:
        return E.complex_n() >= 2
    except UnsupportedVariant:
        return False


def _check(needs_complex_plane=True):
    """Wrap ``check_<name>``: inconclusive off C^n, n >= 2 (when
    ``needs_complex_plane``), on an LP numerical failure and on a failed
    projection; the result carries ``<name>`` and the plan's seed."""
    def wrap(check):
        name = check.__name__[len("check_"):]

        @functools.wraps(check)
        def run(E: ConvexSet, plan: SamplingPlan, *args, **kwargs) -> CheckResult:
            if needs_complex_plane and not _in_complex_plane(E):
                res = CheckResult(INCONCLUSIVE, detail="ambient space is not C^n with n >= 2")
            else:
                try:
                    res = check(E, plan, *args, **kwargs)
                except LPNumericalFailure as exc:
                    res = CheckResult(INCONCLUSIVE, detail=f"LP numerical failure: {exc}")
                except ProjectionDidNotConverge as exc:
                    res = CheckResult(INCONCLUSIVE, detail=f"projection failed: {exc}")
            return replace(res, name=name, seed=plan.seed)
        return run
    return wrap


@_check(needs_complex_plane=False)
def check_no_affine_line(E: ConvexSet, plan: SamplingPlan) -> CheckResult:
    """Does E contain an affine real line?  Empty lineality certifies the
    hypothesis exactly; a lineality direction is recorded as a witness but the
    verdict stays inconclusive for this route (E may verify through others)."""
    rows, exact = E.lineality_exact()
    if rows.shape[0] == 0:
        return CheckResult(CERTIFIED if exact else VERIFIED, detail="lineality space is trivial")
    witnesses = [{"kind": "line-direction", "direction": [float(t) for t in r]}
                 for r in rows]
    return CheckResult(INCONCLUSIVE, witnesses=witnesses,
                       detail="E contains affine lines; route does not apply")


@_check()
def check_tangent_slice_halflines(E: ConvexSet, plan: SamplingPlan) -> CheckResult:
    """At sampled boundary points p, the slice of E by the maximal complex
    subspace of the tangent hyperplane must not contain a halfline."""
    if not E.is_c1_boundary:
        return CheckResult(INCONCLUSIVE, detail="boundary is not C1; tangent data unavailable")
    rng = plan.rng("tangent")
    try:
        pts = E.sample_boundary(rng, plan.boundary, window=plan.window)
    except UnsupportedVariant as exc:
        return CheckResult(INCONCLUSIVE, detail=f"boundary sampling unavailable: {exc}")
    rows = []
    for p in pts:
        try:
            gc = complex_gradient_from_real(E.boundary_gradient(p))
        except UnsupportedVariant:
            continue
        if np.linalg.norm(gc) > 1e-12:  # complex_tangent raises ZeroGradient otherwise
            rows.append((p, gc))
    # a stable tangent plane meets no recession direction, so it holds no halfline
    stable = stability_states(E, np.array([gc for _, gc in rows]).reshape(-1, E.complex_n()))[0]
    witnesses = []
    checked = 0
    for (p, gc), ok in zip(rows, stable):
        checked += 1
        hit = None if ok else halfline_in_intersection(
            E, complex_tangent(gc, complexify(p)), base_point=p)
        if hit is not None:
            x0, v = hit
            witnesses.append({
                "kind": "halfline",
                "boundary_point": [float(t) for t in p],
                "point": [float(t) for t in x0],
                "direction": [float(t) for t in v],
            })
            if len(witnesses) >= 3:
                break
    if witnesses:
        return CheckResult(REFUTED, witnesses=witnesses, samples=checked,
                           detail="tangent slice contains a halfline")
    if checked == 0:
        return CheckResult(INCONCLUSIVE, detail="no usable boundary samples")
    return CheckResult(VERIFIED, samples=checked, detail="no halfline in any sampled tangent slice")


def _canonical_exterior_hyperplane(E: ConvexSet, q: np.ndarray):
    """Translate of the complex tangent at the metric projection of q, through
    q; None when the projection fails or lands on q."""
    try:
        nu = q - E.nearest_boundary(q)
        if np.linalg.norm(nu) < 1e-12:
            return None
        return Hyperplane.from_real_normal(q, nu)
    except (ProjectionDidNotConverge, PointInsideSet, UnsupportedVariant, ZeroGradient):
        return None


@_check()
def check_weak_projective(E: ConvexSet, plan: SamplingPlan) -> CheckResult:
    """Each sampled exterior point must lie on a stable complex hyperplane
    missing E; the hyperplane is constructed from the metric projection."""
    rng = plan.rng("projective")
    qs = E.sample_exterior(rng, plan.exterior, window=plan.window)
    if qs.shape[0] == 0:
        return CheckResult(INCONCLUSIVE, detail="no exterior samples inside the window")
    planes = [(q, H) for q in qs if (H := _canonical_exterior_hyperplane(E, q)) is not None]
    skipped = qs.shape[0] - len(planes)
    if not planes:
        return CheckResult(INCONCLUSIVE, detail=f"all {skipped} exterior samples unusable")
    states, apertures = stability_states(E, np.array([H.coeffs for _, H in planes]))
    verdicts, unstable = [], 0
    for (_, H), ok in zip(planes, states):
        if unstable == 5:
            break  # the loop below stops by the fifth failure, so here at the latest
        verdicts.append(StabilityVerdict("stable") if ok else is_stable(E, H.subspace()))
        unstable += not verdicts[-1].stable
    stable = [H for (_, H), verdict in zip(planes, verdicts) if verdict.stable]
    disjoint = zip(*_disjoint_rows(E, *_hyperplane_rows(stable, E.complex_n())))
    verified_planes = []
    failures = []
    for (q, H), verdict, aperture in zip(planes, verdicts, apertures):
        if len(failures) == 5:
            break  # every plane counts as a sample; only five failures are written
        if not verdict.stable:
            failures.append({
                "kind": "unstable-hyperplane",
                "exterior_point": [float(t) for t in q],
                "hyperplane": H.to_jsonable(),
                "recession_direction": [float(t) for t in verdict.witness],
            })
            continue
        ok, theta, margin = next(disjoint)
        if not ok:
            common = hyperplane_common_point(E, H)
            entry = {
                "kind": "hyperplane-meets-set",
                "exterior_point": [float(t) for t in q],
                "hyperplane": H.to_jsonable(),
            }
            if common is not None:
                entry["common_point"] = [float(t) for t in common]
            failures.append(entry)
            continue
        verified_planes.append({
            "kind": "stable-hyperplane",
            "hyperplane": H.to_jsonable(),
            "theta": float(theta),
            "margin": float(margin),
            # None where no aperture is proven: past the vertex cap, or on a
            # plane that only ``is_stable`` calls stable
            "aperture": float(aperture) if np.isfinite(aperture) else None,
            "through": [float(t) for t in q],
        })
    note = f"; {skipped} exterior samples skipped (projection failed)" if skipped else ""
    if failures:
        return CheckResult(REFUTED, witnesses=failures, samples=len(planes),
                           detail="projection hyperplane fails at sampled exterior point" + note)
    return CheckResult(VERIFIED, witnesses=verified_planes[:max(8, plan.hyperplanes)],
                       samples=len(planes),
                       detail="stable disjoint hyperplane through every sampled exterior point"
                              + note)


@_check()
def check_line_lift(E: ConvexSet, plan: SamplingPlan) -> CheckResult:
    """Every sampled stable complex line must admit a parallel translate inside
    a stable complex hyperplane disjoint from (a translate off) E.

    Construction: squeeze the line against E (tube_or_support), take the
    complex tangent of the supporting real hyperplane at the contact point
    (its unit normal vanishes on the line's real span, so the lift contains
    the line direction), verify it is stable, then push it off E along that
    normal and re-verify disjointness.
    """
    n = E.complex_n()
    stable_lines, attempts = _stable_lines(E, plan)
    if not stable_lines:
        return CheckResult(INCONCLUSIVE, samples=attempts, detail="no stable lines found")
    tubes = skipped = lifted = 0
    lifts, witnesses = [], []
    for line in stable_lines:
        try:
            outcome = tube_or_support(E, line)
        except UnsupportedVariant:
            skipped += 1
            continue
        if isinstance(outcome, TubeFound):
            tubes += 1
            continue
        H = Hyperplane.from_real_normal(outcome.contact, outcome.normal)
        delta = 1e-3 * (1.0 + np.linalg.norm(outcome.contact))  # pushed off E along the normal
        lifts.append((line.directions[0], H,
                      H.translated(complex(np.dot(H.coeffs, complexify(outcome.normal))) * delta)))
    stable = stability_states(E, np.array([H.coeffs for _, H, _ in lifts]).reshape(-1, n))[0]
    vs, unstable = [None] * len(lifts), 0
    for k, (_, H, _) in enumerate(lifts):
        if not stable[k] and unstable < 5:  # a witness to write
            verdict = is_stable(E, H.subspace())
            stable[k], vs[k] = verdict.stable, verdict.witness
        unstable += not stable[k]
    offs = [H_off for (*_, H_off), ok in zip(lifts, stable) if ok]
    disjoint = zip(*_disjoint_rows(E, *_hyperplane_rows(offs, n)))
    for (d, H, H_off), stable_lift, v in zip(lifts, stable, vs):
        if not stable_lift:
            witnesses.append({
                "kind": "unstable-lift",
                "line_direction": _cvec(d),
                "hyperplane": H.to_jsonable(),
                # past the fifth unstable lift none is written
                "recession_direction": [] if v is None else [float(t) for t in v],
            })
            continue
        ok, theta, margin = next(disjoint)
        if not ok:
            if not np.isfinite(margin):
                # no finite support value at the angles tried: no evidence either way
                skipped += 1
                continue
            witnesses.append({
                "kind": "lift-not-disjoint",
                "line_direction": _cvec(d),
                "hyperplane": H_off.to_jsonable(),
                "margin": float(margin),
            })
            continue
        lifted += 1
    if witnesses:
        return CheckResult(REFUTED, witnesses=witnesses[:5], samples=lifted + len(witnesses),
                           detail="a stable line failed to lift into a stable disjoint hyperplane")
    if lifted == 0:
        return CheckResult(INCONCLUSIVE, samples=len(stable_lines),
                           detail=f"no line produced a usable supporting translate "
                                  f"(tubes={tubes}, skipped={skipped})")
    return CheckResult(VERIFIED, samples=lifted,
                       detail=f"{lifted} stable lines lifted (tubes={tubes})")


def _stable_lines(E: ConvexSet, plan: SamplingPlan):
    """The first ``plan.lines`` stable complex lines of at most
    10 ``plan.lines`` seeded draws, and the number of draws that took."""
    n = E.complex_n()
    rng = plan.rng("lines")
    stable_lines, attempts = [], 0
    while len(stable_lines) < plan.lines and attempts < 10 * plan.lines:
        # one block holds the draws the scalar loop makes, value for value
        X = rng.standard_normal((min(plan.lines, 10 * plan.lines - attempts), 4, n))
        D = np.array([d / np.linalg.norm(d) for d in X[:, 0] + 1j * X[:, 1]])
        # in C^2 the line through d is the hyperplane (d2, -d1) . z = 0
        stable = stability_states(E, D[:, ::-1] * [1, -1])[0] if n == 2 else [None] * len(X)
        for x, d, ok in zip(X, D, stable):
            attempts += 1
            line = AffineSubspaceC(base=(x[2] + 1j * x[3]) * (plan.window / 4), directions=d[None, :])
            if is_stable(E, line).stable if ok is None else ok:
                stable_lines.append(line)
                if len(stable_lines) == plan.lines:
                    break
    return stable_lines, attempts


def _cvec(z):
    return [[float(v.real), float(v.imag)] for v in np.atleast_1d(z)]


def _collect_stable_disjoint(E, plan, rng, target, seeds=None):
    """(H, theta, margin) of stable hyperplanes disjoint from E: seeded list
    topped up by exterior projections and by random conormals with
    support-based offsets."""
    found = []
    keys = set()

    def _push(H, theta, margin):
        k = H.key()
        if k in keys:
            return
        keys.add(k)
        found.append((H, theta, margin))

    for entry in seeds or []:
        _push(Hyperplane.from_jsonable(entry["hyperplane"]), entry["theta"], entry["margin"])
    n = E.complex_n()
    guard = 0
    while len(found) < target and guard < 20 * target:
        guard += 1
        if guard % 2 == 0:
            qs = E.sample_exterior(rng, 1, window=plan.window)
            if qs.shape[0] == 0:
                continue
            H = _canonical_exterior_hyperplane(E, qs[0])
            if H is None:
                continue
        else:
            c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            try:
                H0 = Hyperplane(c, 0.0)
            except ValueError:
                continue
            value = float(next(iter(E.support_values(H0.real_eta(0.0)))))
            if not np.isfinite(value):
                continue
            beta = (value + 1.0 + float(rng.uniform(0, plan.window / 2))
                    + 1j * float(rng.uniform(-plan.window / 4, plan.window / 4)))
            H = Hyperplane(H0.coeffs, beta)
        if not stability_states(E, H.coeffs[None])[0][0]:
            continue
        ok, theta, margin = hyperplane_disjoint(E, H)
        if ok:
            _push(H, theta, margin)
    return found


class _UnionFind:
    """Disjoint sets of 0..n-1; each root is the least index of its set."""

    def __init__(self, n):
        self.parent = list(range(n))
        self.components = n

    def find(self, i):
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)
            self.components -= 1


def _phase_align(c_ref, c):
    """c turned by the phase that makes its inner product with c_ref real and positive."""
    inner = complex(np.sum(np.conj(c_ref) * c))
    return c if abs(inner) < 1e-12 else c * np.exp(-1j * np.angle(inner))


def _edge_ok(E, Hi, Hj, steps, thetas) -> bool:
    """Is the straight path between the rotated rows e^{-i theta}(c, beta) of
    Hi and Hj, at the angles ``thetas`` where each misses E, a path of stable
    hyperplanes?  Every hyperplane on it misses E: the support function is
    sublinear (Rockafellar, Thm 13.2), so the margin at angle 0 of the row at
    t is at most (1 - t) times Hi's margin plus t times Hj's, both negative.

    So the edge fails only where the coefficients come within 1e-9 of 0
    anywhere on the path, or at one of the ``steps`` evenly spaced steps that
    ``stability_states`` decides unstable."""
    ci, cj = (np.exp(-1j * theta) * H.coeffs for H, theta in zip((Hi, Hj), thetas))
    d = cj - ci
    t = np.clip(-np.vdot(d, ci).real / (np.vdot(d, d).real or 1.0), 0.0, 1.0)
    if np.linalg.norm(ci + t * d) < 1e-9:  # the least norm on the path
        return False
    ts = np.linspace(0.0, 1.0, steps)[:, None]
    return bool(stability_states(E, (1 - ts) * ci + ts * cj)[0].all())


@_check()
def check_connectivity(E: ConvexSet, plan: SamplingPlan, seeds=None) -> CheckResult:
    """The sampled family of stable disjoint hyperplanes must form a connected
    graph under linear interpolation of their rotated parameters (``_edge_ok``)."""
    rng = plan.rng("connect")
    nodes = _collect_stable_disjoint(E, plan, rng, plan.hyperplanes, seeds=seeds)
    if len(nodes) < 2:
        return CheckResult(INCONCLUSIVE, samples=len(nodes),
                           detail="fewer than two stable disjoint hyperplanes found")
    uf = _UnionFind(len(nodes))
    pairs = []
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            ci, cj = nodes[i][0], nodes[j][0]
            dist = float(np.linalg.norm(ci.coeffs - _phase_align(ci.coeffs, cj.coeffs)) +
                         abs(ci.offset - cj.offset) / (1 + abs(ci.offset)))
            pairs.append((dist, i, j))
    for _, i, j in sorted(pairs):
        if uf.components == 1:
            break
        if uf.find(i) != uf.find(j) and _edge_ok(E, nodes[i][0], nodes[j][0], plan.path_steps,
                                                  [nodes[i][1], nodes[j][1]]):
            uf.union(i, j)
    if uf.components == 1:
        # translating H by -s e^{i theta} raises its margin at theta by s: it
        # touches E at s = -margin, the node's distance from E's shadow on a
        # decided shadow and on a hyperplane built through an exterior point
        return CheckResult(
            VERIFIED, samples=len(nodes),
            witnesses=[{"kind": "retraction-contacts",
                        "offsets": [max(0.0, -margin) for *_, margin in nodes[:10]]}],
            detail=f"{len(nodes)} hyperplanes connected with {len(nodes) - 1} verified edges")
    reps = [k for k in range(len(nodes)) if uf.find(k) == k][:2]
    witnesses = [{
        "kind": "disconnected-components",
        "representatives": [nodes[r][0].to_jsonable() for r in reps],
        "components": uf.components,
    }]
    return CheckResult(REFUTED, witnesses=witnesses, samples=len(nodes),
                       detail=f"hyperplane graph has {uf.components} components")


@_check()
def check_chart_compact(E: ConvexSet, plan: SamplingPlan, candidates=None) -> CheckResult:
    """Truncated cones around candidate hyperplanes must cut E compactly: each
    needs an aperture c > 0 with |r''| > c |r'| on every nonzero recession
    direction r, which ``stability_states`` proves from the generators."""
    if not candidates:
        return CheckResult(INCONCLUSIVE, detail="no candidate hyperplanes available")
    candidates = candidates[:3]
    _, apertures = stability_states(E, np.array([H.coeffs for H in candidates]))
    unproven = int(np.sum(~np.isfinite(apertures)))
    if unproven:
        return CheckResult(INCONCLUSIVE, detail=f"{unproven} of {len(candidates)} candidate "
                                                f"hyperplanes have no proven aperture")
    witnesses = [{"kind": "compact-chart", "hyperplane": H.to_jsonable(), "aperture": float(c)}
                 for H, c in zip(candidates, apertures)]
    return CheckResult(CERTIFIED, witnesses=witnesses,
                       detail=f"{len(witnesses)} candidate cones compact at proven apertures")


@_check(needs_complex_plane=False)
def check_normcombo_smoothing(E: ConvexSet, plan: SamplingPlan) -> CheckResult:
    """For epigraphs of irreducible nonnegative norm combinations: the smoothed
    surrogate must stay sandwiched and strongly convex on samples."""
    from .functions import NormCombo
    from .errors import NotIrreducibleFamily
    from .smoothing import smooth_normcombo

    phi = getattr(E, "phi", None)
    if not isinstance(phi, NormCombo):
        return CheckResult(INCONCLUSIVE, detail="set is not the epigraph of a norm combination")
    try:
        eta = 1e-3
        psi = smooth_normcombo(phi, eta)
    except NotIrreducibleFamily as exc:
        return CheckResult(REFUTED,
                           witnesses=[{"kind": "reducible-family", "reason": str(exc)}],
                           detail="norm family is not irreducible")
    rng = plan.rng("normcombo")
    k = phi.k
    total = float(np.sum(phi.coefs))
    xs = rng.uniform(-plan.window, plan.window, size=(512, k))
    lower = phi.value(xs) - eta * total
    upper = phi.value(xs)
    vals = psi.value(xs)
    bad = int(np.sum((vals < lower - 1e-12) | (vals > upper + 1e-12)))
    eigs = []
    for x in xs[:64]:
        eigs.append(float(np.linalg.eigvalsh(psi.hess(x))[0]))
    min_eig = float(min(eigs))
    if bad or min_eig <= 0:
        return CheckResult(REFUTED, samples=len(xs),
                           witnesses=[{"kind": "smoothing-failure",
                                       "sandwich_violations": bad,
                                       "hessian_min_eig": min_eig}],
                           detail="smoothed surrogate violates sandwich or convexity")
    return CheckResult(VERIFIED, samples=len(xs),
                       witnesses=[{"kind": "smoothing-evidence",
                                   "eta": eta, "hessian_min_eig": min_eig}],
                       detail="sandwich and strong convexity verified on samples")


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def certify_oka_complement(E: ConvexSet, plan: Optional[SamplingPlan] = None) -> Certificate:
    """Run every check, group them into ``ROUTES``, and report the best verdict.

    Overall is the verdict of the best verified route: ``certified-exact``
    when every check of some verified route is exact, else
    ``verified-sampled``.  It is refuted only when no route verifies and at
    least one check produced an explicit witness.
    """
    from .functions import NormCombo
    from .specjson import digest

    plan = plan or SamplingPlan()
    checks = [check_no_affine_line(E, plan), check_tangent_slice_halflines(E, plan),
              check_weak_projective(E, plan), check_line_lift(E, plan)]
    seeds = [w for w in checks[2].witnesses if w.get("kind") == "stable-hyperplane"]
    checks.append(check_connectivity(E, plan, seeds=seeds))
    cand = [Hyperplane.from_jsonable(w["hyperplane"]) for w in seeds[:3]]
    checks.append(check_chart_compact(E, plan, candidates=cand))
    if isinstance(getattr(E, "phi", None), NormCombo):
        checks.append(check_normcombo_smoothing(E, plan))

    got = {c.name: c.verdict for c in checks}
    verified = [[got[k] for k in route] for route in ROUTES.values()
                if all(got.get(k) in (CERTIFIED, VERIFIED) for k in route)]
    if verified:
        exact = any(all(v == CERTIFIED for v in route) for route in verified)
        overall = CERTIFIED if exact else VERIFIED
    elif REFUTED in got.values():
        overall = REFUTED
    else:
        overall = INCONCLUSIVE
    payload = {"set": E.to_jsonable(), "plan": plan.to_jsonable()}
    return Certificate(input_digest=digest(payload), checks=checks, overall=overall)


# ---------------------------------------------------------------------------
# witness rechecks (independent brute force)
# ---------------------------------------------------------------------------

def _recession_brute(E: ConvexSet, v, rng=None):
    rng = rng or np.random.default_rng(99)
    v = np.asarray(v, dtype=float)
    try:
        base = E.sample_boundary(rng, 4, window=8.0)
    except UnsupportedVariant:
        base = np.empty((0, E.m))
    if base.shape[0] == 0:
        return False
    for x0 in base:
        for t in (1.0, 4.0, 32.0, 256.0, 1024.0):
            if not E.contains(x0 + t * v, tol=1e-6 * (1 + t)):
                return False
    return True


def recheck_witness(E: ConvexSet, witness: dict) -> bool:
    """Re-verify a refutation witness by direct membership probes only."""
    kind = witness.get("kind")
    if kind == "halfline":
        x0 = np.asarray(witness["point"], dtype=float)
        v = np.asarray(witness["direction"], dtype=float)
        if not E.contains(x0, tol=1e-6):
            return False
        for t in (0.0, 1.0, 2.0, 8.0, 64.0, 512.0, 1024.0):
            if not E.contains(x0 + t * v, tol=1e-6 * (1 + t)):
                return False
        return True
    if kind in ("unstable-hyperplane", "unstable-lift"):
        H = Hyperplane.from_jsonable(witness["hyperplane"])
        v = np.asarray(witness["recession_direction"], dtype=float)
        vc = complexify(v)
        if abs(np.dot(H.coeffs, vc)) > 1e-6:
            return False
        return _recession_brute(E, v)
    if kind == "hyperplane-meets-set":
        if "common_point" not in witness:
            return False
        x = np.asarray(witness["common_point"], dtype=float)
        H = Hyperplane.from_jsonable(witness["hyperplane"])
        return bool(E.contains(x, tol=1e-6)) and abs(H.eval(complexify(x))) < 1e-5
    if kind == "line-direction":
        v = np.asarray(witness["direction"], dtype=float)
        return _recession_brute(E, v) and _recession_brute(E, -v)
    return False


def recheck_certificate(E: ConvexSet, cert: Certificate):
    """(check name, witness index, ok) for every refutation witness."""
    out = []
    for c in cert.checks:
        if c.verdict != REFUTED:
            continue
        for i, w in enumerate(c.witnesses):
            out.append((c.name, i, recheck_witness(E, w)))
    return out
