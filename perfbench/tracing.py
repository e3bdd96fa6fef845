"""Per-layer tracing from outside the package.

Wrappers are installed on the public functions of each okacert module, at
every place the name is looked up (``sets`` imports ``solve_lp`` from ``lp``,
``certify`` imports ``is_stable`` from ``stability``, ...), so no call is
missed. Each wrapper records calls, inclusive time and self time (its span
minus the spans of wrapped callees). A call whose caller is a span of the same
name (``Tube.support`` calling the base set's ``support``, a nested
``parse_set_spec``) is folded into the caller's span.

Spans are recorded only while ``Tracer.active`` is set, which the runner sets
around the timed operations; nothing is installed in untraced runs.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

CHECKS = ("no_affine_line", "tangent_slice_halflines", "weak_projective",
          "line_lift", "connectivity", "chart_compact", "normcombo_smoothing")

# (name, unit) of every per-layer metric, in report order
LAYER_METRICS = (
    [("lp.solve_lp.calls", "count"), ("lp.solve_lp.self_s", "s"),
     ("sets.support.calls", "count"), ("sets.support.self_s", "s"),
     ("certify.hyperplane_disjoint.calls", "count"),
     ("certify.hyperplane_disjoint.self_s", "s"),
     ("certify.hyperplane_disjoint.support_per_call", "count"),
     ("certify.hyperplane_disjoint.found_share", "ratio")]
    + [(f"{layer}.{field}", unit)
       for layer in ("sets.nearest_boundary", "sets.slice_point",
                     "sets.sample_boundary", "sets.sample_exterior",
                     "sets.cone.intersect_subspace", "sets.cone.sample_members",
                     "sets.cone.polar_direction_in", "stability.is_stable")
       for field, unit in (("calls", "count"), ("self_s", "s"))]
    + [("stability.is_stable.stable_share", "ratio")]
    + [(f"{layer}.{field}", unit)
       for layer in ("stability.tube_or_support", "stability.halfline_in_intersection")
       for field, unit in (("calls", "count"), ("self_s", "s"))]
    + [(f"certify.check.{c}.s", "s") for c in CHECKS]
    + [("certify.certify_oka_complement.s", "s"),
       ("specjson.parse_set_spec.s", "s"), ("specjson.canonical_json.s", "s"),
       ("specjson.canonical_json.bytes", "count"), ("cli.main.self_s", "s"),
       ("smoothing.outer_sequence.s", "s"),
       ("smoothing.exp_separator.calls", "count"), ("smoothing.exp_separator.self_s", "s"),
       ("smoothing.rmax_pair_grid.calls", "count"), ("smoothing.rmax_pair_grid.self_s", "s"),
       ("basin.design_contraction_step.s", "s"), ("basin.classify_points.s", "s"),
       ("basin.classify_points.point_iters", "count"), ("basin.basin_report.self_s", "s")]
)


class Tracer:
    def __init__(self):
        self.active = False
        self.stack = []  # frames: [name, start, time covered by child spans]
        self.calls = Counter()
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.nested_calls = Counter()  # (parent span, child span) -> calls
        self.counts = Counter()  # result-derived counts, see _RESULT_HOOKS

    def wrap(self, name, fn):
        hook = _RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self.stack
            if not self.active or (stack and stack[-1][0] == name):
                return fn(*args, **kwargs)
            if stack:
                self.nested_calls[(stack[-1][0], name)] += 1
            frame = [name, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter() - frame[1]
                stack.pop()
                self.calls[name] += 1
                self.inclusive[name] += span
                self.self_time[name] += span - frame[2]
                if stack:
                    stack[-1][2] += span
            if hook is not None:
                hook(self.counts, result)
            return result

        return traced

    def metrics(self, passes: int) -> dict:
        """Every per-layer metric, as a mean per pass."""
        hd = "certify.hyperplane_disjoint"
        stable = "stability.is_stable"
        values = {
            f"{hd}.support_per_call": _ratio(self.nested_calls[(hd, "sets.support")],
                                             self.calls[hd]),
            f"{hd}.found_share": _ratio(self.counts["hd_found"], self.calls[hd]),
            f"{stable}.stable_share": _ratio(self.counts["stable"], self.calls[stable]),
            "specjson.canonical_json.bytes": self.counts["json_bytes"] / passes,
            "basin.classify_points.point_iters": self.counts["point_iters"] / passes,
        }
        out = {}
        for metric, unit in LAYER_METRICS:
            if metric in values:
                value = values[metric]
            else:
                span, field = metric.rsplit(".", 1)
                table = {"calls": self.calls, "self_s": self.self_time,
                         "s": self.inclusive}[field]
                value = table[span] / passes
            out[metric] = {"value": value, "unit": unit}
        return out


def _ratio(num, den):
    return num / den if den else 0.0


def _count_found(counts, result):
    counts["hd_found"] += bool(result[0])


def _count_stable(counts, result):
    counts["stable"] += bool(result.stable)


def _count_bytes(counts, result):
    counts["json_bytes"] += len(result)  # canonical JSON is ASCII


def _count_iters(counts, result):
    counts["point_iters"] += int(result[1].sum())


_RESULT_HOOKS = {
    "certify.hyperplane_disjoint": _count_found,
    "stability.is_stable": _count_stable,
    "specjson.canonical_json": _count_bytes,
    "basin.classify_points": _count_iters,
}


def install(tracer: Tracer) -> None:
    """Wrap every traced okacert function where its callers look it up."""
    from okacert import basin, certify, cli, functions, lp, sets, smoothing, specjson, stability

    functions_at = {
        "lp.solve_lp": [(lp, "solve_lp"), (sets, "solve_lp"), (functions, "solve_lp")],
        "stability.is_stable": [(stability, "is_stable"), (certify, "is_stable")],
        "stability.tube_or_support": [(stability, "tube_or_support"),
                                      (certify, "tube_or_support")],
        "stability.halfline_in_intersection": [
            (stability, "halfline_in_intersection"), (certify, "halfline_in_intersection")],
        "certify.hyperplane_disjoint": [(certify, "hyperplane_disjoint")],
        "specjson.parse_set_spec": [(specjson, "parse_set_spec")],
        "specjson.canonical_json": [(specjson, "canonical_json"), (cli, "canonical_json")],
        "cli.main": [(cli, "main")],
        "smoothing.outer_sequence": [(smoothing, "outer_sequence"), (cli, "outer_sequence")],
        "smoothing.exp_separator": [(smoothing, "exp_separator")],
        "smoothing.rmax_pair_grid": [(smoothing, "rmax_pair_grid")],
        "basin.design_contraction_step": [(basin, "design_contraction_step")],
        "basin.classify_points": [(basin, "classify_points")],
        "basin.basin_report": [(basin, "basin_report"), (cli, "basin_report")],
        "certify.certify_oka_complement": [(certify, "certify_oka_complement"),
                                           (cli, "certify_oka_complement")],
    }
    for check in CHECKS:
        functions_at[f"certify.check.{check}"] = [(certify, f"check_{check}")]
    for name, sites in functions_at.items():
        wrapped = tracer.wrap(name, getattr(*sites[0]))
        for module, attr in sites:
            setattr(module, attr, wrapped)

    set_classes = (sets.HPolyhedron, sets.QuadricBall, sets.Epigraph, sets.Tube,
                   sets.Dilation, sets.ConvexSet)
    for method in ("support", "nearest_boundary", "slice_point", "sample_boundary",
                   "sample_exterior"):
        for cls in set_classes:
            if method in cls.__dict__:
                setattr(cls, method, tracer.wrap(f"sets.{method}", cls.__dict__[method]))
    for method in ("intersect_subspace", "sample_members", "polar_direction_in"):
        setattr(sets.RecessionCone, method,
                tracer.wrap(f"sets.cone.{method}", sets.RecessionCone.__dict__[method]))
