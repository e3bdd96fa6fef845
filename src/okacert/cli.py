"""Command line interface.

Subcommands: certify, approx, basin, cayley, examples.
Exit codes: 0 = verified / success, 1 = refuted, 2 = inconclusive or a
documented analysis failure, 64 = usage, input-schema or output-write error.

Primary outputs (certificates, approximation states, basin reports) are
canonical JSON and contain no timestamps; a side-car run manifest carries
the wall time and output digests and is not itself a primary output.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
import time

import numpy as np

from . import __version__
from .basin import BasinConfig, basin_report
from .certify import SamplingPlan, certify_oka_complement
from .errors import (
    DegenerateChart,
    OkacertError,
    SchemaError,
    SeparatorNotFound,
)
from .gallery import build_example, describe_examples, gallery_names
from .geometry import cayley_forward, cayley_inverse, siegel_defect
from .smoothing import outer_sequence
from .specjson import canonical_json, load_set, read_json, write_json

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _resolve_set(token: str):
    if token in gallery_names():
        return build_example(token)
    if os.path.exists(token):
        return load_set(token)
    raise SchemaError("$", f"{token!r} is neither a gallery name nor a file")


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_manifest(outdir, argv, outputs, wall):
    manifest = {
        "tool": "okacert",
        "version": __version__,
        "argv": list(argv),
        "wall_time_s": round(wall, 3),
        "outputs": {os.path.basename(p): digest_of_file(p) for p in outputs},
    }
    write_json(os.path.join(outdir, "run_manifest.json"), manifest)


def digest_of_file(path: str) -> str:
    import hashlib
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _cmd_certify(args, argv) -> int:
    E = _resolve_set(args.set)
    plan = SamplingPlan(seed=args.seed)
    if args.samples is not None:
        if args.samples < 1:
            raise SchemaError("$.samples", "must be positive")
        plan = plan.scaled(args.samples)
    cert = certify_oka_complement(E, plan)
    _emit(canonical_json(cert.to_jsonable()) + "\n", args.out)
    if args.out and args.manifest:
        _write_manifest(os.path.dirname(os.path.abspath(args.out)) or ".",
                        argv, [args.out], time.time() - args._t0)
    if cert.overall in ("verified-sampled", "certified-exact"):
        return EXIT_OK
    if cert.overall == "refuted":
        return EXIT_REFUTED
    return EXIT_INCONCLUSIVE


def _cmd_approx(args, argv) -> int:
    E = _resolve_set(args.set)
    try:
        state = outer_sequence(E, steps=args.steps, window=args.window,
                               delta=args.delta, seed=args.seed)
    except (ValueError, SeparatorNotFound) as exc:
        print(f"approximation failed: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    _emit(canonical_json(state.to_jsonable()) + "\n", args.out)
    if args.out and args.manifest:
        _write_manifest(os.path.dirname(os.path.abspath(args.out)) or ".",
                        argv, [args.out], time.time() - args._t0)
    return EXIT_OK


def _cmd_basin(args, argv) -> int:
    if args.config == "default":
        config = BasinConfig()
    else:
        try:
            config = BasinConfig.from_jsonable(read_json(args.config))
        except (OSError, ValueError, TypeError, KeyError) as exc:
            raise SchemaError("$", f"bad basin config: {exc}")
    if args.slice is not None:
        try:
            config = dataclasses.replace(config, slice_plane=args.slice)
        except ValueError as exc:
            raise SchemaError("$.slice", str(exc))
    os.makedirs(args.outdir, exist_ok=True)
    report, csv_text, svg_text = basin_report(config, want_svg=args.svg)
    outputs = []
    report_path = args.out or os.path.join(args.outdir, "basin_report.json")
    write_json(report_path, report)
    outputs.append(report_path)
    if csv_text is not None:
        csv_path = os.path.join(args.outdir, "basin_grid.csv")
        _emit(csv_text, csv_path)
        outputs.append(csv_path)
    if svg_text is not None:
        svg_path = os.path.join(args.outdir, "basin_slice.svg")
        _emit(svg_text, svg_path)
        outputs.append(svg_path)
    if args.manifest:
        _write_manifest(args.outdir, argv, outputs, time.time() - args._t0)
    if report.get("status") != "ok":
        return EXIT_INCONCLUSIVE
    bad = (report["assertions"]["basin_points_in_k"]
           + report["assertions"]["basin_points_near_fixed_line"])
    return EXIT_OK if bad == 0 else EXIT_REFUTED


def _parse_point(text: str) -> np.ndarray:
    try:
        parts = [float(v) for v in text.split(",")]
    except ValueError:
        raise SchemaError("$.point", "expected comma-separated reals")
    if len(parts) % 2:
        raise SchemaError("$.point", "needs an even count: re,im pairs")
    vals = np.asarray(parts).reshape(-1, 2)
    return vals[:, 0] + 1j * vals[:, 1]


def _cayley_check(count: int, seed: int) -> dict:
    """Max residual of the boundary-defect identity on random ball points.

    For w in the unit ball off the chart locus, the forward map z satisfies
    Im z_n - |z'|^2 = (1 - |w|^2) / |1 - w_n|^2.
    """
    rng = np.random.default_rng(seed)
    collected = 0
    worst = 0.0
    while collected < count:
        w = rng.normal(size=(4 * (count - collected), 2, 2))
        w = w[..., 0] + 1j * w[..., 1]
        radii = rng.uniform(0.0, 1.0, size=w.shape[0]) ** 0.5
        norms = np.linalg.norm(w, axis=-1)
        w = w * (radii / np.maximum(norms, 1e-300))[:, None]
        keep = np.abs(1.0 - w[:, -1]) > 0.05
        w = w[keep][: count - collected]
        if not w.shape[0]:
            continue
        z = cayley_forward(w)
        lhs = siegel_defect(z)
        rhs = (1.0 - np.sum(np.abs(w) ** 2, axis=-1)) / np.abs(1.0 - w[:, -1]) ** 2
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        collected += w.shape[0]
    return {"checked": int(count), "max_residual": worst,
            "tolerance": 1e-10, "pass": bool(worst <= 1e-10)}


def _cmd_cayley(args, argv) -> int:
    if args.check is not None:
        if args.check < 1:
            raise SchemaError("$.check", "must be positive")
        result = _cayley_check(args.check, args.seed)
        _emit(canonical_json(result) + "\n", args.out)
        return EXIT_OK if result["pass"] else EXIT_INCONCLUSIVE
    if args.point is None:
        raise SchemaError("$.point", "give a point or use --check N")
    z = _parse_point(args.point)
    try:
        if args.direction == "forward":
            w = cayley_forward(z)
        else:
            w = cayley_inverse(z)
    except DegenerateChart as exc:
        print(f"degenerate chart: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    result = {
        "direction": args.direction,
        "input": [[v.real, v.imag] for v in z],
        "output": [[v.real, v.imag] for v in w],
    }
    if args.direction == "forward":
        result["siegel_defect_output"] = siegel_defect(w)
    else:
        result["siegel_defect_input"] = siegel_defect(z)
    _emit(canonical_json(result) + "\n", args.out)
    return EXIT_OK


def _examples_csv(rows) -> str:
    cols = ("name", "type", "ambient_real_dim", "expected_overall", "description")
    lines = [",".join(cols)]
    for row in rows:
        cells = []
        for col in cols:
            cell = str(row[col])
            if "," in cell or '"' in cell:
                cell = '"' + cell.replace('"', '""') + '"'
            cells.append(cell)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _cmd_examples(args, argv) -> int:
    if args.action == "list":
        rows = describe_examples()
        if args.format == "csv":
            _emit(_examples_csv(rows), args.out)
        else:
            _emit(canonical_json(rows) + "\n", args.out)
        return EXIT_OK
    if args.name is None:
        raise SchemaError("$.name", "emit needs a gallery name")
    if args.name not in gallery_names():
        raise SchemaError("$.name", f"unknown gallery name {args.name!r}")
    E = build_example(args.name)
    _emit(canonical_json(E.to_jsonable()) + "\n", args.out)
    return EXIT_OK


@functools.cache  # one parser per process: parse_args stores nothing on it, nor may callers
def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="okacert",
                 description="certify geometric hypotheses making the "
                             "complement of a closed convex set an Oka domain")
    ap.add_argument("--version", action="version", version=f"okacert {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("certify", help="run all checks on a set")
    c.add_argument("set", help="gallery name or JSON file")
    c.add_argument("--seed", type=int, default=42)
    c.add_argument("--samples", type=int, default=None,
                   help="boundary sample budget; other budgets scale with it")
    c.add_argument("--out", default=None, help="write the certificate here")
    c.add_argument("--manifest", action="store_true",
                   help="also write run_manifest.json next to --out")
    c.set_defaults(func=_cmd_certify)

    a = sub.add_parser("approx", help="nested smooth strongly convex outer sets")
    a.add_argument("set", help="gallery name or JSON file")
    a.add_argument("--steps", type=int, default=3)
    a.add_argument("--window", type=float, default=5.0)
    a.add_argument("--delta", type=float, default=0.1)
    a.add_argument("--seed", type=int, default=42)
    a.add_argument("--out", default=None)
    a.add_argument("--manifest", action="store_true")
    a.set_defaults(func=_cmd_approx)

    b = sub.add_parser("basin", help="attracting-basin experiment")
    b.add_argument("config", nargs="?", default="default",
                   help="'default' or a JSON config file")
    b.add_argument("--slice", choices=("re", "im", "z1", "z2"), default=None,
                   help="override the gridded 2-plane")
    b.add_argument("--out", default=None, help="report path (default in --outdir)")
    b.add_argument("--outdir", default="basin_out")
    b.add_argument("--svg", action="store_true", help="also write a slice picture")
    b.add_argument("--manifest", action="store_true")
    b.set_defaults(func=_cmd_basin)

    k = sub.add_parser("cayley", help="map points between half-space and ball models")
    k.add_argument("point", nargs="?", default=None,
                   help="comma-separated reals: re1,im1,re2,im2,...")
    k.add_argument("--direction", choices=("forward", "inverse"), default="forward")
    k.add_argument("--check", type=int, default=None,
                   help="verify the boundary-defect identity on N random points")
    k.add_argument("--seed", type=int, default=42)
    k.add_argument("--out", default=None)
    k.set_defaults(func=_cmd_cayley)

    e = sub.add_parser("examples", help="list or emit the built-in gallery")
    e.add_argument("action", nargs="?", choices=("list", "emit"), default="list")
    e.add_argument("name", nargs="?", default=None, help="gallery name for emit")
    e.add_argument("--format", choices=("json", "csv"), default="json")
    e.add_argument("--out", default=None)
    e.set_defaults(func=_cmd_examples)
    return ap


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args._t0 = time.time()
    try:
        return args.func(args, argv)
    except (SchemaError, OSError) as exc:  # an input, or an output that cannot be written
        side = "input" if isinstance(exc, SchemaError) else "output"
        print(f"{side} error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OkacertError as exc:
        print(f"analysis failed: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
