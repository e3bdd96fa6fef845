"""Command line surface: subcommands, outputs, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from okacert.cli import main
from okacert.gallery import gallery_names
from okacert.specjson import write_json


ROOT = Path(__file__).resolve().parent.parent


def run(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def test_certify_verified_set_exits_zero(tmp_path, capsys):
    out = tmp_path / "cert.json"
    code = run("certify", "siegel2", "--samples", "60", "--out", str(out))
    assert code == 0
    cert = json.loads(out.read_text())
    assert cert["overall"] == "verified-sampled"
    assert {c["name"] for c in cert["checks"]} >= {"no_affine_line",
                                                   "weak_projective"}


def test_certify_refuted_set_exits_one(capsys):
    code = run("certify", "halfspace", "--samples", "60")
    assert code == 1
    cert = json.loads(capsys.readouterr().out)
    assert cert["overall"] == "refuted"


def test_certify_bad_inputs_exit_usage(capsys):
    assert run("certify", "no-such-set-anywhere") == 64
    assert run("certify", "ball", "--samples", "0") == 64
    assert run("certify", "ball", "--tol", "1e-3") == 64  # removed flag
    assert run("certify", "ball", "--samples", "not-a-number") == 64


def test_certify_output_is_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run("certify", "ball", "--samples", "40", "--out", str(a)) == 0
    assert run("certify", "ball", "--samples", "40", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_certify_accepts_set_file(tmp_path):
    f = tmp_path / "set.json"
    write_json(f, {"type": "ball", "center": [0.0, 0.0, 0.0, 0.0],
                   "radius": 1.0})
    assert run("certify", str(f), "--samples", "40") == 0


# ---------------------------------------------------------------------------
# approx
# ---------------------------------------------------------------------------

def test_approx_writes_state(tmp_path):
    out = tmp_path / "state.json"
    code = run("approx", "ball", "--steps", "2", "--window", "3",
               "--out", str(out))
    assert code == 0
    state = json.loads(out.read_text())
    assert len(state["separators"]) == 2
    assert state["delta"] == 0.1


def test_approx_on_a_nine_term_normcombo_set(tmp_path):
    """Every exterior point of the 9-term normcombo set of C^5 projects
    exactly, so its outer approximation is built."""
    f = tmp_path / "set.json"
    write_json(f, {"type": "normcombo", "n": 5, "a": [1, 1, 1, 1], "b": [1, 1, 1, 1], "c": 1})
    out = tmp_path / "state.json"
    assert run("approx", str(f), "--out", str(out)) == 0
    assert len(json.loads(out.read_text())["separators"]) == 3


def test_approx_fails_cleanly_on_sets_with_lines(capsys):
    code = run("approx", "halfspace", "--steps", "2")
    assert code == 2
    assert "approximation failed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# basin
# ---------------------------------------------------------------------------

def test_basin_small_grid_with_all_outputs(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"grid_n": 30, "max_iter": 60})
    outdir = tmp_path / "out"
    code = run("basin", str(cfg), "--outdir", str(outdir), "--svg",
               "--manifest")
    assert code == 0
    report = json.loads((outdir / "basin_report.json").read_text())
    assert report["status"] == "ok"
    assert report["grid"]["n"] == 30
    assert (outdir / "basin_grid.csv").exists()
    assert (outdir / "basin_slice.svg").exists()
    manifest = json.loads((outdir / "run_manifest.json").read_text())
    for name, want in manifest["outputs"].items():
        got = hashlib.sha256((outdir / name).read_bytes()).hexdigest()
        assert got == want


def test_basin_slice_override_and_custom_report_path(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"grid_n": 25, "max_iter": 40})
    report_path = tmp_path / "custom_report.json"
    code = run("basin", str(cfg), "--slice", "z2",
               "--outdir", str(tmp_path / "o"), "--out", str(report_path))
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["grid"]["slice"] == "z2"


def test_basin_unreachable_epsilon_is_inconclusive(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"epsilon": 1e-7, "grid_n": 20})
    code = run("basin", str(cfg), "--outdir", str(tmp_path / "o"))
    assert code == 2
    report = json.loads((tmp_path / "o" / "basin_report.json").read_text())
    assert report["status"] == "inconclusive"
    assert report["design"]["status"] == "failed"


def test_basin_rejects_bad_inputs(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    assert run("basin", str(bad), "--outdir", str(tmp_path / "o")) == 64
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"grid_n": 20})
    assert run("basin", str(cfg), "--slice", "diagonal") == 64


# ---------------------------------------------------------------------------
# cayley
# ---------------------------------------------------------------------------

def test_cayley_single_point(capsys):
    code = run("cayley", "0,0,0,1", "--direction", "inverse")
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["direction"] == "inverse"
    assert len(out["output"]) == 2
    assert out["siegel_defect_input"] == pytest.approx(1.0)


def test_cayley_degenerate_chart(capsys):
    # inverse direction is undefined on z_n = -i
    assert run("cayley", "0,0,0,-1", "--direction", "inverse") == 2
    assert "degenerate" in capsys.readouterr().err


def test_cayley_identity_check(capsys):
    code = run("cayley", "--check", "2000", "--seed", "7")
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["checked"] == 2000
    assert out["pass"] is True
    assert out["max_residual"] <= 1e-10


def test_cayley_requires_point_or_check(capsys):
    assert run("cayley") == 64
    assert run("cayley", "--check", "0") == 64
    assert run("cayley", "1,2,3") == 64  # odd coordinate count


# ---------------------------------------------------------------------------
# examples
# ---------------------------------------------------------------------------

def test_examples_list_json(capsys):
    assert run("examples") == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["name"] for r in rows] == gallery_names()
    assert all({"name", "type", "ambient_real_dim", "expected_overall",
                "description"} <= set(r) for r in rows)


def test_examples_list_csv(capsys):
    assert run("examples", "list", "--format", "csv") == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("name,type,ambient_real_dim")
    assert len(lines) == 1 + len(gallery_names())


def test_examples_emit_roundtrips_into_certify(tmp_path, capsys):
    out = tmp_path / "emitted.json"
    assert run("examples", "emit", "disc-tube-prop49", "--out", str(out)) == 0
    blob = json.loads(out.read_text())
    assert blob["type"] == "tube"
    assert run("certify", str(out), "--samples", "40") == 0


def test_examples_emit_errors(capsys):
    assert run("examples", "emit") == 64
    assert run("examples", "emit", "not-a-name") == 64


# ---------------------------------------------------------------------------
# top-level behavior
# ---------------------------------------------------------------------------

def test_usage_errors_exit_64(capsys):
    assert run() == 64
    assert run("no-such-command") == 64
    assert run("certify") == 64  # missing positional


def test_version_flag(capsys):
    assert run("--version") == 0
    assert capsys.readouterr().out.startswith("okacert ")


def test_unwritable_certificate_exits_usage_not_refuted(tmp_path, capsys):
    """A write that fails is a usage error (64), not the refuted code (1)."""
    missing = tmp_path / "no" / "such" / "dir"
    assert run("certify", "ball", "--out", str(missing / "cert.json")) == 64
    assert capsys.readouterr().err.startswith("output error: ")
    # an unreadable set file is an input error, not an output one
    assert run("certify", str(tmp_path)) == 64
    assert capsys.readouterr().err.startswith("input error: ")


def test_unwritable_basin_outputs_exit_usage(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir"
    blocker = tmp_path / "a-file"
    blocker.write_text("x", encoding="utf-8")
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"grid_n": 20, "max_iter": 40})
    assert run("basin", str(cfg), "--outdir", str(blocker / "o")) == 64
    assert capsys.readouterr().err.startswith("output error: ")
    assert run("basin", str(cfg), "--outdir", str(tmp_path / "o"),
               "--out", str(missing / "report.json")) == 64
    assert capsys.readouterr().err.startswith("output error: ")


def test_repeated_main_calls_carry_no_options_over(tmp_path, capsys):
    """main builds its parser once per process; no call's options reach the next."""
    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    assert run("certify", "ball", "--seed", "7", "--out", str(a)) == 0
    assert run("certify", "ball", "--seed", "not-a-number") == 64
    assert run("certify", "ball", "--out", str(b)) == 0
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"grid_n": 20, "max_iter": 40})
    assert run("basin", str(cfg), "--outdir", str(tmp_path / "svg"), "--svg") == 0
    assert (tmp_path / "svg" / "basin_slice.svg").exists()
    assert run("basin", str(cfg), "--outdir", str(tmp_path / "plain")) == 0
    assert (tmp_path / "plain" / "basin_grid.csv").exists()
    assert not (tmp_path / "plain" / "basin_slice.svg").exists()
    # b ran with the default seed: its bytes are a fresh process's, not a's
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "okacert.cli", "certify", "ball", "--out", str(c)],
                   env=env, check=True, timeout=300)
    assert b.read_bytes() == c.read_bytes()
    assert a.read_bytes() != b.read_bytes()
