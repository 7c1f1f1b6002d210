"""CLI subcommands, exit codes and emitted artifacts."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harmdist
from harmdist import cli, plotting, verifier
from harmdist.cli import (
    EXIT_CONFIG,
    EXIT_HYPOTHESIS,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VIOLATIONS,
    main,
)
from harmdist.criteria import verdict
from harmdist.descriptors import parse_descriptor
from harmdist.norms import DEFAULT_R_MAX, GridSuprema

PAIRS = ["--pairs", "400"]


def test_catalog_lists_maps(capsys):
    assert main(["catalog"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    names = {e["name"] for e in data}
    assert {"identity", "koebe", "halfplane", "shear-identity-0.3z"} <= names


def test_analyze_writes_report(tmp_path, capsys):
    code = main(["analyze", "--map", "shear-identity-0.3z",
                 "--grid", "16,48", "--out", str(tmp_path)])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "analyze.json").read_text())
    assert report["map"] == "shear(identity,0.3z)"
    assert {"norms", "order", "criteria", "pointwise"} <= set(report)
    crits = {c["criterion"] for c in report["criteria"]}
    assert "becker_harmonic" in crits and "theorem_d" in crits


def test_verify_ok_exit_and_artifacts(tmp_path, capsys):
    code = main(["verify", "--bound", "dhk", "--map", "shear-identity-0.3z",
                 "--out", str(tmp_path), *PAIRS])
    assert code == EXIT_OK
    for strategy in ("uniform-in-disc", "boundary-biased", "near-diagonal"):
        assert (tmp_path / f"dhk-{strategy}.json").exists()
        assert (tmp_path / f"dhk-{strategy}.csv").exists()
    rep = json.loads((tmp_path / "dhk-uniform-in-disc.json").read_text())
    assert rep["violations"] == 0 and rep["pairs"] == 400


def test_verify_violations_exit(tmp_path):
    # the exact-identity check on a genuine shear cannot hold
    code = main(["verify", "--bound", "mobius_exact", "--map", "shear-halfplane-0.4z",
                 "--out", str(tmp_path), *PAIRS])
    assert code == EXIT_VIOLATIONS


def test_verify_hypothesis_exit_and_override(tmp_path):
    args = ["verify", "--bound", "becker_analytic", "--map", "halfplane",
            "--out", str(tmp_path), *PAIRS]
    assert main(args) == EXIT_HYPOTHESIS
    assert main(args + ["--allow-unmet"]) == EXIT_OK  # gated: nothing scored


def test_config_errors(tmp_path, capsys):
    assert main(["verify", "--bound", "dhk", "--map", "no-such-map"]) == EXIT_CONFIG
    assert main(["verify", "--bound", "nope", "--map", "identity"]) == EXIT_CONFIG
    assert main(["analyze", "--map", "identity", "--grid", "x,y"]) == EXIT_CONFIG
    assert main(["frobnicate"]) == EXIT_CONFIG
    capsys.readouterr()


@pytest.mark.parametrize("r_max", ["1.0", "0", "-0.5", "nan"])
@pytest.mark.parametrize("command", [["analyze"], ["verify", "--bound", "dhk"]],
                         ids=["analyze", "verify"])
def test_r_max_outside_open_unit_interval_is_config_error(command, r_max, tmp_path, capsys):
    pairs = PAIRS if command[0] == "verify" else []
    args = [*command, "--map", "koebe", "--r-max", r_max, "--out", str(tmp_path), *pairs]
    assert main(args) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error: --r-max")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("out", ["file", "file/x"], ids=["a-file", "under-a-file"])
@pytest.mark.parametrize("command", [["analyze", "--grid", "16,48"],
                                     ["verify", "--bound", "dhk", *PAIRS],
                                     ["plot", "--bound", "dhk", *PAIRS]],
                         ids=["analyze", "verify", "plot"])
def test_unusable_out_is_config_error_before_any_work(command, out, tmp_path, capsys,
                                                      monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work began before --out was checked")

    for module, name in ((cli, "GridSuprema"), (cli, "Jet"), (verifier, "verify_bound"),
                         (plotting, "image_polylines")):
        monkeypatch.setattr(module, name, no_work)
    (tmp_path / "file").write_text("kept\n")
    args = [*command, "--map", "koebe", "--out", str(tmp_path / out)]
    assert main(args) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error: --out")
    assert [p.name for p in tmp_path.iterdir()] == ["file"]
    assert (tmp_path / "file").read_text() == "kept\n"


@pytest.mark.parametrize("command", [["verify"], ["plot"]], ids=["verify", "plot"])
def test_negative_seed_is_config_error(command, tmp_path, capsys):
    args = [*command, "--bound", "dhk", "--map", "koebe", "--seed", "-1",
            "--out", str(tmp_path), *PAIRS]
    assert main(args) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error: seed must be >= 0")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("pairs", ["0", "-5"])
@pytest.mark.parametrize("command", [["verify"], ["plot"]], ids=["verify", "plot"])
def test_pairs_below_one_is_config_error(command, pairs, tmp_path, capsys):
    args = [*command, "--bound", "dhk", "--map", "koebe", "--pairs", pairs,
            "--out", str(tmp_path)]
    assert main(args) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error: count must be >= 1")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("args", [
    ["verify", "--bound", "dhk", "--map", "koebe", "--alpha", "nan"],
    ["verify", "--bound", "dhk", "--map", "koebe", "--alpha", "inf"],
    ["verify", "--bound", "kim_minda_convex", "--map", "halfplane", "--p", "nan"],
    ["verify", "--bound", "linconn", "--map", "shear-identity-0.3z", "--c", "nan"],
    ["analyze", "--map", "koebe", "--epsilon", "inf"],
    ["analyze", "--map", "koebe", "--c", "nan"],
], ids=["dhk-alpha-nan", "dhk-alpha-inf", "kim_minda_convex-p-nan", "linconn-c-nan",
        "analyze-epsilon-inf", "analyze-c-nan"])
def test_non_finite_parameter_is_config_error(args, tmp_path, capsys):
    """A NaN or infinite parameter never counts as a pass or a violation."""
    pairs = PAIRS if args[0] == "verify" else []
    assert main([*args, "--out", str(tmp_path), *pairs]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert f"got {args[-1]}" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("args", [
    ["analyze", "--seed", "1"],
    ["analyze", "--pairs", "400"],
    ["analyze", "--allow-unmet"],
    ["analyze", "--p", "2"],
    ["analyze", "--alpha", "2"],
    ["analyze", "--beta", "2"],
    ["verify", "--bound", "dhk", *PAIRS, "--grid", "16,48"],
    ["plot", *PAIRS, "--grid", "16,48"],
    ["plot", *PAIRS, "--allow-unmet"],
], ids=["analyze-seed", "analyze-pairs", "analyze-allow-unmet", "analyze-p",
        "analyze-alpha", "analyze-beta", "verify-grid", "plot-grid", "plot-allow-unmet"])
def test_option_the_subcommand_does_not_take_is_config_error(args, tmp_path, capsys):
    """An option the subcommand does not read fails closed, before any file is written."""
    assert main([*args, "--map", "identity", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error: unrecognized arguments")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("args, named", [
    (["verify", "--bound", "dhk", "--alpha", "nan", "--pairs", "200"], "alpha"),
    (["verify", "--bound", "kim_minda_convex", "--p", "0.5", "--pairs", "200"],
     "p must lie in (1, inf), got 0.5"),
    (["analyze", "--t", "2"], "t must lie"),
], ids=["dhk-alpha-nan", "kim_minda_convex-p", "analyze-t"])
def test_bad_parameter_on_a_numerically_failing_map_is_config_error(
        args, named, tmp_path, capsys):
    """omega = 1.98 z leaves the disc, but the parameter is checked first."""
    desc = tmp_path / "bad.json"
    desc.write_text(json.dumps({"h": {"name": "identity"}, "g": {"expr": "0.99z^2"}}))
    out = tmp_path / "out"
    out.mkdir()
    assert main([*args, "--map", str(desc), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and named in err
    assert not any(out.iterdir())


@pytest.mark.parametrize("args, named", [
    (["verify", "--map", "koebe", "--bound", "kim_minda_convex", "--p", "nan"],
     "p must lie in (1, inf), got nan"),
    (["verify", "--map", "shear-halfplane-0.4z", "--bound", "corollary", "--c", "3",
      "--beta", "7"], "beta must lie in [1, 2], got 7.0"),
    (["plot", "--map", "koebe", "--bound", "kim_minda_convex", "--p", "nan"],
     "p must lie in (1, inf), got nan"),
    (["verify", "--map", "shear-halfplane-0.4z", "--bound", "convex_h", "--p", "0.5"],
     "p must lie in (1, inf), got 0.5"),
], ids=["verify-koebe-p-nan", "verify-corollary-beta-7", "plot-koebe-p-nan",
        "verify-convex_h-p"])
def test_bad_parameter_where_the_gate_fails_or_the_bound_reads_none_is_config_error(
        args, named, tmp_path, capsys):
    """Every given parameter is checked before the gate, also one the bound does not read."""
    assert main([*args, *PAIRS, "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and named in err
    assert not any(tmp_path.iterdir())


def test_descriptor_omega_reaching_the_unit_circle_is_config_error(tmp_path, capsys):
    desc = tmp_path / "big-omega.json"
    desc.write_text(json.dumps({"h": {"name": "identity"}, "omega": {"expr": "1.2z"}}))
    for command in (["analyze"], ["verify", "--bound", "dhk", *PAIRS]):
        assert main([*command, "--map", str(desc), "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: descriptor omega")
        assert "1.2z" in err


@pytest.mark.parametrize("omega, degree", [
    ({"expr": "0.4z^200"}, 200),
    ({"expr": "0.1z + 0.3z^121"}, 121),
    ({"coefficients": [0] * 150 + [0.3]}, 150),
], ids=["monomial-200", "sum-to-121", "coefficients-150"])
def test_descriptor_omega_above_the_series_order_is_config_error(omega, degree, tmp_path,
                                                                 capsys):
    """g would drop omega's top terms, so the map analyzed would not be the one described."""
    path = tmp_path / "desc.json"
    path.write_text(json.dumps({"h": {"name": "identity"}, "omega": omega}))
    assert main(["analyze", "--map", str(path), "--grid", "16,64"]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert not out
    assert err.startswith("configuration error: ")
    assert f"degree {degree}" in err and "order 120" in err


@pytest.mark.parametrize("kind", ["directory", "not-utf-8"])
def test_unreadable_map_file_is_config_error(kind, tmp_path, capsys):
    path = tmp_path / "desc"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'\xff\xfe{"h": {"name": "identity"}}')
    assert main(["analyze", "--map", str(path), "--grid", "16,64"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot read descriptor") and str(path) in err


@pytest.mark.parametrize("desc, named", [
    ({"h": {"compose_sigma": {"a": 1.5, "inner": {"name": "identity"}}}}, "h"),
    ({"h": {"name": "identity"},
      "g": {"compose_sigma": {"a": 0.1, "inner": {"name": "mobius",
                                                     "params": {"c": 1, "d": 0.5}}}}},
     "g.compose_sigma.inner"),
    ({"h": {"name": "mobius", "params": {"c": 1, "d": 1}}}, "h"),
    ({"h": {"name": "mobius", "params": {"a": 1, "b": 1, "c": 1, "d": 1}}}, "h"),
    ({"h": {"name": "exp", "params": {"c": 0}}}, "h"),
    ({"h": {"name": "identity"}, "omega": {"expr": "nanz"}}, "nan"),
    ({"h": {"name": "exp", "params": {"c": [0.5, float("inf")]}}}, "inf"),
    ({"h": {"coefficients": []}}, "h: coefficients must be a non-empty list"),
    ({"h": {"coefficients": 5}}, "h: coefficients must be a non-empty list"),
    ({"h": {"name": "identity"}, "g": {"coefficients": "0.1"}}, "g: coefficients"),
], ids=["sigma-outside-disc", "nested-mobius-pole", "mobius-pole-on-circle",
        "mobius-degenerate", "exp-zero", "nan-expr", "inf-param", "empty-coefficients",
        "number-as-coefficients", "string-as-coefficients"])
def test_descriptor_entry_that_cannot_be_built_is_config_error(desc, named, tmp_path, capsys):
    """The descriptor is at fault, not the numerics: exit 4, naming the entry or the number."""
    path = tmp_path / "desc.json"
    path.write_text(json.dumps(desc))
    assert main(["analyze", "--map", str(path), "--grid", "16,64"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and named in err


def test_numerical_errors_exit_5(tmp_path, capsys):
    # omega = 1.98 z leaves the disc at |z| > 1/1.98: not a configuration error
    desc = tmp_path / "it.json"
    desc.write_text(json.dumps({"h": {"name": "identity"}, "g": {"expr": "0.99z^2"}}))
    args = ["--map", str(desc), "--out", str(tmp_path)]
    assert main(["verify", "--bound", "dhk", "--pairs", "1000", *args]) == EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith("numerical error: ")
    assert main(["analyze", *args]) == EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith("numerical error: ")
    # h = z^2 builds, and its h' vanishes at a grid point
    desc.write_text(json.dumps({"h": {"coefficients": [0, 0, 1]}}))
    assert main(["analyze", *args]) == EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith("numerical error: ")
    assert main(["analyze", "--map", "identity", "--t", "2"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error: ")


def test_analyze_evaluates_one_jet_per_grid(monkeypatch, capsys):
    """h.derivs and g.derivs each see one grid-sized call per analyze."""
    f = parse_descriptor({"h": {"name": "halfplane"}, "omega": {"expr": "0.4z"}})
    sizes = {"h": [], "g": []}
    firsts = {"h": [], "g": []}
    for part in ("h", "g"):
        m = getattr(f, part)

        def counted(z, order=3, first=0, _derivs=m.derivs, _sizes=sizes[part],
                    _firsts=firsts[part]):
            _sizes.append(int(np.size(z)))
            _firsts.append(first)
            return _derivs(z, order, first=first)

        object.__setattr__(m, "derivs", counted)
    monkeypatch.setattr(cli, "_resolve_map", lambda spec: f)
    grid = (16, 64)
    assert main(["analyze", "--map", "series", "--grid", "16,64"]) == EXIT_OK
    capsys.readouterr()
    points = grid[0] * grid[1] + 1
    assert sizes["h"].count(points) == 1
    assert sizes["g"].count(points) == 1
    # omega = g'/h' never reads g(z), so the grid's g call leaves it out
    assert firsts["g"][sizes["g"].index(points)] == 1
    sizes["g"].clear()
    verdict("convexity", GridSuprema(f.h, (), DEFAULT_R_MAX, grid))
    assert sizes["g"] == []


def test_analyze_evaluates_each_pointwise_sample_once(monkeypatch, capsys):
    """P_f and S_f at each of the eight pointwise samples share one jet."""
    f = parse_descriptor({"h": {"name": "halfplane"}, "omega": {"expr": "0.4z"}})
    calls = {"h": 0, "g": 0}
    for part in ("h", "g"):
        m = getattr(f, part)

        def counted(z, order=3, first=0, _derivs=m.derivs, _part=part):
            calls[_part] += 1
            return _derivs(z, order, first=first)

        object.__setattr__(m, "derivs", counted)

    class GridScan(Exception):
        pass

    def grid_scan(*args, **kwargs):
        raise GridScan

    monkeypatch.setattr(cli, "_resolve_map", lambda spec: f)
    monkeypatch.setattr(cli, "GridSuprema", grid_scan)  # stop after the pointwise values
    with pytest.raises(GridScan):
        main(["analyze", "--map", "series"])
    capsys.readouterr()
    assert calls == {"h": 8, "g": 8}


def test_verify_reads_sup_omega_once_across_suites(monkeypatch, tmp_path, capsys):
    """linconn's gate and prepare step read one sup |omega| for all three suites."""
    f = parse_descriptor({"h": {"name": "halfplane"}, "omega": {"expr": "0.4z"}})
    sizes = []

    def counted(z, order=3, first=0, _derivs=f.g.derivs):
        sizes.append(int(np.size(z)))
        return _derivs(z, order, first=first)

    object.__setattr__(f.g, "derivs", counted)
    monkeypatch.setattr(cli, "_resolve_map", lambda spec: f)
    code = main(["verify", "--bound", "linconn", "--map", "series",
                 "--out", str(tmp_path), *PAIRS])
    assert code == EXIT_OK
    capsys.readouterr()
    grid_points = 64 * 256 + 1  # the default grid
    assert sizes.count(grid_points) == 1


def test_verify_descriptor_map(tmp_path):
    desc = tmp_path / "m.json"
    desc.write_text(json.dumps({"h": {"name": "identity"}, "omega": {"expr": "0.3z"}}))
    code = main(["verify", "--bound", "becker_harmonic", "--map", str(desc),
                 "--out", str(tmp_path), *PAIRS])
    assert code == EXIT_OK


def test_verify_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        code = main(["verify", "--bound", "nehari_harmonic",
                     "--map", "harmonic-mobius-identity-0.3",
                     "--seed", "11", "--out", str(out), *PAIRS])
        assert code == EXIT_OK
    for strategy in ("uniform-in-disc", "boundary-biased", "near-diagonal"):
        name = f"nehari_harmonic-{strategy}.json"
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_plot_emits_svg_and_csv(tmp_path):
    code = main(["plot", "--map", "koebe", "--bound", "dhk",
                 "--out", str(tmp_path), *PAIRS])
    assert code == EXIT_OK
    svg = (tmp_path / "image.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    assert (tmp_path / "image.csv").exists()
    scatter = (tmp_path / "dhk-margins.csv").read_text().splitlines()
    assert scatter[0] == "rho,lower_margin,upper_margin"
    assert len(scatter) == 401
    # Pinned from the row-by-row csv.writer before the shared chunked writer.
    digest = hashlib.sha256((tmp_path / "dhk-margins.csv").read_bytes()).hexdigest()
    assert digest == "3d2c8adf676c744b0ad9a471fda55291356df32d32bbacd760185eb3f96e5f34"


@pytest.mark.parametrize("args", [
    ["catalog"],
    ["analyze", "--map", "koebe", "--grid", "16,64"],
    ["verify", "--bound", "convex_h", "--map", "shear-halfplane-0.4z", "--pairs", "400"],
    ["plot", "--map", "koebe", "--bound", "dhk", "--pairs", "400"],
], ids=["catalog", "analyze", "verify", "plot"])
def test_cli_import_does_not_load_scipy(args, tmp_path):
    """numpy is the only runtime dependency: every subcommand runs where scipy cannot load."""
    out = [] if args == ["catalog"] else ["--out", str(tmp_path)]
    code = ("import sys\n"
            "sys.modules['scipy'] = None  # any import of scipy now fails\n"
            "import harmdist.cli\n"
            f"sys.exit(harmdist.cli.main({[*args, *out]!r}))")
    env = dict(os.environ, PYTHONPATH=str(Path(harmdist.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
