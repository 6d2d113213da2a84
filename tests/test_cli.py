"""End-to-end runs of the command-line front end via main(argv)."""

import argparse
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import symstab
from symstab.cli import main

IDENTITY_4 = "n=2\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n"
NOT_SYMPL = "n=1\n1 0\n0 2\n"


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    (d / "id4.txt").write_text(IDENTITY_4)
    (d / "bad.txt").write_text(NOT_SYMPL)
    (d / "e11.json").write_text(json.dumps(
        {"kind": "ellipsoid", "n": 2, "radii": [1.0, 1.1]}))
    (d / "ball1.json").write_text(json.dumps(
        {"kind": "ellipsoid", "n": 1, "radii": [0.9], "alpha": 1.5}))
    return d


def test_matrix_analyze_identity(files, capsys):
    assert main(["matrix-analyze", str(files / "id4.txt")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 2
    assert doc["elliptic_height"] == 4
    assert doc["symplectic_residual"] == 0.0
    assert doc["off_circle"] == []
    [c] = doc["unit_clusters"]
    assert c["alg"] == 4 and c["blocks"]["identity_planes"] == 2


def test_matrix_analyze_rejects_non_symplectic(files, capsys):
    assert main(["matrix-analyze", str(files / "bad.txt")]) == 2
    assert "not symplectic" in capsys.readouterr().err


@pytest.mark.parametrize("source, text", [
    ("normal-form", NOT_SYMPL),
    ("samples", "n=1\nt=0\n1 0\n0 1\nt=0.5\n2 0\n0 2\n" + "".join(
        f"t={t}\n1 0\n0 1\n" for t in (0.7, 1))),
])
def test_path_index_rejects_non_symplectic(tmp_path, source, text, capsys):
    # the residual check of matrix-analyze, before any engine runs
    f = tmp_path / "input"
    f.write_text(text)
    assert main(["path-index", f"{source}:{f}", "--m-max", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "is not symplectic (residual" in err


def test_missing_file(files, capsys):
    assert main(["matrix-analyze", str(files / "nope.txt")]) == 2
    assert "error:" in capsys.readouterr().err


def test_path_index_full_rotation(capsys):
    assert main(["path-index", "rotation:2pi",
                 "--omega", "1,-1", "--m-max", "2"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "kind,arg,index,nullity",
        "omega,1,1,2",
        "omega,-1,2,0",
        "iterate,1,1,2",
        "iterate,2,3,2",
    ]


def test_path_index_json_format(capsys):
    assert main(["path-index", "shear:1", "--omega", "1",
                 "--m-max", "1", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["omega"] == [{"token": "1", "index": -1, "nullity": 1}]
    assert doc["iterates"] == [{"m": 1, "index": -1, "nullity": 1}]


def test_path_index_empty_omega_list(capsys):
    assert main(["path-index", "rotation:2pi", "--omega", ","]) == 2
    assert "empty omega" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "{e11}", "--tol", "1e-6"],
    ["path-index", "rotation:2pi", "--tol", "1e-6"],
    ["path-index", "rotation:2pi", "--omega", "1", "--tol", "nan"],
    ["matrix-analyze", "{id4}", "--tol", "1e-6"],
])
def test_bad_tol(files, argv, capsys):
    # no subcommand takes a tolerance: the certified integers do not
    # depend on one
    argv = [a.format(e11=files / "e11.json", id4=files / "id4.txt")
            for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_bad_alpha(files, capsys):
    assert main(["verify", str(files / "e11.json"), "--alpha", "2.5"]) == 2
    assert "--alpha" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code", [
    (["orbits-find", "{d}/ball1.json"], 0),
    (["verify", "{d}/ball1.json", "--m-max", "1"], 0),
    (["path-index", "orbit:{d}/ball1.json:0", "--m-max", "1"], 0),
    (["path-index", "rotation:1", "--m-max", "1"], 0),
    (["path-index", "orbit:{d}/e11.json:0", "--m-max", "1"], 2),
], ids=["orbits-find", "verify", "orbit source", "rotation source",
        "orbit source without a file alpha"])
def test_alpha_is_checked_where_it_is_read(files, argv, code, capsys):
    # the file's alpha overrides the flag, and a source that reads no
    # alpha ignores it; only an alpha that is used must lie in (1, 2)
    argv = [a.format(d=files) for a in argv] + ["--alpha", "3"]
    assert main(argv) == code
    assert ("--alpha" in capsys.readouterr().err) == bool(code)


def test_bad_m_max(files, capsys):
    assert main(["verify", str(files / "e11.json"), "--m-max", "0"]) == 2
    assert "--m-max" in capsys.readouterr().err


def test_orbits_find_json(files, capsys):
    assert main(["orbits-find", str(files / "e11.json"),
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 2 and doc["alpha"] == 1.5
    acts = [o["action"] for o in doc["orbits"]]
    assert acts == pytest.approx([np.pi, 1.21 * np.pi], abs=1e-6)
    assert [o["plane"] for o in doc["orbits"]] == [0, 1]


def test_orbits_find_out_file_reproducible(files, tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for f in (a, b):
        assert main(["orbits-find", str(files / "e11.json"),
                     "--format", "json", "--out", str(f)]) == 0
    assert capsys.readouterr().out == ""
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["orbits"]


def test_orbit_source_path_index(files, capsys):
    src = f"orbit:{files / 'ball1.json'}:0"
    assert main(["path-index", src, "--m-max", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # ball of radius 0.9: i(y^m) = 2m - 2, path index adds n = 1; the
    # monodromy keeps a shear along the orbit, so the nullity stays 1
    assert lines[1] == "iterate,1,1,1"
    assert lines[2] == "iterate,2,3,1"


def test_verify_smoke(files, capsys):
    assert main(["verify", str(files / "ball1.json")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    names = {c["name"]: c for c in doc["checks"]}
    assert names["dual-form-agreement"]["passed"]
    for od in doc["orbits"]:
        assert od["galerkin"]["nullity"] == od["indices_path"][0][1] + 1


def _run_module(argv):
    """`python -X importtime -m symstab argv`: the process and the scipy
    modules it imported (the log names every module that enters
    sys.modules)."""
    src = str(Path(symstab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m",
                           "symstab", *argv],
                          capture_output=True, text=True, env=env, timeout=300)
    imported = [line.rsplit("|", 1)[1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "symstab.cli" in imported
    return proc, [m for m in imported if m.split(".")[0] == "scipy"]


def test_python_dash_m_runs_the_cli(files, capsys):
    # `python -m symstab` is the console script: same exit code, same bytes;
    # scipy is imported only by the routines that call it, and verify
    # calls none of them
    argv = ["verify", str(files / "ball1.json")]
    assert main(argv) == 0
    want = capsys.readouterr().out
    proc, scipy = _run_module(argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == want
    assert json.loads(proc.stdout)["passed"] is True
    assert scipy == []


@pytest.mark.parametrize("argv", [
    ["orbits-find", "{ball}"],
    ["matrix-analyze", "{id4}"],
    ["path-index", "rotation:1", "--m-max", "2"],
    ["path-index", "shear:0.5", "--m-max", "2"],
    ["path-index", "orbit:{ball}:0", "--m-max", "2"],
])
def test_built_in_sources_load_no_scipy(files, argv, capsys):
    argv = [a.format(ball=files / "ball1.json", id4=files / "id4.txt")
            for a in argv]
    assert main(argv) == 0
    want = capsys.readouterr().out
    proc, scipy = _run_module(argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == want
    assert scipy == []


_NOT_STAR_SHAPED = {"radii": [1.0, 1.1], "perturbation": {
    "delta": 0.35, "quartic_coeffs": [-0.6, -0.6]}}


@pytest.mark.parametrize("argv, doc", [
    (["path-index", "shear:abc"], None),
    (["path-index", "rotation:nan"], None),
    (["path-index", "lower-shear:inf"], None),
    (["path-index", "rotation:1", "--omega", "inf"], None),
    (["path-index", "rotation:.pi"], None),
    (["path-index", "rotation:1", "--omega", "9" * 400 + "pi"], None),
    (["verify", "{f}"], {"radii": [1.0, 1.1], "alpha": "fast"}),
    (["verify", "{f}"], {"radii": [1.0, 1.1], "perturbation": {"delta": "x"}}),
    (["verify", "{f}"], {"radii": [1.0, 1.1],
                         "perturbation": {"quartic_coeffs": 0.3}}),
    # no circle in either plane: the surface is not star-shaped
    (["verify", "{f}"], _NOT_STAR_SHAPED),
    (["orbits-find", "{f}"], _NOT_STAR_SHAPED),
    (["matrix-analyze", "{f}"], "n=1\n1 nan\n0 1\n"),
    (["path-index", "samples:{f}"],
     "n=1\nt=0\n1 0\n0 1\nt=0.5\n1 nan\n0 1\nt=1\n1 0\n0 1\n"),
    (["path-index", "samples:{f}"],
     "n=1\nt=0\n1 0\n0 1\nt=nan\n1 0\n0 1\nt=1\n1 0\n0 1\n"),
    # a repeated time, and a first sample that is not the identity
    (["path-index", "samples:{f}"], "n=1\n" + "".join(
        f"t={t}\n1 0\n0 1\n" for t in (0, 0.5, 0.5, 1))),
    (["path-index", "samples:{f}"], "n=1\nt=0\n2 0\n0 0.5\n" + "".join(
        f"t={t}\n1 0\n0 1\n" for t in (0.5, 0.7, 1))),
])
def test_unusable_input_exits_two(tmp_path, argv, doc, capsys):
    # non-numeric and non-finite values are refused as input (exit 2)
    # before any computation, not left to fail inside one (exit 1)
    f = tmp_path / "input"
    if doc is not None:
        f.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    assert main([a.format(f=f) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["verify", "{e11}", "--format", "csv"],
    ["verify", "{e11}", "--modes", "8"],
    ["matrix-analyze", "{id4}", "--alpha", "1.2"],
    ["matrix-analyze", "{id4}", "--m-max", "2"],
    ["matrix-analyze", "{id4}", "--format", "json"],
    ["orbits-find", "{e11}", "--tol", "1e-6"],
    ["orbits-find", "{e11}", "--m-max", "2"],
])
def test_unread_flags_are_rejected(files, argv, capsys):
    # a subcommand declares only the options it reads
    argv = [a.format(e11=files / "e11.json", id4=files / "id4.txt")
            for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_readme_option_table_matches_the_parser():
    # each row of the README's `| subcommand | options |` table lists
    # exactly the options that subcommand's parser declares
    from symstab.cli import _build_parser

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = {}
    table = readme.split("| subcommand | options |", 1)[1].splitlines()[2:]
    for line in itertools.takewhile(lambda l: l.startswith("|"), table):
        name, opts = line.strip("|").split("|")
        rows[name.strip().strip("`")] = set(re.findall(r"`(--[a-z-]+)`", opts))
    subs = next(a for a in _build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    declared = {name: {o for a in p._actions for o in a.option_strings
                       if o not in ("-h", "--help")}
                for name, p in subs.choices.items()}
    assert rows == declared
