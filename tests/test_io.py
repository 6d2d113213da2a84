"""File formats: angles, matrices, sampled paths, surfaces, reports."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symstab import (
    ParseError,
    SurfaceSpec,
    canonical_json,
    load_matrix,
    load_path_samples,
    load_surface_file,
    parse_angle,
    rotation_path,
)
from symstab.io import parse_matrix_text, write_csv


@pytest.mark.parametrize("text, value", [
    ("2pi", 2 * np.pi),
    ("pi/2", np.pi / 2),
    ("-pi/3", -np.pi / 3),
    ("1.5pi", 1.5 * np.pi),
    ("0.5", 0.5),
    ("  PI ", np.pi),
    ("-2", -2.0),
])
def test_parse_angle(text, value):
    assert parse_angle(text) == pytest.approx(value, abs=1e-15)


@pytest.mark.parametrize("bad", ["", "pi/", "two pi", "1..2", "pi pi", "nan",
                                 "-inf"])
def test_parse_angle_rejects(bad):
    with pytest.raises(ParseError):
        parse_angle(bad)


def _matrix_text(M):
    """The matrix file format: an n= header, then 2n rows at 12 digits."""
    rows = [" ".join(format(x, ".12g") for x in row) for row in M]
    return "\n".join([f"n={len(M) // 2}", *rows]) + "\n"


def test_matrix_text_roundtrip():
    M = np.arange(16, dtype=float).reshape(4, 4) / 7
    back = parse_matrix_text(_matrix_text(M))
    assert np.abs(back - M).max() < 1e-11


def test_matrix_text_comments_and_blanks():
    text = "# monodromy\nn=1\n\n1 0.5\n# row two\n0 1\n"
    assert np.allclose(parse_matrix_text(text), [[1, 0.5], [0, 1]])


def test_matrix_json_form():
    assert np.allclose(parse_matrix_text("[[1, 0], [0, 1]]"), np.eye(2))


@pytest.mark.parametrize("bad", [
    "n=2\n1 0\n0 1\n",              # wrong row count for the header
    "1 0\n0 1\n",                   # missing header
    "n=1\n1 0\n0 1 2\n",            # ragged row
    "[[1, 0], [0]]",                # ragged json
    "n=1\n1 nan\n0 1\n",            # non-finite entry
    "[[1, NaN], [0, 1]]",
])
def test_matrix_text_rejects(bad):
    with pytest.raises(ParseError):
        parse_matrix_text(bad)


def test_save_load_matrix(tmp_path):
    M = np.array([[1.0, 0.25], [0.0, 1.0]])
    f = tmp_path / "m.txt"
    f.write_text(_matrix_text(M))
    assert np.array_equal(load_matrix(f), M)


def test_path_samples_roundtrip(tmp_path):
    p = rotation_path(2.0)
    ts = np.linspace(0, 1, 33)
    lines = ["n=1"]
    for t in ts:
        lines.append(f"t={float(t)!r}")
        for row in p.value(float(t)):
            lines.append(" ".join(format(v, ".17g") for v in row))
    f = tmp_path / "path.txt"
    f.write_text("\n".join(lines) + "\n")
    q = load_path_samples(f)
    assert q.n == 1 and q.tau == pytest.approx(1.0)
    assert np.abs(q.endpoint - p.endpoint).max() < 1e-7


def test_path_samples_reject_non_symplectic(tmp_path):
    f = tmp_path / "path.txt"
    f.write_text("n=1\nt=0\n1 0\n0 1\nt=0.5\n2 0\n0 2\nt=1\n1 0\n0 1\n")
    with pytest.raises(ParseError, match=r"t=0\.5 is not symplectic"):
        load_path_samples(f)


def test_surface_file(tmp_path):
    f = tmp_path / "s.json"
    f.write_text(json.dumps({"kind": "ellipsoid", "n": 2,
                             "radii": [1.0, 1.1], "alpha": 1.7}))
    spec, alpha = load_surface_file(f)
    assert isinstance(spec, SurfaceSpec)
    assert spec.radii == (1.0, 1.1) and alpha == 1.7


def test_surface_file_perturbed(tmp_path):
    f = tmp_path / "s.json"
    f.write_text(json.dumps({
        "kind": "perturbed-ellipsoid", "n": 1, "radii": [0.9],
        "perturbation": {"delta": 0.1, "quartic_coeffs": [0.2]}}))
    spec, alpha = load_surface_file(f)
    assert spec.delta == 0.1 and spec.quartic == (0.2,) and alpha is None


@pytest.mark.parametrize("doc", [
    {"kind": "ellipsoid", "n": 2, "radii": [1.0, 1.1], "extra": 1},
    {"kind": "torus", "n": 2, "radii": [1.0, 1.1]},
    {"kind": "ellipsoid", "n": 3, "radii": [1.0, 1.1]},
    {"kind": "ellipsoid", "n": 2, "radii": [1.0, -1.1]},
    {"kind": "ellipsoid", "n": 2, "radii": [1.0, 1.1], "alpha": 2.5},
    {"kind": "ellipsoid", "n": 2, "radii": [1.0, 1.1],
     "perturbation": {"delta": 0.1, "quartic_coeffs": [0.2, 0.1], "x": 0}},
    {"radii": [1.0, 1.1], "alpha": "fast"},
    {"radii": [1.0, 1.1], "perturbation": {"delta": "x"}},
    {"radii": [1.0, 1.1], "perturbation": {"quartic_coeffs": 0.3}},
    {"radii": [True, 1.1]},
])
def test_surface_file_rejects(tmp_path, doc):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        load_surface_file(f)


def test_canonical_json_stable():
    doc = {"b": np.float64(1 / 3), "a": [np.array([1.0, 2.0]), 1 + 2j],
           "c": {"z": 1, "y": 0.1234567890123456}}
    one = canonical_json(doc)
    two = canonical_json(json.loads(one) | {"b": 1 / 3 + 1e-15})
    assert one.endswith("\n")
    assert json.loads(one)["a"][1] == [1.0, 2.0]
    # 12 significant digits wipe out sub-representation noise
    assert json.loads(one)["b"] == json.loads(two)["b"]
    assert list(json.loads(one)) == ["a", "b", "c"]


def test_write_csv():
    text = write_csv(["a", "b"], [(1, 0.5), (2, 1 / 3)])
    assert text.splitlines() == ["a,b", "1,0.5", "2,0.333333333333"]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_matrix_roundtrip_random(seed):
    rng = np.random.default_rng(seed)
    M = rng.normal(scale=10.0, size=(4, 4))
    back = parse_matrix_text(_matrix_text(M))
    assert np.abs(back - M).max() < 1e-9 * max(1.0, np.abs(M).max())
