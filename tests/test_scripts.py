"""The example scripts run end to end on small inputs and exit 0."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _script_main(name):
    spec = importlib.util.spec_from_file_location(
        f"script_{name}", SCRIPTS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.main


@pytest.mark.parametrize("name, argv", [
    ("index_table_demo", ["--radii", "1.0,1.1", "--m-max", "2",
                          "--mean-K", "16"]),
    ("pinching_sweep", ["--ratios", "1.1,1.25", "--mean-K", "16"]),
    ("run_verify_ellipsoid", ["--mean-K", "16"]),
])
def test_script_runs(name, argv, capsys):
    assert _script_main(name)(argv) == 0
    assert capsys.readouterr().out
