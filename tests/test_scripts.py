"""The example scripts run end to end on small inputs and exit 0, and the
benchmark's oracles pass their self-test."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _script_main(name):
    return _load(f"script_{name}", ROOT / "scripts" / f"{name}.py").main


@pytest.mark.parametrize("name, argv", [
    ("index_table_demo", ["--radii", "1.0,1.1", "--m-max", "2",
                          "--mean-K", "16"]),
    ("pinching_sweep", ["--ratios", "1.1,1.25", "--mean-K", "16"]),
    ("run_verify_ellipsoid", ["--mean-K", "16"]),
])
def test_script_runs(name, argv, capsys):
    assert _script_main(name)(argv) == 0
    assert capsys.readouterr().out


def test_benchmark_oracles_self_test():
    # every oracle accepts the program on the n=1 ellipsoid and rejects a
    # corrupted copy, so a change that breaks what the benchmark checks
    # fails here too
    _load("perfbench_oracles", ROOT / "perfbench" / "oracles.py").self_test()
