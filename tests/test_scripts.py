"""The example scripts run end to end on small inputs and exit 0, and the
benchmark's oracles pass their self-test."""

import importlib.util
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import symstab
import symstab.cli
from symstab import (classify, dynamics, galerkin, index, io, paths,
                     spectral, sympl)

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
    ("pinching_sweep", ["--ratios", "1.1,1.25"]),
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


def test_benchmark_trace_reports_every_exercised_figure(tmp_path, capsys):
    # `perfbench/run.py --trace 1` wraps symstab's public functions by name
    # from outside; a deleted or renamed one reads 0 in its figure here
    tracing = _load("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    surface = tmp_path / "ball.json"
    surface.write_text(json.dumps({"kind": "ellipsoid", "n": 1,
                                   "radii": [0.9], "alpha": 1.5}))
    M = sympl.diamond_all([sympl.N1_block(1.0, 1.0), sympl.R_block(2.0)])
    tracer = tracing.Tracer()
    tracer.install(symstab)
    tracer.active = True
    try:
        assert symstab.cli.main(["verify", str(surface), "--m-max", "1"]) == 0
        turn = paths.rotation_path(2 * np.pi)
        assert index.index_nu(turn, -1.0).as_tuple() == (2, 0)
        assert len(index.iterate_indices(turn, 2)) == 2
        w = np.exp(2j)
        num = index.splitting_numbers_numeric(paths.normal_form_path(M), w)
        assert num == spectral.splitting_table(spectral.spectral_summary(M), w)
        assert galerkin.stabilized_index(lambda t: 0.4 * np.eye(2), 5.0, 1)
    finally:
        tracer.active = False
        tracer.uninstall()
    assert json.loads(capsys.readouterr().out)["passed"]
    metrics = tracer.layer_metrics(1)
    # figures of code these calls do not run: the mean-index root sum, the
    # benchmark's own G samples and spans, errors and eps-ladder steps
    idle = {"index.mean_index_s", "index.index_nu_errors",
            "index.eps_halvings", "dynamics.g_sample_s", "dynamics.g_samples",
            "bench.self_s"}
    assert {k for k, (v, _unit) in metrics.items() if v == 0} == idle
    assert metrics["index.crossings"][0] == 1


def test_benchmark_workloads_pass_their_checks(tmp_path, monkeypatch):
    # one untimed pass of every workload of `perfbench/run.py`: each op runs
    # and its output passes the workload's check, as in a timed pass; an op
    # that raised a SymstabError would count as failed, and none does
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    for name in ("oracles", "workloads"):   # fresh copies, imported by name
        monkeypatch.delitem(sys.modules, name, raising=False)
    wl = importlib.import_module("workloads")
    sx = types.SimpleNamespace(
        package=symstab, classify=classify, cli=symstab.cli,
        dynamics=dynamics, galerkin=galerkin, index=index, io=io,
        paths=paths, spectral=spectral, sympl=sympl)
    failed = []
    for name, cls in wl.WORKLOADS.items():
        work = cls(sx, 1, tmp_path)
        work.setup()
        work.check_setup()
        for op in work.ops():
            try:
                out = op.run()
            except symstab.SymstabError:
                failed.append((name, op.label))
                continue
            op.check(out)
    assert failed == []


def _canned(pass_s, setup_s, attempted=60, failed=0, correct=True):
    """The last lines of a perfbench run, as `perfbench/run.py` prints them."""
    metrics = {"pass_ref_s": {"value": pass_s, "unit": "s"},
               "setup_s": {"value": setup_s, "unit": "s"}}
    return "\n".join([
        "workload verify-pinched seed 41 seconds 30 trace 0",
        'machine {"cores": 2}',
        f"pass 1: wall {pass_s:.4f} s, reference {pass_s:.4f} s",
        f"operations: {attempted} attempted, {failed} failed",
        json.dumps({"correct": correct, "attempted": attempted,
                    "failed": failed, "metrics": metrics})])


def test_bench_pairs_summary_of_canned_runs():
    bp = _load("script_bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    runs = [(_canned(0.16, 0.50), _canned(0.12, 0.52)),
            (_canned(0.15, 0.48), _canned(0.13, 0.47)),
            (_canned(0.17, 0.49), _canned(0.18, 0.50, failed=1)),
            (_canned(0.16, 0.51), _canned(0.11, 0.49))]
    pairs = [(bp.parse_run(p), bp.parse_run(c)) for p, c in runs]
    assert pairs[0][1]["machine"] == {"cores": 2}
    s = bp.summarize(pairs, {"pass_ref_s": "lower", "setup_s": "lower"})
    m = s["metrics"]["pass_ref_s"]
    assert m["parent"] == {"median": 0.16, "q1": 0.1575, "q3": 0.1625}
    assert m["change"]["median"] == pytest.approx(0.125)
    assert m["change_wins"] == 3 and s["metrics"]["setup_s"]["change_wins"] == 2
    assert m["change_vs_parent"] == pytest.approx(0.125 / 0.16 - 1.0)
    assert s["attempted"] == {"parent": 240, "change": 240}
    assert s["failed"] == {"parent": 0, "change": 1}
    assert s["more_failures"] and s["correct"] == {"parent": True,
                                                   "change": True}
    # a run that exited 0 but printed no result is a failed operation with
    # a wrong output
    broken = bp.parse_run("pass 1: wall 0.1 s\n")
    assert broken["verdict"] == "wrong_output"
    s = bp.summarize([(pairs[0][0], broken)], {})
    assert s["more_failures"] and not s["correct"]["change"]
    assert s["metrics"] == {} and s["run_failed"] == {"parent": 0,
                                                      "change": 0}
    # a run that crashed: its own verdict, its exit code and the last
    # lines of its stderr, and no operations
    trace = "\n".join(["Traceback (most recent call last):"]
                      + [f'  File "x.py", line {k}' for k in range(30)]
                      + ["ValueError: math domain error"])
    crashed = bp.parse_run('machine {"cores": 2}\n', 1, trace)
    assert crashed["verdict"] == "run_failed" and crashed["exit_code"] == 1
    assert len(crashed["stderr_tail"]) == bp.STDERR_LINES
    assert crashed["stderr_tail"][-1] == "ValueError: math domain error"
    assert crashed["machine"] == {"cores": 2}
    s = bp.summarize([pairs[0], (pairs[1][0], crashed)], {})
    assert s["run_failed"] == {"parent": 0, "change": 1}
    assert s["correct"] == {"parent": True, "change": True}
    assert s["attempted"] == {"parent": 120, "change": 60}
    assert s["failed"] == {"parent": 0, "change": 0}
    assert s["runs"][1]["change"] == {"exit_code": 1, "verdict": "run_failed",
                                      "stderr_tail": crashed["stderr_tail"]}
    assert s["runs"][0]["parent"] == {"exit_code": 0, "verdict": "ok",
                                      "stderr_tail": []}
    assert bp.problems({"w": s}) == [
        "w: run_failed: 1 run(s) of the change exited non-zero without a "
        "result"]
    assert bp.problems({"w": bp.summarize(pairs[:2], {})}) == []
    # a wrong output that exits 1 prints its result line: not a crash
    wrong = bp.parse_run(_canned(0.1, 0.5, correct=False), 1, "")
    assert wrong["verdict"] == "wrong_output" and wrong["metrics"]
    # higher-is-better metrics win the other way
    s = bp.summarize(pairs[:1], {"pass_ref_s": "higher"})
    assert s["metrics"]["pass_ref_s"]["change_wins"] == 0

    # verdicts
    lower = {"pass_ref_s": "lower", "setup_s": "lower"}
    bounds = {"pass_ref_s": 0.15, "setup_s": 0.25}

    def verdicts(pairs, better=lower, bounds=bounds):
        s = bp.summarize(pairs, better, bounds)
        return {k: m["verdict"] for k, m in s["metrics"].items()}

    # 3/4 pairs won: 0.160 -> 0.125 is wider than the parent's quartile
    # distance 0.005, but short of 9 in 10 pairs; setup_s medians are equal
    assert verdicts(pairs) == {"pass_ref_s": "unresolved", "setup_s": "even"}
    # every pair won, and 0.16 -> 0.12 is wider than the spread 0.005
    won = [pairs[k] for k in (0, 1, 3)]
    assert verdicts(won)["pass_ref_s"] == "gain"
    # the same runs with the sides swapped: 0.125 -> 0.160 is 28% worse
    swapped = [(c, p) for p, c in pairs]
    assert verdicts(swapped)["pass_ref_s"] == "regressed"
    assert verdicts(swapped, bounds={"pass_ref_s": 0.5})["pass_ref_s"] == (
        "unresolved")
    # a metric without a bound never regresses; higher is better flips it
    assert verdicts([(c, p) for p, c in won], bounds={})["pass_ref_s"] == (
        "unresolved")
    assert verdicts(won, {"pass_ref_s": "higher"})["pass_ref_s"] == (
        "regressed")
    s = bp.summarize(won, lower, bounds)
    line = bp.summary_line("verify-pinched", "pass_ref_s",
                           s["metrics"]["pass_ref_s"], s["pairs"])
    assert line == ("verify-pinched pass_ref_s: gain, parent 0.16 (q1 0.155, "
                    "q3 0.16) change 0.12 (-25.0%), change won 3/3")
