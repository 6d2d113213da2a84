#!/usr/bin/env python3
"""A/B benchmark of the working tree against a parent revision.

The parent revision is unpacked with `git archive` into a temporary
directory, and the working tree's files (tracked ones and untracked ones
that are not ignored) are copied beside it, so both sides import from
fresh trees without bytecode caches; the repository's .git is only
read.  For each workload,
`perfbench/run.py --trace 0` then runs in alternating pairs: parent
first in even pairs, the working tree first in odd ones, so drift of
the machine's speed falls on both sides alike.  The summary goes to
BENCH_<label>.json in the repository root: per workload and end-to-end
metric each side's median and quartiles, the number of pairs the change
won and a verdict, and per side the attempted and failed operations.
The verdict applies the acceptance rule of a claimed gain:

    gain        the change wins at least 9 in 10 pairs, and its median is
                better than the parent's by more than the parent's
                quartile distance q3 - q1;
    regressed   the change's median is worse than the parent's by more
                than the metric's relative `bound` in BENCHMARK.json;
    even        the medians differ by no more than that quartile distance;
    unresolved  anything else: a gap wider than the parent's spread that
                the pairs do not confirm, or a loss within the bound.

One line per workload and metric prints the verdict.  Each run's exit
code and the last lines of its stderr go into the file too.  A run that
exits non-zero without printing a result line gets the verdict
`run_failed`, apart from a run with a wrong output; it counts no
operations.  The exit status is 1 when the change's share of failed
operations is higher than the parent's on any workload, or a run of the
change gave a wrong output or failed.

    python3 scripts/bench_pairs.py --parent HEAD --label mychange \\
        --workloads verify-pinched --pairs 10 --seed 41 --seconds 30
"""

import argparse
import io
import json
import pathlib
import statistics
import subprocess
import shutil
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("verify-pinched", "index-degenerate", "dual-form-integrated")


STDERR_LINES = 20


def parse_run(stdout: str, exit_code: int = 0, stderr: str = "") -> dict:
    """The result object of one run of perfbench/run.py: the JSON of its
    last line, the machine line, the exit code and the last STDERR_LINES
    lines of stderr.  `verdict` is "ok", "wrong_output" (the result says
    so, or a run that exited 0 printed none; one failed operation) or
    "run_failed" (a non-zero exit and no result; no operations)."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        verdict = "ok" if result.get("correct") else "wrong_output"
    except (IndexError, json.JSONDecodeError):
        if exit_code:
            result, verdict = {"attempted": 0, "failed": 0}, "run_failed"
        else:
            result = {"correct": False, "attempted": 1, "failed": 1}
            verdict = "wrong_output"
        result["metrics"] = {}
    for line in lines:
        if line.startswith("machine "):
            result["machine"] = json.loads(line[len("machine "):])
    result.update(exit_code=exit_code, verdict=verdict,
                  stderr_tail=stderr.splitlines()[-STDERR_LINES:])
    return result


def _spread(values: list) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def verdict(entry: dict, pairs: int, bound: float | None) -> str:
    """gain, regressed, even or unresolved for one metric's summary entry
    (see the module docstring); bound None never regresses."""
    p, c = entry["parent"], entry["change"]
    sign = 1.0 if entry["better"] == "lower" else -1.0
    gap = sign * (p["median"] - c["median"])     # > 0: the change is better
    spread = p["q3"] - p["q1"]
    if 10 * entry["change_wins"] >= 9 * pairs and gap > spread:
        return "gain"
    if bound is not None and -gap > bound * abs(p["median"]):
        return "regressed"
    return "even" if abs(gap) <= spread else "unresolved"


def summarize(pairs: list, better: dict, bounds: dict | None = None) -> dict:
    """Summary of one workload from its (parent, change) run results.

    better maps a metric name to "lower" or "higher"; metrics not in it
    are taken as lower-is-better.  bounds maps a metric name to the
    relative worsening that makes it `regressed`.  A metric enters only
    from pairs where both sides report it.
    """
    sides = ("parent", "change")
    out = {"pairs": len(pairs), "metrics": {}}
    names = sorted({k for p, c in pairs for k in p.get("metrics", {})
                    if k in c.get("metrics", {})})
    for name in names:
        both = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                for p, c in pairs
                if name in p.get("metrics", {}) and name in c.get("metrics", {})]
        sign = 1.0 if better.get(name, "lower") == "lower" else -1.0
        entry = {side: _spread([v[i] for v in both])
                 for i, side in enumerate(sides)}
        entry["better"] = better.get(name, "lower")
        entry["change_wins"] = sum(sign * (c - p) < 0.0 for p, c in both)
        entry["change_vs_parent"] = (entry["change"]["median"]
                                     / entry["parent"]["median"] - 1.0
                                     if entry["parent"]["median"] else None)
        entry["verdict"] = verdict(entry, len(both),
                                   (bounds or {}).get(name))
        out["metrics"][name] = entry
    for key in ("attempted", "failed"):
        out[key] = {side: sum(run[i].get(key, 0) for run in pairs)
                    for i, side in enumerate(sides)}
    out["correct"] = {side: all(run[i]["verdict"] != "wrong_output"
                                for run in pairs)
                      for i, side in enumerate(sides)}
    out["run_failed"] = {side: sum(run[i]["verdict"] == "run_failed"
                                   for run in pairs)
                         for i, side in enumerate(sides)}
    out["runs"] = [{side: {k: run[i][k] for k in ("exit_code", "stderr_tail",
                                                   "verdict")}
                    for i, side in enumerate(sides)} for run in pairs]
    share = {side: out["failed"][side] / max(out["attempted"][side], 1)
             for side in sides}
    out["more_failures"] = share["change"] > share["parent"]
    return out


def problems(workloads: dict) -> list:
    """One line per way a workload's summary fails the change: runs that
    failed, more failed operations than the parent, or a wrong output."""
    out = []
    for w, s in workloads.items():
        if s["run_failed"]["change"]:
            out.append(f"{w}: run_failed: {s['run_failed']['change']} run(s) "
                       "of the change exited non-zero without a result")
        if s["more_failures"] or not s["correct"]["change"]:
            out.append(f"{w}: the change fails more operations or gives a "
                       "wrong output")
    return out


def summary_line(workload: str, name: str, entry: dict, pairs: int) -> str:
    p, c = entry["parent"], entry["change"]
    rel = entry["change_vs_parent"]
    return (f"{workload} {name}: {entry['verdict']}, parent {p['median']:.4g} "
            f"(q1 {p['q1']:.4g}, q3 {p['q3']:.4g}) change {c['median']:.4g}"
            + (f" ({rel:+.1%})" if rel is not None else "")
            + f", change won {entry['change_wins']}/{pairs}")


def _unpack_parent(rev: str, dest: pathlib.Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tf:
        tf.extractall(dest, filter="data")


def _copy_worktree(dest: pathlib.Path) -> None:
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"],
        cwd=ROOT, capture_output=True, check=True).stdout.decode()
    for name in filter(None, listed.split("\0")):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted in the working tree is not
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def _run(tree: pathlib.Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    return parse_run(proc.stdout, proc.returncode, proc.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True,
                    help="git revision to compare against")
    ap.add_argument("--label", required=True,
                    help="names the output file BENCH_<label>.json")
    ap.add_argument("--workloads", default=",".join(WORKLOADS),
                    help="comma list of workloads")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=41)
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    rev = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT,
                         capture_output=True, text=True, check=True
                         ).stdout.strip()
    report = {"label": args.label, "parent": rev, "change": "working tree",
              "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        parent, change = (pathlib.Path(tmp, side)
                          for side in ("parent", "change"))
        _unpack_parent(rev, parent)
        _copy_worktree(change)
        for workload in args.workloads.split(","):
            pairs = []
            for i in range(args.pairs):
                order = [("parent", parent), ("change", change)]
                if i % 2:
                    order.reverse()
                runs = {side: _run(tree, workload, args.seed, args.seconds)
                        for side, tree in order}
                pairs.append((runs["parent"], runs["change"]))
                report.setdefault("machine", runs["change"].get("machine"))
                p, c = (runs[s]["metrics"].get("pass_ref_s", {}).get("value")
                        for s in ("parent", "change"))
                print(f"{workload} pair {i + 1}: pass_ref_s parent {p} "
                      f"change {c}, exit parent "
                      f"{runs['parent']['exit_code']} change "
                      f"{runs['change']['exit_code']}", flush=True)
                for side, run in runs.items():
                    if run["exit_code"]:
                        print(f"  {side} {run['verdict']}, stderr:")
                        for line in run["stderr_tail"]:
                            print("    " + line)
            report["workloads"][workload] = summarize(pairs, better, bounds)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out.name}")
    for workload, summary in report["workloads"].items():
        for name, entry in summary["metrics"].items():
            print(summary_line(workload, name, entry, summary["pairs"]))
    bad = problems(report["workloads"])
    for line in bad:
        print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
