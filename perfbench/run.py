"""Benchmark of the symstab certification pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root; the program is imported from ./src.  Each
workload runs in one single-threaded process (BLAS pinned to one thread).
Set-up (import plus building the inputs, warm-up included) is repeated
three times and reported as its median.  Then whole passes over the
workload's operations run while the next pass should end within --seconds.
End-to-end times are in reference seconds (see Speedometer).

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced passes and reports per-layer figures per pass, writing the
spans to perfbench/results/.  The last line of output is one JSON object
with keys correct, attempted, failed and metrics.  A wrong output makes
the run exit with status 1; a missing program, status 2.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
# Seconds one calibration rep takes at the reference speed (about the
# median on the 2-core machine of the README's reference figures).
CAL_REF_S = 1.6e-3


def import_program():
    """Import symstab from ./src, timed.  Exits 2 if it is not there."""
    src = ROOT / "src"
    if not (src / "symstab" / "__init__.py").is_file():
        print(f"error: no symstab package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import symstab
    from symstab import (classify, cli, dynamics, galerkin, index, io, paths,
                         spectral, sympl)
    elapsed = time.perf_counter() - t0
    if pathlib.Path(symstab.__file__).resolve().parent != src / "symstab":
        print(f"error: symstab imported from {symstab.__file__}",
              file=sys.stderr)
        sys.exit(2)
    sx = types.SimpleNamespace(
        package=symstab, classify=classify, cli=cli, dynamics=dynamics,
        galerkin=galerkin, index=index, io=io, paths=paths,
        spectral=spectral, sympl=sympl)
    return sx, elapsed


def machine() -> dict:
    import ctypes
    import glob

    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = pathlib.Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"cores": os.cpu_count(),
            "cores_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads}


class Speedometer:
    """Speed of this core over the time an operation ran.

    On a shared machine the speed of a core swings: the same operation
    was seen to take from 1x to 2x in consecutive repetitions.  So a
    fixed calibration kernel runs before the first op of a pass, after
    every op, and every TICK_S while an op runs (from a SIGALRM handler,
    between bytecodes).  The ticks' own time is taken off the op's time.
    The op's time in reference seconds is then its wall time scaled by
    CAL_REF_S over the kernel's mean rep time across the ticks inside it
    and the runs just before and after it.

    The kernel does what the workloads do most, without symstab: small
    eigenvalue problems from the interpreter, and a cubic spline of 4x4
    matrices evaluated on a grid, then eigenvalues of the batch.
    """

    TICK_S = 0.1

    def __init__(self):
        import signal

        import numpy as np
        from scipy.interpolate import CubicSpline
        self.np, self.signal = np, signal
        rng = np.random.default_rng(0)
        self.mats = rng.standard_normal((8, 4, 4))
        self.spline = CubicSpline(np.linspace(0.0, 1.0, 601),
                                  rng.standard_normal((601, 4, 4)), axis=0)
        self.grid = np.linspace(0.0, 1.0, 326)
        self.cal_s = 0.0     # kernel seconds and reps since creation
        self.reps = 0

    def _rep(self) -> None:
        np = self.np
        for a in self.mats:
            np.prod(np.linalg.eigvals(a) - 1j)
        np.abs(np.linalg.eigvals(self.spline(self.grid)) - 1j).min(axis=1)
        for t in (0.1, 0.3, 0.5, 0.7):
            np.prod(np.linalg.eigvals(self.spline(t)) - 1j)

    def run(self, min_s: float = 0.0) -> None:
        """Kernel reps for at least min_s seconds (at least one rep)."""
        t0 = time.perf_counter()
        while True:
            self._rep()
            self.reps += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= min_s:
                break
        self.cal_s += elapsed

    def _tick(self, signum, frame) -> None:
        self.run()

    def time_op(self, fn):
        """Run fn; return (its result or SymstabError, wall s, reference s)."""
        cal0, reps0 = self.cal_s, self.reps
        prev = self._last_block
        old = self.signal.signal(self.signal.SIGALRM, self._tick)
        self.signal.setitimer(self.signal.ITIMER_REAL, self.TICK_S, self.TICK_S)
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            dt = time.perf_counter() - t0
            self.signal.setitimer(self.signal.ITIMER_REAL, 0)
            self.signal.signal(self.signal.SIGALRM, old)
        dt -= self.cal_s - cal0
        self.begin_block(max(0.0, 0.01 * dt))
        cal = self.cal_s - cal0 + prev[0]
        reps = self.reps - reps0 + prev[1]
        return out, dt, dt * CAL_REF_S * reps / cal

    def scale_last(self, seconds: float) -> float:
        """Reference seconds for a span just before the last block."""
        cal, reps = self._last_block
        return seconds * CAL_REF_S * reps / cal

    def begin_block(self, min_s: float = 0.0) -> None:
        """Calibrate between ops; the block counts for the ops on both
        sides of it."""
        cal0, reps0 = self.cal_s, self.reps
        self.run(max(min_s, 0.005))
        self._last_block = (self.cal_s - cal0, self.reps - reps0)


def run_pass(ops, sx, tracer=None, speed=None):
    """One pass: every op timed, then checked.

    Returns (wall seconds, reference seconds, [(op, wall s, reference s)]
    for the ops that did not fail, failed count).  Reference seconds need
    `speed`; without it they equal wall seconds.
    """
    from oracles import CheckFailed
    wall = ref = 0.0
    done, failed = [], 0
    if speed:
        speed.begin_block()
    for op in ops:
        def call(op=op):
            try:
                return op.run()
            except sx.package.SymstabError as exc:
                return exc
        if speed:
            out, dt, dt_ref = speed.time_op(call)
        else:
            span = (tracer.span(f"bench.{op.label}", "bench") if tracer
                    else contextlib.nullcontext())
            with span:
                t0 = time.perf_counter()
                out = call()
                dt = dt_ref = time.perf_counter() - t0
        wall += dt
        ref += dt_ref
        if isinstance(out, sx.package.SymstabError):
            failed += 1
            print(f"failed: {op.label}: {type(out).__name__}: {out}")
            continue
        done.append((op, dt, dt_ref))
        if tracer:
            tracer.active = False       # checks are not part of the pass
        try:
            op.check(out)
        except CheckFailed as exc:
            raise CheckFailed(f"{op.label}: {exc}") from None
        finally:
            if tracer:
                tracer.active = True
    return wall, ref, done, failed


def run_workload(args) -> int:
    sys.path.insert(0, str(HERE))
    sx, import_s = import_program()
    import oracles
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print("machine " + json.dumps(machine(), sort_keys=True))
    workdir = HERE / "results"
    workdir.mkdir(exist_ok=True)

    tracer = Tracer() if args.trace else None
    g_wrap = None
    if tracer:
        def g_wrap(G):
            return tracer.wrap("dynamics.g_sample", "dynamics", G)

    def make_workload():
        wl = WORKLOADS[args.workload](sx, args.seed, workdir, g_wrap)
        wl.setup()
        return wl

    speed = None if tracer else Speedometer()
    setups = []
    if speed:
        speed.begin_block(0.05)
        import_s = speed.scale_last(import_s)
    for _ in range(SETUP_REPEATS):
        if speed:
            wl, _dt, dt_ref = speed.time_op(make_workload)
        else:
            t0 = time.perf_counter()
            wl = make_workload()
            dt_ref = time.perf_counter() - t0
        setups.append(dt_ref)
    setup_s = import_s + statistics.median(setups)
    correct = True
    try:
        wl.check_setup()
    except oracles.CheckFailed as exc:
        print(f"WRONG OUTPUT in set-up: {exc}")
        correct = False
    ops = wl.ops()
    print(f"set-up: import {import_s:.3f} s, inputs "
          f"{' '.join(f'{s:.3f}' for s in setups)} s; {len(ops)} ops per pass")

    if tracer:
        tracer.install(sx.package)
    walls, refs, traced, done = [], [], [], []
    attempted = failed = 0
    t_start = time.perf_counter()
    while correct:
        t_pass = time.perf_counter()
        try:
            wall, ref, ok, nfail = run_pass(ops, sx, speed=speed)
            walls.append(wall)
            refs.append(ref)
            done += ok
            attempted += len(ops)
            failed += nfail
            if tracer:
                tracer.active = True
                try:
                    twall, _, _, tfail = run_pass(ops, sx, tracer=tracer)
                finally:
                    tracer.active = False
                traced.append(twall)
                attempted += len(ops)
                failed += tfail
        except oracles.CheckFailed as exc:
            print(f"WRONG OUTPUT: {exc}")
            correct = False
            break
        now = time.perf_counter()
        print(f"pass {len(walls)}: wall {wall:.4f} s, reference {ref:.4f} s"
              + (f", traced {twall:.4f} s" if tracer else ""))
        if now - t_start + (now - t_pass) > args.seconds:
            break

    if not correct or not walls:
        print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                          "failed": failed, "metrics": {}}))
        return 1

    if tracer:
        tracer.uninstall()
        spans_file = workdir / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.dump(spans_file)
        layer = tracer.layer_metrics(len(traced))
        untraced, traced_mean = statistics.fmean(walls), statistics.fmean(traced)
        layer["trace.overhead_s"] = (traced_mean - untraced, "s")
        self_sum = sum(v for k, (v, _u) in layer.items() if k.endswith(".self_s"))
        print(f"spans: {len(tracer.spans)} written to {spans_file.name}")
        print(f"self times sum to {self_sum:.4f} s per pass; untraced pass "
              f"{untraced:.4f} s; difference {self_sum - untraced:+.4f} s vs "
              f"overhead {traced_mean - untraced:+.4f} s")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        primary = [dt_ref for op, _dt, dt_ref in done if op.primary]
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "pass_ref_s": {"value": statistics.median(refs), "unit": "s"},
            "op_p50_ref_ms": {"value": 1e3 * statistics.median(primary),
                              "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
        print(f"pass_wall_s {statistics.median(walls):.4f} s")
        for line in named_figures(args.workload, done, refs):
            print(line)
    print(f"operations: {attempted} attempted, {failed} failed")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def named_figures(workload: str, done, refs):
    """The workload's own figures, in reference seconds, under the names
    the README uses."""
    def of(prefix):
        return [dt_ref for op, _dt, dt_ref in done if op.label.startswith(prefix)]
    if workload == "verify-pinched":
        yield f"verify_s {statistics.median(refs):.4f} s"
    elif workload == "index-degenerate":
        sp, bt = of("splitting"), of("second iterate")
        p90 = statistics.quantiles(sp, n=10, method="inclusive")[-1]
        yield f"splitting_per_s {len(sp) / sum(sp):.4f} 1/s"
        yield f"splitting_p90_ms {1e3 * p90:.4f} ms ({len(sp)} pairs)"
        yield f"bott_per_s {len(bt) / sum(bt):.4f} 1/s"
    else:
        yield f"dual_form_s {statistics.median(refs):.4f} s"


NAMED = ("verify_s", "splitting_per_s", "splitting_p90_ms", "bott_per_s",
         "dual_form_s", "pass_wall_s", "machine", "operations:")


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    from workloads import WORKLOADS
    worst = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            worst = max(worst, proc.returncode)
            print(f"== {name}, trace {trace}: exit {proc.returncode}")
            for line in lines[:-1]:
                if line.startswith(NAMED):
                    print("   " + line)
            result = json.loads(lines[-1]) if lines else {"metrics": {}}
            for key, m in result["metrics"].items():
                print(f"   {key} {m['value']:.6g} {m['unit']}")
            if proc.returncode:
                print(proc.stderr, file=sys.stderr)
    return worst


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all":
        sys.path.insert(0, str(HERE))
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
