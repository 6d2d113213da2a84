#!/usr/bin/env python3
"""One sha256 per operation output of a benchmark workload.

The workload of `perfbench/workloads.py` is built from its seed as
`perfbench/run.py` builds it, and one pass of its operations runs,
untimed and unchecked.  Each line printed is the sha256 of the repr of
one operation's output (a SymstabError reads as its type and message),
then the operation's label.  Two trees whose lines are equal gave the
same outputs, floats bit for bit.  The program is imported from ./src;
the perfbench modules are only imported, and the files a workload writes
go to a temporary directory.

    python3 scripts/op_digest.py --workload verify-pinched --seed 41
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import types  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent


def digests(workload: str, seed: int) -> list:
    """(sha256 hex, label) of every operation of one pass."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import symstab
    from symstab import (classify, cli, dynamics, galerkin, index, io,
                         paths, spectral, sympl)
    from workloads import WORKLOADS

    sx = types.SimpleNamespace(
        package=symstab, classify=classify, cli=cli, dynamics=dynamics,
        galerkin=galerkin, index=index, io=io, paths=paths,
        spectral=spectral, sympl=sympl)
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        work = WORKLOADS[workload](sx, seed, pathlib.Path(tmp))
        work.setup()
        for op in work.ops():
            try:
                text = repr(op.run())
            except symstab.SymstabError as exc:
                text = f"{type(exc).__name__}: {exc}"
            out.append((hashlib.sha256(text.encode()).hexdigest(), op.label))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("verify-pinched", "index-degenerate",
                             "dual-form-integrated"))
    ap.add_argument("--seed", type=int, default=41)
    args = ap.parse_args(argv)
    for digest, label in digests(args.workload, args.seed):
        print(digest, label)
    return 0


if __name__ == "__main__":
    sys.exit(main())
