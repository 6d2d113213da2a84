#!/usr/bin/env python3
"""Mutation check of the test suite: each mutant must fail its tests.

Each row of MUTANTS is (name, file, old text, new text, tests).  For each
row the script copies src/, tests/ and pyproject.toml into a temporary
directory, replaces the old text in the file (it must occur there exactly
once) with the new text, and runs each named test on its own with
`pytest -x -q`.  A mutant survives when one of its tests passes.  Every
survivor is printed, and the exit status is 1 if any survived; a named
test that pytest cannot find stops the script.  The test suite checks
that every old text still occurs exactly once, so a change that moves
the mutated code has to update its row.

    python3 scripts/mutants.py
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
INDEX = "src/symstab/index.py"
T = "tests/test_index.py::"
A = "tests/test_acceptance.py::"

MUTANTS = [
    ("bc -> -bc in _eigvals", INDEX,
     "r = np.sqrt(h * h + b * c + 0j)",
     "r = np.sqrt(h * h - b * c + 0j)",
     [T + "test_factor_spectra_give_the_determinant_function_on_orbit_paths",
      T + "test_orbit_path_integers_equal_the_lapack_reference"]),
    ("no arc-0 read of the refused band", INDEX,
     "near &= ~((J == 0)",
     "near &= ~((J == -1)",
     [T + "test_mean_index_reads_the_refused_band_from_arc_zero"]),
    ("only the first factor's crossing forms", INDEX,
     "hits = [fi for fi, ker in enumerate(kers) if ker[r][0]]",
     "hits = [fi for fi, ker in enumerate(kers[:1]) if ker[r][0]]",
     [T + "test_factor_form_count_equals_the_whole_matrix_reference",
      T + "test_one_batch_gives_every_job_its_own_count",
      T + "test_diamond_additivity"]),
    ("all forms in one eigvalsh stack whatever their size", INDEX,
     "forms.setdefault(Si.shape, [])",
     "forms.setdefault(0, [])",
     [T + "test_factor_form_count_equals_the_whole_matrix_reference",
      T + "test_diamond_additivity"]),
    ("one batch per job", INDEX,
     "        return _form_batch(tw, jobs)\n",
     "        return [r for job in jobs for r in _form_batch(tw, [job])]\n",
     [T + "test_form_count_reads_only_the_plane_factors"]),
    ("a failed batch charges its error to every job", INDEX,
     "    except _FAILURES:\n        pass\n",
     "    except _FAILURES as exc:\n        return [exc] * len(jobs)\n",
     [T + "test_a_failing_read_is_charged_to_its_own_rows",
      T + "test_a_failing_form_read_fails_only_the_jobs_crossing_there"]),
    ("splitting side arcs swapped", INDEX,
     "rule([w], [min(j, last), max(j - 1, 0)])",
     "rule([w], [max(j - 1, 0), min(j, last)])",
     [T + "test_engine_bit_identical_to_reference_on_path_pool",
      A + "test_splitting_tables_match_numeric_limits"]),
    ("no off-cut return of the splitting numbers", INDEX,
     "    if not near[0]:\n        return SplittingPair(0, 0)\n",
     "",
     [T + "test_no_eigenvalue_on_a_failing_arc_splits_by_zero"]),
    ("no (0, 0) where +-1 is no eigenvalue", INDEX,
     "    if nu0 == 0 and gap <= _RANK_TOL:\n",
     "    if False:\n",
     [A + "test_minus_one_off_the_spectrum_splits_by_zero"]),
    ("first twist 1e-2", INDEX,
     "_EPS = 1e-4",
     "_EPS = 1e-2",
     [T + "test_shared_sampling_leaves_results_unchanged[eps ladder]",
      T + "test_mean_index_refuses_a_root_inside_the_cut_at_one"]),
    ("acceptance tolerance 1e-3", INDEX,
     "_ACCEPT_TOL = 1e-6",
     "_ACCEPT_TOL = 1e-3",
     [T + "test_constant_path",
      T + "test_full_rotation"]),
    ("no retry of a twisted endpoint on omega", INDEX,
     "stuck = dist[:, -1] < 3.0 * _ACCEPT_TOL",
     "stuck = dist[:, -1] < 0.0 * _ACCEPT_TOL",
     [T + "test_a_twisted_endpoint_on_omega_is_not_counted"]),
    # the 4x4 spectra: the fallback mutant is named only with the direct
    # test, since without the fallback the brackets of D(2) ◇ N1(1, 1) at
    # omega = 1 split into millions of rows
    ("no LAPACK fallback in _eigvals4", INDEX,
     "    if not ok.all():\n",
     "    if False:\n",
     [T + "test_quartic_spectra_equal_lapack_as_multisets"]),
    ("no symplectic gate in _eigvals4", INDEX,
     "(residual <= _SYMPL_TOL * np.maximum(1.0, fro2))",
     "(residual <= np.inf)",
     [T + "test_quartic_spectra_equal_lapack_as_multisets",
      T + "test_a_path_that_is_not_symplectic_is_refused",
      T + "test_spline_sampled_orbit_paths_equal_the_lapack_reference"]),
    ("x2 = (b + 2)/x1 in _eigvals4", INDEX,
     "(b - 2.0) / x1",
     "(b + 2.0) / x1",
     [T + "test_quartic_spectra_equal_lapack_as_multisets"]),
    ("no sign-change cells in the brackets", INDEX,
     "cover = (D[:, :-1] * D[:, 1:] < 0.0) | mins[:, :-1]",
     "cover = mins[:, :-1]",
     [T + "test_bracket_rows_equal_reference_brackets_row_by_row",
      A + "test_second_iterate_splits_at_plus_and_minus_one"]),
    ("every minimum for one level fewer", INDEX,
     "level <= _ALL_MINIMA)",
     "level < _ALL_MINIMA)",
     [T + "test_shared_sampling_leaves_results_unchanged[seams]"]),
    ("the last lowest minimum instead of the first", INDEX,
     "best = np.argmin(np.where(mins, dist, np.inf), axis=1)",
     "best = dist.shape[1] - 1 - np.argmin(\n"
     "            np.where(mins, dist, np.inf)[:, ::-1], axis=1)",
     [T + "test_bracket_rows_equal_reference_brackets_row_by_row"]),
    ("the N grid read one sample right of its 2N twin", INDEX,
     "ev = fine[1][np.searchsorted(fine[0], ts)]",
     "ev = fine[1][np.minimum(np.searchsorted(fine[0], ts) + 1,\n"
     "                                       len(fine[0]) - 1)]",
     [T + "test_shared_sampling_leaves_results_unchanged"
      "[crossings at the seams]",
      T + "test_verify_surface_counts_plus_minus_one_once_per_orbit"]),
]


def mutate(tree: pathlib.Path, file: str, old: str, new: str) -> None:
    path = tree / file
    text = path.read_text()
    if text.count(old) != 1:
        raise SystemExit(f"{file}: the old text occurs {text.count(old)} "
                         f"times, not once: {old!r}")
    path.write_text(text.replace(old, new))


def passing(tree: pathlib.Path, tests: list) -> list:
    """The tests that pass in the tree, each run on its own.  A test that
    pytest cannot find stops the script, lest a typo read as a kill."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    alive = []
    for test in tests:
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", test], cwd=tree, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
        if code in (4, 5):     # usage error, or no test collected
            raise SystemExit(f"pytest found no test {test}")
        if code == 0:
            alive.append(test)
    return alive


def main() -> int:
    survivors = 0
    for name, file, old, new, tests in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            tree = pathlib.Path(tmp)
            ignore = shutil.ignore_patterns("__pycache__")
            for part in ("src", "tests"):
                shutil.copytree(ROOT / part, tree / part, ignore=ignore)
            shutil.copy(ROOT / "pyproject.toml", tree)
            mutate(tree, file, old, new)
            alive = passing(tree, tests)
        print(f"{'SURVIVED' if alive else 'killed':8}  {name}", flush=True)
        for test in alive:
            print(f"          passes: {test}")
        survivors += bool(alive)
    print(f"{survivors} of {len(MUTANTS)} mutants survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
