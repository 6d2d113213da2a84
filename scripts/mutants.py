#!/usr/bin/env python3
"""Mutation check of the test suite: each mutant must fail its tests.

Each row of MUTANTS is (name, file, old text, new text, tests).  For each
row the script copies src/, tests/ and pyproject.toml into a temporary
directory, replaces the old text in the file (it must occur there exactly
once) with the new text, and runs each named test on its own with
`pytest -x -q`.  A mutant survives when one of its tests passes.  Every
survivor is printed, and the exit status is 1 if any survived.  Every
named test is first collected in the unmutated tree, and one that pytest
cannot find there stops the script; in a mutated tree, a test that can
no longer be collected (its module fails to import, say) fails.  The
test suite checks that every old text still occurs exactly once, so a
change that moves the mutated code has to update its row.

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
SPECTRAL = "src/symstab/spectral.py"
PATHS = "src/symstab/paths.py"
T = "tests/test_index.py::"
A = "tests/test_acceptance.py::"
C = "tests/test_classify.py::"
P = "tests/test_paths.py::"

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
    ("one-sided counts accepted whatever the nullity", INDEX,
     "elif res[2] - res[0] != nus[k]:",
     "elif False:",
     [T + "test_a_twisted_endpoint_on_omega_is_not_counted[both 1]",
      T + "test_a_twisted_endpoint_on_omega_is_not_counted[both 4]",
      T + "test_a_twisted_endpoint_on_omega_is_not_counted[lower 1]",
      T + "test_a_twisted_endpoint_on_omega_is_not_counted[lower 4]",
      T + "test_shared_sampling_leaves_results_unchanged[eps ladder]"]),
    ("no upper recount on the settled grid", INDEX,
     "and up[0] - out[k][0] != nus[k]]",
     "and False]",
     [A + "test_double_n1_splitting_at_minus_one",
      C + "test_surface_just_above_the_pinching_bound_is_not_gated"]),
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
     "at = np.searchsorted(fine[0], ts)",
     "at = np.minimum(np.searchsorted(fine[0], ts) + 1,\n"
     "                                len(fine[0]) - 1)",
     [T + "test_counts_of_a_twisted_path_share_refinement_batches[16]",
      T + "test_a_twisted_endpoint_on_omega_is_not_counted[lower 1]",
      T + "test_verify_surface_counts_plus_minus_one_once_per_orbit"]),
    ("the N grid's eigenvalues read one sample right of their 2N twins",
     INDEX,
     "ev = evs[2 * N, rate][np.searchsorted(samples.grid(2 * N)[0], ts)]",
     "ev = evs[2 * N, rate][np.minimum(\n"
     "                np.searchsorted(samples.grid(2 * N)[0], ts) + 1,\n"
     "                len(ts) - 1)]",
     [T + "test_shared_sampling_leaves_results_unchanged"
      "[crossings at the seams]",
      T + "test_verify_surface_counts_plus_minus_one_once_per_orbit"]),
    ("upper rows turned by the lower angle", INDEX,
     "(rates[owner, None] * xs).ravel()",
     "(-np.abs(rates[owner, None]) * xs).ravel()",
     [T + "test_full_rotation",
      T + "test_shared_sampling_leaves_results_unchanged"
      "[lower and upper twist]"]),
    ("whole-matrix read in _form_counts", INDEX,
     "    tau = tw.tau\n    # neighbouring",
     "    tw = SymplecticPath(tw.n, tw.tau, tw.values, tw.sforms, tw.seams)\n"
     "    tau = tw.tau\n    # neighbouring",
     [T + "test_form_count_reads_only_the_plane_factors"]),
    # one endpoint spectrum: its cuts, its snap and its multipliers
    ("cuts from the cluster means, not their member ranges", INDEX,
     "for c in path.spectrum.clusters + ((np.pi,),):",
     "for c in [(np.mean(m),) for m in path.spectrum.clusters] + [(np.pi,)]:",
     [T + "test_engine_bit_identical_to_reference_on_path_pool",
      T + "test_one_circle_tolerance_for_clusters_and_cuts"]),
    ("an absolute 1e-2 snap onto the circle", SPECTRAL,
     "<= _CIRCLE_TOL * np.abs(evals).clip(min=1.0))",
     "<= 1e-2)",
     [T + "test_one_circle_tolerance_for_clusters_and_cuts"]),
    ("multipliers read from a sorted copy", "src/symstab/classify.py",
     "multipliers=tuple(path.spectrum.eigvals)",
     "multipliers=tuple(np.sort_complex(path.spectrum.eigvals))",
     [C + "test_verify_reads_each_endpoint_once"]),
    # ROADMAP item 10's second version of skipping the upper count
    ("no upper count where the endpoint spectrum is 0.1 from omega", INDEX,
     "    done = [k for k in range(m) if not isinstance(out[k], Exception)]\n",
     "    far = [k for k in range(m) if not isinstance(out[k], Exception)\n"
     "           and np.abs(samples.path.spectrum.eigvals - ws[k]).min() > 0.1]\n"
     "    for k in far:\n"
     "        out[k] = (*out[k], out[k][0])\n"
     "    done = [k for k in range(m) if not isinstance(out[k], Exception)\n"
     "            and k not in far]\n",
     [T + "test_krein_collision_near_omega_counts_zero"]),
    # normal_form_path: two logarithm routes and a closed-form rotation
    ("eigenbasis logarithm without the conditioning test", PATHS,
     "    basis = _eigenbasis(A)\n",
     "    evals, V = np.linalg.eig(A)\n"
     "    basis = evals, V, np.linalg.inv(V)\n",
     [P + "test_defective_logarithm_calls_logm_once"]),
    ("normal-form rotation turned by +theta t", PATHS,
     "twist(P.transpose(0, 2, 1), -theta * ts)",
     "twist(P.transpose(0, 2, 1), theta * ts)",
     [P + "test_closed_form_rotation_equals_the_product_path[D(-2)]",
      P + "test_sform_matches_finite_difference[normal-form-rotated]"]),
    ("normal-form coefficient without theta I", PATHS,
     "return theta * np.eye(2 * n) + turn(",
     "return 0.0 * np.eye(2 * n) + turn(",
     [P + "test_closed_form_rotation_equals_the_product_path[D(-2)]",
      P + "test_sform_matches_finite_difference[normal-form-rotated]"]),
    ("rotation candidates as cos M - sin J M", PATHS,
     "(np.cos(a) * np.eye(2 * n) + np.sin(a) * standard_J(n)) @ M",
     "np.cos(a) * M + np.sin(a) * (standard_J(n) @ M)",
     [P + "test_rotation_candidates_are_the_per_angle_products"]),
    ("twist turns the wrong way", PATHS,
     "c * hi - s * lo",
     "c * hi + s * lo",
     [P + "test_twist_turns_each_matrix_by_its_angle",
      P + "test_twisted_path_endpoint",
      T + "test_full_rotation"]),
]


def mutate(tree: pathlib.Path, file: str, old: str, new: str) -> None:
    path = tree / file
    text = path.read_text()
    if text.count(old) != 1:
        raise SystemExit(f"{file}: the old text occurs {text.count(old)} "
                         f"times, not once: {old!r}")
    path.write_text(text.replace(old, new))


def _pytest(tree: pathlib.Path, *args) -> int:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *args], cwd=tree, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def passing(tree: pathlib.Path, tests: list) -> list:
    """The tests that pass in the tree, each run on its own."""
    return [test for test in tests if _pytest(tree, "-x", test) == 0]


def main() -> int:
    # a typo must stop the script, not read as a kill: every named test
    # is collected in the unmutated tree
    named = sorted({test for row in MUTANTS for test in row[4]})
    if _pytest(ROOT, "--collect-only", *named) != 0:
        missing = [t for t in named if _pytest(ROOT, "--collect-only", t)]
        raise SystemExit(f"pytest found no test {', '.join(missing)}")
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
