"""Path constructors: values, seams, iterates, sampled interpolation."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from symstab import (
    SymplecticPath,
    diamond_all,
    exp_path,
    index_nu,
    iterate_path,
    lower_shear_path,
    normal_form_path,
    rotation_path,
    shear_path,
    symplectic_residual,
)
from symstab.paths import (diamond_paths, path_from_samples, product_path,
                           twist, twisted_path)
from symstab import paths as paths_mod
from symstab.errors import DimensionError
from symstab.sympl import (N1_block, N2_block, expJ, random_symplectic,
                           rotation2, standard_J)


def test_constructors_start_at_identity():
    paths = [rotation_path(2.3), shear_path(0.8), lower_shear_path(-0.5),
             exp_path(np.diag([0.3, 0.7]))]
    for p in paths:
        p.check_start()
        assert np.abs(p.value(0.0) - np.eye(2 * p.n)).max() < 1e-12


def test_rotation_endpoint():
    p = rotation_path(1.9, tau=2.0)
    assert np.allclose(p.endpoint, rotation2(1.9))
    assert np.allclose(p.value(1.0), rotation2(0.95))


def test_shear_endpoints_total():
    assert np.allclose(shear_path(0.7).endpoint, [[1, 0.7], [0, 1]])
    assert np.allclose(lower_shear_path(0.7).endpoint, [[1, 0], [0.7, 1]])


def test_exp_path_matches_expm():
    S = np.array([[0.6, 0.2], [0.2, 0.9]])
    p = exp_path(S, tau=1.5)
    t = 0.77
    assert np.allclose(p.value(t), expm(t * standard_J(1) @ S), atol=1e-12)


def test_exp_path_values_on_defective_generator():
    # a shear plane makes J S nilpotent there, so the eigenbasis is unusable
    S = np.diag([0.0, 0.8, 1.0, 0.8])
    p = exp_path(S, tau=2.0)
    ts = np.linspace(0.0, 2.0, 9)
    ref = np.stack([expm(t * standard_J(2) @ S) for t in ts])
    assert np.abs(p.values(ts) - ref).max() < 1e-12


def _defective_generators(monkeypatch):
    """Generators L that `exp_path` cannot diagonalize: nilpotent shear
    planes, the logarithms `normal_form_path` takes of Jordan blocks, and
    random ones with one shear plane beside an elliptic rest."""
    gens = [standard_J(1) @ np.diag([0.0, b]) for b in (0.3, -2.0, 7.5)]
    build = paths_mod._pade_exp
    seen = []

    def record(L):
        seen.append(L)
        return build(L)

    monkeypatch.setattr(paths_mod, "_pade_exp", record)
    rng = np.random.default_rng(5)
    # a block at -1 gets rotated off the branch cut first, which leaves
    # the remainder diagonalizable, so these are the blocks at 1 and N2
    for M in (N1_block(1, 1), N1_block(1, -1), N2_block(2.0, True),
              N2_block(2.0, False),
              diamond_all([N1_block(1, 1), N2_block(2.0, False)])):
        C = random_symplectic(M.shape[0] // 2, rng)
        normal_form_path(M)
        normal_form_path(C @ M @ np.linalg.inv(C))
    monkeypatch.undo()
    assert len(seen) >= 6
    gens += seen
    for n in (2, 3, 3):
        A = rng.standard_normal((2 * n - 2, 2 * n - 2))
        rest = A @ A.T + 0.1 * np.eye(2 * n - 2)
        rest *= rng.uniform(2.0, 20.0) / np.linalg.norm(rest, 2)
        S = diamond_all([np.diag([0.0, rng.uniform(-3.0, 3.0)]), rest])
        Ci = np.linalg.inv(random_symplectic(n, rng))
        gens.append(standard_J(n) @ Ci.T @ S @ Ci)
    return gens


def test_defective_exp_path_matches_expm_matrix_by_matrix(monkeypatch):
    rng = np.random.default_rng(17)
    for L in _defective_generators(monkeypatch):
        n = L.shape[0] // 2
        S = -standard_J(n) @ L
        norm = np.abs(L).sum(axis=0).max()
        # up to ||t L||_1 = 160, five squarings; shuffled, with repeats
        ts = np.linspace(0.0, 160.0 / norm, 41)
        ts = rng.permutation(np.concatenate([ts, ts[::7], [0.0]]))
        p = exp_path(S, tau=ts.max())
        got = p.values(ts)
        for t, m in zip(ts, got):
            ref = expm(t * L)
            err = (np.abs(m - ref) / (1.0 + np.abs(ref))).max()
            assert err < (1e-12 if t * norm <= 25.0 else 1e-11), (t * norm,
                                                                  err)


def test_defective_exp_path_makes_no_scipy_call(monkeypatch):
    p = exp_path(np.diag([0.0, 0.8, 1.0, 0.8]), tau=2.0)
    calls = []

    def counted(A):
        calls.append(np.shape(A))
        return expm(A)

    # `paths` imports expm from scipy.linalg inside the function calling it
    monkeypatch.setattr(scipy.linalg, "expm", counted)
    assert p.values(np.linspace(0.0, 2.0, 200)).shape == (200, 4, 4)
    assert calls == []


def _close(p, ts, ref, tol=1e-12):
    got = p.values(ts)
    assert got.shape == (len(ts), 2 * p.n, 2 * p.n)
    ref = np.stack([ref(t) for t in ts])
    assert np.abs(got - ref).max() < tol, p.label
    # the scalar read is the batched evaluator at one time
    assert all(np.abs(p.value(t) - m).max() <= 1e-14
               for t, m in zip(ts, got))


def test_values_match_independent_formulas():
    J1, J2 = standard_J(1), standard_J(2)
    ts = np.linspace(0.0, 1.0, 7)

    _close(shear_path(0.8), ts, lambda t: np.array([[1, 0.8 * t], [0, 1]]))
    _close(lower_shear_path(-0.5, tau=2.0), 2 * ts,
           lambda t: np.array([[1, 0], [-0.25 * t, 1]]))
    _close(rotation_path(1.9, tau=2.0), 2 * ts,
           lambda t: rotation2(0.95 * t))
    S_eig = np.array([[0.6, 0.2], [0.2, 0.9]])         # eigenbasis branch
    S_def = np.diag([0.0, 0.8, 1.0, 0.8])             # defective: expm branch
    _close(exp_path(S_eig), ts, lambda t: expm(t * J1 @ S_eig))
    _close(exp_path(S_def), ts, lambda t: expm(t * J2 @ S_def))

    a, b = rotation_path(1.0), shear_path(0.4)
    _close(product_path(a, b), ts,
           lambda t: rotation2(t) @ np.array([[1, 0.4 * t], [0, 1]]))

    # iterate: p(t - j tau) p(tau)^j, with the seams j tau included
    e = expm(J1 @ S_eig)
    it = np.array([0.0, 0.3, 1.0, 1.0 + 1e-12, 1.7, 2.0, 2.5, 3.0])
    _close(iterate_path(exp_path(S_eig), 3), it,
           lambda t: (expm((t - min(int(t), 2)) * J1 @ S_eig)
                      @ np.linalg.matrix_power(e, min(int(t), 2))),
           tol=1e-11)

    _close(diamond_paths([a, b]), ts,
           lambda t: diamond_all([rotation2(t),
                                  np.array([[1, 0.4 * t], [0, 1]])]))
    _close(twisted_path(exp_path(S_def), 1e-3, -1), ts,
           lambda t: expm(t * J2 @ S_def) @ expm(-1e-3 * t * J2))

    # a spline through samples of exp(t J S) passes through the samples
    knots = np.linspace(0.0, 1.0, 9)
    q = path_from_samples(knots,
                          np.stack([expm(t * J1 @ S_eig) for t in knots]))
    _close(q, knots, lambda t: expm(t * J1 @ S_eig))
    _close(q, ts, lambda t: expm(t * J1 @ S_eig), tol=1e-4)


def test_product_endpoint():
    a, b = rotation_path(1.0), rotation_path(0.5)
    prod = product_path(a, b)
    assert np.allclose(prod.endpoint, a.endpoint @ b.endpoint)


def test_iterate_path_composes():
    p = rotation_path(0.8)
    it = iterate_path(p, 3)
    assert it.tau == 3 * p.tau
    assert np.allclose(it.value(p.tau + 0.3), p.value(0.3) @ p.endpoint)
    assert np.allclose(it.endpoint, rotation2(2.4))


@pytest.mark.parametrize("m", [2.5, "2", 0, -1, None])
def test_iterate_path_refuses_m_that_is_no_positive_integer(m):
    with pytest.raises(DimensionError, match="integer m"):
        iterate_path(rotation_path(0.8), m)


_BAD = (float("nan"), float("inf"), -float("inf"))


@pytest.mark.parametrize("make", [
    pytest.param(lambda x: rotation_path(1.0, tau=x), id="rotation tau"),
    pytest.param(lambda x: shear_path(1.0, tau=x), id="shear tau"),
    pytest.param(lambda x: lower_shear_path(1.0, tau=x), id="lshear tau"),
    pytest.param(lambda x: exp_path(np.eye(2), tau=x), id="exp tau"),
    pytest.param(lambda x: SymplecticPath(
        1, x, lambda ts: np.tile(np.eye(2), (len(ts), 1, 1)),
        lambda ts, side: np.zeros((len(ts), 2, 2))), id="path tau"),
    pytest.param(rotation_path, id="rotation angle"),
    pytest.param(shear_path, id="shear"),
    pytest.param(lower_shear_path, id="lower shear"),
])
def test_paths_refuse_non_finite_parameters(make):
    # nan passed `tau <= 0`, and a nan angle died in int(16 * nan)
    for x in _BAD:
        with pytest.raises(DimensionError, match="finite"):
            make(x)


@pytest.mark.parametrize("tau", [0.0, -1.0])
def test_paths_refuse_tau_that_is_not_positive(tau):
    for make in (rotation_path, shear_path, lower_shear_path):
        with pytest.raises(DimensionError, match="tau > 0"):
            make(1.0, tau)


def test_diamond_paths_values():
    a, b = rotation_path(1.2), shear_path(0.4)
    d = diamond_paths([a, b])
    assert d.n == 2
    assert np.allclose(d.value(0.6), diamond_all([a.value(0.6),
                                                  b.value(0.6)]))


def test_twisted_path_endpoint():
    p = rotation_path(1.0)
    tw = twisted_path(p, 1e-3, -1)
    assert np.allclose(tw.endpoint, p.endpoint @ expJ(-1e-3, 1), atol=1e-14)


def test_twist_turns_each_matrix_by_its_angle():
    # angles up to 1/2: there scipy's expm of a J is exact to 1e-16
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        P = rng.standard_normal((40, 2 * n, 2 * n))
        angles = rng.uniform(-0.5, 0.5, 40)
        want = np.stack([M @ expm(a * standard_J(n))
                         for M, a in zip(P, angles)])
        assert np.abs(twist(P, angles) - want).max() <= 1e-15


def test_twisted_path_values_are_the_twist_of_its_path():
    # one twist formula: the path's and the crossing engine's
    p = diamond_paths([exp_path(np.diag([0.0, 0.8, 1.0, 0.8]), tau=2.0),
                       rotation_path(1.2, tau=2.0)])
    ts = np.linspace(0.0, 2.0, 33)
    for sign in (1, -1):
        got = twisted_path(p, 1e-4, sign).values(ts)
        assert np.array_equal(got, twist(p.values(ts), sign * 1e-4 / 2.0 * ts))


def test_diamond_factors_flatten_and_twist_plane_by_plane():
    a, b = rotation_path(1.2), shear_path(0.4)
    c = product_path(rotation_path(2.0), lower_shear_path(0.7))
    d = diamond_paths([diamond_paths([a, b]), c])
    assert d.factors == (a, b, c) and a.factors == (a,)
    ts = np.linspace(0.0, 1.0, 9)
    for sign in (1, -1):
        tw = twisted_path(d, 1e-3, sign)
        assert len(tw.factors) == 3
        want = np.stack([diamond_all([f.value(t) for f in tw.factors])
                         for t in ts])
        assert np.abs(tw.values(ts) - want).max() < 1e-15
    # a single path stays its own factor under a twist
    tw = twisted_path(a, 1e-3, 1)
    assert tw.factors == (tw,)


@pytest.mark.parametrize("count", [1, 8, 600])
def test_a_time_reads_alike_alone_and_in_any_stack(count):
    # the Pade evaluator of a defective generator rounds each time as it
    # does alone, so a count's values do not depend on which times share
    # its batch
    paths = [normal_form_path(N1_block(1, 1)),
             normal_form_path(N2_block(2.0, False)),
             twisted_path(exp_path(np.diag([0.0, 0.8, 1.0, 0.8])), 0.3, -1)]
    for p in paths:
        ts = np.linspace(0.0, p.tau, count + 2)[1:-1]
        values, forms = p.values(ts), p.sforms(ts, 1)
        for t, P, S in zip(ts, values, forms):
            assert np.array_equal(P, p.value(t)), (p.label, t)
            assert np.array_equal(S, p.sform(t, 1)), (p.label, t)


def _fd_sform(p, t, side):
    """Reference S(t) = -J P'(t) P(t)^{-1}, symmetrized as `sform` does,
    from second-order differences of p.value: central inside a smooth
    piece, one-sided at 0, tau and the seams, from the right for side +1
    and from the left for side -1."""
    h = 1e-6 * p.tau
    if all(abs(t - e) > 2 * h for e in (0.0, *p.seams, p.tau)):
        Pd = (p.value(t + h) - p.value(t - h)) / (2 * h)
    else:
        Pd = side * (-3 * p.value(t) + 4 * p.value(t + side * h)
                     - p.value(t + 2 * side * h)) / (2 * h)
    S = -standard_J(p.n) @ Pd @ np.linalg.inv(p.value(t))
    return 0.5 * (S + S.T)


_S_EIG = np.array([[0.6, 0.2], [0.2, 0.9]])       # exp_path eigenbasis branch
_S_DEF = np.diag([0.0, 0.8, 1.0, 0.8])            # defective: Pade branch
_KNOTS = np.linspace(0.0, 1.0, 41)
_SFORM_PATHS = {
    "exp-eig": lambda: exp_path(_S_EIG, tau=1.5),
    "exp-pade": lambda: exp_path(_S_DEF, tau=2.0),
    "rotation": lambda: rotation_path(1.9, tau=2.0),
    "shear": lambda: shear_path(0.8),
    "lower-shear": lambda: lower_shear_path(-0.5, tau=2.0),
    "product": lambda: product_path(rotation_path(1.0), shear_path(0.4)),
    "diamond": lambda: diamond_paths([rotation_path(1.2), exp_path(_S_EIG)]),
    "twisted": lambda: twisted_path(exp_path(_S_DEF), 0.3, -1),
    # the coefficient jumps at the seams: S(0) != S(tau) for a product
    "iterate": lambda: iterate_path(
        product_path(rotation_path(1.0), shear_path(0.4)), 3),
    "normal-form": lambda: normal_form_path(
        random_symplectic(2, np.random.default_rng(8))),
    # a block at -1 makes normal_form_path prepend a rotation factor
    "normal-form-rotated": lambda: normal_form_path(
        diamond_all([N1_block(-1, 1), rotation2(2.0)])),
    "spline": lambda: path_from_samples(
        _KNOTS, np.stack([expm(t * standard_J(1) @ _S_EIG) for t in _KNOTS])),
}


@pytest.mark.parametrize("name", _SFORM_PATHS)
def test_sform_matches_finite_difference(name):
    # every constructor's closed-form coefficient against differences of
    # its values, with one-sided limits at both ends and at every seam
    p = _SFORM_PATHS[name]()
    points = [(0.0, 1), (p.tau, -1)]
    points += [(f * p.tau, side) for f in (0.13, 0.52, 0.81)
               for side in (1, -1)]
    points += [(s, side) for s in p.seams for side in (1, -1)]
    if name == "iterate":
        assert len(p.seams) == 2
    for t, side in points:
        S, ref = p.sform(t, side), _fd_sform(p, t, side)
        assert np.abs(S - ref).max() < 1e-7 * (1.0 + np.abs(S).max()), (
            t, side)
    # the batched read of a stack is the single read, row by row, up to
    # the rounding of a batched product (the Pade evaluator's)
    ts = np.array([t for t, _ in points])
    for side in (1, -1):
        rows = np.stack([p.sform(t, side) for t in ts])
        assert np.abs(p.sforms(ts, side) - rows).max() <= 1e-14 * (
            1.0 + np.abs(rows).max()), side
    if p.seams:
        s = p.seams[0]
        assert np.abs(p.sform(s, -1) - p.sform(s, 1)).max() > 1e-3


def test_scalar_coefficient_function_raises_dimension_error():
    # sform_fn maps a stack of times to a stack of coefficients; one of a
    # single time fails with a typed error, in the path and in a count
    rot = rotation_path(1.0)
    for fn in (lambda t, side: np.eye(2),
               lambda t, side: float(t) * np.eye(2)):
        p = SymplecticPath(1, 1.0, rot.values, sform_fn=fn)
        with pytest.raises(DimensionError):
            p.sforms([0.1, 0.2])
        with pytest.raises(DimensionError):
            index_nu(p, 1.0)


def test_path_from_samples_roundtrip():
    p = rotation_path(2.0)
    ts = np.linspace(0, 1, 41)
    mats = np.array([p.value(t) for t in ts])
    q = path_from_samples(ts, mats)
    for t in (0.0, 0.33, 0.74, 1.0):
        assert np.abs(q.value(t) - p.value(t)).max() < 1e-6
    assert symplectic_residual(q.value(0.5)) < 1e-6


def test_path_from_samples_validation():
    with pytest.raises(DimensionError):
        path_from_samples([0.0, 1.0], np.stack([np.eye(2)] * 2))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_normal_form_path_hits_target(seed):
    M = random_symplectic(2, np.random.default_rng(seed))
    p = normal_form_path(M)
    p.check_start()
    assert np.abs(p.endpoint - M).max() < 1e-8
    assert symplectic_residual(p.value(0.37)) < 1e-9
