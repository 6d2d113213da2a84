"""Dual-action quadratic form: mode blocks, Morse counts, stabilization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symstab import (
    diamond_all,
    stabilized_index,
)
from symstab import galerkin
from symstab.galerkin import (DualForm, assemble_dual_form, constant_form_bounds,
                              constant_form_index, mode_frequencies,
                              morse_index_nullity)
from symstab.errors import GalerkinError, ResonantFormError
from symstab.sympl import standard_J

PI = np.pi


def test_mode_frequencies():
    f = mode_frequencies(2 * PI, 4)
    assert np.allclose(f, [1, 2, 3, 4])
    with pytest.raises(GalerkinError):
        mode_frequencies(-1.0, 4)
    with pytest.raises(GalerkinError):
        mode_frequencies(1.0, 0)


def test_constant_form_index_values():
    # 2n jumps each time s passes a multiple of pi rho^2
    assert constant_form_index(1.0, 1.0, 1) == 0
    assert constant_form_index(4.0, 1.0, 1) == 2
    assert constant_form_index(7.0, 1.0, 1) == 4
    assert constant_form_index(4.0, 1.0, 2) == 4


def test_constant_form_resonance():
    with pytest.raises(ResonantFormError):
        constant_form_index(PI, 1.0, 1)
    with pytest.raises(ResonantFormError):
        constant_form_index(2 * PI, 1.0, 1)


def test_constant_form_bounds_order():
    lo, hi = constant_form_bounds(5.0, 0.9, 1.2, 1)
    assert lo <= hi
    assert lo == constant_form_index(5.0, 1.2, 1)
    assert hi == constant_form_index(5.0, 0.9, 1)
    with pytest.raises(GalerkinError):
        constant_form_bounds(5.0, 1.2, 0.9, 1)


def test_callable_matches_constant():
    G = np.diag([0.5, 0.5])
    s, n, K = 4.0, 1, 24
    a = morse_index_nullity(assemble_dual_form(G, s, n, K))
    b = morse_index_nullity(assemble_dual_form(lambda t: G, s, n, K))
    assert a == b


def test_stabilized_matches_constant_formula():
    # a ball of radius rho has the closed-form count
    for rho, s in [(1.0, 4.0), (1.1, 7.5), (0.9, 2.0)]:
        G = np.eye(2) * (rho * rho / 2.0)
        gi, gn, K = stabilized_index(G, s, 1)
        assert gi == constant_form_index(s, rho, 1)
        assert gn == 0    # generic s: no resonant mode, no kernel


def test_stabilized_doubling_consistent():
    # the stable counts hold on at four times the stable mode count
    G = diamond_all([np.eye(2) * 0.5, np.eye(2) * 0.605])
    a = stabilized_index(G, PI, 2)
    assert morse_index_nullity(assemble_dual_form(G, PI, 2, 4 * a[2])) == a[:2]


def test_ellipsoid_orbit_morse_count():
    # first orbit of the 1 : 1.1 ellipsoid at its own action
    G = diamond_all([np.eye(2) * 0.5, np.eye(2) * 0.605])
    gi, gn, _ = stabilized_index(G, PI, 2)
    assert (gi, gn) == (0, 2)


def _loop_dual_form(G, s, n, K, g=1):
    """Reference assembly: one Python pass per block pair (a, b).  With
    g > 1 the harmonics of G off the multiples of g read as zero."""
    d = 2 * n
    Nt = max(512, 1 << int(np.ceil(np.log2(8 * K + 8))))
    Gs = np.stack([np.asarray(G(t), float) for t in np.arange(Nt) * (s / Nt)])
    Ghat = np.fft.fft(Gs, axis=0) / Nt

    def coef(m):
        return Ghat[m % Nt] if m % g == 0 else np.zeros_like(Ghat[0])

    J = standard_J(n)
    w = mode_frequencies(s, K)
    M = np.zeros((2 * d * K, 2 * d * K))

    def put(bi, bj, val):
        M[bi * d:(bi + 1) * d, bj * d:(bj + 1) * d] = val

    for i in range(K):
        k = i + 1
        for j in range(i, K):
            kp = j + 1
            diff, tot = coef(k - kp), coef(k + kp)
            ss = diff.real - tot.real
            cc = diff.real + tot.real
            sc = tot.imag + diff.imag
            put(i, j, ss)
            put(K + i, K + j, cc)
            put(i, K + j, sc)
            if j != i:
                put(j, i, ss.T)
                put(K + j, K + i, cc.T)
                cs = coef(kp + k).imag + coef(kp - k).imag
                put(j, K + i, cs)
                put(K + i, j, cs.T)
                put(K + j, i, sc.T)
        put(i, K + i, M[i * d:(i + 1) * d, (K + i) * d:(K + i + 1) * d] + J / w[i])
        put(K + i, i, M[i * d:(i + 1) * d, (K + i) * d:(K + i + 1) * d].T)
    return 0.5 * (M + M.T)


def _loop_G(n, seed):
    """Time-dependent symmetric positive G(t); inv() leaves it only nearly
    symmetric, which the block placement must reproduce as is."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((3, 2 * n, 2 * n))

    def G(t):
        X = (2.0 * np.eye(2 * n) + 0.3 * np.cos(t) * A[0]
             + 0.2 * np.sin(3 * t) * A[1] + 0.1 * np.cos(7 * t + 1) * A[2])
        return np.linalg.inv(X @ X.T)
    return G


@pytest.mark.parametrize("n", [1, 2, 3])
def test_callable_assembly_equals_block_loop(n):
    G = _loop_G(n, seed=n)
    for K in (1, 2, 9, 40, 70):
        form = assemble_dual_form(G, 5.3, n, K)
        (got,) = form.blocks   # G carries harmonics 1, 2, ...: g = 1
        assert got.shape[0] == 1 and form.delta == 0.0
        assert np.array_equal(got[0], _loop_dual_form(G, 5.3, n, K))


def _periodic_G(n, g, seed):
    """Symmetric positive G(t) of period s/g for s = 2 pi / w (g = 0: G is
    constant): its only harmonics are the multiples of g."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((2, 2 * n, 2 * n))

    def G(t, w=2 * PI / 5.3):
        X = (2.0 * np.eye(2 * n) + 0.3 * np.cos(g * w * t) * A[0]
             + 0.2 * np.sin(2 * g * w * t + 0.4) * A[1])
        return np.linalg.inv(X @ X.T)
    return G


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("g", [2, 3, 0])
def test_class_split_equals_dense_form(n, g):
    G = _periodic_G(n, g, seed=10 * n + g)
    for K in (7, 24):
        form = assemble_dual_form(G, 5.3, n, K)
        # g = 2: odd and even modes; g = 3: multiples of 3 and the rest;
        # constant G: one class per mode
        assert sum(len(b) for b in form.blocks) == (2 if g else K)
        assert 0.0 <= form.delta < 1e-13
        split = _loop_dual_form(G, 5.3, n, K, g=g or 2 * K + 1)
        assert np.allclose(form.eigenvalues(), np.linalg.eigvalsh(split),
                           rtol=0.0, atol=1e-12)
        whole = DualForm(5.3, n, K, blocks=(_loop_dual_form(G, 5.3, n, K)[None],))
        got = morse_index_nullity(form)
        assert got == morse_index_nullity(whole) and got[0] > 0


def test_dropping_a_carried_harmonic_is_refused(monkeypatch):
    # G = 0.25 I + 0.1 cos(2 w t) I carries harmonic 2, and mode 3 has the
    # eigenvalue 0.25 - 1/w_3 = -0.031; dropping harmonic 2 (delta = 0.14)
    # could move it across the threshold
    G = lambda t: (0.25 + 0.1 * np.cos(4 * PI * t / 5.3)) * np.eye(2)
    form = assemble_dual_form(G, 5.3, 1, 8)
    assert sum(len(b) for b in form.blocks) == 2 and form.delta < 1e-13
    monkeypatch.setattr(galerkin, "_drop_floor", lambda c0, Nt: 1.0)
    form = assemble_dual_form(G, 5.3, 1, 8)
    assert sum(len(b) for b in form.blocks) == 8
    assert form.delta == pytest.approx(0.1 * np.sqrt(2))   # c_2, c_-2
    with pytest.raises(GalerkinError) as err:
        morse_index_nullity(form)
    assert err.value.margin is not None and err.value.margin < 0


def test_stabilized_index_samples_each_grid_point_once():
    base = _loop_G(2, seed=7)
    for s in (3.1, 20.0):   # 512 points for every K; 512 then 1024 points
        calls = []

        def G(t):
            calls.append(float(t))
            return base(t)
        got = stabilized_index(G, s, 2)
        Nt = max(512, 1 << int(np.ceil(np.log2(8 * got[2] + 8))))
        assert len(calls) == len(set(calls)) == Nt

        K0 = K = max(8, int(np.ceil(2.0 * s)))
        prev = None
        while True:
            cur = morse_index_nullity(assemble_dual_form(base, s, 2, K))
            if cur == prev:
                break
            prev, K = cur, 2 * K
        assert got == (*cur, K) and K > K0


@settings(max_examples=20, deadline=None)
@given(s=st.floats(0.5, 15.0), rho=st.floats(0.7, 1.4))
def test_constant_form_monotone_in_s(s, rho):
    try:
        a = constant_form_index(s, rho, 1)
        b = constant_form_index(s + 0.8, rho, 1)
    except ResonantFormError:
        return
    assert a <= b
