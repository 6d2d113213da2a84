"""Dual-action quadratic form: mode blocks, Morse counts, stabilization."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symstab import (
    diamond_all,
    stabilized_index,
)
from symstab import galerkin
from symstab.galerkin import (assemble_dual_form, constant_form_index,
                              mode_frequencies, morse_index_nullity)
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
    # a period that is not finite and positive is refused before K is read
    G0 = 0.5 * np.eye(2)
    for s in (np.nan, np.inf, -np.inf, 0.0, -1.0):
        for G in (G0, lambda t: G0):
            with pytest.raises(GalerkinError, match="finite and positive"):
                stabilized_index(G, s, 1)
            with pytest.raises(GalerkinError, match="finite and positive"):
                assemble_dual_form(G, s, 1, 8)


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
def test_varying_callable_is_refused(n):
    # G carries harmonics 1, 3 and 7 (and is not even 5.3-periodic): it
    # does not read as constant, and the margin says by how much
    G = _loop_G(n, seed=n)
    for K in (1, 2, 9, 40, 70):
        with pytest.raises(GalerkinError, match="not constant") as err:
            assemble_dual_form(G, 5.3, n, K)
        assert err.value.margin is not None and err.value.margin < 0
    with pytest.raises(GalerkinError) as err:
        stabilized_index(G, 5.3, n)
    assert err.value.margin < 0


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
@pytest.mark.parametrize("g", [1, 2, 3, 0])
def test_per_mode_form_equals_loop_form(n, g):
    G = _periodic_G(n, g, seed=10 * n + g)
    for K in (7, 24):
        if g:
            # harmonics g, 2g, ... are carried: G is refused, not truncated
            with pytest.raises(GalerkinError, match="not constant") as err:
                assemble_dual_form(G, 5.3, n, K)
            assert err.value.margin < 0
            continue
        form = assemble_dual_form(G, 5.3, n, K)
        got = morse_index_nullity(form)
        assert got[0] > 0
        # the loop reference with every harmonic but 0 read as zero
        split = _loop_dual_form(G, 5.3, n, K, g=2 * K + 1)
        assert np.allclose(form.eigenvalues(), np.linalg.eigvalsh(split),
                           rtol=0.0, atol=1e-12)
        # harmonic 0 alone, sampled or given as a matrix: one block per mode
        assert form.blocks.shape == (K, 4 * n, 4 * n)
        assert 0.0 <= form.delta < 1e-13
        const = assemble_dual_form(G(0.0), 5.3, n, K)
        assert const.blocks.shape == (K, 4 * n, 4 * n) and const.delta == 0.0
        assert morse_index_nullity(const) == got


def test_dropping_a_carried_harmonic_is_refused(monkeypatch):
    # G = 0.25 I + 0.1 cos(2 w t) I carries harmonic 2, and mode 3 has the
    # eigenvalue 0.25 - 1/w_3 = -0.031; dropping harmonic 2 (delta = 0.14)
    # could move it across the threshold
    G = lambda t: (0.25 + 0.1 * np.cos(4 * PI * t / 5.3)) * np.eye(2)
    with pytest.raises(GalerkinError, match="not constant") as err:
        assemble_dual_form(G, 5.3, 1, 8)
    assert err.value.margin < 0
    monkeypatch.setattr(galerkin, "_drop_floor", lambda c0, Nt: 1.0)
    form = assemble_dual_form(G, 5.3, 1, 8)
    assert len(form.blocks) == 8
    assert form.delta == pytest.approx(0.1 * np.sqrt(2))   # c_2, c_-2
    with pytest.raises(GalerkinError) as err:
        morse_index_nullity(form)
    assert err.value.margin is not None and err.value.margin < 0


def _counting(G):
    """G, and the list of the times it was sampled at."""
    calls = []

    def F(t):
        calls.append(float(t))
        return G(t)
    return F, calls


@pytest.mark.parametrize("s", [PI, 7.5])
def test_constant_callable_is_sampled_at_32_points(s):
    G0 = diamond_all([np.eye(2) * 0.5, np.eye(2) * 0.605])
    G, calls = _counting(lambda t: G0)
    assert stabilized_index(G, s, 2) == stabilized_index(G0, s, 2)
    assert len(calls) == len(set(calls)) == galerkin._SAMPLES == 32


def _trig_G(n, top, s, seed):
    """Symmetric positive G(t) whose harmonics are 0, 3 and top exactly."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((2, 2 * n, 2 * n))
    S = [a + a.T for a in A]
    S = [x / np.linalg.norm(x, 2) for x in S]

    def G(t, w=2 * PI / s):
        return (0.4 * np.eye(2 * n) + 0.03 * np.cos(3 * w * t) * S[0]
                + 0.02 * np.sin(top * w * t + 0.4) * S[1])
    return G


def test_high_harmonic_is_refused_after_32_samples():
    # harmonic 20 aliases to 12 on 32 points, in the band 8..16 that must
    # lie at rounding: G is refused before any form is built
    s, n = 6.1, 2
    G, calls = _counting(_trig_G(n, 20, s, seed=4))
    with pytest.raises(GalerkinError, match=re.escape("8 <= |h| <= 16")) as err:
        stabilized_index(G, s, n)
    assert err.value.margin < 0
    assert len(calls) == len(set(calls)) == 32


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_G_is_refused(bad):
    G0 = 0.5 * np.eye(2)
    G0[0, 0] = bad
    with pytest.raises(GalerkinError, match="non-finite"):
        stabilized_index(G0, 3.0, 1)
    with pytest.raises(GalerkinError, match="non-finite"):
        stabilized_index(lambda t: G0 if t > 1.0 else 0.5 * np.eye(2), 3.0, 1)


def test_asymmetric_G_is_refused():
    A = np.array([[1.0, 0.3], [0.0, 1.0]])
    with pytest.raises(GalerkinError, match="not symmetric"):
        stabilized_index(A, 3.0, 1)
    with pytest.raises(GalerkinError, match="not symmetric"):
        stabilized_index(lambda t: A, 3.0, 1)
    # asymmetry at rounding, as inv() leaves it, reads as the symmetric part
    G0 = 0.5 * np.eye(2)
    G1 = G0 + np.array([[0.0, 1e-12], [0.0, 0.0]])
    assert stabilized_index(G1, 3.0, 1) == stabilized_index(G0, 3.0, 1)
    assert stabilized_index(lambda t: G1, 3.0, 1) == stabilized_index(G0, 3.0, 1)


@settings(max_examples=20, deadline=None)
@given(s=st.floats(0.5, 15.0), rho=st.floats(0.7, 1.4))
def test_constant_form_monotone_in_s(s, rho):
    try:
        a = constant_form_index(s, rho, 1)
        b = constant_form_index(s + 0.8, rho, 1)
    except ResonantFormError:
        return
    assert a <= b
