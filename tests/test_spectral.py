"""Unit-circle eigenstructure, Krein signatures, splitting tables."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symstab import (
    diamond_all,
    spectral_summary,
    splitting_table,
)
from symstab.spectral import krein_gram
from symstab.sympl import (D_block, N1_block, N2_block, R_block,
                           random_symplectic, resymplectify, standard_J)


def conj(M, seed):
    g = random_symplectic(M.shape[0] // 2, np.random.default_rng(seed))
    return resymplectify(g @ M @ np.linalg.inv(g))


def test_identity_summary():
    s = spectral_summary(np.eye(4))
    assert s.elliptic_height == 4
    assert len(s.clusters) == 1
    c = s.clusters[0]
    assert (c.alg, c.geo) == (4, 4)
    assert c.krein == (2, 2)
    assert c.planes_id == 2


def test_hyperbolic_has_no_unit_spectrum():
    s = spectral_summary(diamond_all([D_block(2.0), D_block(-2.0)]))
    assert s.elliptic_height == 0
    assert len(s.off_circle) == 4


def test_shear_cluster():
    s = spectral_summary(N1_block(1, 1))
    c = s.cluster_at(1.0)
    assert (c.alg, c.geo) == (2, 1)
    assert c.shear_pos == 1
    assert splitting_table(s, 1.0).as_tuple() == (1, 1)


def test_rotation_krein_definite():
    th = 1.3
    s = spectral_summary(R_block(th))
    # non-real clusters are folded onto [0, pi]; the conjugate pair is the
    # same record, so either query resolves to it
    c = s.cluster_at(np.exp(1j * th))
    assert c is s.cluster_at(np.exp(-1j * th))
    assert (c.alg, c.geo) == (1, 1)
    assert sorted(c.krein) == [0, 1]
    # one-sided jumps swap between omega and its conjugate
    up = splitting_table(s, np.exp(1j * th)).as_tuple()
    dn = splitting_table(s, np.exp(-1j * th)).as_tuple()
    assert dn == (up[1], up[0])


def test_krein_gram_hermitian():
    M = R_block(0.9)
    lam, vec = np.linalg.eig(M)
    V = vec[:, [0]]
    G = krein_gram(V, standard_J(1))
    assert np.abs(G - G.conj().T).max() < 1e-12


def test_double_rotation_variants():
    for trivial in (True, False):
        s = spectral_summary(N2_block(2.0, trivial=trivial))
        c = s.cluster_at(np.exp(2j))
        assert (c.alg, c.geo) == (2, 1)
        assert (c.n2_trivial, c.n2_nontrivial) == (int(trivial),
                                                   int(not trivial))


def test_splitting_pair_bounds():
    M = diamond_all([N1_block(1, 1), R_block(2.0), N1_block(1, 0)])
    s = spectral_summary(M)
    for c in s.clusters:
        sp = splitting_table(s, c.omega)
        assert 0 <= sp.plus <= c.alg
        assert 0 <= sp.minus <= c.alg


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_summary_invariants_random(seed):
    rng = np.random.default_rng(seed)
    base = diamond_all([R_block(float(rng.uniform(0.4, 2.6))),
                        N1_block(1, 1) if seed % 2 else D_block(2.0)])
    M = conj(base, seed + 1)
    s = spectral_summary(M)
    # folded clusters count twice in the height unless they sit at +-1
    total = sum(c.alg if c.is_real else 2 * c.alg for c in s.clusters)
    assert total == s.elliptic_height
    assert s.elliptic_height % 2 == 0
    assert 0 <= s.elliptic_height <= 4
    assert s.elliptic_height + len(s.off_circle) == 4
    for c in s.clusters:
        assert c.krein[0] + c.krein[1] == c.alg
        assert 0 < c.geo <= c.alg


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_elliptic_height_conjugation_invariant(seed):
    base = diamond_all([R_block(1.1), N1_block(-1, 1)])
    assert (spectral_summary(conj(base, seed)).elliptic_height
            == spectral_summary(base).elliptic_height)


@pytest.mark.parametrize("seed", [262145, 2204])
def test_split_jordan_pair_at_minus_one_stays_on_circle(seed):
    # the defective pair at -1 splits to -1 +- 1e-7 on the real axis, across
    # the circle, so it must still snap onto it
    M = conj(diamond_all([R_block(1.1), N1_block(-1, 1)]), seed)
    s = spectral_summary(M)
    assert s.elliptic_height == 4
    assert not s.off_circle
    assert s.cluster_at(-1.0).alg == 2
