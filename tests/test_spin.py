import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lzi
from lzi import spin
from lzi.errors import DimensionError, SameSiteError


def test_sz_defining_rep():
    _, _, sz = lzi.spin_generators(lzi.SpinRep(0.5))
    assert np.allclose(np.diag(sz), [0.5, -0.5], atol=0)


def test_sz_spin_one():
    _, _, sz = lzi.spin_generators(lzi.SpinRep(1))
    assert np.allclose(np.diag(sz), [1.0, 0.0, -1.0], atol=0)


def test_su2_commutation_defining_rep():
    sx, sy, sz = lzi.spin_generators(lzi.SpinRep(0.5))
    assert lzi.max_abs(lzi.commutator(sx, sy) - 1j * sz) < 1e-15


@pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 1.5, 2.0, 3.5])
def test_casimir(s):
    rep = lzi.SpinRep(s)
    sx, sy, sz = lzi.spin_generators(rep)
    casimir = sx @ sx + sy @ sy + sz @ sz
    assert lzi.max_abs(casimir - s * (s + 1) * np.eye(rep.dim)) < 1e-12


@pytest.mark.parametrize("s", [0.5, 1.0, 2.5])
def test_generators_hermitian(s):
    for g in lzi.spin_generators(lzi.SpinRep(s)):
        assert lzi.hermiticity_defect(g) < 1e-14


def test_spinrep_validation():
    with pytest.raises(ValueError):
        lzi.SpinRep(0.3)
    with pytest.raises(ValueError):
        lzi.SpinRep(-0.5)


def test_pauli_basis_values():
    s0, s1, s2, s3 = lzi.pauli_u2_basis()
    assert np.array_equal(s0, np.eye(2))
    assert np.allclose(np.diag(s3), [1.0, -1.0], atol=0)
    assert np.allclose(s1, [[0, 1], [1, 0]], atol=0)


def test_pauli_traces():
    basis = lzi.pauli_u2_basis()
    for a in range(1, 4):
        for b in range(1, 4):
            tr = np.trace(basis[a] @ basis[b])
            assert abs(tr - (2.0 if a == b else 0.0)) < 1e-15


def test_pauli_squares_to_identity():
    for mat in lzi.pauli_u2_basis():
        assert lzi.max_abs(mat @ mat - np.eye(2)) < 1e-15


def test_embed_single_site_is_identity_map():
    system = lzi.SiteSystem.uniform(1)
    sx = lzi.spin_generators(lzi.SpinRep(0.5))[0]
    assert np.array_equal(lzi.embed(sx, 0, system), sx)


def test_embed_two_site_sz_spectrum():
    system = lzi.SiteSystem.uniform(2)
    sz = lzi.spin_generators(lzi.SpinRep(0.5))[2]
    total = lzi.embed(sz, 0, system) + lzi.embed(sz, 1, system)
    # oracle: exact diagonalization of the 4x4 sum
    assert np.allclose(np.sort(np.linalg.eigvalsh(total)), [-1.0, 0.0, 0.0, 1.0], atol=1e-15)


def test_embed_disjoint_sites_commute():
    system = lzi.SiteSystem.uniform(2)
    sx, sy, _ = lzi.spin_generators(lzi.SpinRep(0.5))
    c = lzi.commutator(lzi.embed(sx, 0, system), lzi.embed(sy, 1, system))
    assert lzi.max_abs(c) < 1e-15


@settings(max_examples=30, deadline=None)
@given(
    spins=st.lists(st.sampled_from([0.5, 1.0, 1.5]), min_size=2, max_size=3),
    data=st.data(),
)
def test_embed_disjoint_commute_property(spins, data):
    system = lzi.SiteSystem(tuple(lzi.SpinRep(s) for s in spins))
    site_a = data.draw(st.integers(0, len(spins) - 1))
    site_b = data.draw(st.integers(0, len(spins) - 1).filter(lambda x: x != site_a))
    op_a = lzi.spin_generators(system.reps[site_a])[data.draw(st.integers(0, 2))]
    op_b = lzi.spin_generators(system.reps[site_b])[data.draw(st.integers(0, 2))]
    c = lzi.commutator(lzi.embed(op_a, site_a, system), lzi.embed(op_b, site_b, system))
    assert lzi.max_abs(c) < 1e-13


def test_embed_dimension_mismatch():
    system = lzi.SiteSystem.uniform(2, s=0.5)
    op = np.eye(3)
    with pytest.raises(DimensionError):
        lzi.embed(op, 0, system)


def test_embed_preserves_hermiticity_and_scale():
    system = lzi.SiteSystem.uniform(3)
    sy = lzi.spin_generators(lzi.SpinRep(0.5))[1]
    emb = lzi.embed(sy, 1, system)
    assert lzi.hermiticity_defect(emb) == 0.0
    assert lzi.max_abs(emb) == lzi.max_abs(sy)


def test_dot_coupling_two_half_spins_spectrum():
    system = lzi.SiteSystem.uniform(2)
    coupling = lzi.dot_coupling(0, 1, system)
    # oracle: singlet/triplet split of S1.S2 = (S_tot^2 - 3/2)/2
    assert np.allclose(np.sort(np.linalg.eigvalsh(coupling)), [-0.75, 0.25, 0.25, 0.25], atol=1e-14)


def test_dot_coupling_hermitian():
    system = lzi.SiteSystem.uniform(3)
    assert lzi.hermiticity_defect(lzi.dot_coupling(0, 2, system)) < 1e-14


def test_dot_coupling_commutes_with_total_sz():
    system = lzi.SiteSystem.uniform(2)
    sz = lzi.spin_generators(lzi.SpinRep(0.5))[2]
    total_sz = lzi.embed(sz, 0, system) + lzi.embed(sz, 1, system)
    assert lzi.max_abs(lzi.commutator(lzi.dot_coupling(0, 1, system), total_sz)) < 1e-14


def test_dot_coupling_same_site_rejected():
    with pytest.raises(SameSiteError):
        lzi.dot_coupling(1, 1, lzi.SiteSystem.uniform(2))


def test_commutator_with_self_is_zero():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert lzi.max_abs(lzi.commutator(a, a)) == 0.0


def test_commutator_su2_relation():
    sx, sy, sz = lzi.spin_generators(lzi.SpinRep(0.5))
    assert lzi.max_abs(lzi.commutator(sx, sy) - 1j * sz) < 1e-15


def test_commutator_norm_inequality():
    # submultiplicative bound holds in the spectral norm
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        b = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        lhs = np.linalg.norm(lzi.commutator(a, b), 2)
        assert lhs <= 2.0 * np.linalg.norm(a, 2) * np.linalg.norm(b, 2) + 1e-12


def test_commutator_dimension_mismatch():
    with pytest.raises(DimensionError):
        lzi.commutator(np.eye(2), np.eye(3))
    with pytest.raises(DimensionError):
        lzi.commutator(np.ones((4, 2, 2)), np.eye(2))  # a stack needs a stack of its shape
    with pytest.raises(DimensionError):
        lzi.commutator(np.ones((4, 2, 3)), np.ones((4, 2, 3)))


def test_commutator_of_stacks_is_the_commutator_of_each_pair_bitwise():
    rng = np.random.default_rng(4)
    a, b = (rng.normal(size=(3, 5, 4, 4)) + 1j * rng.normal(size=(3, 5, 4, 4)) for _ in range(2))
    stacked = lzi.commutator(a, b)
    for idx in np.ndindex(3, 5):
        assert np.array_equal(stacked[idx], lzi.commutator(a[idx], b[idx]))


def test_site_system_total_dim():
    system = lzi.SiteSystem((lzi.SpinRep(0.5), lzi.SpinRep(1.0), lzi.SpinRep(0.5)))
    assert system.total_dim == 2 * 3 * 2


def _kron_exchange(spins, site_a, site_b):
    """S(site_a).S(site_b) from explicit Kronecker products of every site's factor."""
    out = 0
    for gens in zip(*(lzi.spin_generators(lzi.SpinRep(s)) for s in spins)):
        eyes = [np.eye(len(g)) for g in gens]
        g_a = functools.reduce(np.kron, eyes[:site_a] + [gens[site_a]] + eyes[site_a + 1:])
        g_b = functools.reduce(np.kron, eyes[:site_b] + [gens[site_b]] + eyes[site_b + 1:])
        out = out + g_a @ g_b
    return out


def test_operator_cache_separates_systems_of_equal_site_count():
    mixed = lzi.SiteSystem(tuple(lzi.SpinRep(s) for s in (0.5, 1.0, 1.5)))
    uniform = lzi.SiteSystem.uniform(3)
    # interleaved calls: a shared entry would hand one system the other's operator
    for spins, system in [((0.5, 1.0, 1.5), mixed), ((0.5, 0.5, 0.5), uniform)] * 2:
        _, exchange = spin.site_operators(system)
        for site_a, site_b in itertools.permutations(range(3), 2):
            reference = _kron_exchange(spins, site_a, site_b)
            assert lzi.max_abs(lzi.dot_coupling(site_a, site_b, system) - reference) < 1e-14
            assert lzi.max_abs(exchange[site_a, site_b] - reference) < 1e-14
    assert spin.site_operators(mixed)[1][0, 1].shape == (24, 24)
    assert spin.site_operators(uniform)[1][0, 1].shape == (8, 8)


def test_cached_operators_are_read_only():
    system = lzi.SiteSystem((lzi.SpinRep(0.5), lzi.SpinRep(1.0), lzi.SpinRep(0.5)))
    generators, exchange = spin.site_operators(system)
    ops = list(exchange.values()) + [g for site in generators for g in site]
    assert len(ops) == 6 + 9
    for op in ops:
        assert not op.flags.writeable
        with pytest.raises(ValueError):
            op[0, 0] = 1.0


def test_returned_operators_are_fresh_writable_copies():
    system = lzi.SiteSystem.uniform(3)
    sz = lzi.spin_generators(lzi.SpinRep(0.5))[2]
    for make in (lambda: lzi.embed(sz, 1, system), lambda: lzi.dot_coupling(0, 2, system)):
        first = make()
        expected = first.copy()
        first[...] = 7.0
        assert np.array_equal(make(), expected)


def test_dot_coupling_site_out_of_range():
    system = lzi.SiteSystem.uniform(3)
    for site_a, site_b in [(0, 3), (-1, 0), (3, 4)]:
        with pytest.raises(IndexError):
            lzi.dot_coupling(site_a, site_b, system)
