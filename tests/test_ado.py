import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lzi
from lzi.ado import _hk_scalars
from lzi.errors import BranchPointError, DegenerateSpectralError, QuadratureError


def _params(gamma=(0.3, 0.4, 0.5), a=(0.0,)):
    return lzi.ADOParams(gamma=list(gamma), a=list(a))


# ---------------------------------------------------------------------------
# Hamiltonian and b-vectors


def test_hamiltonian_reference_layout():
    p = _params(gamma=(1.0, 1.0, 1.0), a=(0.0,))
    h = lzi.ado_sweep(p)(0.0)
    assert np.array_equal(h, [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])


def test_hamiltonian_flat_block_is_exactly_zero():
    p = _params(gamma=(0.4, 0.6, 0.3, 0.2, 0.5), a=(-1.0, 0.0, 1.0))
    h = lzi.ado_sweep(p)(0.7)
    for i in range(2, 5):
        for j in range(2, 5):
            if i != j:
                assert h[i, j] == 0.0
    assert lzi.max_abs(h - h.T) == 0.0


def test_sweep_slopes():
    p = _params()
    sweep = lzi.ado_sweep(p)
    assert np.array_equal(np.diag(sweep.d).real, [1.0, 1.0, 0.0])
    expected = np.outer(p.gamma, p.gamma)
    expected[2:, 2:] = np.diag(p.a)
    expected[[0, 1], [0, 1]] += 1.3
    assert lzi.max_abs(sweep(1.3) - expected) < 1e-15


def test_b_vectors_uniform_couplings():
    b = lzi.b_vectors(_params(gamma=(1.0, 1.0, 1.0), a=(0.0,)))
    assert np.allclose(b.b1, [1.0, 1.0, 0.0, 0.0], atol=0)
    assert np.allclose(b.bk[0], [1.0, 1.0, 0.0, 0.0], atol=0)
    assert b.beta1 == 1.0 and b.betas[0] == 1.0
    assert b.parallelism_defect < 1e-15


def test_b_vector_reference_betas():
    b = lzi.b_vectors(_params())
    assert abs(b.beta1 - 0.125) < 1e-15  # (0.09 + 0.16)/2
    assert abs(b.betas[0] - 0.03125) < 1e-15  # 0.125 * 0.25


@settings(max_examples=50, deadline=None)
@given(g0=st.floats(0.05, 1.5), g1=st.floats(0.0, 1.5))
def test_spatial_norm_identity(g0, g1):
    # ((g0^2-g1^2)/2)^2 + (g0 g1)^2 = ((g0^2+g1^2)/2)^2
    lhs = np.hypot((g0**2 - g1**2) / 2.0, g0 * g1)
    assert abs(lhs - (g0**2 + g1**2) / 2.0) < 1e-12


def test_time_component_equals_spatial_norm():
    rng = np.random.default_rng(3)
    for _ in range(10):
        g = rng.uniform(0.1, 1.0, 4)
        b = lzi.b_vectors(_params(gamma=g, a=(0.0, 1.0)))
        assert abs(b.beta1 - b.b1[0]) < 1e-14
        assert np.allclose(b.betas, b.bk[:, 0], atol=1e-14)
        assert np.allclose(b.betas / b.beta1, g[2:] ** 2, atol=1e-13)


def test_decoupled_second_level_direction():
    b = lzi.b_vectors(_params(gamma=(0.8, 0.0, 0.5), a=(0.0,)))
    assert np.allclose(b.unit_n, [0.0, 0.0, 1.0], atol=1e-15)


def test_rank_one_matrices_are_singular():
    b = lzi.b_vectors(_params(gamma=(0.7, 0.4, 0.6, 0.2), a=(0.0, 1.5)))
    basis = lzi.pauli_u2_basis()
    for row in b.bk:
        mat = sum(row[mu] * basis[mu] for mu in range(4))
        assert abs(np.linalg.det(mat)) < 1e-14


def test_b_vector_override_reports_defect():
    # gamma_0 != gamma_1 so the first spatial vector tilts when v01 moves
    p = _params(gamma=(0.3, 0.4, 0.5), a=(0.0,))
    v = lzi.coupling_matrix(p).copy()
    v[0, 1] += 0.3
    v[1, 0] += 0.3
    b = lzi.b_vector_stack([p], [v])
    assert b.parallelism_defect[0] > 1e-2


def _norm3(x):
    return math.sqrt(x[0] * x[0] + x[1] * x[1] + x[2] * x[2])


def _pairwise_cross_defect(b1, bk):
    """The worst |u_i x u_j| over the pairs of unit spatial parts of one model's
    four-vectors, one np.cross per pair (the norm summed left to right, as
    numpy's row norm sums a length-3 row)."""
    spatial = [b1[1:]] + [row[1:] for row in bk]
    units = [s / _norm3(s) for s in spatial if _norm3(s) > 0.0]
    defect = 0.0
    for u, w in itertools.combinations(units, 2):
        defect = max(defect, _norm3(np.cross(u, w)))
    return defect


@pytest.mark.parametrize("table", ["rank-one", "break-parallelism", "random-rows"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_parallelism_defect_array_pass_matches_pairwise_cross_loop(n, table):
    # n spatial vectors: b1 and one per flat level
    rng = np.random.default_rng(100 * n + len(table))
    for _ in range(5):
        p = _params(gamma=rng.uniform(0.3, 1.0, n + 1), a=np.arange(n - 1) * 0.7)
        v = lzi.coupling_matrix(p)
        if table == "break-parallelism":
            v[0, 1] = v[1, 0] = v[0, 1] + 0.1
        elif table == "random-rows":
            noise = np.zeros_like(v)
            noise[:2] = rng.normal(0.0, 0.2, (2, n + 1))
            v = v + noise + noise.T
        b = lzi.b_vector_stack([p], [v])
        assert b.parallelism_defect[0] == _pairwise_cross_defect(b.b1[0], b.bk[0])
        if table != "rank-one":
            assert b.parallelism_defect[0] > 1e-3


def test_parallelism_defect_of_a_single_nonzero_vector_is_zero():
    # gamma_2 = 0 leaves b1 the only spatial part with a direction
    b = lzi.b_vectors(_params(gamma=(0.3, 0.4, 0.0), a=(0.0,)))
    assert not b.bk[0].any()
    assert b.parallelism_defect == 0.0


def test_parallelism_defect_skips_a_zero_spatial_part():
    p = _params(gamma=(0.3, 0.4, 0.5, 0.0, 0.2), a=(-1.0, 0.0, 1.0))
    v = lzi.coupling_matrix(p)
    v[0, 1] = v[1, 0] = v[0, 1] + 0.1
    b = lzi.b_vector_stack([p], [v])
    assert not b.bk[0, 1, 1:].any()
    assert b.parallelism_defect[0] == _pairwise_cross_defect(b.b1[0], b.bk[0]) > 1e-3
    # with no spatial part at all there is no direction to compare against
    v = np.zeros((5, 5))
    with pytest.raises(DegenerateSpectralError):
        lzi.b_vector_stack([p], [v])


def _one_point_operators(p, v, omega):
    """b1, bk and H_1, H_2..H_n of one model at one omega, entry by entry as the
    one-point formulas read (scalar squares, one np.dot per pair, terms added in order)."""
    basis = lzi.pauli_u2_basis()

    def pair(v00, v11, v01):
        return np.array([(v00 + v11) / 2.0, v01, 0.0, (v00 - v11) / 2.0])

    def contract(b4):
        return sum(b4[mu] * basis[mu] for mu in range(4))

    b1 = pair(v[0, 0], v[1, 1], v[0, 1])
    bk = [pair(v[0, k] ** 2, v[1, k] ** 2, v[0, k] * v[1, k]) for k in range(2, p.n + 1)]
    h1 = contract(b1)
    for j, row in enumerate(bk):
        h1 = h1 + contract(row) / (omega - p.a[j])
    ops = [h1]
    for j, row in enumerate(bk):
        scalar = 0.0
        for jp, other in enumerate(bk):
            if jp != j:
                scalar += float(np.dot(row, other)) / (p.a[j] - p.a[jp])
        ops.append(scalar * np.eye(2, dtype=complex) + contract(row) / (p.a[j] - omega))
    return b1, np.array(bk), ops


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_stacked_four_vectors_and_operators_equal_the_one_point_formulas_bitwise(n):
    rng = np.random.default_rng(40 + n)
    params, tables = [], []
    for s in range(6):
        gamma = rng.uniform(0.3, 1.0, n + 1)
        if s == 0:
            gamma[[0, 2]] = 0.3, 0.196  # (0.3 * 0.196) ** 2 rounds differently from x * x
        p = _params(gamma=gamma, a=np.arange(n - 1) * 0.7 + rng.uniform(-2.0, -1.0))
        v = lzi.coupling_matrix(p)
        if s % 2:
            noise = np.zeros_like(v)
            noise[:2] = rng.normal(0.0, 0.2, (2, n + 1))
            v = v + noise + noise.T
        params.append(p)
        tables.append(v)
    omegas = rng.uniform(2.5, 4.0, len(params))
    stack = lzi.b_vector_stack(params, tables)
    ops = lzi.ekz_operators(stack, omegas)
    for s, (p, v) in enumerate(zip(params, tables)):
        b1, bk, expected = _one_point_operators(p, v, float(omegas[s]))
        one = lzi.b_vector_stack([p], [v])
        assert np.array_equal(one.b1[0], b1) and np.array_equal(one.bk[0], bk)
        fields = ("b1", "bk", "beta1", "betas", "unit_n", "a", "parallelism_defect")
        for name in fields:
            assert np.array_equal(getattr(stack, name)[s], getattr(one, name)[0])
        if s % 2 == 0:  # a rank-one table: b_vectors builds the same set
            for name in fields:
                assert np.array_equal(getattr(stack, name)[s], getattr(lzi.b_vectors(p), name))
        assert len(ops) == len(expected) == n
        for op, want in zip(ops[:, s], expected):
            assert np.array_equal(op, want)
        # one set at one omega, and one set at many omegas, build the same operators
        single = lzi.ekz_operators(one, float(omegas[s]))[:, 0]
        assert all(np.array_equal(x, y) for x, y in zip(single, expected))
        assert np.array_equal(lzi.ekz_operators(one, omegas)[:, s], ops[:, s])


# ---------------------------------------------------------------------------
# conserved operators and zero curvature


def test_h1_reference_value():
    b = lzi.b_vectors(_params(gamma=(1.0, 1.0, 1.0), a=(0.0,)))
    h1 = lzi.ekz_operators(b, 1.0)[0]
    s0, s1, _, _ = lzi.pauli_u2_basis()
    assert lzi.max_abs(h1 - 2.0 * (s0 + s1)) < 1e-14


def test_h1_hermitian_and_pole_guard():
    b = lzi.b_vectors(_params())
    assert lzi.hermiticity_defect(lzi.ekz_operators(b, 0.7)[0]) < 1e-14
    with pytest.raises(DegenerateSpectralError):
        lzi.ekz_operators(b, 0.0)


def test_h1_large_frequency_limit():
    b = lzi.b_vectors(_params(gamma=(0.5, 0.6, 0.7, 0.3), a=(0.0, 1.0)))
    basis = lzi.pauli_u2_basis()
    asymptote = sum(b.b1[mu] * basis[mu] for mu in range(4))
    omega = 1e6
    deviation = lzi.max_abs(lzi.ekz_operators(b, omega)[0] - asymptote)
    assert deviation < 2.0 * float(np.abs(b.bk).sum()) / omega


def test_hk_single_flat_level_has_no_scalar_part():
    b = lzi.b_vectors(_params())
    assert _hk_scalars(b)[0] == 0.0
    basis = lzi.pauli_u2_basis()
    expected = sum(b.bk[0][mu] * basis[mu] for mu in range(4)) / (0.0 - 3.0)
    assert lzi.max_abs(lzi.ekz_operators(b, 3.0)[1] - expected) < 1e-14


def test_hk_scalar_reference_euclidean():
    b = lzi.b_vectors(_params(gamma=(1.0, 1.0, 1.0, 1.0), a=(0.0, 1.0)))
    # b2 = b3 = (1,1,0,0); Euclidean dot = 2; (a2-a3) = -1
    scalars = _hk_scalars(b)  # H_2's, then H_3's
    assert abs(scalars[0] - (-2.0)) < 1e-14
    assert abs(scalars[1] - (+2.0)) < 1e-14
    # the one-sided variant keeps only the k' > k terms: for k = 3 it drops
    # the one term b3.b2 / (a3 - a2) of the symmetric sum
    upper = scalars[1] - np.dot(b.bk[1], b.bk[0]) / (b.a[1] - b.a[0])
    assert abs(upper) == 0.0


def test_companion_operators_commute_in_parallel_case():
    rng = np.random.default_rng(5)
    for n in (2, 3, 4):
        g = rng.uniform(0.3, 1.0, n + 1)
        a = np.linspace(0.0, n - 2.0, n - 1) if n > 2 else np.array([0.0])
        b = lzi.b_vectors(lzi.ADOParams(gamma=g, a=a))
        ops = list(lzi.ekz_operators(b, 7.3))
        assert np.max(lzi.verify_commuting(ops)) < 1e-13


def test_zero_curvature_parallel():
    p = _params(gamma=(0.3, 0.4, 0.5, 0.2), a=(1.0, 2.5))
    b = lzi.b_vectors(p)
    for i, j in itertools.combinations([0, 2, 3], 2):
        assert lzi.zero_curvature_residual(b, i, j, omega=-0.7) < 1e-12


def test_zero_curvature_broken_parallelism():
    p = _params(gamma=(0.3, 0.4, 0.5, 0.2), a=(1.0, 2.5))
    v = lzi.coupling_matrix(p).copy()
    v[0, 1] += 0.1
    v[1, 0] += 0.1
    b = lzi.b_vector_stack([p], [v])
    worst = max(
        lzi.zero_curvature_residual(b, i, j, omega=-0.7)
        for i, j in itertools.combinations([0, 2, 3], 2)
    )
    assert worst > 1e-4


def test_zero_curvature_rejects_equal_labels():
    b = lzi.b_vectors(_params())
    with pytest.raises(ValueError):
        lzi.zero_curvature_residual(b, 2, 2, omega=5.0)


def test_upper_sum_variant_breaks_scalar_curvature():
    p = _params(gamma=(0.3, 0.4, 0.5, 0.2), a=(1.0, 2.5))
    b = lzi.b_vectors(p)
    omega = -0.7
    # the one-sided sum keeps only the k' > k terms: H_2 is unchanged, H_3
    # loses b3.b2 / (a3 - a2) and with it d_2 H_3, while d_3 H_2 stays
    _, h2, h3 = lzi.ekz_operators(b, omega)
    dropped = np.dot(b.bk[1], b.bk[0]) / (b.a[1] - b.a[0])
    h3_upper = h3 - dropped * np.eye(2)
    d3_of_h2 = np.dot(b.bk[0], b.bk[1]) / (b.a[0] - b.a[1]) ** 2 * np.eye(2)
    res = lzi.max_abs(0.0 - d3_of_h2 - lzi.commutator(h2, h3_upper))
    # the missing scalar term has magnitude b2.b3 / (a_2 - a_3)^2 = 2 b2 b3 / gap^2
    expected = 2.0 * b.betas[0] * b.betas[1] / (1.0 - 2.5) ** 2
    assert abs(res - expected) < 1e-15
    assert res > 1e-4
    assert lzi.zero_curvature_residual(b, 2, 3, omega) < 1e-12


@pytest.mark.parametrize("break_parallelism", [0.0, 0.1])
def test_zero_curvature_residual_is_the_commutator_of_the_pair(break_parallelism):
    # with both derivative terms written out, the residual is the same number:
    # d_i H_j and d_j H_i are one array, so only [H_i, H_j] is left
    rng = np.random.default_rng(11)
    for n in (2, 3, 4, 5):
        p = lzi.ADOParams(gamma=rng.uniform(0.3, 1.0, n + 1), a=np.linspace(-1.5, 1.5, n - 1))
        v = lzi.coupling_matrix(p).copy()
        v[0, 1] += break_parallelism
        v[1, 0] += break_parallelism
        b = lzi.b_vector_stack([p], [v])
        bk, a = b.bk[0], b.a[0]
        omega = float(rng.uniform(2.5, 4.0))
        stack = lzi.ekz_operators(b, omega)[:, 0]  # H_1, then H_2..H_n
        ops = {0: stack[0]}
        ops.update((k, stack[k - 1]) for k in range(2, n + 1))
        basis = lzi.pauli_u2_basis()
        for i, j in itertools.combinations(ops, 2):
            bj, aj = bk[j - 2], a[j - 2]
            if i == 0:
                d_i_of_j = sum(bj[mu] * basis[mu] for mu in range(4)) / (aj - omega) ** 2
                d_j_of_i = sum(bj[mu] * basis[mu] for mu in range(4)) / (omega - aj) ** 2
            else:
                g = np.dot(bk[i - 2], bj) / (a[i - 2] - aj) ** 2
                d_i_of_j = d_j_of_i = g * np.eye(2)
            explicit = lzi.max_abs(d_i_of_j - d_j_of_i - lzi.commutator(ops[i], ops[j]))
            assert lzi.zero_curvature_residual(b, i, j, omega) == explicit


# ---------------------------------------------------------------------------
# spinor basis


def test_spinor_basis_along_z():
    xi_plus, xi_minus = lzi.spinor_eigenbasis([0.0, 0.0, 1.0])
    assert np.allclose(xi_plus, [1.0, 0.0], atol=1e-15)
    assert np.allclose(xi_minus, [0.0, 1.0], atol=1e-15)


def test_spinor_basis_along_x():
    xi_plus, xi_minus = lzi.spinor_eigenbasis([1.0, 0.0, 0.0])
    inv = 1.0 / np.sqrt(2.0)
    assert np.allclose(xi_plus, [inv, inv], atol=1e-15)
    assert np.allclose(xi_minus, [inv, -inv], atol=1e-15)


@settings(max_examples=40, deadline=None)
@given(theta=st.floats(0.01, 3.13), phi=st.floats(0.0, 6.28))
def test_spinor_basis_orthonormal(theta, phi):
    n = np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
    n /= np.linalg.norm(n)
    xi_plus, xi_minus = lzi.spinor_eigenbasis(n)
    basis = lzi.pauli_u2_basis()
    mat = sum(n[k] * basis[k + 1] for k in range(3))
    assert np.linalg.norm(mat @ xi_plus - xi_plus) < 1e-13
    assert np.linalg.norm(mat @ xi_minus + xi_minus) < 1e-13
    assert abs(np.vdot(xi_plus, xi_minus)) < 1e-14


def test_spinor_basis_requires_unit_vector():
    with pytest.raises(ValueError):
        lzi.spinor_eigenbasis([0.0, 0.0, 2.0])


# ---------------------------------------------------------------------------
# closed form


def test_trivial_branch_modulus_frequency_independent():
    sol = lzi.closed_form_solution(_params(), m=-1)
    mods = [np.linalg.norm(sol(w)) for w in np.linspace(-8.0, 8.0, 41) if w != 0.0]
    assert max(mods) - min(mods) < 1e-12


def test_modulus_jump_across_branch_point():
    p = _params()
    sol = lzi.closed_form_solution(p, m=+1)
    beta2 = lzi.b_vectors(p).betas[0]
    delta = 0.37
    ratio = np.linalg.norm(sol(0.0 - delta)) / np.linalg.norm(sol(0.0 + delta))
    # derived modulus of (omega - a + i0)^(-2 i beta) below the branch point
    assert abs(ratio - np.exp(2.0 * np.pi * beta2)) < 1e-12


def test_branch_point_evaluation_rejected():
    sol = lzi.closed_form_solution(_params(), m=+1)
    with pytest.raises(BranchPointError):
        sol(0.0)


def test_residuals_reference_point():
    sol = lzi.closed_form_solution(_params(), m=+1)
    r_omega, r_a = lzi.ekz_residual_check(sol, omega=3.0, h=1e-4)
    assert r_omega < 1e-6
    assert r_a.max() < 1e-6


def test_residuals_second_order_in_step():
    sol = lzi.closed_form_solution(_params(gamma=(0.3, 0.4, 0.5, 0.2), a=(1.0, 2.5)), m=+1)
    r1, _ = lzi.ekz_residual_check(sol, omega=-1.4, h=2e-3)
    r2, _ = lzi.ekz_residual_check(sol, omega=-1.4, h=1e-3)
    assert 3.0 < r1 / r2 < 5.0


def test_residuals_trivial_branch():
    sol = lzi.closed_form_solution(_params(gamma=(0.3, 0.4, 0.5, 0.2), a=(1.0, 2.5)), m=-1)
    r_omega, r_a = lzi.ekz_residual_check(sol, omega=-1.4, h=1e-4)
    assert r_omega < 1e-6 and r_a.max() < 1e-6


def test_residual_check_rejects_points_near_branch():
    sol = lzi.closed_form_solution(_params(), m=+1)
    with pytest.raises(BranchPointError):
        lzi.ekz_residual_check(sol, omega=5e-4, h=1e-4)


@pytest.mark.parametrize("h", [0.0, -1e-4, float("nan")])
def test_residual_check_rejects_non_positive_step(h):
    sol = lzi.closed_form_solution(_params(), m=+1)
    with pytest.raises(ValueError, match="positive"):
        lzi.ekz_residual_check(sol, omega=1.3, h=h)


def test_spatial_contraction_fails_ode_system():
    # the scalar part must use the full four-component contraction: with the
    # spatial-only variant the pair-product derivative no longer matches
    p = _params(gamma=(0.3, 0.4, 0.5, 0.2), a=(1.0, 2.5))
    sol = lzi.closed_form_solution(p, m=+1)
    b = sol.b
    omega = -1.4
    phi = sol(omega)
    h = 1e-4
    ap = b.a.copy()
    ap[0] += h
    am = b.a.copy()
    am[0] -= h
    d_a = (sol(omega, ap) - sol(omega, am)) / (2 * h)
    hk = lzi.ekz_operators(b, omega)[1]
    # the spatial-only product drops b2^0 b3^0 / (a2 - a3) from the scalar part
    hk_spatial = hk - b.bk[0, 0] * b.bk[1, 0] / (b.a[0] - b.a[1]) * np.eye(2)
    good = lzi.max_abs(d_a + 1j * hk @ phi)
    bad = lzi.max_abs(d_a + 1j * hk_spatial @ phi)
    assert good < 1e-6
    assert bad > 1e-4


# ---------------------------------------------------------------------------
# time domain


def test_trivial_branch_transform_matches_fresnel():
    # oracle: integral of exp(i w^2/2 + i w t) dw = sqrt(2 pi) e^{i pi/4} e^{-i t^2/2}
    p = _params()
    sol = lzi.closed_form_solution(p, m=-1)
    pair = sol.scalar(1.0) / np.exp(1j * 0.5)  # constant prefactor via omega = 1
    t = 5.3
    res = lzi.time_domain_wavefunction(sol, t, lzi.QuadratureSpec(tolerance=1e-5))
    exact = pair * np.sqrt(2 * np.pi) * np.exp(1j * np.pi / 4) * np.exp(-1j * t**2 / 2)
    assert np.linalg.norm(res.amplitudes - exact * sol.xi) < 1e-3
    assert res.error_estimate < 1e-3


def test_trivial_branch_modulus_constant_in_time():
    sol = lzi.closed_form_solution(_params(), m=-1)
    qspec = lzi.QuadratureSpec(tolerance=1e-5)
    mods = [
        np.linalg.norm(lzi.time_domain_wavefunction(sol, t, qspec).amplitudes)
        for t in (-6.0, -2.0, 1.5, 6.0)
    ]
    assert max(mods) / min(mods) - 1.0 < 1e-3


def test_window_doubling_convergence_flag(monkeypatch):
    sol = lzi.closed_form_solution(_params(), m=+1)
    res = lzi.time_domain_wavefunction(sol, 4.0, lzi.QuadratureSpec(tolerance=1e-4))
    assert res.window > lzi.QuadratureSpec().initial_window  # at least one doubling
    monkeypatch.setattr(lzi.ado, "_MAX_DOUBLINGS", 1)
    with pytest.raises(QuadratureError):
        lzi.time_domain_wavefunction(sol, 4.0, lzi.QuadratureSpec(tolerance=1e-14))


def test_survival_trivial_branch_is_unity():
    sol = lzi.closed_form_solution(_params(), m=-1)
    p_surv = lzi.survival_from_transform(sol, horizon=6.0, qspec=lzi.QuadratureSpec(tolerance=1e-5))
    assert abs(p_surv - 1.0) < 1e-3


def test_survival_from_transform_matches_formula():
    # cross-module consistency: the transform ratio reproduces the survival formula
    sol = lzi.closed_form_solution(_params(), m=+1)
    p_surv = lzi.survival_from_transform(
        sol, horizon=15.0, qspec=lzi.QuadratureSpec(tolerance=1e-4, initial_window=40.0)
    )
    assert abs(p_surv - lzi.lz_probability(0.3, 0.4, 0.5)) < 1e-2


def test_two_flat_levels_survival_three_way():
    # two crossings: sloped-channel survival is exp(-4 pi (beta_2 + beta_3)),
    # checked against both the propagator oracle and the transform ratio
    p = _params(gamma=(0.35, 0.45, 0.4, 0.3), a=(-1.0, 1.5))
    b = lzi.b_vectors(p)
    expected = float(np.exp(-4.0 * np.pi * b.betas.sum()))

    xi_plus, _ = lzi.spinor_eigenbasis(b.unit_n)
    psi0 = np.zeros(4, dtype=complex)
    psi0[:2] = xi_plus
    frame = lzi.InteractionPicture(lzi.ado_sweep(p))
    spec = lzi.PropagationSpec(theta=0.25, verify=False)
    u, _ = lzi.evolve_operator(frame, -40.0, 40.0, spec)
    pops = np.abs(u @ frame.to_interaction(psi0, -40.0)) ** 2
    assert abs(pops[0] + pops[1] - expected) < 2e-2

    sol = lzi.closed_form_solution(p, m=+1)
    ratio = lzi.survival_from_transform(
        sol, horizon=18.0, qspec=lzi.QuadratureSpec(tolerance=1e-4, initial_window=48.0)
    )
    assert abs(ratio - expected) < 2e-2


def test_lz_probability_values():
    assert lzi.lz_probability(0.4, 0.9, 0.0) == 1.0
    inv = 1.0 / np.sqrt(4.0 * np.pi)
    assert abs(lzi.lz_probability(inv, inv, 1.0) - np.exp(-1.0)) < 1e-15
    assert abs(lzi.lz_probability(0.3, 0.4, 0.5) - 0.6752319066557773) < 1e-15


@pytest.mark.parametrize("field", ["tolerance", "initial_window"])
@pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
def test_quadrature_spec_rejects_non_positive_or_non_finite_values(field, value):
    with pytest.raises(ValueError, match=field):
        lzi.QuadratureSpec(**{field: value})


def test_params_validation():
    with pytest.raises(DegenerateSpectralError):
        lzi.ADOParams(gamma=[0.0, 0.0, 0.5], a=[0.0])
    with pytest.raises(DegenerateSpectralError):
        lzi.ADOParams(gamma=[0.3, 0.4, 0.5, 0.6], a=[1.0, 1.0])
    with pytest.raises(ValueError):
        lzi.ADOParams(gamma=[0.3, 0.4, 0.5], a=[0.0, 1.0])
