import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lzi
from lzi import demkov_osherov as do
from lzi.errors import DegenerateSpectralError, NoRealShiftError, NumericalError


def _random_params(rng, n, gap=0.1):
    gamma = rng.uniform(0.2, 1.0, n + 1) * rng.choice([-1.0, 1.0], n + 1)
    eps = np.sort(rng.uniform(-3.0, 3.0, n + 1))
    while np.min(np.diff(eps)) < gap:
        eps = np.sort(rng.uniform(-3.0, 3.0, n + 1))
    return lzi.DOParams(gamma=gamma, epsilon=eps)


# ---------------------------------------------------------------------------
# Hamiltonian layout and the parameter maps


def test_hamiltonian_layout_two_levels():
    entries = lzi.DOHamiltonianEntries(a00=0.0, a0=[1.0], v0=[0.5])
    h = lzi.do_sweep(entries)(0.0).real
    assert np.array_equal(h, [[0.0, 0.5], [0.5, 1.0]])


def test_hamiltonian_exactly_symmetric():
    entries = lzi.DOHamiltonianEntries(a00=0.3, a0=[1.0, -2.0, 0.4], v0=[0.5, 0.7, -0.2])
    h = lzi.do_sweep(entries)(1.7).real
    assert lzi.max_abs(h - h.T) == 0.0


def test_hamiltonian_trace():
    entries = lzi.DOHamiltonianEntries(a00=0.3, a0=[1.0, -2.0], v0=[0.5, 0.7])
    t = 2.2
    assert abs(np.trace(lzi.do_sweep(entries)(t).real) - (t + 0.3 + 1.0 - 2.0)) < 1e-15


def test_entries_from_gamma_reference_point():
    p = lzi.DOParams(gamma=[1.0, 1.0], epsilon=[0.0, 1.0])
    e = lzi.entries_from_gamma(p)
    assert e.v0[0] == -1.0
    assert e.a0[0] == 1.0
    assert e.a00 == 1.0


def test_entries_consistency_identity():
    rng = np.random.default_rng(2)
    for n in (1, 2, 4):
        e = lzi.entries_from_gamma(_random_params(rng, n))
        assert e.consistency_defect() < 1e-14


@settings(max_examples=50, deadline=None)
@given(
    g0=st.floats(0.2, 1.5),
    gi=st.floats(-1.5, 1.5).filter(lambda x: abs(x) > 0.05),
    e1=st.floats(0.2, 3.0),
)
def test_coupling_sign_identity(g0, gi, e1):
    # v0_i * a0_i < 0 exactly when gamma_0 gamma_i > 0
    p = lzi.DOParams(gamma=[g0, gi], epsilon=[0.0, e1])
    e = lzi.entries_from_gamma(p)
    assert (e.v0[0] * e.a0[0] < 0) == (g0 * gi > 0)
    assert abs(e.v0[0] / e.a0[0] + gi / g0) < 1e-12


def test_gauge_invariance_under_epsilon_shift():
    rng = np.random.default_rng(4)
    p = _random_params(rng, 3)
    shifted = lzi.DOParams(gamma=p.gamma, epsilon=p.epsilon + 2.31)
    e0 = lzi.entries_from_gamma(p)
    e1 = lzi.entries_from_gamma(shifted)
    assert abs(e0.a00 - e1.a00) < 1e-12
    assert lzi.max_abs(e0.a0 - e1.a0) < 1e-12
    assert lzi.max_abs(e0.v0 - e1.v0) < 1e-12


def test_roundtrip_entries_to_gamma():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        a00 = float(rng.uniform(-2, 2))
        a0 = rng.uniform(-3, 3, n)
        while n >= 2 and np.min(np.abs(a0[:, None] - a0[None, :])[~np.eye(n, dtype=bool)]) < 0.05:
            a0 = rng.uniform(-3, 3, n)
        v0 = rng.uniform(0.2, 1.5, n) * rng.choice([-1.0, 1.0], n)
        entries = lzi.DOHamiltonianEntries(a00=a00, a0=a0, v0=v0)
        params, shift = lzi.gamma_from_entries(entries)
        rebuilt = lzi.entries_from_gamma(params)
        scale = max(1.0, abs(a00 + shift), float(np.abs(a0 + shift).max()))
        assert abs(rebuilt.a00 - (a00 + shift)) / scale < 1e-9
        assert lzi.max_abs(rebuilt.a0 - (a0 + shift)) / scale < 1e-9
        assert lzi.max_abs(rebuilt.v0 - v0) / scale < 1e-9


def test_consistent_entries_need_no_shift():
    p = lzi.DOParams(gamma=[1.0, 0.8, 0.5], epsilon=[0.0, 1.0, 2.0])
    entries = lzi.entries_from_gamma(p)
    _, shift = lzi.gamma_from_entries(entries)
    assert abs(shift) < 1e-12


def test_shift_matches_quadratic_formula_for_single_flat_level():
    # oracle: (a00 + a)(a01 + a) = v01^2 solved in radicals
    a00, a01, v01 = 0.4, 1.3, 0.9
    b = a00 + a01
    c = a00 * a01 - v01**2
    disc = np.sqrt(b * b - 4 * c)
    expected = min(((-b + disc) / 2, (-b - disc) / 2), key=abs)
    entries = lzi.DOHamiltonianEntries(a00=a00, a0=[a01], v0=[v01])
    _, shift = lzi.gamma_from_entries(entries)
    assert abs(shift - expected) < 1e-10


def test_shift_is_the_smallest_consistent_root_of_the_characteristic_polynomial():
    # oracle: the consistency relation is det(A + a I) = 0 for the t = 0 arrowhead A,
    # so a is minus a real root of A's characteristic polynomial
    rng = np.random.default_rng(1414)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        a00 = float(rng.uniform(-2, 2))
        a0 = rng.uniform(-3, 3, n)
        while n >= 2 and np.min(np.abs(a0[:, None] - a0[None, :])[~np.eye(n, dtype=bool)]) < 0.05:
            a0 = rng.uniform(-3, 3, n)
        v0 = rng.uniform(0.2, 1.5, n) * rng.choice([-1.0, 1.0], n)
        entries = lzi.DOHamiltonianEntries(a00=a00, a0=a0, v0=v0)
        _, shift = lzi.gamma_from_entries(entries)
        scale = max(1.0, abs(a00), float(np.abs(a0).max()))
        shifted = lzi.DOHamiltonianEntries(a00=a00 + shift, a0=a0 + shift, v0=v0)
        assert shifted.consistency_defect() <= 1e-12 * scale
        roots = np.roots(np.poly(lzi.do_sweep(entries)(0.0).real))
        real = roots[np.abs(roots.imag) < 1e-8 * scale].real
        assert abs(shift + real[np.argmin(np.abs(real))]) <= 1e-9 * scale


def test_shift_stays_consistent_where_a_shifted_flat_level_lands_near_zero():
    # a0 + shift = -0.03 makes the relation's slope ~2e3, so the eigenvalue alone
    # (rounded at ~1e-16) would leave a defect of ~2e-12
    entries = lzi.DOHamiltonianEntries(a00=0.841, a0=[-0.937, -0.863], v0=[1.373, -1.201])
    _, shift = lzi.gamma_from_entries(entries)
    shifted = lzi.DOHamiltonianEntries(a00=0.841 + shift, a0=entries.a0 + shift, v0=entries.v0)
    assert np.abs(shifted.a0).min() < 0.05
    assert shifted.consistency_defect() <= 1e-12


def test_shift_search_window_can_exclude_all_roots():
    # the candidate shifts, minus the eigenvalues of H(0), lie near -2e6 and -3e6
    entries = lzi.DOHamiltonianEntries(a00=2e6, a0=[3e6], v0=[1.0])
    with pytest.raises(NoRealShiftError):
        lzi.gamma_from_entries(entries)


# ---------------------------------------------------------------------------
# spectral roots and eigenpairs


def test_roots_reference_zero_time():
    p = lzi.DOParams(gamma=[1.0, 1.0], epsilon=[0.0, 1.0])
    roots = lzi.spectral_roots(p, 0.0)
    assert abs(roots[0] - 0.5) < 1e-14  # 1/x + 1/(x-1) = 0
    assert np.isinf(roots[1])


def test_roots_reference_quadratic():
    p = lzi.DOParams(gamma=[1.0, 1.0], epsilon=[0.0, 1.0])
    roots = lzi.spectral_roots(p, 2.0)
    expected = np.sort(np.roots([2.0, -4.0, 1.0]))  # oracle: 2x^2 - 4x + 1 = 0
    assert np.allclose(roots, expected, atol=1e-12)


def test_roots_vieta_identity():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        p = _random_params(rng, n)
        t = float(rng.uniform(0.5, 5.0)) * float(rng.choice([-1.0, 1.0]))
        roots = lzi.spectral_roots(p, t)
        expected = p.epsilon.sum() + (p.gamma**2).sum() / t
        assert abs(roots.sum() - expected) < 1e-9 * max(1.0, abs(expected))


def test_roots_interlace():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        p = _random_params(rng, n)
        for t in (-10.0, -1.0, 0.1, 1.0, 10.0):
            roots = lzi.spectral_roots(p, t)
            eps = np.sort(p.epsilon)
            finite = roots[np.isfinite(roots)]
            for i in range(n):
                assert np.sum((finite > eps[i]) & (finite < eps[i + 1])) == 1
            outside = finite[(finite < eps[0]) | (finite > eps[-1])]
            assert outside.size == 1
            assert (outside[0] > eps[-1]) == (t > 0)


def test_eigenpair_against_dense_solver_two_levels():
    p = lzi.DOParams(gamma=[1.0, 1.0], epsilon=[0.0, 1.0])
    entries = lzi.entries_from_gamma(p)
    for t in (-3.0, 0.5, 2.0):
        h = lzi.do_sweep(entries)(t).real
        oracle = np.sort(np.linalg.eigvalsh(h))
        ours = np.sort(lzi.eigenpairs(p, t)[0])
        assert np.allclose(ours, oracle, atol=1e-12)


def test_eigenpair_residuals_bulk():
    rng = np.random.default_rng(21)
    p = lzi.DOParams(
        gamma=rng.uniform(0.2, 1.0, 6), epsilon=np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    )
    entries = lzi.entries_from_gamma(p)
    for t in (-10.0, -1.0, 0.1, 1.0, 10.0):
        h = lzi.do_sweep(entries)(t).real
        energies, vecs = lzi.eigenpairs(p, t)
        assert np.linalg.norm(h @ vecs - vecs * energies, axis=0).max() < 1e-10


def test_eigenvectors_orthogonal_across_branches():
    rng = np.random.default_rng(31)
    p = _random_params(rng, 4)
    t = 1.3
    vecs = lzi.eigenpairs(p, t)[1]
    assert np.abs(vecs.T @ vecs - np.eye(5)).max() < 1e-10


def test_exterior_branch_at_zero_time_is_exact_null_vector():
    p = lzi.DOParams(gamma=[1.0, 0.7, 0.4], epsilon=[0.0, 1.0, 2.0])
    energies, vecs = lzi.eigenpairs(p, 0.0)
    energy, vec = energies[2], vecs[:, 2]
    h = lzi.do_sweep(lzi.entries_from_gamma(p))(0.0).real
    assert energy == 0.0
    assert np.linalg.norm(h @ vec) < 1e-14
    assert np.allclose(vec, p.gamma / np.linalg.norm(p.gamma), atol=0)


def test_decoupled_level_hosts_frozen_root():
    p = lzi.DOParams(gamma=[1.0, 0.0, 0.4], epsilon=[0.0, 1.0, 2.0])
    assert p.decoupled_levels == (1,)
    roots = lzi.spectral_roots(p, 0.7)
    assert np.any(roots == 1.0)
    branch = int(np.argmax(roots == 1.0))
    energies, vecs = lzi.eigenpairs(p, 0.7)
    assert np.array_equal(vecs[:, branch], [0.0, 1.0, 0.0])
    assert abs(energies[branch] - 1.0) < 1e-15  # gamma_0^2/(eps_1 - eps_0) = 1


def test_eigenpairs_reject_a_root_on_a_coupled_pole(monkeypatch):
    p = lzi.DOParams(gamma=[1.0, 0.7, 0.4], epsilon=[0.0, 1.0, 2.0])
    monkeypatch.setattr(do, "spectral_roots", lambda params, t: np.array([-0.5, 1.0 + 1e-12, 1.5]))
    with pytest.raises(DegenerateSpectralError, match="eps_1"):
        lzi.eigenpairs(p, 0.7)


def test_gamma0_zero_rejected():
    with pytest.raises(DegenerateSpectralError):
        lzi.DOParams(gamma=[0.0, 1.0], epsilon=[0.0, 1.0])


def test_coincident_epsilon_rejected():
    with pytest.raises(DegenerateSpectralError):
        lzi.DOParams(gamma=[1.0, 1.0], epsilon=[1.0, 1.0])


# ---------------------------------------------------------------------------
# bow-tie sweep


def test_bow_tie_degenerate_slopes():
    base = lzi.entries_from_gamma(lzi.DOParams(gamma=[1.0, 0.5, 0.7], epsilon=[0.0, 1.0, 2.0]))
    sweep = lzi.bow_tie_sweep([-1.0, -1.0], base)
    # r = -1 leaves both flat levels unsloped at 0: coincident at every time
    assert np.array_equal(np.diag(sweep(3.0).real)[1:], [0.0, 0.0])
    assert np.array_equal(np.diag(sweep.d.real)[1:], [0.0, 0.0])


def test_bow_tie_common_slope():
    base = lzi.entries_from_gamma(lzi.DOParams(gamma=[1.0, 0.5, 0.7], epsilon=[0.0, 1.0, 2.0]))
    sweep = lzi.bow_tie_sweep([0.0, 0.0], base)
    assert np.array_equal(np.diag(sweep(2.5).real)[1:], [2.5, 2.5])


def test_bow_tie_structural_equality_at_unit_time():
    base = lzi.entries_from_gamma(lzi.DOParams(gamma=[1.0, 0.5, 0.7], epsilon=[0.0, 1.0, 2.0]))
    r = np.array([0.3, -0.4])
    h = lzi.bow_tie_sweep(r, base)(1.0).real
    assert h[0, 0] == 1.0 + base.a00
    assert np.array_equal(h[0, 1:], base.v0) and np.array_equal(h[1:, 0], base.v0)
    assert np.array_equal(np.diag(h)[1:], r + 1.0)


def test_bow_tie_sweep_matches_entries():
    base = lzi.entries_from_gamma(lzi.DOParams(gamma=[1.0, 0.5, 0.7], epsilon=[0.0, 1.0, 2.0]))
    r = np.array([0.3, -0.4])
    sweep = lzi.bow_tie_sweep(r, base)
    for t in (-2.0, 0.0, 1.7):
        entries = lzi.DOHamiltonianEntries(a00=base.a00, a0=(r + 1.0) * t, v0=base.v0)
        assert lzi.max_abs(sweep(t).real - lzi.do_sweep(entries)(t).real) < 1e-14


# ---------------------------------------------------------------------------
# exact transition table


def _table_models(count=20):
    """Seeded DO models, n = 1..5: gamma_0 = 1, epsilon_0 = 0, |epsilon_k| in
    [1, 3] at least 0.5 apart (flat levels on both sides of zero), |gamma_k| in
    [0.3, 0.6], and every fourth model with one decoupled level."""
    rng = np.random.default_rng(2024)
    models = []
    for m in range(count):
        n = 1 + m % 5
        eps = [0.0]
        while len(eps) < n + 1:
            cand = rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 3.0)
            if all(abs(cand - e) >= 0.5 for e in eps):
                eps.append(cand)
        gamma = np.concatenate([[1.0], rng.choice([-1.0, 1.0], n) * rng.uniform(0.3, 0.6, n)])
        if m % 4 == 3:
            gamma[rng.integers(1, n + 1)] = 0.0
        models.append(lzi.DOParams(gamma=gamma, epsilon=eps))
    return models


def _first_order_horizon_bound(a, slopes, reach):
    """Bound on |P_fi(reach) - P_fi(inf)|, first order in the couplings.

    In the interaction picture level k gains from partner j beyond time
    `reach` the amplitude int A_kj exp(i phi) c_j dt, where the pair's phase
    turns at |phi'| >= |D_kk - D_jj| reach - |A_kk - A_jj| and c_j turns at
    no more than s, the largest off-diagonal row sum of |A|; so, as in one
    integration by parts, the tail amplitude is at most
    eps_kj = |A_kj| / (|D_kk - D_jj| reach - |A_kk - A_jj| - s).
    U(inf) = W+ U(reach) W- with tails W+-; to first order (W+ - I)_fj is
    bounded by eps_fj and (W- - I)_ji by eps_ji, and the rows and columns of
    U have unit norm, so |dU_fi| <= e_f + e_i with e_k = sum_j eps_kj, and
    |dP_fi| <= 2 (e_f + e_i) + (e_f + e_i)^2.
    """
    off = np.abs(a - np.diag(np.diag(a)))
    s = off.sum(axis=1).max()
    diag = np.diag(a)
    rate = np.abs(slopes[:, None] - slopes[None, :]) * reach
    rate -= np.abs(diag[:, None] - diag[None, :]) + s
    coupled = off > 0.0
    assert np.all(rate[coupled] > 0.0), "reach inside a crossing region"
    e = np.where(coupled, off / np.where(coupled, rate, 1.0), 0.0).sum(axis=1)
    eps = e[:, None] + e[None, :]
    return 2.0 * eps + eps**2


def test_transition_table_columns_and_rows_sum_to_one():
    for params in _table_models():
        table = do.transition_table(lzi.entries_from_gamma(params))
        assert np.all(table >= 0.0)
        assert np.abs(table.sum(axis=0) - 1.0).max() < 1e-14
        assert np.abs(table.sum(axis=1) - 1.0).max() < 1e-14


def test_transition_table_two_levels_is_landau_zener():
    entries = lzi.DOHamiltonianEntries(a00=0.3, a0=[-0.7], v0=[0.4])
    p = np.exp(-2.0 * np.pi * 0.16)
    expected = [[p, 1.0 - p], [1.0 - p, p]]
    assert np.abs(do.transition_table(entries) - expected).max() < 1e-15


def test_transition_table_rejects_coincident_flat_levels():
    with pytest.raises(ValueError):
        do.transition_table(lzi.DOHamiltonianEntries(a00=0.0, a0=[0.5, 0.5], v0=[0.3, 0.4]))


def test_transition_table_matches_the_oracle_on_every_entry():
    # every (n+1)^2 entry of the propagated table at 2T = 100 against the
    # exact one, within the first-order horizon bound of that entry plus 1e-6
    # for the integrator (its tables sit within 4e-8 of DOP853 at theta 0.25)
    horizon = 50.0
    spec = lzi.PropagationSpec(theta=0.25, verify=False)
    models = _table_models()
    negative = decoupled = 0
    for params in models:
        entries = lzi.entries_from_gamma(params)
        negative += bool(np.any(entries.a0 < 0.0))
        decoupled += bool(params.decoupled_levels)
        sweep = lzi.do_sweep(entries)
        oracle = lzi.transition_matrix(sweep, horizon, spec).matrix_at_2T
        bound = _first_order_horizon_bound(sweep.a.real, np.diag(sweep.d.real), 2.0 * horizon)
        bound += 1e-6
        assert np.all(np.abs(oracle - do.transition_table(entries)) <= bound), params
        for k in params.decoupled_levels:  # a block of one level: an exact phase
            assert np.array_equal(oracle[:, k], np.eye(params.n + 1)[k]), params
    assert {p.n for p in models} == {1, 2, 3, 4, 5}
    assert negative >= 5 and decoupled >= 5


# ---------------------------------------------------------------------------
# spectral flow


def test_flow_matches_quadratic_roots():
    p = lzi.DOParams(gamma=[1.0, 1.0], epsilon=[0.0, 1.0])
    grid = np.linspace(0.5, 4.0, 30)
    flow = lzi.track_spectral_flow(p, grid)
    for k, t in enumerate(grid):
        expected = np.sort(np.roots([t, -(t + 2.0), 1.0]))  # t x^2 - (t+2) x + 1 = 0
        assert np.allclose(np.sort(flow.branches[k]), expected, atol=1e-12)


def test_flow_branches_monotone_and_noncrossing():
    rng = np.random.default_rng(41)
    p = _random_params(rng, 3)
    grid = np.linspace(-8.0, 8.0, 161)
    flow = lzi.track_spectral_flow(p, grid)
    for m, label in enumerate(flow.labels):
        vals = flow.branches[:, m]
        if label == "exterior":
            # monotone within each sign of t; jumps through infinity at t = 0
            for region in (grid < 0, grid > 0):
                seg = vals[region]
                assert np.all(np.diff(seg[np.isfinite(seg)]) < 1e-9)
        else:
            assert np.all(np.diff(vals) < 1e-9)
    for k in range(grid.size):
        finite = flow.branches[k][np.isfinite(flow.branches[k])]
        assert np.unique(finite).size == finite.size


def test_flow_asymptotics():
    p = lzi.DOParams(gamma=[0.9, 0.5, 0.7], epsilon=[0.0, 1.0, 2.0])
    t = 2000.0
    flow = lzi.track_spectral_flow(p, np.array([t / 2, t]))
    roots = flow.branches[-1]
    # each branch approaches its pole from above like eps + gamma^2/t
    spread = float(p.epsilon.max() - p.epsilon.min())
    for eps_k, g_k in zip(p.epsilon, p.gamma):
        nearest = roots[np.argmin(np.abs(roots - eps_k))]
        assert abs(nearest - eps_k - g_k**2 / t) < 10.0 * g_k**2 * spread / t**2
    # the ascending branch above eps_0 carries the diverging energy ~ t
    energies = flow.energies[-1]
    assert energies.max() > 0.9 * t


def test_flow_labels_and_initial_order():
    p = lzi.DOParams(gamma=[1.0, 1.0], epsilon=[0.0, 1.0])
    flow = lzi.track_spectral_flow(p, np.linspace(-3.0, 3.0, 25))
    assert flow.labels[0] == "exterior"  # leftmost at negative initial time
    assert flow.branches[0, 0] < flow.branches[0, 1]


def test_flow_crosses_zero_time():
    p = lzi.DOParams(gamma=[1.0, 0.6], epsilon=[0.0, 1.0])
    grid = np.array([-0.5, -0.1, 0.1, 0.5])
    flow = lzi.track_spectral_flow(p, grid)
    exterior = flow.branches[:, list(flow.labels).index("exterior")]
    assert exterior[0] < 0.0 and exterior[1] < exterior[0]
    assert exterior[2] > 1.0 and exterior[3] < exterior[2]


def test_flow_requires_monotone_grid():
    p = lzi.DOParams(gamma=[1.0, 1.0], epsilon=[0.0, 1.0])
    with pytest.raises(ValueError):
        lzi.track_spectral_flow(p, [0.0, 0.0, 1.0])


def test_flow_keeps_labels_where_a_live_root_crosses_a_decoupled_pole():
    # level 1 decouples at eps = 1, inside the coupled interval (0, 2); the
    # interval root falls from near 2 to near 0 and passes 1 at t = 0.36
    p = lzi.DOParams(gamma=[1.0, 0.0, 0.8], epsilon=[0.0, 1.0, 2.0])
    grid = np.linspace(-4.0, 4.0, 41)
    flow = lzi.track_spectral_flow(p, grid)
    assert flow.labels == ("exterior", "frozen:1", "interval:0")
    assert np.all(flow.branches[:, 1] == 1.0)
    interval = flow.branches[:, 2]
    assert interval[0] > 1.0 > interval[-1]
    for t, x in zip(grid, interval):
        # oracle: t = 1/x + 0.64/(x - 2), i.e. t x^2 - (2t + 1.64) x + 2 = 0, root in (0, 2)
        roots = np.roots([t, -(2.0 * t + 1.64), 2.0])  # one root at t = 0, where t drops out
        expected = roots[(roots.real > 0.0) & (roots.real < 2.0)].real
        assert expected.size == 1 and abs(x - expected[0]) < 1e-12
    exterior = flow.branches[:, 0]
    assert np.all(exterior[grid < 0] < 0.0) and np.all(exterior[grid >= 0] > 2.0)


def test_flow_of_a_model_whose_every_flat_level_decouples():
    # only the sloped level is live: x = eps_0 + gamma_0^2 / t, energy t (0 at t = 0)
    p = lzi.DOParams(gamma=[1.0, 0.0, 0.0], epsilon=[0.0, 1.0, -2.0])
    grid = np.array([-1.0, 0.0, 0.5])
    flow = lzi.track_spectral_flow(p, grid)
    assert flow.labels == ("frozen:-2", "exterior", "frozen:1")
    assert np.array_equal(flow.branches[:, 1], [-1.0, np.inf, 2.0])
    assert np.array_equal(flow.energies[:, 1], grid)
    assert np.all(flow.branches[:, [0, 2]] == [-2.0, 1.0])


@pytest.mark.parametrize(
    "bad_t, bad_roots",
    [
        (0.5, [0.2, 0.6, 2.5]),  # two roots in interval 0, none in interval 1
        (0.5, [-0.5, 0.5, 1.5]),  # exterior root below the hull at t > 0
        (-1.0, [0.5, 1.5, 2.5]),  # exterior root above the hull at t < 0
        (0.5, [0.5, 1.5, 1.7]),  # exterior root inside the hull
        (0.5, [0.5, 1.0 + 1e-13, 2.5]),  # a live root on a coupled pole
    ],
)
def test_flow_raises_naming_the_time_where_interlacing_breaks(monkeypatch, bad_t, bad_roots):
    p = lzi.DOParams(gamma=[1.0, 1.0, 1.0], epsilon=[0.0, 1.0, 2.0])
    exact = do.spectral_roots

    def roots(params, t):
        return np.array(bad_roots) if t == bad_t else exact(params, t)

    monkeypatch.setattr(do, "spectral_roots", roots)
    with pytest.raises(NumericalError, match=rf"t={bad_t!r} "):
        lzi.track_spectral_flow(p, [-1.0, 0.5, 2.0])
