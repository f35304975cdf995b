import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

import lzi
import reference_engines
from lzi.errors import NumericalError
from lzi import propagator
from lzi.propagator import (
    _evolve_on_grid,
    _expm_i_batch,
    _magnus4_blocks,
    _mul,
    _operator_on_grid,
    _pairwise_product,
    _pieces,
    _time_grid,
)


def _lz_sweep(coupling=0.4):
    a = np.array([[0.0, coupling], [coupling, 0.0]])
    d = np.diag([1.0, 0.0])
    return lzi.AffineHamiltonian(a, d)


def _do3_sweep():
    params = lzi.DOParams(gamma=[1.0, 0.5, 0.4, 0.3], epsilon=[0.0, 1.0, -2.0, 3.0])
    return lzi.do_sweep(lzi.entries_from_gamma(params))


def _bow_tie2_sweep():
    params = lzi.DOParams(gamma=[1.0, 0.5, -0.4], epsilon=[0.0, 1.5, -1.0])
    return lzi.bow_tie_sweep([-0.4, 0.6], lzi.entries_from_gamma(params))


def _diag_spread(h, t):
    diag = np.real(np.diag(h(t)))
    return diag.max() - diag.min()


def _marching_grid(rate, t0, t1, spec):
    """Reference grid: one step at a time, each sized by its left end."""
    ts = [t0]
    while ts[-1] < t1:
        step = min(spec.base_step, spec.theta / (1.0 + rate(ts[-1])))
        ts.append(min(ts[-1] + step, t1))
    return np.asarray(ts)


def _dipping_rate(ts):
    # the largest entry of [[t^2 sin t, 0.3], [0.3, cos 7t]]: |sin t| t^2 dips
    # to zero in V shapes a few steps wide, which sampling the step density
    # misses; the grid must then cut steps, at a cost in step count that only
    # the budget bounds.  The affine cases below keep their budgets without
    # that cutting pass; this one does not.
    ts = np.asarray(ts, dtype=float)
    return np.maximum(np.maximum(np.abs(np.sin(ts) * ts**2), 0.3), np.abs(np.cos(7.0 * ts)))


DO3, BOW_TIE2 = _do3_sweep(), _bow_tie2_sweep()
# frame, rate of its step sizing, window half-width, theta, allowed relative
# step-count excess over marching; the diagonal spreads of DO n=3 and
# bow-tie n=2 have several kinks; the grid reads only a frame's rate, so
# "callable-dips" is an object with nothing but that rate
GRID_CASES = {
    "do-3": (lzi.InteractionPicture(DO3), lambda t: _diag_spread(DO3, t), 30.0, 0.25, 0.01),
    "bow-tie-2": (
        lzi.InteractionPicture(BOW_TIE2), lambda t: _diag_spread(BOW_TIE2, t), 30.0, 0.25, 0.01
    ),
    "do-3-lab": (DO3, lambda t: np.abs(DO3(t)).max(), 10.0, 0.1, 0.01),
    "callable-dips": (SimpleNamespace(resolution_rate=_dipping_rate), _dipping_rate, 7.3, 0.1, 1.0),
}


def _hermitian_stack(rng, dim, norms):
    """Levels-first (dim, dim, len(norms)) stack of random Hermitian matrices
    with the given 1-norms."""
    shape = (len(norms), dim, dim)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    h = z + np.conj(np.swapaxes(z, 1, 2))
    h *= (np.asarray(norms) / np.abs(h).sum(axis=1).max(axis=1))[:, None, None]
    return np.moveaxis(h, 0, -1)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
@pytest.mark.parametrize("norm", [1e-6, 1e-3, 0.1, 0.5, 0.51, 2.0, 60.0])
def test_taylor_exponential_matches_scipy_expm(dim, norm):
    # 1-norms on both sides of the scaling threshold 1/2; each stack also holds
    # smaller matrices, which share the degree chosen for the largest
    rng = np.random.default_rng(1000 * dim + int(norm * 100))
    x = _hermitian_stack(rng, dim, norm * np.array([1.0, 0.9, 0.3, 1e-2, 1e-5]))
    got = _expm_i_batch(x)
    for k in range(x.shape[-1]):
        u = got[..., k]
        assert np.abs(u - expm(1j * x[..., k])).max() <= 1e-13 * max(1.0, norm)
        assert np.abs(u @ u.conj().T - np.eye(dim)).max() <= 1e-13


@pytest.mark.parametrize("count", [0, 2])
def test_taylor_exponential_of_empty_stack_and_zero_matrix(count):
    x = np.zeros((3, 3, count), dtype=complex)
    ref = np.moveaxis(expm(1j * np.moveaxis(x, -1, 0)), 0, -1)
    got = _expm_i_batch(x)
    assert got.shape == ref.shape == (3, 3, count)
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("length", [1, 2, 3, 7, 64, 216, 217, 218, 511, 512, 513, 2047, 2048])
def test_pairwise_product_matches_sequential_left_multiplication(length):
    # at three levels a product level takes matmul from 4 * 3^3 = 108 products
    # (217 factors) down; eight levels are held steps first, as `_stack` holds them
    rng = np.random.default_rng(length)
    for dim in (3, 8):
        mats = _expm_i_batch(_hermitian_stack(rng, dim, rng.uniform(0.1, 3.0, length)))
        if dim >= propagator._MATMUL_LEVELS:
            mats = np.ascontiguousarray(mats.transpose(2, 0, 1)).transpose(1, 2, 0)
        sequential = np.eye(dim, dtype=complex)
        for k in range(length):
            sequential = mats[..., k] @ sequential
        assert np.abs(_pairwise_product(mats) - sequential).max() < 1e-13


def _offset_pair_sweep():
    """A 2-level sweep with a complex coupling and diagonal offsets."""
    a = np.array([[0.3, 0.4 - 0.2j], [0.4 + 0.2j, -0.5]])
    return lzi.AffineHamiltonian(a, np.diag([1.0, -0.5]))


@pytest.mark.parametrize("method", ["magnus4-fixed", "cf4-fixed", "rk4-fixed", "magnus2-fixed"])
def test_operator_on_grid_is_the_same_across_chunk_boundaries(method, monkeypatch):
    # with _MATMUL_SHORT at 0 every product level takes the row loop; at its
    # default, every level of these short products takes matmul; the 2-level
    # sweep takes the SU(2) kernel under magnus4-fixed
    ts = np.linspace(-3.0, 3.0, 61)
    batch = propagator._BATCH_STEPS
    for sweep in (_do3_sweep(), _offset_pair_sweep()):
        frame = lzi.InteractionPicture(sweep)
        for matmul_short in (0, propagator._MATMUL_SHORT):
            monkeypatch.setattr(propagator, "_MATMUL_SHORT", matmul_short)
            monkeypatch.setattr(propagator, "_BATCH_STEPS", batch)
            whole = reference_engines.operator_on_grid(frame, ts, method)
            monkeypatch.setattr(propagator, "_BATCH_STEPS", 7)  # 7 steps per block
            assert np.abs(reference_engines.operator_on_grid(frame, ts, method) - whole).max() < 1e-14


def _random_pair_sweep(seed):
    """Seeded 2-level sweep: complex coupling and diagonal offsets in A, equal
    slopes on odd seeds, a complex coupling in D on every third seed."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    slopes = rng.uniform(-2.0, 2.0, 2)
    if seed % 2:
        slopes[1] = slopes[0]
    d = np.diag(slopes).astype(complex)
    if seed % 3 == 0:
        d[0, 1] = 0.2 * (rng.normal() + 1j * rng.normal())
        d[1, 0] = np.conj(d[0, 1])
    return lzi.AffineHamiltonian(0.5 * (z + z.conj().T), d), rng


def _taylor_magnus4(h, ts):
    """The generic Magnus-4 path on the same batches: Taylor exponentials and
    the stacked pairwise product."""
    u = np.eye(2, dtype=complex)
    n = ts.size - 1
    for lo in range(0, n, propagator._BATCH_STEPS):
        hi = min(lo + propagator._BATCH_STEPS, n)
        u = _pairwise_product(_magnus4_blocks(h, ts[lo:hi], ts[lo + 1 : hi + 1])) @ u
    return u


def test_su2_kernel_matches_the_taylor_magnus4_path():
    # 24 sweeps in both frames over windows up to +-200, 2000-12000 steps.
    # The worst entry difference measured is 2.2e-12, in the lab frame at
    # +-200, where a batch's summed scalar phase reaches ~1e4 rad and rounds
    # differently on the two paths; the bound leaves a margin of 4.6.  The SU(2) product
    # is renormalised per batch, so it stays unitary to roundoff (worst 1.6e-15).
    for seed in range(24):
        sweep, rng = _random_pair_sweep(seed)
        half = (5.0, 50.0, 200.0)[seed % 3]
        ts = np.linspace(-half, rng.uniform(0.5, 1.0) * half, rng.integers(2000, 12000))
        for frame in (sweep, lzi.InteractionPicture(sweep)):
            u = _operator_on_grid(frame, ts)
            assert np.abs(u - _taylor_magnus4(frame, ts)).max() < 1e-11, (seed, type(frame).__name__)
            assert lzi.max_abs(u @ u.conj().T - np.eye(2)) <= 1e-13


@pytest.mark.parametrize("model", ["lz", "bow-tie-2"], ids=["lz-magnus4-fixed", "bow-tie-2-magnus4-fixed"])
def test_only_two_level_magnus4_skips_the_taylor_path(model, monkeypatch):
    calls = set()
    for name in ("_expm_i_batch", "_pairwise_product"):
        real = getattr(propagator, name)
        monkeypatch.setattr(
            propagator, name, lambda *args, real=real, name=name: calls.add(name) or real(*args)
        )
    sweep = {"lz": _offset_pair_sweep(), "bow-tie-2": BOW_TIE2}[model]
    spec = lzi.PropagationSpec(verify=False)
    for frame in (sweep, lzi.InteractionPicture(sweep)):
        lzi.evolve_operator(frame, -2.0, 2.0, spec)
    assert calls == (set() if model == "lz" else {"_pairwise_product", "_expm_i_batch"})


def _einsum_product(a, b):
    return np.einsum("ikn,kjn->ijn", a, b)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 8])
@pytest.mark.parametrize("matmul_levels", [5, 9])
def test_stacked_product_matches_per_step_product(dim, matmul_levels, monkeypatch):
    # with the threshold at 9 every size takes the d^3 row loop; at 5, the
    # 5 and 8 level stacks take matmul on the steps-first view (the default
    # threshold lies between, so both of its paths are covered)
    monkeypatch.setattr(propagator, "_MATMUL_LEVELS", matmul_levels)
    rng = np.random.default_rng(dim)
    x = _hermitian_stack(rng, dim, rng.uniform(0.1, 3.0, 33))
    y = rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
    assert np.abs(_mul(x, y) - _einsum_product(x, y)).max() < 1e-14 * dim


def test_eight_level_operator_is_the_same_on_either_layout(monkeypatch):
    params = lzi.DOParams(
        gamma=[1.0, 0.5, -0.4, 0.3, 0.45, -0.35, 0.55, 0.4],
        epsilon=[0.0, 1.0, -2.0, 3.0, -1.5, 2.5, -3.0, 1.8],
    )
    frame = lzi.InteractionPicture(lzi.do_sweep(lzi.entries_from_gamma(params)))
    ts = np.linspace(-3.0, 3.0, 61)
    steps_first = _operator_on_grid(frame, ts)
    monkeypatch.setattr(propagator, "_MATMUL_LEVELS", 9)
    monkeypatch.setattr(propagator, "_MATMUL_SHORT", 0)  # the row loop on every product
    levels_first = _operator_on_grid(frame, ts)
    assert np.abs(steps_first - levels_first).max() < 1e-13


def test_zero_hamiltonian_is_identity():
    h = lzi.AffineHamiltonian(np.zeros((3, 3)), np.zeros((3, 3)))
    psi0 = np.array([0.2, 0.5 + 0.1j, -0.3])
    psi1 = lzi.evolve_operator(h, 0.0, 2.0, lzi.PropagationSpec(verify=True))[0] @ psi0
    assert np.abs(psi1 - psi0).max() < 1e-14


def test_sign_convention_against_matrix_exponential():
    # psi(t) = exp(+i H t) psi(0) for constant H
    sz = np.diag([1.0, -1.0])
    h = lzi.AffineHamiltonian(sz, np.zeros((2, 2)))
    psi0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
    t1 = 0.7
    psi1 = lzi.evolve_operator(h, 0.0, t1, lzi.PropagationSpec(rtol=1e-10, verify=True))[0] @ psi0
    ref = expm(1j * sz * t1) @ psi0
    assert np.abs(psi1 - ref).max() < 1e-12


def test_constant_sz_dephases_to_orthogonal_state_at_quarter_period():
    # exp(i sz t) rotates (1,1)/sqrt2 onto the orthogonal state at t = pi/2
    sz = np.diag([1.0, -1.0])
    h = lzi.AffineHamiltonian(sz, np.zeros((2, 2)))
    psi0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
    spec = lzi.PropagationSpec(rtol=1e-10, verify=True)
    psi1 = lzi.evolve_operator(h, 0.0, np.pi / 2, spec)[0] @ psi0
    assert abs(np.vdot(psi0, psi1)) ** 2 < 1e-20


def test_unitarity_of_evolved_operator():
    sweep = _lz_sweep()
    spec = lzi.PropagationSpec(rtol=1e-9, verify=True)
    u, _ = lzi.evolve_operator(sweep, -8.0, 8.0, spec)
    assert lzi.max_abs(u @ u.conj().T - np.eye(2)) < 1e-8


def test_norm_drift_over_a_million_steps():
    # each batch product is replaced by its polar factor: the unitarity defect
    # measures 1.7e-14 (magnus2) and 1.1e-14 (cf4), against 5.9e-11 and
    # 8.1e-11 for the raw products
    sweep = _lz_sweep()
    for method in ("magnus2-fixed", "cf4-fixed"):
        spec = lzi.PropagationSpec(base_step=1e-5, theta=1e9, verify=False)
        with reference_engines.engine(method):
            u, _ = lzi.evolve_operator(sweep, -5.0, 5.0, spec)
        psi = u @ np.array([1.0, 0.0])
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-8
        assert lzi.max_abs(u @ u.conj().T - np.eye(2)) < 1e-12, method


def test_taylor_path_unitarity_does_not_drift_on_four_levels():
    # 250k magnus4 steps on one 4-level block: 1.6e-14 with the polar factor
    # of each batch product, 2.6e-11 without
    spec = lzi.PropagationSpec(base_step=4e-5, theta=1e9, verify=False)
    u, _ = lzi.evolve_operator(DO3, -5.0, 5.0, spec)
    assert lzi.max_abs(u @ u.conj().T - np.eye(4)) < 1e-12


def test_magnus4_norm_drift_over_a_million_steps():
    # the 2-level SU(2) kernel over 489 batches, each product renormalised:
    # the unitarity defect measures 8.0e-14 here (5.9e-11 on the Taylor path)
    sweep = _lz_sweep()
    spec = lzi.PropagationSpec(base_step=1e-5, theta=1e9, verify=False)
    u, _ = lzi.evolve_operator(sweep, -5.0, 5.0, spec)
    psi = u @ np.array([1.0, 0.0])
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-8
    assert lzi.max_abs(u @ u.conj().T - np.eye(2)) < 1e-12


def test_interaction_picture_of_diagonal_hamiltonian_vanishes():
    h = lzi.AffineHamiltonian(np.diag([0.3, -0.2]), np.diag([1.0, 2.0]))
    ip = lzi.InteractionPicture(h)
    for t in (-3.0, 0.0, 1.7):
        assert lzi.max_abs(ip(t)) < 1e-15


def test_interaction_picture_preserves_offdiagonal_magnitude():
    sweep = _lz_sweep(coupling=0.4)
    ip = lzi.InteractionPicture(sweep)
    for t in (-5.0, 0.3, 4.0):
        mat = ip(t)
        assert abs(abs(mat[0, 1]) - 0.4) < 1e-13
        assert abs(mat[0, 0]) < 1e-15
    # phase of the coupling follows exp(-i t^2 / 2) up to constants
    t = 2.0
    expected_phase = np.exp(-1j * t**2 / 2.0)
    observed = ip(t)[0, 1] / 0.4
    assert abs(observed - expected_phase) < 1e-12


@pytest.mark.parametrize("dim", range(2, 9))
def test_pair_table_evaluation_matches_the_dense_frame(dim):
    # the frame fills only coupled pairs; the reference rotates the whole
    # off-diagonal part.  Either side rounds an angle Lambda to about
    # 1e-16 |Lambda| radians, so the bound is 1e-13 relative per radian.
    rng = np.random.default_rng(dim)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a = z + z.conj().T
    d = np.diag(rng.choice([-1.0, 0.0, 0.5, 2.0], dim)).astype(complex)  # degenerate slopes
    if dim > 2:
        a[0, -1] = a[-1, 0] = 0.0  # an uncoupled pair
        a[1, -1] = a[-1, 1] = 0.0  # coupled through D alone
        d[1, -1], d[-1, 1] = 0.3 - 0.2j, 0.3 + 0.2j
    ts = np.concatenate([rng.uniform(-400.0, 400.0, 40), [-400.0, 0.0, 400.0]])
    got = lzi.InteractionPicture(lzi.AffineHamiltonian(a, d)).eval_many(ts)
    lam = np.real(np.diag(a))[:, None] * ts + 0.5 * np.real(np.diag(d))[:, None] * ts**2
    h = a[:, :, None] + d[:, :, None] * ts
    h[np.arange(dim), np.arange(dim)] = 0.0
    dense = np.exp(-1j * lam)[:, None, :] * h * np.exp(1j * lam)[None, :, :]
    radians = 1.0 + np.abs(lam)[:, None, :] + np.abs(lam)[None, :, :]
    assert np.all(np.abs(got - dense) <= 1e-13 * np.abs(h) * radians)
    if dim > 2:
        assert not np.any(got[0, -1]) and not np.any(got[-1, 0])


def test_gauge_invariance_of_probabilities():
    sweep = _lz_sweep()
    spec = lzi.PropagationSpec(rtol=1e-10, base_step=0.002, theta=0.02, verify=True)
    lab, _ = lzi.evolve_operator(sweep, -6.0, 6.0, spec)
    rotated, _ = lzi.evolve_operator(lzi.InteractionPicture(sweep), -6.0, 6.0, spec)
    assert np.abs(np.abs(lab) ** 2 - np.abs(rotated) ** 2).max() < 1e-9


def test_frame_conversion_for_composite_states():
    # degenerate-slope levels carry different diagonal phases: a composite lab
    # state must be rotated into the interaction frame before propagating
    a = np.array([[0.09, 0.12, 0.15], [0.12, 0.16, 0.2], [0.15, 0.2, 0.0]])
    d = np.diag([1.0, 1.0, 0.0])
    sweep = lzi.AffineHamiltonian(a, d)
    ip = lzi.InteractionPicture(sweep)
    psi_lab = np.array([0.6, 0.8, 0.0], dtype=complex)
    t0, t1 = -9.0, 9.0
    spec = lzi.PropagationSpec(rtol=1e-9, theta=0.05, verify=True)
    u_lab, _ = lzi.evolve_operator(sweep, t0, t1, spec)
    u_ip, _ = lzi.evolve_operator(ip, t0, t1, spec)
    direct = u_lab @ psi_lab
    # back in the lab frame at t1: multiply by exp(+i Lambda(t1))
    to_lab = np.exp(1j * sweep.diag_phase_integral(np.array([t1]))[0])
    via_frame = to_lab * (u_ip @ ip.to_interaction(psi_lab, t0))
    assert np.abs(direct - via_frame).max() < 1e-8


def test_frame_trajectory_starts_from_the_lab_frame_state():
    # a composite spinor on the ado sloped pair, whose levels carry different
    # diagonal phases: the frame converts it at the first sample itself
    params = lzi.ADOParams(gamma=[0.3, 0.55, 0.4], a=[0.2])
    sweep = lzi.ado_sweep(params)
    psi0 = np.zeros(3, dtype=complex)
    psi0[:2] = lzi.closed_form_solution(params, 1).xi
    samples = np.linspace(-9.0, 6.0, 6)
    spec = lzi.PropagationSpec(rtol=1e-9, theta=0.05, verify=True)
    lab = lzi.population_trajectory(sweep, psi0, samples, spec)
    frame = lzi.population_trajectory(lzi.InteractionPicture(sweep), psi0, samples, spec)
    assert np.abs(np.abs(frame) ** 2 - np.abs(lab) ** 2).max() < 1e-8


def test_plain_callable_is_rejected_naming_affine_hamiltonian():
    sweep = _lz_sweep()
    spec = lzi.PropagationSpec(verify=True)
    calls = [
        lambda h: lzi.evolve_operator(h, -1.0, 1.0, spec),
        lambda h: lzi.population_trajectory(h, [1.0, 0.0], [-1.0, 1.0], spec),
        lambda h: lzi.transition_matrix(h, 1.0),
        lambda h: lzi.InteractionPicture(h),
        # a frame is not a lab-frame sweep either
        lambda h: lzi.InteractionPicture(lzi.InteractionPicture(sweep)),
        lambda h: lzi.transition_matrix(lzi.InteractionPicture(sweep), 1.0),
    ]
    messages = set()
    for call in calls:
        with pytest.raises(TypeError, match="AffineHamiltonian") as info:
            call(lambda t: sweep(t))
        messages.add(str(info.value).split(", got")[0])
    assert len(messages) == 1


@pytest.mark.parametrize(
    "method,order",
    [("magnus4-fixed", 4.0), ("cf4-fixed", 4.0), ("rk4-fixed", 4.0), ("magnus2-fixed", 2.0)],
)
def test_fixed_step_convergence_orders(method, order):
    sweep = _lz_sweep(coupling=0.5)
    window = (-4.0, 4.0)

    def run(n_steps):
        ts = np.linspace(window[0], window[1], n_steps + 1)
        return reference_engines.operator_on_grid(sweep, ts, method)

    ref = run(65536) if method != "rk4-fixed" else run(16384)
    errors = [lzi.max_abs(run(n) - ref) for n in (128, 256, 512)]
    eocs = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    for eoc in eocs:
        assert abs(eoc - order) < 0.1 * order


@pytest.mark.parametrize("case", sorted(GRID_CASES))
def test_vectorised_grid_keeps_left_end_budget_and_marching_count(case):
    frame, rate, half, theta, excess = GRID_CASES[case]
    spec = lzi.PropagationSpec(theta=theta, verify=True)
    edges = np.array([-2.0, -1.0, 1.0, 2.0]) * half
    ts = _time_grid(frame, spec, edges)
    assert ts[0] == edges[0] and ts[-1] == edges[-1] and {-half, half} <= set(ts)
    rates = np.array([rate(t) for t in ts[:-1]])
    assert np.all(np.diff(ts) <= np.minimum(spec.base_step, spec.theta / (1.0 + rates)))
    marching = _marching_grid(rate, edges[0], edges[-1], spec)
    assert abs(ts.size - marching.size) <= excess * marching.size


def test_step_budget_checked_before_building_the_grid():
    start = time.perf_counter()
    with pytest.raises(NumericalError):
        lzi.transition_matrix(_lz_sweep(), horizon=1e6)
    assert time.perf_counter() - start < 1.0


def test_transition_matrix_budget_counts_the_whole_run():
    spec = lzi.PropagationSpec(theta=0.25, verify=True)
    steps = _time_grid(lzi.InteractionPicture(_lz_sweep()), spec, np.array([-10.0, 10.0])).size
    with pytest.raises(NumericalError):
        lzi.transition_matrix(_lz_sweep(), 5.0, replace(spec, max_steps=steps - 10))
    lzi.transition_matrix(_lz_sweep(), 5.0, replace(spec, max_steps=steps + 10))


def test_shared_window_matches_direct_propagation_over_2T():
    horizon = 10.0
    sweep = _do3_sweep()
    result = lzi.transition_matrix(sweep, horizon)
    direct = lzi.PropagationSpec(verify=False)
    u, _ = lzi.evolve_operator(lzi.InteractionPicture(sweep), -2.0 * horizon, 2.0 * horizon, direct)
    assert np.abs(result.matrix_at_2T - np.abs(u) ** 2).max() < 1e-9


def _dop853_table(sweep, horizon):
    """|U|^2 over [-horizon, horizon] from scipy's DOP853 at rtol 1e-11, in the
    interaction picture: dc/dt = i exp(-i Lambda) H_off exp(i Lambda) c, with
    Lambda the integral of the diagonal; the slope matrix must be diagonal."""
    slopes = np.real(np.diag(sweep.d))
    assert np.array_equal(sweep.d, np.diag(slopes))
    offsets = np.real(np.diag(sweep.a))
    off = sweep.a - np.diag(offsets)
    dim = off.shape[0]

    def rhs(t, y):
        phase = np.exp(1j * (offsets * t + 0.5 * slopes * t * t))
        return (1j * ((np.conj(phase)[:, None] * off * phase) @ y.reshape(dim, dim))).ravel()

    sol = solve_ivp(rhs, (-horizon, horizon), np.eye(dim, dtype=complex).ravel(),
                    method="DOP853", rtol=1e-11, atol=1e-13)
    assert sol.success
    return np.abs(sol.y[:, -1].reshape(dim, dim)) ** 2


@pytest.mark.parametrize("model", ["do-3", "ado", "bow-tie-2"])
def test_default_engine_tables_match_dop853(model):
    sweep = {
        "do-3": DO3,
        "ado": lzi.ado_sweep(lzi.ADOParams(gamma=[0.3, 0.4, 0.5], a=[0.0])),
        "bow-tie-2": BOW_TIE2,
    }[model]
    horizon = 10.0
    spec = lzi.PropagationSpec(theta=0.25, verify=False)
    result = lzi.transition_matrix(sweep, horizon, spec)
    for table, window in ((result.matrix_at_T, horizon), (result.matrix_at_2T, 2.0 * horizon)):
        assert np.abs(table - _dop853_table(sweep, window)).max() < 1e-7


def _ado_models():
    """Seeded ado models: couplings in [0.2, 0.7], flat levels in [-1, 1] at
    least 0.3 apart; one with gamma_0 = gamma_1 (bright and dark at 45
    degrees), two with two flat levels."""
    rng = np.random.default_rng(12)
    models = []
    for flat in (1, 1, 2, 1, 2, 3):
        gamma = rng.uniform(0.2, 0.7, flat + 2)
        a = np.sort(rng.choice(np.linspace(-1.0, 1.0, 7), flat, replace=False))
        models.append(lzi.ADOParams(gamma=gamma, a=a))
    models[0] = lzi.ADOParams(gamma=[0.45, 0.45, 0.6], a=[0.2])
    return models


def test_ado_tables_match_dop853_on_every_entry():
    # the sloped pair is propagated as its bright level with the flat ones,
    # the dark level as an exact phase; both horizons' tables, every entry
    horizon = 5.0
    spec = lzi.PropagationSpec(verify=False)
    models = _ado_models()
    assert any(p.gamma[0] == p.gamma[1] for p in models)
    assert sum(p.n == 3 for p in models) >= 2
    for params in models:
        sweep = lzi.ado_sweep(params)
        result = lzi.transition_matrix(sweep, horizon, spec)
        for table, window in ((result.matrix_at_T, horizon), (result.matrix_at_2T, 2.0 * horizon)):
            assert np.abs(table - _dop853_table(sweep, window)).max() < 1e-8, params


def test_split_sweep_agrees_between_lab_frame_and_interaction_picture():
    # the rotated sloped pair maps back through R in the lab frame and through
    # R and the frame phases in the interaction picture; the 0 <-> 1 entries
    # oscillate with (gamma_0^2 - gamma_1^2) t, which a wrong map would miss
    sweep = lzi.ado_sweep(lzi.ADOParams(gamma=[0.3, 0.55, 0.4, 0.5], a=[-0.6, 0.7]))
    t0, t1 = -7.0, 6.0
    spec = lzi.PropagationSpec(base_step=0.005, theta=0.02, verify=False)
    lab, _ = lzi.evolve_operator(sweep, t0, t1, spec)
    frame, _ = lzi.evolve_operator(lzi.InteractionPicture(sweep), t0, t1, spec)
    lam0, lam1 = sweep.diag_phase_integral(np.array([t0, t1]))
    assert np.abs(lab - np.exp(1j * lam1)[:, None] * frame * np.exp(-1j * lam0)).max() < 1e-8
    assert np.abs(frame[0, 1]) > 0.1


@pytest.mark.parametrize("model", ["do-3", "bow-tie-2"])
def test_single_block_tables_are_the_whole_frame_propagation(model):
    # no equal-slope group to rotate and one coupled block: bit for bit the
    # propagation of the whole interaction picture over [-2T, 2T]
    sweep = {"do-3": DO3, "bow-tie-2": BOW_TIE2}[model]
    horizon = 10.0
    spec = lzi.PropagationSpec(theta=0.25, verify=False)
    result = lzi.transition_matrix(sweep, horizon, spec)
    frame = lzi.InteractionPicture(sweep)
    edges = np.array([-2.0, -1.0, 1.0, 2.0]) * horizon
    left, mid, right = (_evolve_on_grid(frame, piece, spec)[0] for piece in _pieces(frame, spec, edges))
    assert np.array_equal(result.matrix_at_T, np.abs(mid) ** 2)
    assert np.array_equal(result.matrix_at_2T, np.abs(right @ mid @ left) ** 2)


def _two_pair_sweep():
    """Two LZ pairs that never couple to each other: two blocks of two."""
    a = np.zeros((4, 4))
    a[0, 2] = a[2, 0] = 0.4
    a[1, 3] = a[3, 1] = 0.3
    return lzi.AffineHamiltonian(a + np.diag([0.0, 0.5, -0.2, 0.1]), np.diag([1.0, -1.0, 0.0, 0.5]))


@pytest.mark.parametrize("model", ["ado", "two-pairs"])
def test_transition_matrix_budget_counts_the_steps_of_every_block(model):
    # ado propagates its bright level (diagonal g0^2 + g1^2) with the flat
    # level; the dark level is a phase and takes no step
    g0, g1, g2, a2 = 0.3, 0.4, 0.5, 0.2
    if model == "ado":
        sweep = lzi.ado_sweep(lzi.ADOParams(gamma=[g0, g1, g2], a=[a2]))
        norm = np.hypot(g0, g1)
        bright = np.array([[norm**2, norm * g2], [norm * g2, a2]])
        blocks = [lzi.AffineHamiltonian(bright, np.diag([1.0, 0.0]))]
    else:
        sweep = _two_pair_sweep()
        blocks = [lzi.AffineHamiltonian(sweep.a[np.ix_(b, b)], sweep.d[np.ix_(b, b)])
                  for b in ([0, 2], [1, 3])]
    spec = lzi.PropagationSpec(theta=0.25, verify=False)
    edges = np.array([-10.0, -5.0, 5.0, 10.0])
    steps = sum(_time_grid(lzi.InteractionPicture(b), spec, edges).size for b in blocks)
    with pytest.raises(NumericalError, match="step budget"):
        lzi.transition_matrix(sweep, 5.0, replace(spec, max_steps=steps - 10))
    lzi.transition_matrix(sweep, 5.0, replace(spec, max_steps=steps + 10))


def test_magnus4_equal_slope_populations_stay_at_cf4_accuracy():
    # the ado sloped pair has equal slopes; without its fifth-order term
    # [C, H2 - H1] the Magnus-4 step puts these 2T populations 2.3e-8 off a
    # four-times-finer CF4 run at theta 0.25, against 3.0e-9 for CF4 itself
    frame = lzi.InteractionPicture(
        lzi.ado_sweep(lzi.ADOParams(gamma=[0.533207, 0.591832, 0.345859], a=[-0.704823]))
    )

    def populations(theta, method):
        spec = lzi.PropagationSpec(theta=theta, verify=False)
        ts = _time_grid(frame, spec, np.array([-100.0, 100.0]))
        return np.abs(reference_engines.operator_on_grid(frame, ts, method)) ** 2

    fine = populations(0.25 / 4, "cf4-fixed")
    assert np.abs(populations(0.25, "magnus4-fixed") - fine).max() < 5e-9


def test_step_budget_enforced():
    sweep = _lz_sweep()
    with pytest.raises(NumericalError):
        lzi.evolve_operator(sweep, -10.0, 10.0, lzi.PropagationSpec(max_steps=10, verify=True))


def test_verification_failure_raises():
    sweep = _lz_sweep()
    # an absurdly coarse grid cannot pass its own step-halving check
    spec = lzi.PropagationSpec(rtol=1e-14, base_step=2.0, theta=1e9, verify=True)
    with pytest.raises(NumericalError):
        lzi.evolve_operator(sweep, -10.0, 10.0, spec)


def test_population_trajectory_verify_raises_on_a_coarse_grid():
    # the evolve command's propagation used to skip the step-halving check
    frame = lzi.InteractionPicture(lzi.ado_sweep(lzi.ADOParams(gamma=[0.3, 0.4, 0.5], a=[0.0])))
    samples = np.linspace(-10.0, 10.0, 5)
    spec = lzi.PropagationSpec(rtol=1e-14, base_step=1.0, theta=2.0, verify=True)
    psi0 = np.array([1.0, 0.0, 0.0])
    with pytest.raises(NumericalError, match="step-halving"):
        lzi.population_trajectory(frame, psi0, samples, spec)
    loose = lzi.population_trajectory(frame, psi0, samples, replace(spec, rtol=1e-2))
    coarse = lzi.population_trajectory(frame, psi0, samples, replace(spec, verify=False))
    assert np.array_equal(loose, coarse)  # the check leaves the result as it is


def test_population_trajectory_endpoints():
    sweep = _lz_sweep()
    spec = lzi.PropagationSpec(rtol=1e-9, verify=True)
    samples = np.array([-6.0, 0.0, 6.0])
    traj = lzi.population_trajectory(sweep, np.array([1.0, 0.0]), samples, spec)
    u, _ = lzi.evolve_operator(sweep, -6.0, 6.0, spec)
    assert np.abs(traj[0] - [1.0, 0.0]).max() < 1e-14
    assert np.abs(traj[-1] - u @ np.array([1.0, 0.0])).max() < 1e-9


def test_transition_matrix_zero_coupling_is_identity():
    h = lzi.AffineHamiltonian(np.diag([0.0, 1.0, -1.0]), np.diag([1.0, 0.0, 0.0]))
    result = lzi.transition_matrix(h, horizon=20.0)
    assert lzi.max_abs(result.matrix - np.eye(3)) < 1e-10


def test_transition_matrix_two_level_crossing():
    coupling = 0.4
    result = lzi.transition_matrix(_lz_sweep(coupling), horizon=120.0)
    exact = np.exp(-2.0 * np.pi * coupling**2)
    assert abs(result.matrix[0, 0] - exact) < 2e-2
    # raw finite-horizon tables stay column-stochastic
    for table in (result.matrix_at_T, result.matrix_at_2T):
        assert np.abs(table.sum(axis=0) - 1.0).max() < 1e-8


def test_transition_matrix_probabilities_in_range():
    result = lzi.transition_matrix(_lz_sweep(0.3), horizon=40.0)
    assert result.matrix.min() >= 0.0
    assert result.matrix.max() <= 1.0


def test_hermiticity_validation():
    with pytest.raises(ValueError):
        lzi.AffineHamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)))


def test_non_finite_entries_are_rejected_by_name():
    # a non-finite entry is named, not reported as a Hermiticity failure
    a = np.array([[np.nan, 0.3], [0.3, 0.0]])
    with pytest.raises(ValueError, match=r"A has non-finite entries at \[\(0, 0\)\]"):
        lzi.AffineHamiltonian(a, np.diag([1.0, 0.0]))
    d = np.diag([1.0, np.inf])
    with pytest.raises(ValueError, match=r"D has non-finite entries at \[\(1, 1\)\]"):
        lzi.AffineHamiltonian(np.zeros((2, 2)), d)


def test_spec_validation():
    with pytest.raises(ValueError, match="increasing"):
        lzi.evolve_operator(_lz_sweep(), 1.0, 0.0, lzi.PropagationSpec(verify=True))
    with pytest.raises(ValueError):
        lzi.PropagationSpec(rtol=-1.0, verify=True)
    with pytest.raises(TypeError):
        lzi.PropagationSpec(method="magnus4-fixed", verify=True)  # one engine, no choice


@pytest.mark.parametrize("field", ["base_step", "theta", "rtol"])
@pytest.mark.parametrize("value", [0.0, -0.01, -1.0, np.nan, np.inf])
def test_spec_rejects_non_positive_or_non_finite_step_controls(field, value):
    # a negative budget used to collapse every segment to a single step
    with pytest.raises(ValueError, match=field):
        lzi.PropagationSpec(verify=True, **{field: value})


def test_time_grid_respects_phase_budget():
    sweep = _lz_sweep()
    spec = lzi.PropagationSpec(theta=0.2, verify=True)
    ts = _time_grid(lzi.InteractionPicture(sweep), spec, np.array([-50.0, 50.0]))
    rates = np.abs(ts[:-1]) + 1.0
    assert np.all(np.diff(ts) <= np.minimum(spec.base_step, spec.theta / rates) + 1e-12)
