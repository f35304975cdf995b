"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
"""

import itertools

import numpy as np

import lzi
from lzi.propagator import _operator_on_grid


def _report(number: int, text: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\n[criterion {number}] {text}: {status} ({detail})")
    assert passed, f"criterion {number} failed: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_1_lz_probability_reproduction():
    """Oracle transition probability vs the closed-form survival formula."""
    inv = 1.0 / np.sqrt(4.0 * np.pi)
    cases = [(0.3, 0.4, 0.5), (0.5, 0.5, 0.3), (0.2, 0.7, 0.4), (inv, inv, 1.0)]
    horizon = 200.0
    worst = 0.0
    details = []
    for g0, g1, g2 in cases:
        params = lzi.ADOParams(gamma=[g0, g1, g2], a=[0.0])
        spec = lzi.PropagationSpec(t0=-horizon, t1=horizon, theta=0.25, verify=False)
        result = lzi.transition_matrix(lzi.ado_sweep(params), horizon, spec)
        oracle = float(result.matrix[2, 2])
        formula = lzi.lz_probability(g0, g1, g2)
        delta = abs(oracle - formula)
        worst = max(worst, delta)
        details.append(f"{delta:.2e}")
    expected_last = np.exp(-1.0)
    last_formula = lzi.lz_probability(inv, inv, 1.0)
    assert abs(last_formula - expected_last) < 1e-12
    _report(
        1,
        "LZ probability reproduction (4 coupling sets, T=200, extrapolated)",
        worst < 1e-2,
        f"max |oracle - formula| = {worst:.2e}, per-point deltas {details}",
    )


def test_criterion_2_exact_eigenpairs():
    """Eigen-residuals and interlacing across sizes, draws and times."""
    rng = np.random.default_rng(20240817)
    worst_residual = 0.0
    interlacing_ok = True
    for n in range(1, 7):
        for _ in range(50):
            gamma = rng.uniform(0.2, 1.0, n + 1) * rng.choice([-1.0, 1.0], n + 1)
            eps = np.sort(rng.uniform(-3.0, 3.0, n + 1))
            while np.min(np.diff(eps)) < 0.1:
                eps = np.sort(rng.uniform(-3.0, 3.0, n + 1))
            params = lzi.DOParams(gamma=gamma, epsilon=eps)
            sweep = lzi.do_sweep(lzi.entries_from_gamma(params))
            for t in (-10.0, -1.0, 0.1, 1.0, 10.0):
                h = sweep(t).real
                roots = lzi.spectral_roots(params, t)
                finite = roots[np.isfinite(roots)]
                for i in range(n):
                    count = np.sum((finite > eps[i]) & (finite < eps[i + 1]))
                    interlacing_ok = interlacing_ok and count == 1
                energies, vecs = lzi.eigenpairs(params, t)
                residual = np.linalg.norm(h @ vecs - vecs * energies, axis=0).max()
                worst_residual = max(worst_residual, residual)
    _report(
        2,
        "exact eigenpairs, n=1..6, 50 draws, 5 times",
        worst_residual < 1e-10 and interlacing_ok,
        f"max relative residual = {worst_residual:.2e}, interlacing everywhere = {interlacing_ok}",
    )


def test_criterion_3_commuting_integrals():
    """(a) spin-chain integrals with the Sz extension; (b) classical reduction."""
    rng = np.random.default_rng(7)
    system = lzi.SiteSystem.uniform(4)
    chain = []
    for _ in range(20):
        w = np.sort(rng.uniform(-2.0, 2.0, 4))
        while np.min(np.diff(w)) < 0.1:
            w = np.sort(rng.uniform(-2.0, 2.0, 4))
        for lam in (0.0, 0.5, 2.0):
            cfg = lzi.SpectralConfig(w=tuple(w), lam=lam)
            ops = lzi.richardson_integral(range(4), [cfg], system)[:, 0]
            chain.append(lzi.verify_commuting(ops))
    worst_chain = np.max(chain)  # np.max keeps a NaN, which max() can drop

    classical = []
    for n in range(2, 7):
        for _ in range(20):
            gamma = rng.uniform(0.3, 1.0, n + 1)
            a = np.sort(rng.uniform(-2.0, 2.0, n - 1))
            while a.size >= 2 and np.min(np.diff(a)) < 0.2:
                a = np.sort(rng.uniform(-2.0, 2.0, n - 1))
            b = lzi.b_vectors(lzi.ADOParams(gamma=gamma, a=a))
            ops = lzi.ekz_operators(b, float(rng.uniform(2.5, 4.0)))
            classical.append(lzi.verify_commuting(ops))
    worst_classical = np.max(np.concatenate(classical))

    params = lzi.ADOParams(gamma=[0.3, 0.4, 0.5, 0.2], a=[1.0, 2.5])
    broken = lzi.coupling_matrix(params).copy()
    broken[0, 1] += 0.1
    broken[1, 0] += 0.1
    ops = lzi.ekz_operators(lzi.b_vector_stack([params], [broken]), -0.7)[:, 0]
    control = np.max(lzi.verify_commuting(ops))
    _report(
        3,
        "commuting integrals: chain N=4 and classical reduction n=2..6",
        worst_chain < 1e-12 and worst_classical < 1e-13 and control > 1e-4,
        f"chain defect {worst_chain:.2e}, classical defect {worst_classical:.2e}, "
        f"broken-parallelism control {control:.2e}",
    )


def test_criterion_4_zero_curvature():
    """Flatness with analytic derivatives plus an order-2 difference check."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for n in (2, 3, 4, 5):
        gamma = rng.uniform(0.3, 1.0, n + 1)
        a = np.linspace(0.0, 1.5 * (n - 2), n - 1) if n > 2 else np.array([0.0])
        b = lzi.b_vectors(lzi.ADOParams(gamma=gamma, a=a))
        labels = [0] + list(range(2, n + 1))
        for omega in (-0.9, 3.7):
            for i, j in itertools.combinations(labels, 2):
                worst = max(worst, lzi.zero_curvature_residual(b, i, j, omega))

    # finite-difference cross-check of the omega-derivative of one companion
    params = lzi.ADOParams(gamma=[0.3, 0.4, 0.5, 0.2], a=[1.0, 2.5])
    b = lzi.b_vectors(params)
    basis = lzi.pauli_u2_basis()
    omega = -0.9
    analytic = sum(b.bk[0][mu] * basis[mu] for mu in range(4)) / (b.a[0] - omega) ** 2

    def fd_error(h):
        plus, minus = lzi.ekz_operators(b, [omega + h, omega - h])[1]
        return lzi.max_abs((plus - minus) / (2.0 * h) - analytic)

    ratio = fd_error(2e-3) / fd_error(1e-3)
    _report(
        4,
        "zero curvature (all index pairs incl. omega) + order-2 difference check",
        worst < 1e-12 and 3.5 < ratio < 4.5,
        f"max residual = {worst:.2e}, halving ratio = {ratio:.2f}",
    )


def test_criterion_5_closed_form_solves_the_system():
    """Central-difference residuals of the assembled solution, both branches."""
    rng = np.random.default_rng(5150)
    h = 1e-4
    worst = 0.0
    for n in (2, 3, 4):
        checked = 0
        while checked < 100:
            gamma = rng.uniform(0.2, 0.5, n + 1)
            a = np.sort(rng.uniform(-2.0, 2.0, n - 1))
            if a.size >= 2 and np.min(np.diff(a)) < 0.5:
                continue
            omega = float(rng.uniform(-2.5, 2.5))
            if a.size and np.abs(omega - a).min() < 0.5:
                continue
            params = lzi.ADOParams(gamma=gamma, a=a)
            for m in (+1, -1):
                sol = lzi.closed_form_solution(params, m)
                r_omega, r_a = lzi.ekz_residual_check(sol, omega, h=h)
                worst = max(worst, r_omega, float(r_a.max(initial=0.0)))
            checked += 1
    _report(
        5,
        "closed form satisfies the defining system (n=2..4, 100 points each, both branches)",
        worst < 1e-6,
        f"max central-difference residual at h=1e-4: {worst:.2e}",
    )


def test_criterion_6_trivial_branch():
    """Flat modulus in frequency and unit survival in time for m = -1."""
    params = lzi.ADOParams(gamma=[0.3, 0.4, 0.5], a=[0.0])
    sol = lzi.closed_form_solution(params, m=-1)
    mods = np.array([np.linalg.norm(sol(w)) for w in np.linspace(-9.0, 9.0, 61) if w != 0.0])
    flatness = float(mods.max() - mods.min())
    survival = lzi.survival_from_transform(
        sol, horizon=6.0, qspec=lzi.QuadratureSpec(tolerance=1e-5)
    )
    _report(
        6,
        "m=-1 branch: frequency-independent modulus and unit survival",
        flatness < 1e-12 and abs(survival - 1.0) < 1e-3,
        f"modulus spread {flatness:.2e}, |survival - 1| = {abs(survival - 1.0):.2e}",
    )


def test_criterion_7_oracle_self_checks():
    """Unitarity, frame invariance, and nominal convergence orders."""
    coupling = 0.4
    a = np.array([[0.0, coupling], [coupling, 0.0]])
    sweep = lzi.AffineHamiltonian(a, np.diag([1.0, 0.0]))

    spec = lzi.PropagationSpec(t0=-8.0, t1=8.0, rtol=1e-9)
    u, _ = lzi.evolve_operator(sweep, spec)
    unitarity = lzi.max_abs(u @ u.conj().T - np.eye(2))

    tight = lzi.PropagationSpec(t0=-6.0, t1=6.0, rtol=1e-10, base_step=0.002, theta=0.02)
    u_lab, _ = lzi.evolve_operator(sweep, tight)
    u_rot, _ = lzi.evolve_operator(lzi.InteractionPicture(sweep), tight)
    gauge = float(np.abs(np.abs(u_lab) ** 2 - np.abs(u_rot) ** 2).max())

    orders_ok = True
    order_text = []
    for method, nominal in (("cf4-fixed", 4.0), ("rk4-fixed", 4.0), ("magnus2-fixed", 2.0)):
        def run(n_steps):
            ts = np.linspace(-4.0, 4.0, n_steps + 1)
            return _operator_on_grid(sweep, ts, method)

        ref = run(16384)
        errors = [lzi.max_abs(run(n) - ref) for n in (128, 256)]
        eoc = float(np.log2(errors[0] / errors[1]))
        orders_ok = orders_ok and abs(eoc - nominal) < 0.1 * nominal
        order_text.append(f"{method}:{eoc:.2f}")

    _report(
        7,
        "oracle self-checks: unitarity, gauge invariance, convergence orders",
        unitarity < 1e-8 and gauge < 1e-9 and orders_ok,
        f"unitarity {unitarity:.2e}, gauge {gauge:.2e}, orders {order_text}",
    )


def test_criterion_8_roundtrip_parameter_map():
    """Entries -> solvability coordinates -> entries closes after the shift."""
    rng = np.random.default_rng(88)
    worst = 0.0
    count = 0
    while count < 100:
        n = int(rng.integers(1, 6))
        a00 = float(rng.uniform(-2.0, 2.0))
        a0 = rng.uniform(-3.0, 3.0, n)
        if n >= 2 and np.min(np.abs(a0[:, None] - a0[None, :])[~np.eye(n, dtype=bool)]) < 0.05:
            continue
        v0 = rng.uniform(0.2, 1.5, n) * rng.choice([-1.0, 1.0], n)
        entries = lzi.DOHamiltonianEntries(a00=a00, a0=a0, v0=v0)
        params, shift = lzi.gamma_from_entries(entries)
        rebuilt = lzi.entries_from_gamma(params)
        scale = max(1.0, abs(a00 + shift), float(np.abs(a0 + shift).max()))
        closure = max(
            abs(rebuilt.a00 - (a00 + shift)),
            lzi.max_abs(rebuilt.a0 - (a0 + shift)),
            lzi.max_abs(rebuilt.v0 - v0),
        ) / scale
        worst = max(worst, closure)
        count += 1
    _report(
        8,
        "round-trip parameter map on 100 generic entry sets (n <= 5)",
        worst < 1e-9,
        f"max closure residual = {worst:.2e}",
    )
