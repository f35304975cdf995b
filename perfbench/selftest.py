"""Tests of the benchmark's independent references (not of lzi).

    python3 -m pytest perfbench/selftest.py -q

The file name keeps these tests out of the repository's default pytest run;
they check that each reference reproduces a result known in closed form
before the benchmark relies on it.
"""

import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

import reference as ref


def test_transition_table_two_level_landau_zener():
    """Two levels, slope difference 1, coupling v: P_stay -> exp(-2 pi v^2)."""
    v = 0.3
    amat = np.array([[0.0, v], [v, 0.0]])
    dmat = np.diag([1.0, 0.0])
    horizon = 60.0
    p = ref.transition_table(amat, dmat, horizon)
    assert np.abs(p.sum(axis=0) - 1.0).max() < 1e-8  # DOP853 at rtol 1e-10 drifts ~1e-9
    exact = math.exp(-2.0 * math.pi * v * v)
    bound = ref.horizon_bound(amat, dmat, 0, horizon)
    assert abs(p[0, 0] - exact) < bound
    assert abs(p[1, 1] - exact) < bound


def test_transition_table_converges_to_demkov_osherov():
    gamma, eps = [1.0, 0.4, -0.3], [0.0, 1.5, -2.0]
    amat, dmat = ref.do_matrices(gamma, eps)
    p00, pkk = ref.do_survivals(gamma, eps)
    errors = []
    for horizon in (20.0, 40.0):
        p = ref.transition_table(amat, dmat, horizon)
        for level, exact in enumerate([p00] + pkk):
            delta = abs(p[level, level] - exact)
            assert delta < ref.horizon_bound(amat, dmat, level, horizon)
            errors.append(delta)
    assert max(errors[3:]) < max(errors[:3])  # the longer window is closer


def test_transition_table_reproduces_ado_survival():
    gamma = [0.3, 0.4, 0.5]
    amat, dmat = ref.ado_matrices(gamma, [0.0])
    p = ref.transition_table(amat, dmat, 40.0)
    assert abs(p[2, 2] - ref.lz_survival_ado(gamma)) < ref.horizon_bound(amat, dmat, 2, 40.0)


def test_gamma_map_satisfies_consistency_and_sign_identities():
    gamma, eps = [0.7, 0.4, -0.3, 0.9], [0.2, 1.5, -2.0, 3.1]
    a00, a0, v0 = ref.do_entries(gamma, eps)
    assert abs(a00 - float(np.sum(v0**2 / a0))) < 1e-12
    assert np.allclose(v0 / a0, -np.asarray(gamma[1:]) / gamma[0], rtol=1e-12)


def test_arrowhead_eigenvalues_solve_the_secular_equation():
    gamma, eps = [0.7, 0.4, -0.3, 0.9], [0.2, 1.5, -2.0, 3.1]
    g2 = np.asarray(gamma) ** 2
    for t in (-3.0, 0.4, 5.0):
        for energy in np.linalg.eigvalsh(ref.arrowhead(gamma, eps, t)):
            x = eps[0] + g2[0] / energy  # E = gamma_0^2 / (x - eps_0)
            assert abs(float(np.sum(g2 / (x - np.asarray(eps)))) - t) < 1e-9 * max(1.0, abs(x))


def test_bound_refuses_equal_slopes():
    amat, dmat = ref.ado_matrices([0.3, 0.4, 0.5], [0.0])
    with pytest.raises(ValueError):
        ref.horizon_bound(amat, dmat, 0, 50.0)
    assert ref.horizon_bound(amat, dmat, 2, 100.0) < ref.horizon_bound(amat, dmat, 2, 50.0)
    assert ref.start_bound(amat, dmat, (0, 1), -40.0) < ref.start_bound(amat, dmat, (0, 1), -20.0)


@pytest.mark.parametrize("m", [1, -1])
def test_spinor_is_a_normalised_eigenvector(m):
    _, _, n = ref.ado_spectral_data([0.3, 0.4, 0.5], [0.0])
    sigma = np.array([[n[2], n[0] - 1j * n[1]], [n[0] + 1j * n[1], -n[2]]])
    xi = ref.spinor(n, m)
    assert abs(np.linalg.norm(xi) - 1.0) < 1e-14
    assert np.abs(sigma @ xi - m * xi).max() < 1e-14
    assert xi[0].real > 0.0 and xi[0].imag == 0.0


def test_frequency_solution_moduli():
    gamma, a = [0.3, 0.4, 0.5, 0.2], [1.0, 2.5]
    flat = [np.linalg.norm(ref.frequency_solution(gamma, a, -1, w)) for w in (-3.0, 0.2, 1.7, 4.0)]
    assert max(flat) - min(flat) < 1e-14
    steps = ref.modulus_steps(gamma, a)
    mod = lambda w: np.linalg.norm(ref.frequency_solution(gamma, a, 1, w))
    assert abs(mod(0.9) / mod(1.1) / steps[0] - 1.0) < 1e-13
    assert abs(mod(2.4) / mod(2.6) / steps[1] - 1.0) < 1e-13
    assert abs(mod(1.2) / mod(2.3) - 1.0) < 1e-13


def test_frequency_solution_solves_the_omega_equation():
    """dPhi/domega = i (omega - H_1) Phi with H_1 = b1.S + sum_k bk.S / (omega - a_k)."""
    gamma, a = [0.3, 0.4, 0.5, 0.2], [1.0, 2.5]
    beta1, betas, n = ref.ado_spectral_data(gamma, a)
    sigma_n = np.array([[n[2], n[0]], [n[0], -n[2]]])
    h = 1e-5
    for m in (1, -1):
        for w in (-1.3, 1.8, 3.2):
            h1 = beta1 * (np.eye(2) + sigma_n)
            h1 = h1 + sum(b * (np.eye(2) + sigma_n) / (w - ak) for b, ak in zip(betas, a))
            phi = ref.frequency_solution(gamma, a, m, w)
            deriv = (ref.frequency_solution(gamma, a, m, w + h)
                     - ref.frequency_solution(gamma, a, m, w - h)) / (2.0 * h)
            assert np.abs(deriv - 1j * (w * phi - h1 @ phi)).max() < 1e-8


def test_fresnel_transform_matches_a_regulated_integral():
    """int exp(i w^2/2 + i w t - e w^2) dw = sqrt(pi / (e - i/2)) exp(-t^2 / (4 (e - i/2)))
    (principal root), numerically, and tends to the m = -1 closed form as e -> 0."""
    e, t = 0.05, 1.3
    closed = cmath.sqrt(math.pi / (e - 0.5j)) * cmath.exp(-t * t / (4.0 * (e - 0.5j)))
    f = lambda w: cmath.exp(0.5j * w * w + 1j * w * t - e * w * w)
    re = quad(lambda w: f(w).real, -40.0, 40.0, limit=400)[0]
    im = quad(lambda w: f(w).imag, -40.0, 40.0, limit=400)[0]
    assert abs(complex(re, im) - closed) < 1e-8
    tiny = 1e-12
    limit = cmath.sqrt(math.pi / (tiny - 0.5j)) * cmath.exp(-t * t / (4.0 * (tiny - 0.5j)))
    _, _, n = ref.ado_spectral_data([0.3, 0.4, 0.5], [0.0])
    amp = ref.trivial_branch_amplitude([0.3, 0.4, 0.5], [0.0], t)
    assert np.abs(amp - limit * ref.spinor(n, -1)).max() < 1e-9
