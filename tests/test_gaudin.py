import dataclasses
import itertools

import numpy as np
import pytest

import lzi
from lzi.errors import DegenerateSpectralError, NumericalError, SameSiteError


def _richardson_set(cfg, system):
    return list(lzi.richardson_integral(range(system.n_sites), [cfg], system)[:, 0])


def test_two_site_antisymmetry():
    system = lzi.SiteSystem.uniform(2)
    cfg = lzi.SpectralConfig(w=(0.0, 1.0))
    h0, h1 = _richardson_set(cfg, system)
    assert lzi.max_abs(h0 + h1) < 1e-15
    assert lzi.max_abs(h0 - lzi.dot_coupling(0, 1, system) / (0.0 - 1.0)) == 0.0


def test_three_site_commutativity():
    system = lzi.SiteSystem.uniform(3)
    cfg = lzi.SpectralConfig(w=(0.0, 1.0, 2.0))
    h0, h1 = lzi.richardson_integral([0, 1], [cfg], system)[:, 0]
    assert lzi.max_abs(lzi.commutator(h0, h1)) < 1e-12


def test_gaudin_integrals_sum_to_zero():
    rng = np.random.default_rng(11)
    system = lzi.SiteSystem.uniform(4)
    w = tuple(np.sort(rng.uniform(-2, 2, 4)))
    cfg = lzi.SpectralConfig(w=w)
    total = sum(_richardson_set(cfg, system))
    assert lzi.max_abs(total) < 1e-13


def test_richardson_reduces_to_gaudin_at_zero_lambda():
    # a lam = 0 config adds no Sz term at all, so R_l is the exchange sum G_l bit for bit
    system = lzi.SiteSystem.uniform(3)
    cfg = lzi.SpectralConfig(w=(0.0, 0.7, 1.9), lam=0.0)
    for l, op in enumerate(_richardson_set(cfg, system)):
        assert np.array_equal(op, _per_term(l, cfg, system, 1))


def test_richardson_commutativity_three_sites():
    system = lzi.SiteSystem.uniform(3)
    cfg = lzi.SpectralConfig(w=(0.0, 1.0, 2.0), lam=0.7)
    ops = _richardson_set(cfg, system)
    report = lzi.verify_commuting(ops, tol=1e-12)
    assert report.passed and report.max_defect < 1e-12


def test_richardson_two_site_sum_identity():
    # with lam = 1 the exchange parts cancel pairwise: R_0 + R_1 = Sz_0 + Sz_1
    system = lzi.SiteSystem.uniform(2)
    cfg = lzi.SpectralConfig(w=(0.0, 1.0), lam=1.0)
    total = sum(_richardson_set(cfg, system))
    sz = lzi.spin_generators(lzi.SpinRep(0.5))[2]
    expected = lzi.embed(sz, 0, system) + lzi.embed(sz, 1, system)
    assert lzi.max_abs(total - expected) < 1e-15


def test_richardson_sum_telescopes():
    rng = np.random.default_rng(5)
    system = lzi.SiteSystem.uniform(4)
    cfg = lzi.SpectralConfig(w=tuple(np.sort(rng.uniform(-3, 3, 4))), lam=0.8)
    total = sum(_richardson_set(cfg, system))
    sz = lzi.spin_generators(lzi.SpinRep(0.5))[2]
    expected = cfg.lam * sum(lzi.embed(sz, l, system) for l in range(4))
    assert lzi.max_abs(total - expected) < 1e-13


def _one_magnon_rows(ops, system):
    """Joint eigenvalue rows of commuting Hermitian `ops` in the one-flip sector
    S_z = N/2 - 1, one row per joint eigenvector of a generic combination."""
    n = system.n_sites
    sz = sum(gens[2] for gens in lzi.site_operators(system)[0]).real.diagonal()
    sector = np.flatnonzero(sz == n / 2 - 1)
    blocks = [op[np.ix_(sector, sector)] for op in ops]
    vecs = np.linalg.eigh(sum(np.sqrt(l + 2.0) * b for l, b in enumerate(blocks)))[1]
    return np.array([[np.vdot(v, b @ v).real for b in blocks] for v in vecs.T])


def _bethe_rows(w, lam):
    """lam/2 + sum_{k != l} 1/(4 (w_l - w_k)) - 1/(2 (w_l - x)) over l, for each
    root x of lam + sum_l 1/(2 (x - w_l)) = 0 (unpolished np.roots); at lam = 0
    one root is at infinity, where the last term vanishes."""
    n = w.size
    poly = lam * np.poly(w)
    for l in range(n):
        poly[1:] += 0.5 * np.poly(np.delete(w, l))
    roots = np.roots(poly[1:] if lam == 0.0 else poly).real
    base = lam / 2.0 + np.array([sum(0.25 / (w[l] - w[k]) for k in range(n) if k != l) for l in range(n)])
    return np.array([base - 0.5 / (w - x) for x in roots] + ([base] if lam == 0.0 else []))


def _row_mismatch(predicted, measured):
    """Worst entry error with each predicted row paired to its nearest measured
    row; inf unless that pairing is one to one."""
    cost = np.abs(predicted[:, None, :] - measured[None, :, :]).max(axis=2)
    nearest = cost.argmin(axis=1)
    if np.unique(nearest).size != nearest.size:
        return np.inf
    return float(cost[np.arange(nearest.size), nearest].max())


def test_one_magnon_spectrum_of_the_richardson_integrals_matches_the_bethe_roots():
    # Gaudin (1976); Richardson: in the one-flip sector the joint eigenvalues of
    # the R_l are fixed, row by row, by the Bethe roots x.  Over these 24
    # configs the worst row error measures 1.3e-12, a margin of 7.7 below the
    # bound.  The negative control R_l + 0.1 R_l^2 still commutes, so no
    # commutator check can tell it apart, but its rows miss by 7.7e-2 or more.
    bound = 1e-11
    worst, control = 0.0, np.inf
    for seed in range(24):
        rng = np.random.default_rng(seed)
        n, lam = 3 + seed % 4, (0.0, 0.5, 2.0)[seed % 3]
        w = np.sort(rng.uniform(-2.0, 2.0, n))
        while np.min(np.diff(w)) < 0.1:
            w = np.sort(rng.uniform(-2.0, 2.0, n))
        system = lzi.SiteSystem.uniform(n)
        ops = _richardson_set(lzi.SpectralConfig(w=tuple(w), lam=lam), system)
        predicted = _bethe_rows(w, lam)
        worst = max(worst, _row_mismatch(predicted, _one_magnon_rows(ops, system)))
        mutated = [op + 0.1 * op @ op for op in ops]
        assert lzi.verify_commuting(mutated, tol=1e-12).passed
        control = min(control, _row_mismatch(predicted, _one_magnon_rows(mutated, system)))
    assert worst < bound < control


def test_verify_commuting_identical_operators():
    system = lzi.SiteSystem.uniform(2)
    cfg = lzi.SpectralConfig(w=(0.0, 1.0))
    op = _richardson_set(cfg, system)[0]
    report = lzi.verify_commuting([op, op, op], tol=1e-12)
    assert report.max_defect == 0.0 and report.passed


def test_verify_commuting_detects_inconsistent_parameters():
    system = lzi.SiteSystem.uniform(3)
    cfg = lzi.SpectralConfig(w=(0.0, 1.0, 2.0), lam=0.5)
    bad_cfg = lzi.SpectralConfig(w=(0.0, 1.3, 2.0), lam=0.5)
    ops = _richardson_set(cfg, system)
    ops[1] = lzi.richardson_integral([1], [bad_cfg], system)[0, 0]
    report = lzi.verify_commuting(ops, tol=1e-12)
    assert report.max_defect > 1e-3
    assert not report.passed


def test_verify_commuting_raises_on_a_nan_defect_naming_the_pair():
    # NaN > worst is False, so the check must come before that comparison
    with pytest.raises(NumericalError, match=r"pair \(0, 1\) is nan"):
        lzi.verify_commuting([np.full((2, 2), np.nan), np.eye(2)])


def test_flatness_two_sites():
    system = lzi.SiteSystem.uniform(2)
    cfg = lzi.SpectralConfig(w=(0.0, 1.0))
    assert lzi.kz_flatness_residual(cfg, system, 0, 1) < 1e-13


def test_flatness_three_sites_with_extension():
    system = lzi.SiteSystem.uniform(3)
    cfg = lzi.SpectralConfig(w=(0.0, 1.0, 2.0), lam=0.5, level_shift=3.0)
    for la, lb in itertools.combinations(range(3), 2):
        assert lzi.kz_flatness_residual(cfg, system, la, lb) < 1e-12


@pytest.mark.parametrize("spins", [(0.5, 0.5, 0.5, 0.5), (0.5, 1.0, 1.5)])
def test_flatness_residual_is_the_scaled_commutator(spins):
    # d_{w_a} R_b and d_{w_b} R_a are one array, so the residual is exactly
    # the commutator defect divided by level_shift, not an independent check
    system = lzi.SiteSystem(tuple(lzi.SpinRep(s) for s in spins))
    rng = np.random.default_rng(len(spins))
    for lam in (0.0, 0.5, 2.0):
        w = tuple(np.sort(rng.uniform(-2.0, 2.0, len(spins))))
        cfg = lzi.SpectralConfig(w=w, lam=lam, level_shift=3.0)
        ops = _richardson_set(cfg, system)
        for la, lb in itertools.combinations(range(len(spins)), 2):
            scaled = lzi.max_abs(lzi.commutator(ops[la], ops[lb]) / cfg.level_shift)
            assert lzi.kz_flatness_residual(cfg, system, la, lb) == scaled


def test_flatness_rejects_same_site():
    system = lzi.SiteSystem.uniform(2)
    cfg = lzi.SpectralConfig(w=(0.0, 1.0))
    with pytest.raises(SameSiteError):
        lzi.kz_flatness_residual(cfg, system, 1, 1)


def test_derivative_matches_finite_differences_at_second_order():
    system = lzi.SiteSystem.uniform(3)
    w = [0.0, 1.0, 2.3]
    cfg = lzi.SpectralConfig(w=tuple(w), lam=0.4)
    analytic = lzi.richardson_derivative(2, cfg, system, wrt=0)

    def fd_error(h):
        wp, wm = list(w), list(w)
        wp[0] += h
        wm[0] -= h
        shifted = [dataclasses.replace(cfg, w=tuple(wp)), dataclasses.replace(cfg, w=tuple(wm))]
        plus, minus = lzi.richardson_integral([2], shifted, system)[0]
        return lzi.max_abs((plus - minus) / (2 * h) - analytic)

    assert fd_error(1e-5) < 1e-8  # agreement at a small step
    # order-2 ratio measured above the roundoff floor
    e1, e2 = fd_error(2e-3), fd_error(1e-3)
    assert 3.5 < e1 / e2 < 4.5


def test_scale_covariance():
    rng = np.random.default_rng(23)
    system = lzi.SiteSystem.uniform(3)
    w = np.sort(rng.uniform(0.5, 3.0, 3))
    c = 1.7
    cfg = lzi.SpectralConfig(w=tuple(w))
    scaled = lzi.SpectralConfig(w=tuple(c * w))
    ops = lzi.richardson_integral(range(3), [scaled, cfg], system)
    for l in range(3):
        assert lzi.max_abs(ops[l, 0] - ops[l, 1] / c) < 1e-14


def test_swap_antisymmetry_under_relabeling():
    # swapping w_0 <-> w_1 together with sites 0 <-> 1 exchanges the two integrals
    system = lzi.SiteSystem.uniform(3)
    w = (0.0, 1.0, 2.5)
    w_swapped = (1.0, 0.0, 2.5)
    cfg = lzi.SpectralConfig(w=w)
    cfg_swapped = lzi.SpectralConfig(w=w_swapped)
    # permutation operator exchanging the first two spin-1/2 factors
    perm = np.zeros((8, 8))
    for idx in range(8):
        bits = [(idx >> k) & 1 for k in (2, 1, 0)]
        swapped = (bits[1] << 2) | (bits[0] << 1) | bits[2]
        perm[swapped, idx] = 1.0
    h0, h1_swapped = lzi.richardson_integral([0, 1], [cfg, cfg_swapped], system)[[0, 1], [0, 1]]
    assert lzi.max_abs(perm @ h0 @ perm.T - h1_swapped) < 1e-13


def test_complex_parameters_accepted():
    system = lzi.SiteSystem.uniform(2)
    cfg = lzi.SpectralConfig(w=(0.0, 1.0 + 0.5j))
    h, h1 = _richardson_set(cfg, system)
    assert lzi.hermiticity_defect(h) > 1e-3  # complex parameters break Hermiticity
    assert lzi.max_abs(lzi.commutator(h, h1)) < 1e-13


def test_degenerate_parameters_rejected():
    with pytest.raises(DegenerateSpectralError):
        lzi.SpectralConfig(w=(1.0, 1.0 + 1e-12))
    with pytest.raises(ValueError):
        lzi.SpectralConfig(w=(0.0, 1.0), level_shift=0.0)


def _per_term(site, cfg, system, power):
    """sum over m != site of S(site).S(m) / (w_site - w_m) ** power, term by term."""
    w = np.asarray(cfg.w).real
    out = np.zeros((system.total_dim,) * 2, dtype=complex)
    for other in range(system.n_sites):
        if other != site:
            out += lzi.dot_coupling(site, other, system) / (w[site] - w[other]) ** power
    return out


@pytest.mark.parametrize("spins", [(0.5, 0.5, 0.5, 0.5), (0.5, 1.0, 1.5)])
def test_families_equal_the_per_term_sums_bitwise(spins):
    system = lzi.SiteSystem(tuple(lzi.SpinRep(s) for s in spins))
    w = np.random.default_rng(5).uniform(-2.0, 2.0, len(spins))
    cfg = lzi.SpectralConfig(w=tuple(w), lam=0.7)
    sz = [lzi.embed(lzi.spin_generators(rep)[2], l, system) for l, rep in enumerate(system.reps)]
    for site in range(system.n_sites):
        g = _per_term(site, cfg, system, 1)
        assert np.array_equal(lzi.richardson_integral([site], [cfg], system)[0, 0], cfg.lam * sz[site] + g)
        assert np.array_equal(
            lzi.richardson_derivative(site, cfg, system, wrt=site), -_per_term(site, cfg, system, 2)
        )
        for other in range(system.n_sites):
            if other != site:
                expected = lzi.dot_coupling(site, other, system) / (w[site] - w[other]) ** 2
                assert np.array_equal(lzi.richardson_derivative(site, cfg, system, wrt=other), expected)
    # the stacked build over several configs (lam = 0 included) equals the one-config sums
    cfgs = [cfg, lzi.SpectralConfig(w=tuple(w[::-1])), lzi.SpectralConfig(w=tuple(w + 0.5), lam=-1.3)]
    stack = lzi.richardson_integral(range(system.n_sites), cfgs, system)
    for s, spec in enumerate(cfgs):
        for site in range(system.n_sites):
            g = _per_term(site, spec, system, 1)
            assert np.array_equal(stack[site, s], spec.lam * sz[site] + g if spec.lam else g)


def test_mutating_a_returned_family_operator_leaves_the_next_call_unchanged():
    system = lzi.SiteSystem.uniform(3)
    cfgs = [lzi.SpectralConfig(w=(0.0, 1.0, 2.5), lam=lam) for lam in (0.0, 0.5)]
    first = lzi.richardson_integral([1], cfgs, system)
    expected = first.copy()
    first[...] = 7.0
    assert np.array_equal(lzi.richardson_integral([1], cfgs, system), expected)
