"""Commuting one-parameter families of spin operators and flat-connection checks.

For distinct spectral parameters w_l, the exchange operators

    G_l = sum_{m != l}  S_l . S_m / (w_l - w_m)

commute pairwise, and so do their extensions R_l = lam * Sz_l + G_l.  The
R_l also satisfy a zero-curvature identity in the w parameters,

    d_{w_l} R_m - d_{w_m} R_l - [R_l, R_m] / level_shift = 0,

which :func:`kz_flatness_residual` evaluates with analytic derivatives (the
only w dependence is through 1/(w_l - w_m) factors, so no step size enters).
Every operator is a weighted sum of the exchange operators S_l . S_m, which
are built once per site system (:func:`lzi.spin.site_operators`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ._util import require_distinct
from .errors import NumericalError, SameSiteError
from .spin import SiteSystem, commutator, max_abs, site_operators

__all__ = [
    "SpectralConfig",
    "CommutativityReport",
    "richardson_integral",
    "richardson_derivative",
    "verify_commuting",
    "kz_flatness_residual",
]


@dataclass(frozen=True)
class SpectralConfig:
    """Spectral parameters w (one per site, pairwise distinct), the Sz
    coefficient `lam`, and the non-zero connection normalisation `level_shift`.

    Complex w are accepted (the operators are then non-Hermitian); Hermiticity
    holds for real configurations only.
    """

    w: tuple
    lam: float = 0.0
    level_shift: float = 3.0

    def __post_init__(self):
        w = tuple(complex(x) for x in self.w)
        if not w:
            raise ValueError("need at least one spectral parameter")
        require_distinct(np.asarray(w), "spectral parameters w")
        if self.level_shift == 0:
            raise ValueError("level_shift must be non-zero")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "level_shift", float(self.level_shift))

    @property
    def n_sites(self) -> int:
        return len(self.w)

    @property
    def is_real(self) -> bool:
        return all(x.imag == 0.0 for x in self.w)


def _weights(cfg: SpectralConfig) -> np.ndarray:
    w = np.asarray(cfg.w)
    return w.real if cfg.is_real else w


def _check_site(cfg: SpectralConfig, system: SiteSystem, site: int) -> None:
    if cfg.n_sites != system.n_sites:
        raise ValueError(
            f"config has {cfg.n_sites} parameters but system has {system.n_sites} sites"
        )
    if not 0 <= site < system.n_sites:
        raise IndexError(f"site {site} outside 0..{system.n_sites - 1}")


def _exchange_sums(sites, denominators, system: SiteSystem) -> np.ndarray:
    """out[i, s] = sum over m != sites[i] of S(sites[i]).S(m) / denominators[s, i, m],
    added in site order: the per-term formula's own arithmetic, so every matrix
    of the (len(sites), S, D, D) stack equals it bit for bit."""
    exchange = site_operators(system)[1]
    den = np.asarray(denominators)[..., None, None]
    out = np.zeros((len(sites), den.shape[0]) + (system.total_dim,) * 2, dtype=complex)
    for i, site in enumerate(sites):
        for other in range(system.n_sites):
            if other != site:
                out[i] += exchange[site, other] / den[:, i, other]
    return out


def richardson_integral(sites, cfgs, system: SiteSystem) -> np.ndarray:
    """R_l = lam * Sz(l) + G_l for each l in `sites` and each config, as one
    (len(sites), len(cfgs), D, D) stack; entry [i, s] is R_{sites[i]} of
    cfgs[s], and equals G_{sites[i]} bit for bit where lam = 0."""
    sites = list(sites)
    for cfg in cfgs:
        for site in sites:
            _check_site(cfg, system, site)
    w = np.array([_weights(cfg) for cfg in cfgs]).reshape(len(cfgs), system.n_sites)
    out = _exchange_sums(sites, w[:, sites, None] - w[:, None, :], system)
    lam = np.array([cfg.lam for cfg in cfgs])
    extended = lam != 0.0  # R_l is G_l bitwise at lam = 0
    sz = site_operators(system)[0]
    for i, site in enumerate(sites):
        out[i, extended] += lam[extended, None, None] * sz[site][2]
    return out


def richardson_derivative(
    site: int, cfg: SpectralConfig, system: SiteSystem, wrt: int
) -> np.ndarray:
    """Analytic d R_site / d w_wrt.

    Only the 1/(w_site - w_other) factors depend on w, so the derivative is a
    sum of exchange operators with squared-denominator weights.
    """
    _check_site(cfg, system, site)
    _check_site(cfg, system, wrt)
    w = _weights(cfg)
    # scalar squares: a numpy scalar ** 2 can round differently from an array's
    if wrt == site:
        return _exchange_sums([site], [[[-(w[site] - x) ** 2 for x in w]]], system)[0, 0]
    return site_operators(system)[1][site, wrt] / (w[site] - w[wrt]) ** 2


@dataclass(frozen=True)
class CommutativityReport:
    """Worst pairwise commutator defect of a family of operators."""

    max_defect: float
    worst_pair: tuple
    passed: bool


def verify_commuting(ops, tol: float = 1e-12) -> CommutativityReport:
    """Max pairwise commutator norm of `ops`, compared against `tol`; a defect
    that is not finite raises NumericalError naming its pair."""
    ops = [np.asarray(op) for op in ops]
    worst = 0.0
    worst_pair = (0, 0)
    for i, j in itertools.combinations(range(len(ops)), 2):
        defect = max_abs(commutator(ops[i], ops[j]))
        if not np.isfinite(defect):
            raise NumericalError(f"commutator defect of pair ({i}, {j}) is {defect}")
        if defect > worst:
            worst, worst_pair = defect, (i, j)
    return CommutativityReport(
        max_defect=worst,
        worst_pair=worst_pair,
        passed=worst < tol,
    )


def kz_flatness_residual(
    cfg: SpectralConfig, system: SiteSystem, site_a: int, site_b: int
) -> float:
    """Zero-curvature residual for the pair (site_a, site_b):

    || d_{w_a} R_b - d_{w_b} R_a - [R_a, R_b] / level_shift ||

    Both derivatives are S_a.S_b / (w_a - w_b)^2, the same array bit for bit,
    so the value equals max_abs([R_a, R_b] / level_shift): the commutator
    defect scaled by 1 / level_shift, not an independent check.
    """
    if site_a == site_b:
        raise SameSiteError("flatness residual needs two distinct sites")
    d_ab = richardson_derivative(site_b, cfg, system, wrt=site_a)
    d_ba = richardson_derivative(site_a, cfg, system, wrt=site_b)
    r_a, r_b = richardson_integral([site_a, site_b], [cfg], system)[:, 0]
    return max_abs(d_ab - d_ba - commutator(r_a, r_b) / cfg.level_shift)
