"""Commuting one-parameter families of spin operators and flat-connection checks.

For distinct spectral parameters w_l, the exchange operators

    G_l = sum_{m != l}  S_l . S_m / (w_l - w_m)

commute pairwise, and so do their extensions R_l = lam * Sz_l + G_l.  The
R_l also satisfy a zero-curvature identity in the w parameters,

    d_{w_l} R_m - d_{w_m} R_l - [R_l, R_m] / level_shift = 0.

Both derivatives are S_l.S_m / (w_l - w_m)^2, so they cancel exactly and
:func:`kz_flatness_residual` is the scaled commutator [R_l, R_m] / level_shift.
Every operator is a weighted sum of the exchange operators S_l . S_m, which
are built once per site system (:func:`lzi.spin.site_operators`).
:func:`verify_commuting`, the package's one commutator check, gives both verify
commands the defects of these R_l and of the EKZ H_k of :mod:`lzi.ado`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ._util import require_distinct
from .errors import SameSiteError
from .spin import SiteSystem, commutator, max_abs, site_operators

__all__ = [
    "SpectralConfig",
    "richardson_integral",
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


def richardson_integral(sites, cfgs, system: SiteSystem) -> np.ndarray:
    """R_l = lam * Sz(l) + G_l for each l in `sites` and each config, as one
    (len(sites), len(cfgs), D, D) stack; entry [i, s] is R_{sites[i]} of
    cfgs[s], and equals G_{sites[i]} bit for bit where lam = 0.  Each G_l adds
    S_l.S_m / (w_l - w_m) in site order: the per-term formula's own arithmetic."""
    sites = list(sites)
    for cfg in cfgs:
        for site in sites:
            _check_site(cfg, system, site)
    w = np.array([_weights(cfg) for cfg in cfgs]).reshape(len(cfgs), system.n_sites)
    lam = np.array([cfg.lam for cfg in cfgs])
    extended = lam != 0.0  # R_l is G_l bitwise at lam = 0
    gens, exchange = site_operators(system)
    out = np.zeros((len(sites), len(cfgs)) + (system.total_dim,) * 2, dtype=complex)
    for i, site in enumerate(sites):
        for other in range(system.n_sites):
            if other != site:
                out[i] += exchange[site, other] / (w[:, site] - w[:, other])[:, None, None]
        out[i, extended] += lam[extended, None, None] * gens[site][2]
    return out


def verify_commuting(ops) -> np.ndarray:
    """max_abs([A, B]) of every pair of the n operators of an (n, *batch, D, D)
    stack (or a list of n matrices), as a (*batch, pairs) array with the pairs
    in itertools.combinations order: one stacked commutator per pair.  A defect
    that is not finite stays in its slot; the caller decides what it means."""
    ops = np.asarray(ops)
    defects = [np.abs(commutator(a, b)).max(axis=(-2, -1)) for a, b in itertools.combinations(ops, 2)]
    return np.stack(defects, axis=-1) if defects else np.zeros(ops.shape[1:-2] + (0,))


def kz_flatness_residual(
    cfg: SpectralConfig, system: SiteSystem, site_a: int, site_b: int
) -> float:
    """Zero-curvature residual for the pair (site_a, site_b):

    || d_{w_a} R_b - d_{w_b} R_a - [R_a, R_b] / level_shift ||

    Both derivatives are S_a.S_b / (w_a - w_b)^2 and cancel exactly, so this
    is max_abs([R_a, R_b] / level_shift): the commutator defect scaled by
    1 / level_shift, not an independent check.
    """
    if site_a == site_b:
        raise SameSiteError("flatness residual needs two distinct sites")
    r_a, r_b = richardson_integral([site_a, site_b], [cfg], system)[:, 0]
    return max_abs(commutator(r_a, r_b) / cfg.level_shift)
