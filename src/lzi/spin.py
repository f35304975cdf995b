"""Dense spin operator matrices: su(2) generators for arbitrary spin, the
u(2) Pauli basis, and Kronecker embeddings into multi-site tensor products.

Operators are plain complex numpy arrays, built once per site system
(:func:`site_operators`).  The matrix norm behind every tolerance statement
in this package is the maximum absolute entry, exposed here as :func:`max_abs`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import DimensionError, SameSiteError

__all__ = [
    "SpinRep",
    "SiteSystem",
    "spin_generators",
    "pauli_u2_basis",
    "embed",
    "dot_coupling",
    "site_operators",
    "commutator",
    "max_abs",
    "hermiticity_defect",
]


def max_abs(a) -> float:
    """Maximum absolute entry; the norm used throughout the package."""
    a = np.asarray(a)
    return float(np.abs(a).max()) if a.size else 0.0


def hermiticity_defect(a) -> float:
    """max_abs(A - A^dagger)."""
    a = np.asarray(a)
    return max_abs(a - a.conj().T)


def commutator(a, b) -> np.ndarray:
    """A @ B - B @ A for square matrices of equal dimension, or matrix by matrix
    for two stacks of them of equal shape (one batched product per side)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise DimensionError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    if a.shape != b.shape:
        raise DimensionError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


@dataclass(frozen=True)
class SpinRep:
    """Spin-s representation label; matrix dimension is 2s + 1."""

    s: float

    def __post_init__(self):
        two_s = round(2 * self.s)
        if two_s < 0 or abs(2 * self.s - two_s) > 1e-12:
            raise ValueError(f"spin must be a non-negative half-integer, got {self.s}")
        object.__setattr__(self, "s", two_s / 2.0)

    @property
    def dim(self) -> int:
        return round(2 * self.s) + 1


@dataclass(frozen=True)
class SiteSystem:
    """Ordered spin sites; operators act on their tensor product.

    Sites are indexed 0 .. n_sites - 1.
    """

    reps: tuple

    def __post_init__(self):
        reps = tuple(self.reps)
        if not reps:
            raise ValueError("a site system needs at least one site")
        object.__setattr__(self, "reps", reps)

    @classmethod
    def uniform(cls, n_sites: int, s: float = 0.5) -> "SiteSystem":
        return cls(tuple(SpinRep(s) for _ in range(n_sites)))

    @property
    def n_sites(self) -> int:
        return len(self.reps)

    @property
    def total_dim(self) -> int:
        out = 1
        for rep in self.reps:
            out *= rep.dim
        return out


def spin_generators(rep: SpinRep):
    """(Sx, Sy, Sz) for spin s, basis ordered m = s, s-1, ..., -s.

    Sz is diagonal with entries s .. -s and [Sx, Sy] = i Sz.
    """
    s = rep.s
    d = rep.dim
    m = s - np.arange(d)
    sz = np.diag(m.astype(complex))
    raising = np.zeros((d, d), dtype=complex)
    src = m[1:]
    raising[np.arange(d - 1), np.arange(1, d)] = np.sqrt(s * (s + 1) - src * (src + 1))
    lowering = raising.conj().T
    sx = (raising + lowering) / 2.0
    sy = (raising - lowering) / 2.0j
    return sx, sy, sz


def pauli_u2_basis():
    """(S0, S1, S2, S3) = (identity, sigma_x, sigma_y, sigma_z).

    The spatial three have eigenvalues +-1, twice the spin-1/2 generators.
    """
    s0 = np.eye(2, dtype=complex)
    s1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    s2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
    s3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    return s0, s1, s2, s3


def embed(op, site: int, system: SiteSystem) -> np.ndarray:
    """Embed a single-site operator at `site`, identity on every other site."""
    op = np.asarray(op, dtype=complex)
    if not 0 <= site < system.n_sites:
        raise IndexError(f"site {site} outside 0..{system.n_sites - 1}")
    d = system.reps[site].dim
    if op.shape != (d, d):
        raise DimensionError(f"operator shape {op.shape} does not match site dimension {d}")
    factors = [
        op if l == site else np.eye(system.reps[l].dim, dtype=complex)
        for l in range(system.n_sites)
    ]
    return reduce(np.kron, factors)


def dot_coupling(site_a: int, site_b: int, system: SiteSystem) -> np.ndarray:
    """Isotropic exchange S(site_a) . S(site_b) on the full tensor product."""
    if site_a == site_b:
        raise SameSiteError(f"need two distinct sites, got {site_a} twice")
    if not (0 <= site_a < system.n_sites and 0 <= site_b < system.n_sites):
        raise IndexError(f"sites ({site_a}, {site_b}) outside 0..{system.n_sites - 1}")
    return site_operators(system)[1][site_a, site_b].copy()


@lru_cache(maxsize=8)
def site_operators(system: SiteSystem):
    """(generators, exchange) of `system`, built once by Kronecker products and
    shared read-only (n (n + 5) / 2 matrices): generators[l] is (Sx, Sy, Sz) of
    site l embedded, and exchange[l, m] = exchange[m, l] is S(l) . S(m)."""
    gens = [[embed(g, l, system) for g in spin_generators(rep)] for l, rep in enumerate(system.reps)]
    exchange = {}
    for a, b in itertools.combinations(range(system.n_sites), 2):
        # one product per entry, so S(a).S(b) and S(b).S(a) agree bit for bit
        exchange[a, b] = exchange[b, a] = sum(ga @ gb for ga, gb in zip(gens[a], gens[b]))
    for op in itertools.chain(exchange.values(), *gens):
        op.setflags(write=False)
    return gens, exchange
