"""One linearly sloped level crossing n flat levels.

The Hamiltonian is the (n+1) x (n+1) real symmetric arrowhead

    H(t) = [[t + a00, v_1 .. v_n],
            [v_1,     a_1        ],
            [ ...         ...    ],
            [v_n,            a_n ]]

whose instantaneous eigenpairs are available in closed form once the entries
are written in solvability coordinates (gamma, epsilon):

    v_i = gamma_0 gamma_i / (eps_0 - eps_i),   a_i = gamma_0^2 / (eps_i - eps_0),
    a00 = sum_i gamma_i^2 / (eps_i - eps_0).

Eigenvalues are E = gamma_0^2 / (x - eps_0) with x any root of the rational
secular equation  t = sum_k gamma_k^2 / (x - eps_k); the matching eigenvector
has components gamma_k / (x - eps_k).  Roots interlace the poles eps_k, with
one extra exterior root on the sign(t) side that escapes to infinity at t = 0;
a decoupled level (gamma_k = 0) holds a root frozen exactly at its pole.
:func:`eigenpairs` builds every branch from one root solve, the flow tracker
labels branches by that interlacing order, and the diagonal shift that makes
raw entries consistent is read from the spectrum of H(0).

The bow-tie variant (all diagonal slopes distinct, one common crossing point)
reuses the same entries with the flat diagonal replaced by (r_i + 1) t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import frozen_float_array, require_distinct, require_squarable
from .errors import DegenerateSpectralError, NoRealShiftError, NumericalError
from .propagator import AffineHamiltonian

__all__ = [
    "DOParams",
    "DOHamiltonianEntries",
    "SpectralFlow",
    "entries_from_gamma",
    "gamma_from_entries",
    "spectral_roots",
    "eigenpairs",
    "do_sweep",
    "bow_tie_sweep",
    "track_spectral_flow",
    "transition_table",
]

#: a root closer than this (relative to the pole scale) to a coupled pole has
#: no closed-form eigenvector
_POLE_TOL = 1e-9
#: the largest diagonal shift gamma_from_entries accepts
_MAX_SHIFT = 1e6


@dataclass(frozen=True)
class DOParams:
    """Solvability coordinates: couplings gamma_0..gamma_n and pairwise
    distinct pole positions epsilon_0..epsilon_n.

    gamma_0 must be non-zero (it carries every coupling); n = 0 is the sloped
    level alone.  gamma_k = 0 for k >= 1 is accepted as a degenerate
    reduction: level k decouples, its pole hosts a frozen root, and reports
    flag the index via `decoupled_levels`.
    """

    gamma: np.ndarray
    epsilon: np.ndarray

    def __post_init__(self):
        gamma = frozen_float_array(self.gamma, "gamma")
        epsilon = frozen_float_array(self.epsilon, "epsilon")
        if gamma.shape != epsilon.shape or gamma.size < 1:
            raise ValueError("gamma and epsilon must have equal length >= 1")
        require_squarable(gamma, "gamma")
        if gamma[0] == 0.0:
            raise DegenerateSpectralError("gamma_0 = 0 decouples the sloped level entirely")
        require_distinct(epsilon, "epsilon")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "epsilon", epsilon)

    @property
    def n(self) -> int:
        return self.gamma.size - 1

    @property
    def decoupled_levels(self) -> tuple:
        return tuple(int(k) for k in range(1, self.gamma.size) if self.gamma[k] == 0.0)


@dataclass(frozen=True)
class DOHamiltonianEntries:
    """Raw Hamiltonian entries: corner a00, flat diagonal a0[i], couplings v0[i].

    Entries produced by :func:`entries_from_gamma` satisfy
    a00 = sum v0^2 / a0 (see `consistency_defect`).
    """

    a00: float
    a0: np.ndarray
    v0: np.ndarray

    def __post_init__(self):
        a0 = frozen_float_array(self.a0, "a0")
        v0 = frozen_float_array(self.v0, "v0")
        if a0.shape != v0.shape or a0.size < 1:
            raise ValueError("a0 and v0 must have equal length >= 1")
        object.__setattr__(self, "a00", float(self.a00))
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "v0", v0)

    @property
    def n(self) -> int:
        return self.a0.size

    def consistency_defect(self) -> float:
        """|a00 - sum_i v0_i^2 / a0_i|; zero when a diagonal shift is not needed."""
        if np.any(self.a0 == 0.0):
            return np.inf
        return abs(self.a00 - float(np.sum(self.v0**2 / self.a0)))


def do_sweep(entries: DOHamiltonianEntries) -> AffineHamiltonian:
    """The sweep H(t) = A + t D with only the corner level sloped: A is the
    real symmetric arrowhead with corner a00, flat diagonal a0 and couplings
    v0 in row and column 0."""
    n = entries.n
    a = np.zeros((n + 1, n + 1))
    a[0, 0] = entries.a00
    a[0, 1:] = entries.v0
    a[1:, 0] = entries.v0
    a[np.arange(1, n + 1), np.arange(1, n + 1)] = entries.a0
    d = np.zeros_like(a)
    d[0, 0] = 1.0
    return AffineHamiltonian(a, d)


def transition_table(entries: DOHamiltonianEntries) -> np.ndarray:
    """Exact infinite-time transition probabilities of :func:`do_sweep`.

    Entry [f, i] is the probability of ending in level f after starting in
    level i (index 0 is the sloped level), as in `transition_matrix`.  The
    sloped level crosses the flat ones in ascending a0, each crossing
    independently: it keeps p_k = exp(-2 pi v0_k^2) and hands 1 - p_k over
    (Demkov & Osherov, Sov. Phys. JETP 26, 916 (1968)).  Population moves only
    along the sloped level, so flat k reaches the sloped level, or a flat
    level crossed after k, through the crossings in between; every other
    transition has probability 0.  A decoupled level (v0_k = 0) stays put.
    """
    require_distinct(entries.a0, "flat diagonal a0")
    order = np.argsort(entries.a0)
    exponent = -2.0 * np.pi * entries.v0[order] ** 2
    p, q = np.exp(exponent), -np.expm1(exponent)
    level = order + 1
    table = np.zeros((entries.n + 1, entries.n + 1))
    table[0, 0] = np.prod(p)
    table[level, level] = p
    for k in range(entries.n):
        table[level[k], 0] = np.prod(p[:k]) * q[k]
        table[0, level[k]] = q[k] * np.prod(p[k + 1 :])
        for j in range(k + 1, entries.n):
            table[level[j], level[k]] = q[k] * np.prod(p[k + 1 : j]) * q[j]
    return table


def bow_tie_sweep(r, base: DOHamiltonianEntries) -> AffineHamiltonian:
    """All-levels-sloped sweep: diagonal slopes (1, r_1 + 1, ..., r_n + 1)."""
    r = np.asarray(r, dtype=float)
    if r.shape != base.a0.shape:
        raise ValueError(f"expected {base.n} slopes, got shape {r.shape}")
    a = do_sweep(DOHamiltonianEntries(base.a00, np.zeros(base.n), base.v0)).a
    d = np.diag(np.concatenate([[1.0], r + 1.0]))
    return AffineHamiltonian(a, d)


def entries_from_gamma(p: DOParams) -> DOHamiltonianEntries:
    """Map solvability coordinates to Hamiltonian entries.

    The output satisfies a00 = sum v0^2/a0 identically and the sign identity
    v0_i / a0_i = -gamma_i / gamma_0.
    """
    g = p.gamma
    e = p.epsilon
    v0 = g[0] * g[1:] / (e[0] - e[1:])
    a0 = g[0] ** 2 / (e[1:] - e[0])
    a00 = float(np.sum(g[1:] ** 2 / (e[1:] - e[0])))
    return DOHamiltonianEntries(a00=a00, a0=a0, v0=v0)


def gamma_from_entries(entries: DOHamiltonianEntries) -> tuple:
    """Invert :func:`entries_from_gamma` up to gauge, returning (params, shift).

    A constant `shift` is added to the whole diagonal so the consistency
    relation a00 = sum v0^2/a0 holds, then gamma and epsilon are read off in
    the gauge eps_0 = 0, gamma_0 = 1 (a one-parameter rescaling gauge makes
    gamma_0 a free choice; the Hamiltonian is unchanged).  The relation is
    det(A + shift I) = 0 for the t = 0 arrowhead A, so the candidate shifts
    are minus its eigenvalues, all real; the one of smallest magnitude, at
    most _MAX_SHIFT, is selected and refined by one Newton step on the relation.
    """
    if np.any(entries.v0 == 0.0):
        raise DegenerateSpectralError("zero coupling: the inverse map needs v0_i != 0")
    shifts = -np.linalg.eigvalsh(do_sweep(entries).a.real)[::-1]
    usable = (np.abs(shifts) <= _MAX_SHIFT) & np.all(entries.a0 + shifts[:, None] != 0.0, axis=1)
    if not np.any(usable):
        raise NoRealShiftError(
            f"no real diagonal shift in [{-_MAX_SHIFT:g}, {_MAX_SHIFT:g}] makes the entries consistent"
        )
    shift = float(min(shifts[usable], key=abs))
    # the relation's slope 1 + sum v0^2 / (a0 + a)^2 reaches ~1e3 when a shifted flat level
    # lands near 0, and would magnify eigvalsh's rounding in the consistency defect
    den = entries.a0 + shift
    shift -= (entries.a00 + shift - np.sum(entries.v0**2 / den)) / (1.0 + np.sum(entries.v0**2 / den**2))
    a0 = entries.a0 + shift
    require_distinct(a0, "shifted diagonal a0")
    epsilon = np.concatenate([[0.0], 1.0 / a0])
    gamma = np.concatenate([[1.0], -entries.v0 / a0])
    return DOParams(gamma=gamma, epsilon=epsilon), shift


def _secular_polynomial(g2: np.ndarray, e: np.ndarray, t: float) -> np.ndarray:
    """Coefficients of t * prod_j (x - e_j) - sum_i g2_i prod_{j != i} (x - e_j)."""
    coeffs = t * np.atleast_1d(np.poly(e))
    for i in range(e.size):
        rest = g2[i] * np.atleast_1d(np.poly(np.delete(e, i)))
        coeffs = coeffs - np.pad(rest, (len(coeffs) - len(rest), 0))
    return coeffs


def spectral_roots(p: DOParams, t: float) -> np.ndarray:
    """All n+1 roots of  t = sum_k gamma_k^2 / (x - eps_k), sorted ascending.

    At t = 0 the exterior root is at infinity; it is reported as +inf (the
    t -> 0+ limit).  The secular polynomial is solved over the coupled levels
    only, and its companion-matrix roots are polished by Newton iteration on
    the rational form, which restores full precision near the poles.  Each
    decoupled pole (gamma_k = 0) is then appended as an exactly frozen root.
    """
    g2 = p.gamma**2
    active = g2 > 0.0
    g2, e = g2[active], p.epsilon[active]
    coeffs = _secular_polynomial(g2, e, t)
    if t == 0.0:
        coeffs = coeffs[1:]  # degree drops by one; exterior root escapes
    roots = np.roots(coeffs).real.astype(float)
    for _ in range(3):
        d = roots[:, None] - e[None, :]
        f = (g2[None, :] / d).sum(axis=1) - t
        fp = -(g2[None, :] / d**2).sum(axis=1)
        roots = roots - f / fp
    roots = np.sort(np.concatenate([roots, p.epsilon[~active]]))
    if t == 0.0:
        roots = np.append(roots, np.inf)
    return roots


def eigenpairs(p: DOParams, t: float) -> tuple:
    """(energies, vectors) of every root branch at time t, from one root solve.

    Branches index the ascending-sorted output of :func:`spectral_roots`;
    vectors[:, m] is the unit eigenvector of branch m, with components
    gamma_k / (x - eps_k).  At a root frozen on a decoupled pole (equal to it,
    as :func:`spectral_roots` returns it) the eigenvector is the bare basis
    vector of that level, and at the t = 0 exterior root (x at infinity) the
    limit is the coupling vector gamma itself with eigenvalue exactly 0.  A
    live root within _POLE_TOL (times the pole scale) of a coupled pole
    raises DegenerateSpectralError.
    """
    roots = spectral_roots(p, t)
    e = p.epsilon
    g = p.gamma
    near = _POLE_TOL * max(1.0, float(np.abs(e).max()))
    vectors = np.empty((roots.size, roots.size))
    for m, x in enumerate(roots):
        frozen = (x == e) & (g == 0.0)
        collides = (np.abs(x - e) < near) & (g != 0.0)
        if np.isinf(x):
            vec = g
        elif np.any(frozen):
            vec = frozen.astype(float)
        elif np.any(collides):
            raise DegenerateSpectralError(f"root collides with coupled pole eps_{int(np.argmax(collides))}")
        else:
            vec = g / (x - e)
        vectors[:, m] = vec / np.linalg.norm(vec)
    return _energies(p, roots), vectors


def _energies(p: DOParams, roots: np.ndarray) -> np.ndarray:
    """gamma_0^2 / (x - eps_0) for every root, with the t = 0 exterior root
    (x at infinity) at energy exactly 0."""
    with np.errstate(divide="ignore"):
        energies = p.gamma[0] ** 2 / (roots - p.epsilon[0])
    energies[np.isinf(roots)] = 0.0
    return energies


@dataclass(frozen=True)
class SpectralFlow:
    """Continuously labelled root branches over a time grid.

    branches[k, m] is branch m at t_grid[k]; energies holds the matching
    eigenvalues gamma_0^2 / (x - eps_0).  Branch labels record the spectral
    interval each branch occupies ("interval:i" between the (i+1)-th and
    (i+2)-th coupled poles, "exterior" outside the pole hull, "frozen:<eps_k>"
    at a decoupled pole); columns are ordered by ascending root value at the
    first grid point.
    """

    t_grid: np.ndarray
    branches: np.ndarray
    energies: np.ndarray
    labels: tuple


def track_spectral_flow(p: DOParams, t_grid) -> SpectralFlow:
    """Follow every root branch across a monotone time grid.

    Each branch is labelled by position, as interlacing fixes it (Golub, SIAM
    Rev. 15, 318 (1973)): frozen roots are the decoupled poles, and the live
    roots in ascending order are interval:0 .. interval:m-2 between the m
    coupled poles, plus the exterior root, which is last for t >= 0 and first
    for t < 0 (it switches sides through +-infinity at t = 0).  The live roots
    come from one :func:`spectral_roots` solve per grid point over the coupled
    levels alone.  NumericalError names the first t at which an interval root
    leaves its interval, a live root comes within 1e-12 (times the pole scale)
    of a coupled pole, or the exterior root is not outside the pole hull on the
    sign(t) side.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 2 or not np.all(np.diff(t_grid) > 0):
        raise ValueError("t_grid must be strictly increasing with >= 2 points")
    active = p.gamma**2 > 0.0
    poles = np.sort(p.epsilon[active])
    frozen_poles = np.sort(p.epsilon[~active])
    scale = max(1.0, float(np.abs(p.epsilon).max()))

    coupled = DOParams(gamma=p.gamma[active], epsilon=p.epsilon[active])
    live = np.array([spectral_roots(coupled, t) for t in t_grid])
    negative = t_grid < 0.0
    live[negative] = np.roll(live[negative], -1, axis=1)  # exterior last on every row

    inside = (live[:, :-1] > poles[:-1]) & (live[:, :-1] < poles[1:])
    clear = np.abs(live[:, :, None] - poles) > 1e-12 * scale
    exterior = np.where(negative, live[:, -1] < poles[0], live[:, -1] > poles[-1])
    ok = inside.all(axis=1) & clear.all(axis=(1, 2)) & exterior
    if not np.all(ok):
        t = float(t_grid[np.argmin(ok)])
        raise NumericalError(f"spectral roots at t={t!r} break interlacing with the coupled poles")

    table = np.hstack([live, np.broadcast_to(frozen_poles, (t_grid.size, frozen_poles.size))])
    labels = [f"interval:{i}" for i in range(poles.size - 1)] + ["exterior"]
    labels += ["frozen:%g" % pole for pole in frozen_poles]
    order = np.argsort(table[0], kind="stable")  # columns by ascending root at t_grid[0]
    branches = table[:, order]
    return SpectralFlow(
        t_grid=t_grid.copy(),
        branches=branches,
        energies=_energies(p, branches),
        labels=tuple(labels[i] for i in order),
    )
