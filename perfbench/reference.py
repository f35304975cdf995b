"""Independent references for the benchmark's output checks.

Nothing here imports lzi.  Every model matrix, map and closed form is written
out again from the model definitions in the repository README, so a check
that compares lzi's output with these values compares two separate
computations:

* finite-window transition tables from scipy's DOP853 integrator applied to
  the interaction-picture equation;
* the Landau-Zener and Demkov-Osherov infinite-time survival probabilities;
* a first-order finite-horizon bound on how far a raw table entry may sit
  from its infinite-time value (derivation in README.md);
* the exact frequency-space solution and the Fresnel transform of its
  trivial (m = -1) branch;
* the arrowhead matrix of the one-sloped-level model, built from the
  (gamma, epsilon) map.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.integrate import solve_ivp

# ---------------------------------------------------------------------------
# sweep matrices H(t) = A + t D


def ado_matrices(gamma, a):
    """Two unit-slope levels (0, 1) over flat levels a_2..a_n, rank-one couplings."""
    g = np.asarray(gamma, dtype=float)
    n = g.size - 1
    amat = np.outer(g, g)
    amat[2:, 2:] = 0.0  # flat levels do not couple among themselves
    amat[np.arange(2, n + 1), np.arange(2, n + 1)] = np.asarray(a, dtype=float)
    dmat = np.zeros((n + 1, n + 1))
    dmat[0, 0] = dmat[1, 1] = 1.0
    return amat, dmat


def do_entries(gamma, epsilon):
    """(a00, a0, v0) of the arrowhead from solvability coordinates (gamma, epsilon)."""
    g = np.asarray(gamma, dtype=float)
    e = np.asarray(epsilon, dtype=float)
    v0 = g[0] * g[1:] / (e[0] - e[1:])
    a0 = g[0] ** 2 / (e[1:] - e[0])
    a00 = float(np.sum(g[1:] ** 2 / (e[1:] - e[0])))
    return a00, a0, v0


def arrowhead(gamma, epsilon, t: float) -> np.ndarray:
    """One sloped level (corner, slope 1) crossing n flat levels, at time t."""
    a00, a0, v0 = do_entries(gamma, epsilon)
    n = a0.size
    h = np.zeros((n + 1, n + 1))
    h[0, 0] = t + a00
    h[0, 1:] = h[1:, 0] = v0
    h[np.arange(1, n + 1), np.arange(1, n + 1)] = a0
    return h


def do_matrices(gamma, epsilon):
    amat = arrowhead(gamma, epsilon, 0.0)
    dmat = np.zeros_like(amat)
    dmat[0, 0] = 1.0
    return amat, dmat


def bow_tie_matrices(gamma, epsilon, r):
    """Arrowhead couplings, flat diagonal replaced by slopes r_i + 1."""
    a00, a0, v0 = do_entries(gamma, epsilon)
    amat = np.zeros((a0.size + 1, a0.size + 1))
    amat[0, 0] = a00
    amat[0, 1:] = amat[1:, 0] = v0
    dmat = np.diag(np.concatenate([[1.0], np.asarray(r, dtype=float) + 1.0]))
    return amat, dmat


# ---------------------------------------------------------------------------
# finite-window transition tables


def transition_table(amat, dmat, horizon: float, rtol: float = 1e-10, atol: float = 1e-12):
    """|U_fi|^2 for the sweep H(t) = A + t D over [-horizon, horizon].

    With psi = exp(i Lambda(t)) c and Lambda(t) = diag(A) t + diag(D) t^2 / 2,
    the equation -i dpsi/dt = H psi becomes
        dc_j/dt = i sum_k exp(-i (Lambda_j - Lambda_k)) H_jk c_k   (j != k),
    whose right-hand side stays bounded as |t| grows.  The diagonal phases
    drop out of |U|^2.  D must be diagonal.  Entry [f, i] is the probability
    of ending in level f after starting in level i.
    """
    amat = np.asarray(amat, dtype=float)
    dmat = np.asarray(dmat, dtype=float)
    if np.any(dmat != np.diag(np.diag(dmat))):
        raise ValueError("the reference integrator needs a diagonal slope matrix")
    dim = amat.shape[0]
    da = np.diag(amat).copy()
    dd = np.diag(dmat).copy()
    off = amat - np.diag(da)

    def rhs(t, y):
        phase = np.exp(1j * (da * t + 0.5 * dd * t * t))
        gen = np.conj(phase)[:, None] * off * phase[None, :]
        return (1j * (gen @ y.reshape(dim, dim))).ravel()

    sol = solve_ivp(
        rhs,
        (-horizon, horizon),
        np.eye(dim, dtype=complex).ravel(),
        method="DOP853",
        rtol=rtol,
        atol=atol,
    )
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    u = sol.y[:, -1].reshape(dim, dim)
    return np.abs(u) ** 2


# ---------------------------------------------------------------------------
# infinite-time probabilities and the finite-horizon bound


def lz_survival_ado(gamma) -> float:
    """Flat-level survival of the three-level two-parallel-slopes sweep:
    P22 = exp(-2 pi (g0^2 + g1^2) g2^2)."""
    g0, g1, g2 = (float(x) for x in gamma)
    return math.exp(-2.0 * math.pi * (g0 * g0 + g1 * g1) * g2 * g2)


def do_survivals(gamma, epsilon):
    """Demkov-Osherov survival probabilities (slope difference 1):
    P00 = exp(-2 pi sum_k v_k^2) for the sloped level and
    Pkk = exp(-2 pi v_k^2) for flat level k (Sov. Phys. JETP 26, 916 (1968))."""
    _, _, v0 = do_entries(gamma, epsilon)
    p00 = math.exp(-2.0 * math.pi * float(np.sum(v0**2)))
    return p00, [math.exp(-2.0 * math.pi * float(v * v)) for v in v0]


def _tail_amplitude(amat, slopes, k: int, j: int, reach: float, s: float) -> float:
    """|A_kj| / (|D_kk - D_jj| reach - |A_kk - A_jj| - s): first order in the
    coupling, the amplitude level k gains from partner j beyond time `reach`.
    The phase of the pair turns at |D_kk - D_jj| t + (A_kk - A_jj), and the
    partner's own amplitude turns at no more than s, the largest Gershgorin
    radius of A, so one integration by parts gives the bound."""
    rate = abs(slopes[k] - slopes[j]) * reach - abs(amat[k, k] - amat[j, j]) - s
    if slopes[k] == slopes[j]:
        raise ValueError(f"levels {k} and {j} are coupled with equal slopes")
    if rate <= 0.0:
        raise ValueError(f"time {reach} inside the crossing region of levels {k} and {j}")
    return abs(amat[k, j]) / rate


def horizon_bound(amat, dmat, level: int, horizon: float) -> float:
    """First-order bound on |P_kk(horizon) - P_kk(inf)| for a diagonal entry.

    Each window edge leaves a tail amplitude `_tail_amplitude` per partner;
    with eps the sum over both edges and all partners, |dP| <= 2 eps + eps^2.
    Partners with the same slope have no decaying tail; the bound refuses them.
    """
    amat = np.asarray(amat, dtype=float)
    slopes = np.diag(np.asarray(dmat, dtype=float))
    s = float(np.abs(amat).sum(axis=1).max())
    eps = sum(
        2.0 * _tail_amplitude(amat, slopes, level, j, horizon, s)
        for j in range(amat.shape[0])
        if j != level and amat[level, j] != 0.0
    )
    return 2.0 * eps + eps * eps


def start_bound(amat, dmat, start_levels, t0: float) -> float:
    """First-order bound on how far populations drift from the scattering
    solution when a run starts at finite t0 < 0 inside `start_levels`: the
    exact solution already holds tail amplitude on every level k outside,
    at most `_tail_amplitude` per partner j inside.  With eps the sum,
    |dP| <= 2 eps + eps^2 at every later time."""
    amat = np.asarray(amat, dtype=float)
    slopes = np.diag(np.asarray(dmat, dtype=float))
    s = float(np.abs(amat).sum(axis=1).max())
    eps = sum(
        _tail_amplitude(amat, slopes, k, j, -t0, s)
        for k in range(amat.shape[0])
        if k not in start_levels
        for j in start_levels
        if amat[k, j] != 0.0
    )
    return 2.0 * eps + eps * eps


# ---------------------------------------------------------------------------
# exact frequency-space solution of the two-parallel-slopes model


def _log_above(x: float) -> complex:
    """log(x + i0): log|x| on the right of the branch point, + i pi on the left."""
    return complex(math.log(abs(x)), math.pi if x < 0.0 else 0.0)


def ado_spectral_data(gamma, a):
    """(beta1, betas, unit spatial direction) of the rank-one model."""
    g = np.asarray(gamma, dtype=float)
    beta1 = 0.5 * (g[0] ** 2 + g[1] ** 2)
    betas = g[2:] ** 2 * beta1
    direction = np.array([g[0] * g[1], 0.0, 0.5 * (g[0] ** 2 - g[1] ** 2)]) / beta1
    return beta1, betas, direction


def spinor(direction, m: int) -> np.ndarray:
    """Unit eigenvector of n.sigma with eigenvalue m, phase fixed so its
    first component of magnitude above 1e-8 is real and positive."""
    nx, ny, nz = (float(x) for x in direction)
    if m == -1:
        vec = np.array([nx - 1j * ny, -(1.0 + nz)]) if 1.0 + nz > 1e-12 else np.array([0.0, 1.0])
    else:
        vec = np.array([nx - 1j * ny, 1.0 - nz]) if 1.0 - nz > 1e-12 else np.array([1.0, 0.0])
    vec = vec.astype(complex) / np.linalg.norm(vec)
    pivot = 0 if abs(vec[0]) > 1e-8 else 1
    return vec / (vec[pivot] / abs(vec[pivot]))


def _prefactor(betas, a) -> complex:
    """prod_{i<j} (a_i - a_j)^(-2 i beta_i beta_j) on the + i0 branch."""
    out = 0j
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            out += -2j * betas[i] * betas[j] * _log_above(a[i] - a[j])
    return cmath.exp(out)


def frequency_solution(gamma, a, m: int, omega: float) -> np.ndarray:
    """Phi(omega) = exp(i omega^2/2) C prod_k (omega - a_k)^(-i beta_k (1+m))
    exp(-i beta1 (1+m) omega) xi_m."""
    beta1, betas, direction = ado_spectral_data(gamma, a)
    expo = 0.5j * omega * omega - 1j * beta1 * (1 + m) * omega
    for beta, ak in zip(betas, a):
        expo += -1j * beta * (1 + m) * _log_above(omega - ak)
    return _prefactor(betas, a) * cmath.exp(expo) * spinor(direction, m)


def trivial_branch_amplitude(gamma, a, t: float) -> np.ndarray:
    """Fresnel transform of the m = -1 branch, exact:
    int exp(i omega^2/2 + i omega t) d omega = sqrt(2 pi) e^{i pi/4} e^{-i t^2/2}."""
    _, betas, direction = ado_spectral_data(gamma, a)
    fresnel = math.sqrt(2.0 * math.pi) * cmath.exp(0.25j * math.pi - 0.5j * t * t)
    return fresnel * _prefactor(betas, a) * spinor(direction, -1)


def modulus_steps(gamma, a) -> np.ndarray:
    """Factor by which |Phi_{m=+1}| grows when omega crosses a_k from above:
    |(omega - a_k + i0)^(-2 i beta_k)| jumps from 1 to e^{2 pi beta_k}."""
    _, betas, _ = ado_spectral_data(gamma, a)
    return np.exp(2.0 * math.pi * betas)
