"""Two parallel sloped levels over a bank of flat levels.

The (n+1) x (n+1) sweep Hamiltonian couples levels 0 and 1 (both with unit
slope) to each other and to n-1 flat levels a_2..a_n; the flat levels do not
couple among themselves.  Rank-one couplings v_ij = gamma_i gamma_j make the
model exactly solvable: eliminating the flat amplitudes in frequency space
and removing the quadratic phase exp(i omega^2 / 2) reduces the problem to a
2 x 2 system

    i dPhi/domega = [ b1.S + sum_k bk.S / (omega - a_k) ] Phi,

where S = (1, sigma_x, sigma_y, sigma_z) and the classical four-vectors b
are quadratic in the couplings.  In the rank-one case all spatial parts are
parallel (bk = gamma_k^2 * b1), the companion operators

    H_k = sum_{k' != k} b_k.b_{k'} / (a_k - a_{k'}) + b_k.S / (a_k - omega)

commute with each other and with the omega-side operator, the whole family
is a flat connection in (omega, a_2..a_n), and the system integrates in
closed form (:func:`closed_form_solution`).  The resulting
:class:`EKZSolution` carries the :class:`BVectorSet` it was built from, so its
residual check reads H_1 and H_k off the same four-vectors.

Conventions fixed here and pinned by tests:

* The four-vector product b.b' is Euclidean over all four components (a
  spatial-only product fails the a_k equations of the closed form).
* The classical-classical sum in H_k runs symmetrically over k' != k (a
  one-sided sum breaks the scalar part of the zero-curvature identity).
  The tests build both wrong variants as negative controls.
* Complex powers (omega - a_k)^(-i beta) use the principal logarithm with
  the omega + i0 prescription: arg = 0 above the branch point, +pi below.
* The assembled solution includes the exp(i omega^2 / 2) factor, so it
  satisfies dPhi/domega = i (omega - H_1) Phi and dPhi/da_k = -i H_k Phi.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ._util import frozen_float_array, require_distinct, require_squarable
from .errors import BranchPointError, DegenerateSpectralError, QuadratureError
from .propagator import AffineHamiltonian
from .spin import commutator, max_abs, pauli_u2_basis

__all__ = [
    "ADOParams",
    "BVectorSet",
    "EKZSolution",
    "QuadratureSpec",
    "FourierResult",
    "ado_sweep",
    "coupling_matrix",
    "b_vectors",
    "b_vector_stack",
    "ekz_operators",
    "zero_curvature_residual",
    "spinor_eigenbasis",
    "closed_form_solution",
    "ekz_residual_check",
    "time_domain_wavefunction",
    "survival_from_transform",
    "lz_probability",
]

_PAULI = pauli_u2_basis()


@dataclass(frozen=True)
class ADOParams:
    """Couplings gamma_0..gamma_n and flat-level positions a_2..a_n.

    gamma has n+1 entries; `a` has n-1 pairwise distinct entries for the flat
    levels (empty means a two-level sweep).  Couplings are rank-one by
    construction: v_ij = gamma_i gamma_j.
    """

    gamma: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        gamma = frozen_float_array(self.gamma, "gamma")
        a = frozen_float_array(self.a, "a")
        if gamma.size < 3:
            raise ValueError("need at least gamma_0, gamma_1 and one flat level")
        if a.size != gamma.size - 2:
            raise ValueError(f"expected {gamma.size - 2} flat levels, got {a.size}")
        require_squarable(gamma, "gamma")
        if gamma[0] ** 2 + gamma[1] ** 2 == 0.0:
            raise DegenerateSpectralError("gamma_0 = gamma_1 = 0 leaves no sloped coupling")
        require_distinct(a, "flat-level positions a")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "a", a)

    @property
    def n(self) -> int:
        return self.gamma.size - 1


def coupling_matrix(p: ADOParams) -> np.ndarray:
    """The full rank-one coupling table gamma gamma^T."""
    return np.outer(p.gamma, p.gamma)


def ado_sweep(p: ADOParams) -> AffineHamiltonian:
    """The sweep H(t) = A + t D with the first two levels sloped: A has the
    diagonal (gamma_0^2, gamma_1^2, a_2, .., a_n), the rank-one couplings in
    rows and columns 0 and 1 and exact zeros among the flat levels, and
    D = diag(1, 1, 0, .., 0)."""
    g = p.gamma
    a = np.diag(np.concatenate([[0.0, 0.0], p.a]))
    a[:2] = np.outer(g[:2], g)
    a[0, 0], a[1, 1] = g[0] ** 2, g[1] ** 2
    a[2:, :2] = a[:2, 2:].T
    return AffineHamiltonian(a, np.diag([1.0, 1.0] + [0.0] * p.a.size))


@dataclass(frozen=True)
class BVectorSet:
    """Classical four-vectors of the 2 x 2 reduction.

    b1 couples to the quantum spin directly; bk[j] (for flat level j+2) enters
    with weight 1/(omega - a_j).  betas are the Euclidean norms of the spatial
    parts; unit_n is the common spatial direction in the parallel case (taken
    from the largest spatial part otherwise).  Whether the parts are parallel
    is not recorded: the verify suites see a loss of parallelism as
    commutator defects of the EKZ operators.

    A set from :func:`b_vector_stack` holds several models at once: each field
    then carries a leading axis over the models (beta1 becomes an array).
    """

    b1: np.ndarray
    bk: np.ndarray
    beta1: float
    betas: np.ndarray
    unit_n: np.ndarray
    a: np.ndarray

    @property
    def n_classical(self) -> int:
        return self.bk.shape[-2]


def _four_vector_pair(v00, v11, v01) -> np.ndarray:
    return np.stack([(v00 + v11) / 2.0, v01, np.zeros_like(v01), (v00 - v11) / 2.0], axis=-1)


def _scalar_squares(x: np.ndarray) -> np.ndarray:
    """x ** 2 entry by entry as a numpy scalar power, which can round
    differently from an array's x * x; the four-vectors are defined with it."""
    return np.array([t**2 for t in x.flat]).reshape(x.shape)


def b_vector_stack(params, v) -> BVectorSet:
    """The four-vectors of several models of one level count n + 1 at once:
    v[s] is the symmetric (n + 1) x (n + 1) coupling table of params[s], of
    which only rows 0 and 1 are used.  Entry s of every field is model s's
    own, equal to b_vectors(params[s]) for its rank-one table; a table that
    is not rank-one is accepted as it is.
    """
    n = params[0].n
    v = np.asarray(v, dtype=float)
    if any(p.n != n for p in params) or v.shape != (len(params), n + 1, n + 1):
        raise ValueError(f"need one {(n + 1, n + 1)} coupling table per model, got {v.shape}")
    if np.any(np.abs(v - v.swapaxes(1, 2)).max(axis=(1, 2)) > 1e-12):
        raise ValueError("coupling table must be symmetric")
    return _four_vectors(params, v)


def _four_vectors(params, v: np.ndarray) -> BVectorSet:
    b1 = _four_vector_pair(v[:, 0, 0], v[:, 1, 1], v[:, 0, 1])
    v0, v1 = v[:, 0, 2:], v[:, 1, 2:]
    bk = _four_vector_pair(_scalar_squares(v0), _scalar_squares(v1), v0 * v1)
    spatial = np.concatenate([b1[:, None, 1:], bk[:, :, 1:]], axis=1)
    norms = np.linalg.norm(spatial, axis=-1)
    if not np.all(np.any(norms > 0.0, axis=1)):
        raise DegenerateSpectralError("all spatial parts vanish; no direction defined")
    rows = np.arange(len(params))
    unit_n = spatial[rows, np.argmax(norms, axis=1)] / norms.max(axis=1)[:, None]
    return BVectorSet(b1=b1, bk=bk, beta1=norms[:, 0], betas=norms[:, 1:], unit_n=unit_n,
                      a=np.array([p.a for p in params]))


def b_vectors(p: ADOParams) -> BVectorSet:
    """Reduce the rank-one couplings to the classical four-vectors:
    b1 = ((g0^2+g1^2)/2, g0 g1, 0, (g0^2-g1^2)/2) and bk = gamma_k^2 * b1, so
    every spatial part is parallel and beta_k equals the time component b_k^0.
    An explicit coupling table goes through :func:`b_vector_stack`.
    """
    stack = _four_vectors([p], coupling_matrix(p)[None])
    return BVectorSet(b1=stack.b1[0], bk=stack.bk[0], beta1=float(stack.beta1[0]),
                      betas=stack.betas[0], unit_n=stack.unit_n[0], a=stack.a[0])


def _contract(b4: np.ndarray) -> np.ndarray:
    """b^mu S^mu as 2 x 2 matrices (identity plus Pauli components), one per
    four-vector along the last axis of `b4`."""
    b4 = b4[..., None, None]
    return sum(b4[..., mu, :, :] * _PAULI[mu] for mu in range(4))


def _check_pole(b: BVectorSet, omega: np.ndarray) -> None:
    on_pole = np.any(omega[..., None] == b.a, axis=-1)
    if np.any(on_pole):
        value = float(np.broadcast_to(omega, on_pole.shape)[on_pole][0])
        raise DegenerateSpectralError(f"omega = {value!r} sits on a flat-level pole")


def _hk_scalars(b: BVectorSet) -> np.ndarray:
    """Classical-classical parts of every H_k: the sum of b_k.b_k' / (a_k - a_k')
    over every k' != k, added in k' order."""
    # a row @ column product is np.dot's sum, so each pair's dot rounds as np.dot does
    dots = (b.bk[..., :, None, None, :] @ b.bk[..., None, :, :, None])[..., 0, 0]
    out = np.zeros(b.a.shape)
    for j in range(b.n_classical):
        for jp in range(b.n_classical):
            if jp != j:
                out[..., j] += dots[..., j, jp] / (b.a[..., j] - b.a[..., jp])
    return out


def ekz_operators(b: BVectorSet, omega) -> np.ndarray:
    """H_1 and the companion operators H_2..H_n at omega, as one stack: [0] is
    H_1 = b1.S + sum_k bk.S / (omega - a_k) and [k - 1] is

        H_k = sum_{k' != k} b_k.b_k' / (a_k - a_k') * identity + bk.S / (a_k - omega).

    `b` may be one set or a stack from :func:`b_vector_stack`, and omega one
    value or an array that broadcasts against the stack; the stack has shape
    (n, *batch, 2, 2), every operator built with the one-point arithmetic.
    """
    omega = np.asarray(omega, dtype=float)
    _check_pole(b, omega)
    contracted = _contract(b.bk)
    scalars = _hk_scalars(b)
    h1 = _contract(b.b1)
    hk = []
    for j in range(b.n_classical):
        weight = contracted[..., j, :, :]
        h1 = h1 + weight / (omega - b.a[..., j])[..., None, None]
        hk.append(scalars[..., j, None, None] * _PAULI[0]
                  + weight / (b.a[..., j] - omega)[..., None, None])
    return np.stack(np.broadcast_arrays(h1, *hk))


def zero_curvature_residual(b: BVectorSet, i: int, j: int, omega: float) -> float:
    """|| d_i H_j - d_j H_i - [H_i, H_j] ||, spectral labels running over
    {0, 2, .., n} with 0 standing for omega.

    The two derivatives are the same array bit for bit: for omega and a flat
    level k both are bk.S / (a_k - omega)^2, and for two flat levels the
    symmetric sum makes both b_i.b_j / (a_i - a_j)^2 times the identity.  So
    the residual is max_abs([H_i, H_j]), which vanishes below 1e-12 for
    parallel couplings.
    """
    labels = {0} | set(range(2, b.n_classical + 2))
    if i == j:
        raise ValueError("need two distinct spectral labels")
    if i not in labels or j not in labels:
        raise IndexError(f"labels must lie in {sorted(labels)}, got ({i}, {j})")
    if i != 0 and j == 0:
        i, j = j, i  # residual is symmetric up to sign; normalize order
    ops = ekz_operators(b, omega)
    return max_abs(commutator(ops[0 if i == 0 else i - 1], ops[j - 1]))


def spinor_eigenbasis(unit_n) -> tuple:
    """(xi_plus, xi_minus): orthonormal eigenvectors of n.sigma for |n| = 1.

    The phase is fixed by making the first component of significant magnitude
    real and positive.
    """
    n = np.asarray(unit_n, dtype=float)
    if n.shape != (3,) or abs(np.linalg.norm(n) - 1.0) > 1e-12:
        raise ValueError("unit_n must be a real 3-vector of unit length")
    mat = n[0] * _PAULI[1] + n[1] * _PAULI[2] + n[2] * _PAULI[3]
    _, vecs = np.linalg.eigh(mat)  # ascending: column 0 -> -1, column 1 -> +1
    out = []
    for col in (1, 0):
        xi = vecs[:, col]
        pivot = 0 if abs(xi[0]) > 1e-8 else 1
        phase = xi[pivot] / abs(xi[pivot])
        out.append(xi / phase)
    return out[0], out[1]


def _branch_log(x: float) -> complex:
    """Principal log of (x + i0): log|x| + i pi below zero."""
    if x == 0.0:
        raise BranchPointError("logarithm evaluated exactly at a branch point")
    return np.log(abs(x)) + (1j * np.pi if x < 0.0 else 0.0)


@dataclass(frozen=True)
class EKZSolution:
    """Closed-form frequency-space solution on one spinor branch.

    Evaluates

        Phi(omega, a) = exp(i omega^2/2)
                        * prod_{i<j} (a_i - a_j)^(-2 i beta_i beta_j)
                        * prod_j (omega - a_j)^(-i beta_j (1+m))
                        * exp(-i omega beta1 (1+m)) * xi_m

    on the fixed omega + i0 branch, with beta1, beta_j and the default a
    taken from the four-vectors b.  The m = -1 branch has no power-law
    factors at all, so its modulus is omega-independent.
    """

    m: int
    xi: np.ndarray
    b: BVectorSet

    def scalar(self, omega: float, a=None) -> complex:
        b = self.b
        a = b.a if a is None else np.asarray(a, dtype=float)
        one_plus_m = 1 + self.m
        acc = 1j * omega**2 / 2.0 - 1j * b.beta1 * one_plus_m * omega
        for j in range(a.size):
            if omega == a[j]:
                raise BranchPointError(f"omega = a_{j + 2} = {float(a[j])!r}")
            acc = acc - 1j * b.betas[j] * one_plus_m * _branch_log(omega - a[j])
        for i, j in itertools.combinations(range(a.size), 2):
            acc = acc - 2j * b.betas[i] * b.betas[j] * _branch_log(a[i] - a[j])
        return complex(np.exp(acc))

    def __call__(self, omega: float, a=None) -> np.ndarray:
        return self.scalar(omega, a) * self.xi


_LOG_MAX = float(np.log(np.finfo(float).max))  # about 709.78


def closed_form_solution(p: ADOParams, m: int) -> EKZSolution:
    """Assemble the exact frequency-space solution for branch m = +-1.

    Below every flat level each power-law factor has its largest modulus, so
    log |Phi| there is L = pi (1+m) sum_k beta_k + 2 pi sum beta_i beta_j over
    the pairs i < j with a_i < a_j; couplings with 2 L beyond the log of the
    largest double, where |Phi|^2 cannot be represented, are rejected.
    """
    if m not in (+1, -1):
        raise ValueError(f"branch m must be +1 or -1, got {m}")
    b = b_vectors(p)
    betas, a = b.betas.tolist(), b.a.tolist()  # Python floats overflow to inf quietly
    log_modulus = np.pi * (1 + m) * sum(betas) + 2.0 * np.pi * sum(
        betas[i] * betas[j] for i, j in itertools.combinations(range(len(a)), 2) if a[i] < a[j])
    if not 2.0 * log_modulus <= _LOG_MAX:
        raise ValueError("gamma is too large: |Phi|^2 of the closed form overflows below the flat levels")
    xi_plus, xi_minus = spinor_eigenbasis(b.unit_n)
    return EKZSolution(m=m, xi=xi_plus if m == +1 else xi_minus, b=b)


def ekz_residual_check(sol: EKZSolution, omega: float, h: float = 1e-4, ops=None):
    """Central-difference residuals of the defining system at one point.

    Returns (r_omega, r_a) where r_omega measures dPhi/domega - i(omega - H_1)Phi
    and r_a[j] measures dPhi/da_j + i H_j Phi, with H_1 and H_j built from the
    solution's own four-vectors, or taken from `ops`, the stack
    ekz_operators(sol.b, omega) when the caller has already built it.  Points
    closer than 10 h to any branch point (or with flat-level gaps below 10 h)
    are rejected, and so is a step h that is not positive.
    """
    if not h > 0.0:
        raise ValueError(f"residual step h must be positive, got {h!r}")
    b = sol.b
    a = b.a
    if a.size and np.abs(omega - a).min() <= 10.0 * h:
        raise BranchPointError("omega within 10 h of a branch point")
    if a.size >= 2:
        gaps = np.abs(a[:, None] - a[None, :])[~np.eye(a.size, dtype=bool)]
        if gaps.min() <= 10.0 * h:
            raise BranchPointError("flat-level gap within 10 h")
    if ops is None:
        ops = ekz_operators(b, omega)
    phi = sol(omega, a)
    d_omega = (sol(omega + h, a) - sol(omega - h, a)) / (2.0 * h)
    r_omega = max_abs(d_omega - 1j * (omega * phi - ops[0] @ phi))
    r_a = np.empty(a.size)
    for j in range(a.size):
        ap = a.copy()
        ap[j] += h
        am = a.copy()
        am[j] -= h
        d_a = (sol(omega, ap) - sol(omega, am)) / (2.0 * h)
        r_a[j] = max_abs(d_a + 1j * (ops[j + 1] @ phi))
    return float(r_omega), r_a


_MAX_DOUBLINGS = 6  # window doublings before the transform gives up
_TAPER_FRACTION = 0.1  # outer fraction of the window over which the weight falls to 0


@dataclass(frozen=True)
class QuadratureSpec:
    """Window-doubling control for the oscillatory Fourier transform."""

    tolerance: float = 1e-4
    initial_window: float = 32.0

    def __post_init__(self):
        for name in ("tolerance", "initial_window"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class FourierResult:
    """One time-domain evaluation with its error bookkeeping."""

    amplitudes: np.ndarray
    error_estimate: float
    window: float


def _windowed_transform(sol: EKZSolution, t: float, center: float, window: float, tolerance: float):
    # the phase reaches (|center| + window)^2 / 2 at the window's edge, and rounding moves it
    # by eps times that; a t that far out has no resolvable transform
    span = abs(float(center)) + window
    if np.finfo(float).eps * span * span > tolerance:
        raise QuadratureError(f"t = {t!r}: rounding moves the transform's phase by more than "
                              f"the tolerance {tolerance:g} in a window of {window:g}")
    from scipy.integrate import quad  # on first use: it costs more than the rest of `import lzi`

    flat = 1.0 - _TAPER_FRACTION

    def weight(om: float) -> float:
        x = abs(om - center) / window
        if x <= flat:
            return 1.0
        if x >= 1.0:
            return 0.0
        return 0.5 * (1.0 + np.cos(np.pi * (x - flat) / _TAPER_FRACTION))

    def integrand(om: float) -> complex:
        return weight(om) * sol.scalar(om) * np.exp(1j * om * t)

    lo, hi = center - window, center + window
    interior = [float(x) for x in sol.b.a if lo < x < hi]
    limit = min(int(200 + window * window / 3.0), 50_000)
    re, re_err = quad(lambda om: integrand(om).real, lo, hi,
                      limit=limit, points=interior or None, epsabs=1e-10, epsrel=1e-9)
    im, im_err = quad(lambda om: integrand(om).imag, lo, hi,
                      limit=limit, points=interior or None, epsabs=1e-10, epsrel=1e-9)
    return complex(re, im), re_err + im_err


def time_domain_wavefunction(sol: EKZSolution, t: float,
                             qspec: QuadratureSpec | None = None) -> FourierResult:
    """Evaluate the real-time wavefunction integral dOmega Phi(omega) e^{i omega t}.

    The window is centred on the stationary-phase point beta1 (1+m) - t,
    tapered over its outer fraction, and doubled until two successive values
    agree within the requested tolerance; QuadratureError otherwise, and also
    for a window whose phase rounding alone exceeds the tolerance
    (eps (|centre| + window)^2 > tolerance), as at |t| ~ 1e30.
    """
    qspec = qspec or QuadratureSpec()
    center = sol.b.beta1 * (1 + sol.m) - t
    window = qspec.initial_window
    value, quad_err = _windowed_transform(sol, t, center, window, qspec.tolerance)
    for _ in range(_MAX_DOUBLINGS):
        window2 = 2.0 * window
        value2, quad_err2 = _windowed_transform(sol, t, center, window2, qspec.tolerance)
        delta = abs(value2 - value)
        if delta <= qspec.tolerance * max(1.0, abs(value2)):
            return FourierResult(
                amplitudes=value2 * sol.xi,
                error_estimate=delta + quad_err2,
                window=window2,
            )
        value, quad_err, window = value2, quad_err2, window2
    raise QuadratureError(
        f"window doubling stalled at {window:g} (last delta {delta:.3e})"
    )


def survival_from_transform(sol: EKZSolution, horizon: float,
                            qspec: QuadratureSpec | None = None) -> float:
    """|Phi(-horizon)|^2 / |Phi(+horizon)|^2 from the time-domain transform.

    For the m = +1 branch this ratio reproduces the flat-level survival
    probability (the modulus steps by e^{2 pi beta_k} at each crossing); the
    m = -1 branch gives exactly 1.
    """
    early = time_domain_wavefunction(sol, -horizon, qspec)
    late = time_domain_wavefunction(sol, +horizon, qspec)
    return float(
        np.linalg.norm(early.amplitudes) ** 2 / np.linalg.norm(late.amplitudes) ** 2
    )


def lz_probability(g0: float, g1: float, g2: float) -> float:
    """Survival probability of the flat level for the three-level sweep:

    P = exp(-2 pi (gamma_0^2 + gamma_1^2) gamma_2^2).
    """
    return float(np.exp(-2.0 * np.pi * (g0**2 + g1**2) * g2**2))
