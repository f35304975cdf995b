"""Brute-force integration of  -i dpsi/dt = H(t) psi  for a linear sweep.

The input is an AffineHamiltonian H(t) = A + t D or its InteractionPicture;
anything else, a plain callable t -> H(t) included, is a TypeError.  Sign
convention: psi(t) = exp(+i H t) psi(0) for constant H (pinned by a
regression test against the matrix exponential).

A PropagationSpec says only how to integrate; each call says over what:
evolve_operator from t0 to t1, population_trajectory from its first sample
(psi0 being the lab-frame state there) to its last, and transition_matrix
over [-2T, 2T] cut at -T and T.

The engine is a fourth-order Magnus integrator: one exponential per step of
X = h/2 (H1 + H2) + i sqrt(3)/12 h^2 C + h^3/80 [C, H2 - H1], with C = [H2, H1]
and H1, H2 taken at the two Gauss nodes.  On a 2-level block,
exp(i (x0 + xi.sigma)) = exp(i x0) (cos|xi| + i sin|xi| xi^.sigma) is taken in
closed form and held as the two complex numbers of its SU(2) part; each step
is unitary to roundoff.  Larger blocks take Taylor series truncated below
roundoff (with scaling and squaring for large steps), and each batch product is
replaced by its unitary polar factor, so unitarity does not drift with the
number of batches.  A step obeys h <= min(base_step, theta / (1 + rate)) at
its left end, rate being the diagonal spread in the interaction picture (in
the lab frame, the largest entry), which resolves the oscillatory far tails of
a linear sweep without a globally tiny step; the grid inverts the integrated
step density in a few array passes.
The interaction picture evaluates only the coupled pairs of H.
Every propagation first rotates each group of equal-slope levels that A
couples to the constant eigenbasis of its A block (for ado, the dark and
bright states of the sloped pair), then propagates each connected block of
the rotated couplings on its own grid, a lone level as an exact phase, and
maps the result back to the caller's frame.  A Demkov-Osherov or bow-tie
sweep is one block unless a level decouples.
Long products are evaluated in batches of _BATCH_STEPS = 2048 steps, held (off
the 2-level path) as (d, d, N) stacks: below _MATMUL_LEVELS = 7 levels the
stacks are levels first and a stacked product is d^3 multiply-adds on length-N
rows; from 7 levels up they are steps first and matmul multiplies them.  A
pairwise reduction then multiplies a batch out in log depth, its short last
levels by matmul.  This is what makes T ~ hundreds affordable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalError
from .spin import hermiticity_defect, max_abs

__all__ = [
    "PropagationSpec",
    "TransitionResult",
    "AffineHamiltonian",
    "InteractionPicture",
    "evolve_operator",
    "population_trajectory",
    "transition_matrix",
]

_SQRT3 = np.sqrt(3.0)
_GAUSS_NODES = (0.5 - _SQRT3 / 6.0, 0.5 + _SQRT3 / 6.0)
_BATCH_STEPS = 2048  # steps per batched block: rows stay in cache, per-call overhead stays small
# from this many levels up, stacks are held steps first and multiplied by matmul: the first level
# count where a DO transition_matrix (T=50, theta 0.25) ran faster so in 9 of 10 alternating pairs
# (levels-first over steps-first time 0.86 at d=5, 0.95 at 6, 1.06 at 7, 1.29 at 8; 2-core Xeon)
_MATMUL_LEVELS = 7
# pairwise-product levels of at most this many d^3 products take matmul (~0.3 us per matrix, rows
# ~1.4 us per d^3 op); crossovers, 2-core Xeon, numpy 2.4: 32-64 at d=2, ~128 at d=3, 256-512 at d=4.
# At d=2 nothing reaches this product: a 2-level block takes SU(2) pairs
_MATMUL_SHORT = 4
_CHUNK = 2**17  # time points per budget pass; bounds memory
_DENSITY_RTOL = 1e-3  # knot spacing: relative midpoint error of the linear density
_SLACK = 1e-8  # relative margin of each step below its budget, above rounding
_ROUNDOFF = 8.0 * np.finfo(float).eps  # rotated entries at most this times max|A| are zero


@dataclass(frozen=True)
class PropagationSpec:
    """How to integrate: step controls and tolerances; each call says over
    what times.

    `base_step` defaults to 0.01; `theta` is the local phase budget per step
    (radians); both, like rtol, must be positive and finite.  `max_steps`
    caps the steps of a whole call.  With verify=True each run is checked
    against a rerun at half step, which must agree within rtol; the result
    is that of the run itself, whether or not it is checked.
    """

    rtol: float = 1e-8
    max_steps: int = 20_000_000
    base_step: float = 0.01
    theta: float = 0.1
    verify: bool = False

    def __post_init__(self):
        for name in ("rtol", "base_step", "theta"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class TransitionResult:
    """Diabatic transition probabilities from a full sweep.

    `matrix` is 2 P(2T) - P(T) clipped to [0, 1]; `matrix_at_T` / `matrix_at_2T`
    are the raw finite-horizon tables, columns summing to one within 10 x rtol,
    from one sweep over [-2T, 2T] cut at -T and T: U(T) = U_mid and U(2T) =
    U_right U_mid U_left."""

    matrix: np.ndarray
    matrix_at_T: np.ndarray
    matrix_at_2T: np.ndarray


class AffineHamiltonian:
    """H(t) = A + t D with Hermitian A, D; the linear-sweep workhorse.

    Carries the exact integral and spread of the diagonal, used by the
    interaction picture and by phase-aware step sizing.
    """

    def __init__(self, a, d):
        a = np.asarray(a, dtype=complex)
        d = np.asarray(d, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape != d.shape:
            raise ValueError("A and D must be square matrices of equal shape")
        with np.errstate(invalid="ignore"):  # a non-finite entry makes its defect NaN
            hermitian = hermiticity_defect(a) <= 1e-12 and hermiticity_defect(d) <= 1e-12
        if not hermitian:
            for name, m in (("A", a), ("D", d)):
                bad = np.argwhere(~np.isfinite(m))
                if bad.size:
                    raise ValueError(f"{name} has non-finite entries at {[tuple(i) for i in bad.tolist()]}")
            raise ValueError("A and D must be Hermitian")
        self.a = a
        self.d = d
        self._diag_a, self._diag_d = np.real(np.diag(a)), np.real(np.diag(d))

    def __call__(self, t: float) -> np.ndarray:
        return self.a + t * self.d

    def eval_many(self, ts: np.ndarray) -> np.ndarray:
        """H at each time in `ts`, levels first: shape (d, d, len(ts))."""
        return self.a[:, :, None] + self.d[:, :, None] * ts

    def diag_phase_integral(self, ts: np.ndarray) -> np.ndarray:
        """Integral from 0 to t of the real diagonal, per time in `ts`."""
        ts = np.asarray(ts, dtype=float)[:, None]
        return self._diag_a * ts + 0.5 * self._diag_d * ts**2

    def diag_spread(self, ts: np.ndarray) -> np.ndarray:
        """Largest minus smallest real diagonal entry, per time in `ts`."""
        diag = self._diag_a[:, None] + self._diag_d[:, None] * np.asarray(ts, dtype=float)
        return diag.max(axis=0) - diag.min(axis=0)

    def resolution_rate(self, ts: np.ndarray) -> np.ndarray:
        """Largest absolute entry, per time in `ts` (step sizing in this frame)."""
        return np.abs(self.eval_many(ts)).max(axis=(0, 1))


class InteractionPicture:
    """Frame with the instantaneous diagonal of H removed.

    With psi = exp(i Lambda(t)) psi_tilde, Lambda(t) = int_0^t diag H, the
    transformed generator is exp(-i Lambda) H_offdiag exp(i Lambda): its
    off-diagonal magnitudes equal those of H and diabatic populations are
    unchanged, while the amplitudes acquire well-defined limits as t -> +-inf
    for a linear sweep.  Only the pairs i < j with A_ij or D_ij non-zero,
    tabled once, are evaluated, and mirrored as conjugates.
    """

    def __init__(self, base: AffineHamiltonian):
        self.base = _checked(base, AffineHamiltonian)
        rows, cols = self._pairs = np.nonzero(np.triu((base.a != 0) | (base.d != 0), 1))
        self._coupling = base.a[rows, cols, None], base.d[rows, cols, None]
        self._rate = (base._diag_a[cols] - base._diag_a[rows])[:, None]
        self._half_slope = 0.5 * (base._diag_d[cols] - base._diag_d[rows])[:, None]

    def eval_many(self, ts: np.ndarray) -> np.ndarray:
        angle = (self._rate + self._half_slope * ts) * ts
        pairs = np.empty(angle.shape, dtype=complex)
        np.cos(angle, out=pairs.real)
        np.sin(angle, out=pairs.imag)
        pairs *= self._coupling[0] + self._coupling[1] * ts
        h = np.zeros(self.base.a.shape + angle.shape[1:], dtype=complex)
        h[self._pairs] = pairs
        h[self._pairs[::-1]] = np.conj(pairs)
        return h

    def __call__(self, t: float) -> np.ndarray:
        return self.eval_many(np.array([float(t)]))[..., 0]

    def resolution_rate(self, ts: np.ndarray) -> np.ndarray:
        return self.base.diag_spread(ts)

    def to_interaction(self, psi_lab: np.ndarray, t: float) -> np.ndarray:
        """Map a lab-frame amplitude vector into this frame at time t.

        Degenerate-slope levels carry different diagonal phases, so for a
        composite state the conversion is not a global phase.
        """
        lam = self.base.diag_phase_integral(np.array([float(t)]))[0]
        return np.exp(-1j * lam) * np.asarray(psi_lab, dtype=complex)


def _checked(h, kinds=(AffineHamiltonian, InteractionPicture)):
    """h itself, if it is one of the sweep types the propagator takes."""
    if not isinstance(h, kinds):
        raise TypeError(f"a sweep must be an AffineHamiltonian A + t D, got {type(h).__name__}")
    return h


def _stack(h, ts: np.ndarray) -> np.ndarray:
    """h.eval_many(ts), a (d, d, N) stack, in the memory order `_mul` is fast
    on: levels first below _MATMUL_LEVELS levels, else steps first (the
    transposed view of a contiguous (N, d, d) array)."""
    x = h.eval_many(ts)
    if x.shape[0] < _MATMUL_LEVELS:
        return x
    return np.ascontiguousarray(x.transpose(2, 0, 1)).transpose(1, 2, 0)


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.matmul(a.transpose(2, 0, 1), b.transpose(2, 0, 1)).transpose(1, 2, 0)


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stepwise product a @ b of two (d, d, N) stacks.

    Below _MATMUL_LEVELS levels this is d^3 multiply-adds on length-N rows,
    faster than matmul, whose cost there is mostly per-matrix overhead.  From
    _MATMUL_LEVELS up the d^3 row operations cost more than that overhead,
    and matmul multiplies the steps-first view.
    """
    d = a.shape[0]
    if d >= _MATMUL_LEVELS:
        return _matmul(a, b)
    out = np.empty(a.shape[:2] + b.shape[2:], dtype=complex)
    for i in range(d):
        for j in range(d):
            acc = a[i, 0] * b[0, j]
            for k in range(1, d):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def _expm_i_batch(x: np.ndarray) -> np.ndarray:
    """exp(+i X) for a (d, d, N) stack of Hermitian X.

    X is halved s times until r, the stack's largest 1-norm, is at most 1/2,
    and the result squared s times (Al-Mohy & Higham, SIAM J. Matrix Anal.
    Appl. 31, 970 (2009)).  The Taylor degree m is the smallest with
    r^(m+1)/(m+1)! below 2^-53, raised to a multiple of p = ceil(sqrt(m)) so
    that the Paterson-Stockmeyer form, a polynomial in X^p with coefficients
    of degree below p, takes p + m/p - 2 stacked products.  The powers are
    of X itself, with (i/2^s)^k folded into the Taylor coefficients.
    """
    r = np.abs(x).sum(axis=0).max(initial=0.0)
    squarings = int(np.ceil(np.log2(2.0 * r))) if r > 0.5 else 0
    r /= 2.0**squarings
    degree, remainder = 1, 0.5 * r * r
    while remainder >= 2.0**-53 or degree % (math.isqrt(degree - 1) + 1):
        degree += 1
        remainder *= r / (degree + 1)
    span = math.isqrt(degree - 1) + 1
    coef = [(1j / 2.0**squarings) ** k / math.factorial(k) for k in range(degree + 1)]
    powers = [x]
    for _ in range(span - 1):
        powers.append(_mul(x, powers[-1]))
    diag = np.arange(x.shape[0])
    u = coef[degree] * powers[-1]
    for j in reversed(range(degree // span)):
        for i in range(1, span):
            u += coef[j * span + i] * powers[i - 1]
        u[diag, diag] += coef[j * span]
        if j:
            u = _mul(powers[-1], u)
    for _ in range(squarings):
        u = _mul(u, u)
    return u


def _step_budget(sweep, ts: np.ndarray, spec: PropagationSpec) -> np.ndarray:
    """Largest allowed step starting at each time in `ts`."""
    chunks = [sweep.resolution_rate(ts[lo : lo + _CHUNK]) for lo in range(0, ts.size, _CHUNK)]
    return np.minimum(spec.base_step, spec.theta / (1.0 + np.concatenate(chunks)))


def _knots(sweep, spec: PropagationSpec, edges: np.ndarray) -> tuple:
    """Knots with the step density 1/h linear in between to _DENSITY_RTOL; the
    density is taken one step back where h grows, so that a step keeps to its
    left-end budget, and the slack absorbs rounding."""

    def density(ts):
        f = 1.0 / _step_budget(sweep, ts, spec)
        return np.maximum(f, 1.0 / _step_budget(sweep, ts - 1.0 / f, spec)) * (1.0 + _SLACK)

    knots, dens = edges, density(edges)
    while True:
        mids = 0.5 * (knots[:-1] + knots[1:])
        dm = density(mids)
        chord_miss = np.abs(dm - 0.5 * (dens[:-1] + dens[1:])) > _DENSITY_RTOL * dm
        coarse = np.flatnonzero(chord_miss & (np.diff(knots) * dm > 2.0) & (mids > knots[:-1]))
        if coarse.size == 0:
            return knots, dens
        knots = np.insert(knots, coarse + 1, mids[coarse])
        dens = np.insert(dens, coarse + 1, dm[coarse])


def _time_grid(h, spec: PropagationSpec, edges: np.ndarray) -> np.ndarray:
    """Nodes from the first to the last of the increasing `edges`, through
    every edge; each step obeys its left-end budget min(base_step, theta /
    (1 + rate(t_left))) exactly."""
    knots, dens = _knots(h, spec, edges)
    widths = np.diff(knots)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (dens[:-1] + dens[1:]) * widths)])
    if not cum[-1] + edges.size <= spec.max_steps:  # also a non-finite density
        raise NumericalError(f"step budget exceeded ({spec.max_steps} steps)")
    # a node per unit of integrated density: invert the piecewise-quadratic integral
    targets = np.arange(1.0, cum[-1])
    seg = np.searchsorted(cum, targets, side="right") - 1
    excess = targets - cum[seg]
    root = np.sqrt(np.maximum(dens[seg] ** 2 + 2.0 * excess * np.diff(dens)[seg] / widths[seg], 0.0))
    offset = np.minimum(2.0 * excess / (dens[seg] + root), widths[seg])
    ts = np.unique(np.concatenate([edges, knots[seg] + offset]))
    # cut the few steps that still exceed their left-end budget into equal parts
    while True:
        steps = np.diff(ts)
        parts = np.ceil(steps / _step_budget(h, ts[:-1], spec))
        if parts.max() <= 1.0:
            return ts
        if not parts.sum() <= spec.max_steps:
            raise NumericalError(f"step budget exceeded ({spec.max_steps} steps)")
        extra = parts.astype(np.int64) - 1
        left = np.repeat(np.arange(extra.size), extra)
        rank = np.arange(left.size) - np.repeat(np.cumsum(extra) - extra, extra) + 1
        ts = np.insert(ts, left + 1, ts[left] + rank * (steps / parts)[left])


def _pieces(h, spec: PropagationSpec, edges: np.ndarray) -> list:
    """The step grid of a sweep through the increasing `edges`, split at them
    into sub-grids that share their end nodes: every propagation's grid."""
    ts = _time_grid(h, spec, edges)
    bounds = np.searchsorted(ts, edges)
    return [ts[lo : hi + 1] for lo, hi in zip(bounds[:-1], bounds[1:])]


def _pairwise_product(mats: np.ndarray) -> np.ndarray:
    """Ordered product mats[..., -1] @ ... @ mats[..., 0] of a (d, d, N) stack
    by log-depth pairing; the odd factor left over at a level is the leftmost
    one still unpaired, and is set aside to multiply in at the end."""
    left = np.eye(mats.shape[0], dtype=complex)
    while mats.shape[-1] > 1:
        n = mats.shape[-1]
        if n % 2:
            left = left @ mats[..., n - 1]
        product = _matmul if n // 2 <= _MATMUL_SHORT * mats.shape[0] ** 3 else _mul
        mats = product(mats[..., 1::2], mats[..., 0 : n - 1 : 2])
    return left @ mats[..., 0]


def _adjoint(p: np.ndarray) -> np.ndarray:
    return np.conj(p.transpose(1, 0, 2))


def _gauss_stacks(h, ta: np.ndarray, hs: np.ndarray) -> list:
    """H at both Gauss nodes of every step: two views of one `_stack`."""
    return np.split(_stack(h, np.concatenate([ta + c * hs for c in _GAUSS_NODES])), 2, axis=-1)


def _magnus4_blocks(h, ta: np.ndarray, tb: np.ndarray) -> np.ndarray:
    """Fourth-order Magnus steps exp(i X) on the two Gauss nodes (Blanes, Casas &
    Ros, BIT 40, 434 (2000)), with C = [H2, H1]:

        X = hs/2 (H1 + H2) + i sqrt(3)/12 hs^2 C + hs^3/80 [C, H2 - H1].

    The last term is the fifth-order term -[a2, [a1, a2]]/240 of their
    sixth-order scheme (a1 = hs/2 (A1 + A2), a2 = sqrt(3) hs (A2 - A1), A = iH).
    It leaves the order at four, but without it the populations of an
    equal-slope pair (the ado sloped levels) drift up to ten times further
    than CF4's over the oscillatory tails; with it they stay at or below
    CF4's.  Each commutator is one stacked product: C = p - p^dagger with
    p = H2 H1, and [C, H2 - H1] = q + q^dagger with q = C (H2 - H1).
    """
    hs = tb - ta
    h1, h2 = _gauss_stacks(h, ta, hs)
    c = _mul(h2, h1)
    c -= _adjoint(c)
    q = _mul(c, h2 - h1)
    q += _adjoint(q)
    x = (0.5 * hs) * (h1 + h2)
    x += (1j * _SQRT3 / 12.0 * hs**2) * c
    x += (hs**3 / 80.0) * q
    return _expm_i_batch(x)


def _su2_mul(a1, b1, a2, b2) -> tuple:
    """(alpha, beta) of P Q, where an SU(2) matrix is [[alpha, -beta*], [beta, alpha*]]."""
    return a1 * a2 - np.conj(b1) * b2, b1 * a2 + np.conj(a1) * b2


def _su2_magnus4_product(h, ta: np.ndarray, tb: np.ndarray) -> np.ndarray:
    """The ordered product of a 2-level sweep's `_magnus4_blocks` steps in
    closed form.  With H = s + v.sigma at each Gauss node, s = (H00 + H11)/2,
    v = (Re H10, Im H10, (H00 - H11)/2): [H2, H1] = 2i c.sigma for c = v2 x v1,
    X = x0 + xi.sigma with x0 = hs/2 (s1 + s2) and xi = hs/2 (v1 + v2) -
    sqrt(3)/6 hs^2 c - hs^3/20 c x (v2 - v1), and exp(i X) = exp(i x0)
    [[alpha, -beta*], [beta, alpha*]] with alpha = cos r + i sin(r)/r xi_z,
    beta = i sin(r)/r (xi_x + i xi_y), r = |xi|.  A vector is held as
    w = v_x + i v_y and z = v_z: (a x b)_w = i (a_z w_b - b_z w_a) and
    (a x b)_z = Im(w_a* w_b).  The pairs multiply in `_pairwise_product`'s
    order; the phases x0 add up to one factor (1 in the interaction picture)."""
    hs = tb - ta
    h1, h2 = _gauss_stacks(h, ta, hs)
    x0 = 0.25 * (hs * (h1[0, 0] + h1[1, 1] + h2[0, 0] + h2[1, 1]).real).sum()
    (w1, z1), (w2, z2) = ((g[1, 0], 0.5 * (g[0, 0] - g[1, 1]).real) for g in (h1, h2))
    cw, cz = 1j * (z2 * w1 - z1 * w2), (np.conj(w2) * w1).imag
    dw, dz = w2 - w1, z2 - z1
    half, sq, cube = 0.5 * hs, _SQRT3 / 6.0 * hs * hs, hs * hs * hs / 20.0
    xw = half * (w1 + w2) - sq * cw - cube * 1j * (cz * dw - dz * cw)
    xz = half * (z1 + z2) - sq * cz - cube * (np.conj(cw) * dw).imag
    r = np.hypot(np.abs(xw), xz)
    sinc = np.divide(np.sin(r), r, out=np.ones_like(r), where=r > 0.0)
    a, b = np.cos(r) + 1j * (sinc * xz), 1j * sinc * xw
    left = (1.0 + 0j, 0j)
    while a.size > 1:
        n = a.size
        if n % 2:
            left = _su2_mul(*left, a[-1], b[-1])
        a, b = _su2_mul(a[1::2], b[1::2], a[0 : n - 1 : 2], b[0 : n - 1 : 2])
    pair = np.array(_su2_mul(*left, a[0], b[0]))
    alpha, beta = pair / np.linalg.norm(pair)  # a unit pair: rounding leaves the product's norm off 1
    return np.exp(1j * x0) * np.array([[alpha, -np.conj(beta)], [beta, np.conj(alpha)]])


def _operator_on_grid(h, ts: np.ndarray) -> np.ndarray:
    dim = h.eval_many(ts[:1]).shape[0]
    u = np.eye(dim, dtype=complex)
    n = ts.size - 1
    for lo in range(0, n, _BATCH_STEPS):
        hi = min(lo + _BATCH_STEPS, n)
        ta, tb = ts[lo:hi], ts[lo + 1 : hi + 1]
        if dim == 2:
            product = _su2_magnus4_product(h, ta, tb)
        else:
            # the unitary polar factor W Vh of W S Vh: the rounding of near-identity
            # steps has one sign along a sweep, and would add up over the batches
            w, _, vh = np.linalg.svd(_pairwise_product(_magnus4_blocks(h, ta, tb)))
            product = w @ vh
        u = product @ u
    return u


def _evolve_on_grid(sweep, ts: np.ndarray, spec: PropagationSpec):
    """U on the grid ts, and with verify set its step-halving estimate
    max_abs(U - U_half) (NumericalError above rtol), else None."""
    u = _operator_on_grid(sweep, ts)
    if not spec.verify:
        return u, None
    fine = np.insert(ts, np.arange(1, ts.size), 0.5 * (ts[:-1] + ts[1:]))
    estimate = max_abs(u - _operator_on_grid(sweep, fine))
    if estimate > spec.rtol:
        raise NumericalError(
            f"step-halving estimate {estimate:.3e} exceeds rtol {spec.rtol:.3e} "
            f"({ts.size - 1} steps; tighten base_step/theta or rtol)"
        )
    return u, estimate


def _segments(h, spec: PropagationSpec, edges):
    """Yield (U, estimate) for each stretch between the increasing `edges`, in
    the frame of h; the estimate is the stretch's largest step-halving
    estimate (0.0 if nothing is integrated), None without verify.

    When D is diagonal, each group of equal-slope levels whose A block has an
    off-diagonal entry is rotated to the eigenbasis of that block, which does
    not depend on t: R^dagger H(t) R = A' + t D, with rotated entries at most
    _ROUNDOFF max|A| set to zero.  Each connected component of the couplings
    of A' and D is propagated on its own grid, the steps of all of them
    counting against spec.max_steps; a one-level component is its exact
    phase (1 in the interaction picture).  A stretch from ta to tb maps back
    as R U' R^dagger in the lab frame and as W(tb) U' W(ta)^dagger in the
    interaction picture, W(t)_jk = R_jk exp(i (a'_k - a_j) t): R mixes only
    levels of one slope, whose t^2/2 phases cancel.  With no rotation and one
    component, U is the propagation of h as a whole.
    """
    frame = isinstance(_checked(h), InteractionPicture)
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or not np.all(np.diff(edges) > 0):
        raise ValueError(f"propagation times must be at least two and increasing, got {edges}")
    sweep = h.base if frame else h
    a, d = sweep.a, sweep.d
    dim = a.shape[0]
    rot = np.eye(dim, dtype=complex)
    turned = np.zeros(dim, dtype=bool)
    if np.array_equal(d, np.diag(np.diag(d))):
        for slope in np.unique(sweep._diag_d):
            group = np.flatnonzero(sweep._diag_d == slope)
            block = a[np.ix_(group, group)]
            if np.count_nonzero(block - np.diag(np.diag(block))):
                rot[np.ix_(group, group)] = np.linalg.eigh(block)[1]
                turned[group] = True
    if turned.any():
        rotated = np.conj(rot.T) @ a @ rot
        rotated = 0.5 * (rotated + np.conj(rotated.T))
        rotated[np.abs(rotated) <= _ROUNDOFF * max_abs(a)] = 0.0
        a = np.where(turned[:, None] | turned[None, :], rotated, a)
    linked = (a != 0) | (d != 0) | np.eye(dim, dtype=bool)
    for _ in range(dim.bit_length()):  # paths of up to 2^k couplings
        linked = linked @ linked
    first = linked.argmax(axis=1)  # a component is named by its lowest level
    components = [np.flatnonzero(first == level) for level in np.unique(first)]

    budget, blocks = spec.max_steps, []
    for levels in components:
        if levels.size > 1:
            sub = AffineHamiltonian(a[np.ix_(levels, levels)], d[np.ix_(levels, levels)])
            sub = InteractionPicture(sub) if frame else sub
            pieces = _pieces(sub, replace(spec, max_steps=budget), edges)
            budget -= sum(piece.size - 1 for piece in pieces)
            blocks.append((levels, sub, pieces))
    singles = np.array([c[0] for c in components if c.size == 1], dtype=int)
    diag_a = np.real(np.diag(a))
    for k, (ta, tb) in enumerate(zip(edges[:-1], edges[1:])):
        u = np.zeros((dim, dim), dtype=complex)
        phase = (tb - ta) * (diag_a + 0.5 * (ta + tb) * sweep._diag_d)  # int of a + t d
        u[singles, singles] = 1.0 if frame else np.exp(1j * phase[singles])
        estimates = []
        for levels, sub, pieces in blocks:
            u[np.ix_(levels, levels)], estimate = _evolve_on_grid(sub, pieces[k], spec)
            estimates.append(estimate)
        if turned.any():
            wa, wb = (rot * np.exp(1j * (diag_a - sweep._diag_a[:, None]) * t) if frame else rot
                      for t in (ta, tb))
            u = wb @ u @ np.conj(wa.T)
        yield u, max(estimates, default=0.0) if spec.verify else None


def evolve_operator(h, t0: float, t1: float, spec: PropagationSpec):
    """Full propagator from t0 to t1 in the frame of h; returns (U,
    error_estimate), the estimate being the max-abs difference against a
    half-step rerun when verify is set (NumericalError above rtol), else None."""
    ((u, estimate),) = _segments(h, spec, (t0, t1))
    return u, estimate


def population_trajectory(h, psi0, sample_times, spec: PropagationSpec) -> np.ndarray:
    """Amplitudes at each of the increasing `sample_times` (complex array,
    samples x dim), in the frame of h, from the lab-frame state psi0 at the
    first sample; with verify set, each stretch between samples passes the
    step-halving check."""
    samples = np.asarray(sample_times, dtype=float)
    psi = np.asarray(psi0, dtype=complex)
    if isinstance(h, InteractionPicture):
        psi = h.to_interaction(psi, samples[0])
    out = [psi]
    for u, _ in _segments(h, spec, samples):
        psi = u @ psi
        out.append(psi)
    return np.array(out)


def transition_matrix(model, horizon: float, spec: PropagationSpec = PropagationSpec()) -> TransitionResult:
    """Diabatic transition probabilities of an AffineHamiltonian from -horizon to +horizon.

    Propagates the full basis in the interaction picture once over [-2T, 2T],
    cut at -T and T so both horizons share the [-T, T] window, and extrapolates
    to the infinite-horizon limit assuming 1/T corrections (P_inf ~ 2 P(2T) -
    P(T)).  The sweep is propagated block by block (see `_segments`): for ado,
    the bright state of the sloped pair with the flat levels, and the dark
    state as a phase.  `spec.max_steps` bounds the steps of all blocks.
    """
    if not horizon > 0:
        raise ValueError("horizon must be positive")
    edges = (-2.0 * horizon, -horizon, horizon, 2.0 * horizon)
    u_left, u_mid, u_right = (u for u, _ in _segments(InteractionPicture(model), spec, edges))
    tables = []
    for u in (u_mid, u_right @ u_mid @ u_left):
        unito = max_abs(u @ np.conj(u.T) - np.eye(u.shape[0]))
        if unito > 1e-8:
            raise NumericalError(f"propagator unitarity defect {unito:.3e}")
        tables.append(np.abs(u) ** 2)
        col_defect = max_abs(tables[-1].sum(axis=0) - 1.0)
        if col_defect > 10.0 * spec.rtol:
            raise NumericalError(f"column sums off by {col_defect:.3e}")
    at_t, at_2t = tables
    extrapolated = np.clip(2.0 * at_2t - at_t, 0.0, 1.0)
    return TransitionResult(matrix=extrapolated, matrix_at_T=at_t, matrix_at_2T=at_2t)
