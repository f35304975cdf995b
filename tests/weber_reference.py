"""Exact finite-time propagator of a two-level linear sweep, from Weber functions.

Nothing here imports lzi.  For H(t) = A + t D with Hermitian 2 x 2 A and
D = diag(d1, d2), d1 != d2, the equation dpsi/dt = +i H psi (lzi's sign:
psi = exp(+i H t) psi0 for constant H) is solved in closed form (Zener 1932;
Vitanov & Garraway, PRA 53, 4288 (1996)):

* H = s(t) I + [[beta tau, g], [conj(g), -beta tau]], with beta = (d1 - d2)/2,
  tau = t - t_c, t_c = -(a11 - a22)/(d1 - d2), and the scalar part
  s(t) = (a11 + a22)/2 + t (d1 + d2)/2, whose integral is an exact phase;
* the upper amplitude obeys u'' + (beta^2 tau^2 + |g|^2 - i beta) u = 0, which
  D_nu(+-c tau) solves with c^2 = -2 i beta and nu = i |g|^2 / (2 beta); the
  lower amplitude is v = (-i u' - beta tau u) / g, with
  D_nu'(z) = z/2 D_nu(z) - D_{nu+1}(z);
* with F(t) the fundamental matrix of these two solutions,
  U(t1, t0) = exp(i int_t0^t1 s) F(t1) F(t0)^-1.

Everything is evaluated in mpmath at _DPS = 30 digits, at which the bounds
that use this reference were measured, and returned as a complex numpy array.
"""

from __future__ import annotations

import mpmath
import numpy as np

_DPS = 30


def _fundamental(tau, beta, g, c, nu) -> mpmath.matrix:
    """Columns: the solutions built on D_nu(+c tau) and D_nu(-c tau), at tau."""
    f = mpmath.matrix(2, 2)
    for col, sign in enumerate((1, -1)):
        z = sign * c * tau
        u = mpmath.pcfd(nu, z)
        du = sign * c * (z / 2 * u - mpmath.pcfd(nu + 1, z))
        f[0, col] = u
        f[1, col] = (-1j * du - beta * tau * u) / g
    return f


def weber_propagator(a, d, t0: float, t1: float) -> np.ndarray:
    """U(t1, t0) of dpsi/dt = +i (A + t D) psi for a 2 x 2 Hermitian A, a
    non-zero coupling A[0, 1], and a diagonal D with distinct entries."""
    a = np.asarray(a, dtype=complex)
    d = np.asarray(d, dtype=complex)
    with mpmath.workdps(_DPS):
        a11, a22 = mpmath.mpf(a[0, 0].real), mpmath.mpf(a[1, 1].real)
        d1, d2 = mpmath.mpf(d[0, 0].real), mpmath.mpf(d[1, 1].real)
        g = mpmath.mpc(a[0, 1].real, a[0, 1].imag)
        beta = (d1 - d2) / 2
        t_c = -(a11 - a22) / (d1 - d2)
        c = mpmath.sqrt(-2j * beta)
        nu = 1j * abs(g) ** 2 / (2 * beta)
        t0, t1 = mpmath.mpf(t0), mpmath.mpf(t1)
        start = _fundamental(t0 - t_c, beta, g, c, nu)
        end = _fundamental(t1 - t_c, beta, g, c, nu)
        s0, s1 = (a11 + a22) / 2, (d1 + d2) / 2
        phase = mpmath.exp(1j * (s0 * (t1 - t0) + s1 * (t1**2 - t0**2) / 2))
        u = phase * end * mpmath.inverse(start)
        return np.array([[complex(u[i, j]) for j in range(2)] for i in range(2)])
