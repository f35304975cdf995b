"""Every two-level propagation engine against the exact Weber-function propagator.

The 20 seeded sweeps alternate between two kinds:
* a Landau-Zener pair with distinct slopes of either sign, diagonal offsets and
  a complex coupling;
* a three-level ado model with one flat level, whose lab-frame U is the Weber
  U of its bright block (bright state and flat level) plus the exact phase of
  the dark state, both rotated back to the model's basis.
Each sweep also carries the Weber U of -H, the propagator under the opposite
sign convention exp(-i H t), which every engine must miss by order one.
Windows start at -T and end at T times a factor in [0.5, 1], and T runs over
10, 20, 50 and 200.  Each engine's bound is about 3.5 times its worst
measured error over these sweeps; the reference engines skip T = 200, where
one propagation costs 0.25-0.37 s.
"""

import numpy as np
import pytest
from reference_engines import engine
from weber_reference import weber_propagator

import lzi

HORIZONS = (10.0, 20.0, 50.0) * 3 + (200.0,)
# engine: (bound, worst measured max|U - U_weber| over the sweeps it runs)
BOUNDS = {
    "magnus4-fixed": (5e-10, 1.42e-10),
    "cf4-fixed": (1.5e-10, 4.24e-11),
    "rk4-fixed": (3e-3, 8.88e-4),
    "magnus2-fixed": (5e-5, 1.31e-5),
}


def _lz_pair(rng, t0, t1):
    g = rng.uniform(0.2, 0.7) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    a11, a22 = rng.uniform(-1.0, 1.0, 2)
    slopes = [rng.uniform(0.5, 1.5), rng.uniform(-1.0, 0.2)]
    if rng.uniform() < 0.5:
        slopes.reverse()
    a = np.array([[a11, g], [np.conj(g), a22]])
    d = np.diag(slopes).astype(complex)
    refs = [weber_propagator(sign * a, sign * d, t0, t1) for sign in (1, -1)]
    return lzi.AffineHamiltonian(a, d), *refs


def _ado_one_flat_level(rng, t0, t1):
    g0, g1, g2 = rng.uniform(0.2, 0.7, 3)
    a2 = rng.uniform(-1.0, 1.0)
    r = np.hypot(g0, g1)
    # columns: bright state (g0, g1)/r, dark state (g1, -g0)/r, flat level
    q = np.array([[g0, g1, 0.0], [g1, -g0, 0.0], [0.0, 0.0, r]]).T / r
    # the bright state sits at r^2 + t and couples to the flat level a2 by g2 r
    block = np.array([[r * r, g2 * r], [g2 * r, a2]])
    refs = []
    for sign in (1, -1):
        u = np.zeros((3, 3), dtype=complex)
        u[np.ix_([0, 2], [0, 2])] = weber_propagator(sign * block, sign * np.diag([1.0, 0.0]),
                                                     t0, t1)
        u[1, 1] = np.exp(sign * 0.5j * (t1 * t1 - t0 * t0))  # the dark state's energy is t
        refs.append(q @ u @ q.T)
    return lzi.ado_sweep(lzi.ADOParams(gamma=[g0, g1, g2], a=[a2])), *refs


@pytest.fixture(scope="module")
def sweeps():
    """(horizon, t0, t1, lzi sweep, Weber U of H, Weber U of -H) of each seeded sweep."""
    out = []
    for k in range(20):
        rng = np.random.default_rng(1000 + k)
        horizon = HORIZONS[k // 2]
        t0, t1 = -horizon, horizon * rng.uniform(0.5, 1.0)
        build = _lz_pair if k % 2 == 0 else _ado_one_flat_level
        out.append((horizon, t0, t1, *build(rng, t0, t1)))
    return out


def test_weber_reference_is_unitary(sweeps):
    for *_, reference, opposite in sweeps:
        for u in (reference, opposite):
            assert np.abs(u.conj().T @ u - np.eye(len(u))).max() < 1e-14


@pytest.mark.parametrize("method", BOUNDS)
def test_two_level_propagation_matches_the_weber_propagator(sweeps, method):
    bound, _ = BOUNDS[method]
    worst = 0.0
    for horizon, t0, t1, sweep, reference, opposite in sweeps:
        if method != "magnus4-fixed" and horizon > 50.0:
            continue
        with engine(method):
            u, _ = lzi.evolve_operator(sweep, t0, t1, lzi.PropagationSpec(verify=False))
        worst = max(worst, float(np.abs(u - reference).max()))
        assert np.abs(u - opposite).max() > 0.1
    assert worst < bound
