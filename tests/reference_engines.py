"""CF4, RK4 and Magnus-2, the engines the tests check lzi's Magnus-4 against,
run in the production batches; every batch product but RK4's is replaced by
its unitary polar factor."""

from unittest import mock

import numpy as np

from lzi import propagator
from lzi.propagator import _expm_i_batch, _gauss_stacks, _mul, _pairwise_product, _stack

_PRODUCTION = propagator._operator_on_grid  # "magnus4-fixed"


def _cf4(h, ta, tb):
    hs, g1, g2 = tb - ta, 0.25 + np.sqrt(3.0) / 6.0, 0.25 - np.sqrt(3.0) / 6.0
    h1, h2 = _gauss_stacks(h, ta, hs)
    return _mul(_expm_i_batch(hs * (g2 * h1 + g1 * h2)), _expm_i_batch(hs * (g1 * h1 + g2 * h2)))


def _rk4(h, ta, tb):
    """Classical RK4 steps of U' = i H U, each as the matrix it applies (not unitary)."""
    hs = tb - ta
    k1, km, kb = (1j * _stack(h, t) for t in (ta, ta + 0.5 * hs, tb))
    eye = np.eye(k1.shape[0])[:, :, None]
    k2 = _mul(km, eye + 0.5 * hs * k1)
    k3 = _mul(km, eye + 0.5 * hs * k2)
    return eye + hs / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + _mul(kb, eye + hs * k3))


_STEPS = {"cf4-fixed": _cf4, "rk4-fixed": _rk4,
          "magnus2-fixed": lambda h, ta, tb: _expm_i_batch((tb - ta) * _stack(h, ta + 0.5 * (tb - ta)))}


def operator_on_grid(h, ts, name):
    """The propagator of engine `name` over the grid ts, in the frame of h."""
    if name == "magnus4-fixed":
        return _PRODUCTION(h, ts)
    u = np.eye(h.eval_many(ts[:1]).shape[0], dtype=complex)
    for lo in range(0, ts.size - 1, propagator._BATCH_STEPS):
        hi = min(lo + propagator._BATCH_STEPS, ts.size - 1)
        product = _pairwise_product(_STEPS[name](h, ts[lo:hi], ts[lo + 1 : hi + 1]))
        if name != "rk4-fixed":
            w, _, vh = np.linalg.svd(product)
            product = w @ vh
        u = product @ u
    return u


def engine(name):
    """A context in which every lzi propagation runs engine `name` on its production grid and block split."""
    return mock.patch.object(propagator, "_operator_on_grid", lambda h, ts: operator_on_grid(h, ts, name))
