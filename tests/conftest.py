"""Shared helpers: a zero-noise device, truth-free Records from symbol
strings, and the brute-force path-sum oracle used to cross-check the
forward-backward recursion."""

import math

import numpy as np

from catscope import measurement as ms

_PATH_CACHE = {}


def noiseless_device(**overrides):
    base = dict(
        T1c=math.inf,
        T1q=math.inf,
        T2q=math.inf,
        n_c=0.0,
        n_q=0.0,
        readout_Fge=0.0,
        readout_Fge_inv=0.0,
        p_d=0.0,
        p_leak=0.0,
    )
    base.update(overrides)
    return ms.DeviceParams(**base)


def records_of(*symbols):
    """Records without truth columns, one row per symbol string (all of one
    length, over G, E and L), with trial ids 0, 1, ..."""
    codes = [[ms.SYMBOL_ALPHABET.index(c) for c in s] for s in symbols]
    return ms.Records(np.array(codes, dtype=np.uint8), np.arange(len(symbols)))


def enumerate_posterior(model, symbols):
    """Sector posterior by literal summation over every hidden path.

    Deliberately independent of the log-domain recursion: weights are
    accumulated in linear space over the full n**L path table.
    """
    idx = [{"G": 0, "E": 1}[c] for c in symbols]
    n = model.transition.shape[0]
    length = len(idx)
    key = (n, length)
    if key not in _PATH_CACHE:
        _PATH_CACHE[key] = np.stack(
            np.unravel_index(np.arange(n**length), (n,) * length), axis=1
        )
    paths = _PATH_CACHE[key]
    w = model.prior[paths[:, 0]] * model.emission[paths[:, 0], idx[0]]
    for k in range(1, length):
        w = w * model.transition[paths[:, k - 1], paths[:, k]]
        w = w * model.emission[paths[:, k], idx[k]]
    joint = np.bincount(paths[:, 0], weights=w, minlength=n)
    sectors = joint.reshape(n // 2, 2).sum(axis=1)
    return sectors / sectors.sum()
