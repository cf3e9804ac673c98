"""quadpack.qagse against scipy.integrate.quad, which wraps the QUADPACK
routines it ports: result, error estimate and subinterval count must be
equal, not close."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

from catscope.quadpack import qagse, qk21


def _cheb(n):
    """Chebyshev T_n by its recurrence: an oscillating polynomial."""

    def f(x):
        t0, t1 = np.ones_like(x), x
        for _ in range(n - 1):
            t0, t1 = t1, 2.0 * x * t1 - t0
        return t1 if n else t0

    return f


# Hard integrands built from correctly rounded operations only, so that the
# scalar calls quad makes and the array calls qagse makes see equal values.
FAMILIES = {
    "singular": lambda p, w: lambda x: 1.0 / np.sqrt(np.abs(x - p) + w * 1e-12),
    "cusp": lambda p, w: lambda x: np.sqrt(np.abs(x - p)) * (x - w),
    "peak": lambda p, w: lambda x: 1.0 / ((x - p) * (x - p) + w * w * 1e-4),
    "twin-peaks": lambda p, w: lambda x: 1.0 / ((x - p) * (x - p) + 1e-6)
    + 1.0 / ((x + p) * (x + p) + 1e-6),
    "oscillation": lambda p, w: _cheb(int(5 + 60 * w)),
    "step": lambda p, w: lambda x: np.where(x < p, 1.0, -2.0),
    "small-step": lambda p, w: lambda x: 1.0 + w * 1e-6 * np.where(x < p, 1.0, 0.0),
}


def _quad(f, a, b, epsabs, epsrel, limit):
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", IntegrationWarning)
        out = quad(
            lambda x: float(f(np.array([x]))[0]),
            a, b, epsabs=epsabs, epsrel=epsrel, limit=limit, full_output=1,
        )
    return out[0], out[1], out[2]["last"]


@settings(derandomize=True, max_examples=250, deadline=None)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    p=st.floats(-1.0, 1.0),
    w=st.floats(0.0, 1.0),
    ends=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=5, unique=True),
    at_singularity=st.booleans(),
    limit=st.integers(1, 300),
    log_epsrel=st.floats(-13.0, -3.0),
    epsabs=st.sampled_from([0.0, 1e-10]),
)
def test_qagse_equals_quad(family, p, w, ends, at_singularity, limit, log_epsrel, epsabs):
    ends = sorted(ends)
    if at_singularity:
        p = ends[0]  # an endpoint singularity, cusp or step
    a, b = np.array(ends[:-1]), np.array(ends[1:])
    f = FAMILIES[family](p, w)
    epsrel = 10.0**log_epsrel
    with np.errstate(all="ignore"):
        result, abserr, last, _ = qagse(f, a, b, epsabs, epsrel, limit)
    for i in range(a.size):
        ref = _quad(f, float(a[i]), float(b[i]), epsabs, epsrel, limit)
        assert (result[i], abserr[i], last[i]) == ref


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    ps=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6),
    w=st.floats(0.0, 1.0),
    limit=st.integers(1, 300),
    log_epsrel=st.floats(-13.0, -3.0),
)
def test_qagse_with_an_arg_per_interval_equals_quad(family, ps, w, limit, log_epsrel):
    # one call integrates a family of integrands: interval i is integrated
    # as quad integrates the member of parameter ps[i] alone
    def f(x, p):
        return FAMILIES[family](p, w)(x)

    a, b = np.full(len(ps), -1.0), np.linspace(0.5, 1.5, len(ps))
    epsrel = 10.0**log_epsrel
    with np.errstate(all="ignore"):
        result, abserr, last, _ = qagse(f, a, b, 0.0, epsrel, limit, arg=ps)
    for i, p in enumerate(ps):
        ref = _quad(FAMILIES[family](p, w), float(a[i]), float(b[i]), 0.0, epsrel, limit)
        assert (result[i], abserr[i], last[i]) == ref


def _box(p, inside, outside):
    return lambda x: np.where(np.abs(x - p) < 0.25, inside, outside)


# Integrands whose subinterval error estimates tie exactly: constant pieces
# whose values differ by powers of two, and mirror-image singularities.
# Ties are where dqpsrt's comparisons (<= against <) decide which interval
# is bisected next; each case below once told such a swap apart.
TIED = [
    (_box(0.0972183415551533, 1.0, 4.0), -1.0, 0.75, 150, 1.1021171856630686e-10),
    (_box(-0.45406629207912985, 0.5, 1.0), -1.0, 3.0, 274, 3.2875716437670213e-12),
    (_box(1.0 / 3.0, 0.0, 3.0), -2.0, 2.0, 175, 7.777826951866922e-07),
    (lambda x: 1.0 / np.abs(x), -0.5, 0.75, 261, 6.795703271195203e-12),
    (lambda x: 1.0 / np.abs(x), -2.0, 0.75, 205, 0.0005581965184794964),
    (lambda x: 1.0 / np.abs(x), -0.5, 2.0, 76, 2.776054646463563e-08),
]


@pytest.mark.parametrize("case", range(len(TIED)))
def test_qagse_tied_error_estimates(case):
    f, a, b, limit, epsrel = TIED[case]
    with np.errstate(all="ignore"):
        result, abserr, last, _ = qagse(f, [a], [b], 0.0, epsrel, limit)
    assert (result[0], abserr[0], last[0]) == _quad(f, a, b, 0.0, epsrel, limit)


def test_qagse_symmetric_extrapolation_cases():
    # symmetric singularities: extrapolation, and an infinite value at the
    # centre node, which quad reports as (inf, inf) after one rule
    cases = [
        (lambda x: 1.0 / np.sqrt(np.abs(x)), -1.0, 1.0),
        (lambda x: 1.0 / np.sqrt(np.abs(x * x - 0.25)), -1.0, 1.0),
        (lambda x: np.sqrt(np.abs(x)) * x * x, -1.0, 1.0),
        (lambda x: 1.0 / (x * x + 1e-8), -1.0, 1.0),
        (lambda x: 1.0 / np.sqrt(x), 0.0, 1.0),
    ]
    for f, a, b in cases:
        for limit in (3, 10, 50, 200):
            for epsrel in (1e-4, 1e-8, 1e-12):
                with np.errstate(all="ignore"):
                    result, abserr, last, _ = qagse(f, [a], [b], 0.0, epsrel, limit)
                ref = _quad(f, a, b, 0.0, epsrel, limit)
                assert (result[0], abserr[0], last[0]) == ref, (a, b, limit, epsrel)


def test_qagse_bisects_when_error_equals_resasc():
    # a small step: the first rule's error estimate is within tolerance but
    # equals resasc, which dqagse does not trust, so it bisects anyway
    f = FAMILIES["small-step"](0.5, 1.0)
    for limit in (2, 50):
        result, abserr, last, _ = qagse(f, [0.0], [1.0], 0.0, 1e-3, limit)
        assert last[0] > 1
        assert (result[0], abserr[0], last[0]) == _quad(f, 0.0, 1.0, 0.0, 1e-3, limit)


def test_qagse_error_flags_and_bad_tolerances():
    # a subdivision limit of 1 stops after the first rule with ier = 1
    _, _, last, ier = qagse(lambda x: np.sqrt(np.abs(x)), [-1.0], [1.0], 0.0, 1e-10, 1)
    assert (last[0], ier[0]) == (1, 1)
    _, _, _, ier = qagse(lambda x: x * x, [0.0], [1.0], 0.0, 1e-10, 50)
    assert ier[0] == 0
    with pytest.raises(ValueError, match="epsrel"):
        qagse(lambda x: x, [0.0], [1.0], 0.0, 1e-15, 50)
    with pytest.raises(ValueError, match="limit"):
        qagse(lambda x: x, [0.0], [1.0], 0.0, 1e-8, 0)


def test_qk21_integrates_degree_31_exactly():
    # the 21-point Kronrod rule is exact for polynomials up to degree 31
    x = np.linspace(0.0, 1.0, 5)
    result, _, _, _ = qk21(lambda v: 32.0 * v**31, x[:-1], x[1:])
    assert result == pytest.approx(np.diff(x**32), rel=1e-14)
