"""The few special functions catscope needs, on Python floats.

ndtr and the log-factorial are ports of the Cephes routines behind
SciPy's ndtr and gammaln (S. L. Moshier, *Cephes Math Library*: ndtr.c and
gamma.c): the same coefficients and the same operations in the same order,
with libm's exp and log through the math module, so they return the same
floats.  xlogy is SciPy's xlogy with libm's log; numpy's vectorized log
differs from libm's in the last ulp on some inputs.  poisson_sf is an
independent upward sum for the Fock-space truncation checks, where SciPy's
pdtrc was used; it agrees with it to about 1e-12 relative.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

_SQRT1_2 = 0.70710678118654752440  # 1/sqrt(2)
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX)
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))

# erfc(x) = exp(-x^2) P(x)/Q(x) on [1, 8), exp(-x^2) R(x)/S(x) on [8, inf);
# erf(x) = x T(x^2)/U(x^2) on [0, 1].  Q, S and U have an implicit leading 1.
_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_S = (
    2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
# Stirling series of log Gamma(x) for 13 <= x < 1000, in 1/x^2
_A = (
    8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
    -2.77777777730099687205e-3, 8.33333333333331927722e-2,
)


def _polevl(x: float, coef) -> float:
    """coef[0] x^N + ... + coef[N], by Horner's rule."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef) -> float:
    """_polevl with an implicit leading coefficient 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def ndtr(a: float) -> float:
    """Standard normal CDF, bit-equal to SciPy's ndtr.

    Cephes' ndtr with the branches of its erf and erfc that ndtr reaches:
    erf below |x| = 1/sqrt(2), where x T(x^2)/U(x^2) is odd as written;
    erfc at and above it, where it is 1 - erf below 1 and 0 once
    exp(-x^2) would be below DBL_MAX^-1."""
    if math.isnan(a):
        return math.nan
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    if z < 1.0:
        erfc = 1.0 - _erf(z)
    elif z * z > _MAXLOG:
        erfc = 0.0
    elif z < 8.0:
        erfc = (math.exp(-z * z) * _polevl(z, _P)) / _p1evl(z, _Q)
    else:
        erfc = (math.exp(-z * z) * _polevl(z, _R)) / _p1evl(z, _S)
    y = 0.5 * erfc
    if x > 0:
        y = 1.0 - y
    return y


def _erf(x: float) -> float:
    """Cephes' erf for |x| <= 1."""
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


def log_factorial(n: int) -> float:
    """log(n!) for an integer n >= 0, bit-equal to SciPy's gammaln(n + 1).

    Below 13 Cephes' lgam takes the log of the exact product; above, its
    Stirling series."""
    if n < 12:
        return math.log(math.factorial(n))
    x = float(n + 1)
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + (
            (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
            + 0.0833333333333333333333
        ) / x
    return q + _polevl(p, _A) / x


@lru_cache(maxsize=16)
def log_factorials(dim: int) -> np.ndarray:
    """log(n!) for n = 0 .. dim-1, read-only."""
    out = np.array([log_factorial(n) for n in range(dim)])
    out.setflags(write=False)
    return out


def poisson_sf(k: int, m: float) -> float:
    """P(X > k) for X ~ Poisson(m), the mass a truncation at k + 1 levels
    leaves out.

    The terms j > k are summed upward in log space, from the first term
    that can matter to where they fall below e^-800 of the largest: a term
    more than 40 sqrt(m) + 60 away from the mode m is that small.  When
    the whole window lies above k the tail is 1 to double precision."""
    if m == 0.0:
        return 0.0
    width = 40.0 * math.sqrt(m) + 60.0
    if k + 1 < m - width:
        return 1.0
    j = np.arange(k + 1, int(max(k + 1, m) + width) + 1, dtype=float)
    log_j_factorial = np.array([math.lgamma(v + 1.0) for v in j.tolist()])
    return float(np.sum(np.exp(j * math.log(m) - m - log_j_factorial)))


def _log(y: float) -> float:
    """libm's log, with its values at 0 and below instead of math's errors."""
    if y > 0.0:
        return math.log(y)
    return -math.inf if y == 0.0 else math.nan


def xlogy(x, y) -> np.ndarray:
    """x * log(y), and 0 where x == 0 (unless y is NaN), elementwise;
    bit-equal to SciPy's xlogy."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    out = [
        0.0 if a == 0.0 and b == b else a * _log(b)
        for a, b in zip(x.ravel().tolist(), y.ravel().tolist())
    ]
    return np.array(out).reshape(x.shape)
