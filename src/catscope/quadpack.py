"""Adaptive quadrature: QUADPACK's QAGS (routine dqagse) in numpy.

A port, operation for operation, of dqagse and the routines it calls
(Piessens, de Doncker-Kapenga, Ueberhuber and Kahaner, *QUADPACK*,
Springer 1983):

- dqk21: the 21-point Gauss-Kronrod rule with its error estimate;
- dqpsrt: the ordered list of subinterval errors;
- dqelg: the epsilon algorithm that extrapolates the bisection sequence.

Every floating-point operation is the reference's, in the reference's
order, so results, error estimates and subinterval counts equal those of
SciPy's quad (which wraps the same routines) bit for bit.  The one
departure is batching: qagse takes many intervals, evaluates the integrand
once on the 21 nodes of all of them, and runs the bisection loop only for
the intervals the first rule does not settle.  The rule's sums run left to
right along the node axis in dqk21's order (np.add.accumulate, never a
pairwise sum), and the integrand must act elementwise on an array.
"""

from __future__ import annotations

import numpy as np

EPMACH = 2.220446049250313e-16  # d1mach(4): relative machine precision
UFLOW = 2.2250738585072014e-308  # d1mach(1): smallest normal number
OFLOW = 1.7976931348623157e308  # d1mach(2): largest finite number
_LIMEXP = 50  # dqelg: the most elements of the epsilon table

# dqk21: Kronrod abscissae (descending; xgk[1], xgk[3], ... are the 10-point
# Gauss abscissae, xgk[10] the centre), Kronrod and Gauss weights
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
# dqk21 adds the Gauss pairs (xgk[1], xgk[3], ..., xgk[9]) first, then the
# Kronrod-only pairs (xgk[0], xgk[2], ..., xgk[8]); its resasc sum runs in
# the natural order
_ORDER = np.array([1, 3, 5, 7, 9, 0, 2, 4, 6, 8])
_NATURAL = np.argsort(_ORDER)
# the 21 nodes on [-1, 1] in the order f sees them: the centre, then the
# left abscissae -xgk and the right ones +xgk, each pair-set in _ORDER
_NODES = np.concatenate([[0.0], -_XGK[_ORDER], _XGK[_ORDER]])
# weights of the centre term and the ten pair terms, in summation order
_W_SUM = np.concatenate([[_WGK[10]], _WGK[_ORDER]])
_W_ASC = _WGK[[10, *range(10)]]


def qk21(f, a, b):
    """dqk21 on each interval [a[i], b[i]] at once.

    Returns (result, abserr, resabs, resasc) arrays: the Kronrod estimate,
    its error estimate, and the integrals of |f| and |f - mean| that dqagse
    tests the error against.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    # centr - hlgth*xgk as centr + hlgth*(-xgk), the same floats; centr is
    # never -0.0 for a < b, so adding hlgth*0.0 leaves the centre as it is
    fx = f(centr[:, None] + hlgth[:, None] * _NODES)
    # like the reference, carry inf and NaN values through without warnings
    with np.errstate(invalid="ignore", over="ignore"):
        # rows resk and resabs: the centre term, then the pairs, summed left
        # to right (|w f| = w |f| exactly, so resabs starts at |resk|)
        absfx = np.abs(fx)
        pairs = np.empty((2, fx.shape[0], 11))
        pairs[0, :, 0] = fx[:, 0]
        pairs[0, :, 1:] = fx[:, 1:11] + fx[:, 11:]
        pairs[1, :, 0] = absfx[:, 0]
        pairs[1, :, 1:] = absfx[:, 1:11] + absfx[:, 11:]
        resk, resabs = np.add.accumulate(pairs * _W_SUM, axis=2)[:, :, -1]
        # the Gauss sum starts from 0, which changes at most the sign of a
        # zero sum and so nothing of |resk - resg|
        resg = np.add.accumulate(_WG * pairs[0, :, 1:6], axis=1)[:, -1]
        dev = np.abs(fx - (resk * 0.5)[:, None])
        devs = np.empty((fx.shape[0], 11))
        devs[:, 0] = dev[:, 0]
        devs[:, 1:] = (dev[:, 1:11] + dev[:, 11:])[:, _NATURAL]
        resasc = np.add.accumulate(devs * _W_ASC, axis=1)[:, -1]
        dhlgth = np.abs(hlgth)
        result = resk * hlgth
        resabs = resabs * dhlgth
        resasc = resasc * dhlgth
        abserr = np.abs((resk - resg) * hlgth)
        abserr = np.array(list(map(_scaled, abserr.tolist(), resasc.tolist())))
        floor = (EPMACH * 50.0) * resabs
        # fmax, not maximum: a NaN estimate gives way to the floor, as in C
        abserr = np.where(
            resabs > UFLOW / (50.0 * EPMACH), np.fmax(floor, abserr), abserr
        )
        return result, abserr, resabs, resasc


def _scaled(abserr: float, resasc: float) -> float:
    """dqk21's error scaling resasc * min(1, (200 abserr / resasc)^1.5).

    Scalar libm pow, as the reference calls it (numpy's vectorized power
    may differ in the last ulp).  A ratio >= 1 gives 1 without it, which
    also keeps pow from overflowing, and so does a NaN ratio: the min
    returns its number argument, as C's fmin does."""
    if resasc == 0.0 or abserr == 0.0:
        return abserr
    ratio = 200.0 * abserr / resasc
    return resasc * (ratio**1.5 if ratio < 1.0 else 1.0)


def qagse(
    f, a, b, epsabs: float = 1.49e-8, epsrel: float = 1.49e-8, limit: int = 50,
    arg=None,
):
    """dqagse on each interval [a[i], b[i]], a[i] < b[i].

    Returns (result, abserr, last, ier) arrays: the integral, its error
    estimate, the number of subintervals used and QUADPACK's error flag
    (0 on success; 1 subdivision limit, 2 roundoff, 3 bad integrand,
    4 extrapolation failed, 5 divergent).  Raises ValueError where dqagse
    returns ier = 6 (tolerances that cannot be met).

    With arg, one value per interval, f is called as f(x, p): p holds each
    row's arg as a column (a float while one interval is bisected), so one
    call integrates a family of integrands.
    """
    if epsabs <= 0.0 and epsrel < max(50.0 * EPMACH, 0.5e-28):
        raise ValueError(f"epsrel must be >= {50.0 * EPMACH!r} when epsabs <= 0")
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit!r}")
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if arg is not None:
        arg = np.atleast_1d(np.asarray(arg, dtype=float))
    # dqagse's names: defabs is the rule's resabs, and resabs its resasc
    result, abserr, defabs, resabs = qk21(
        f if arg is None else lambda x: f(x, arg[:, None]), a, b
    )
    errbnd = np.fmax(epsabs, epsrel * np.abs(result))
    ier = np.where((abserr <= 1.0e2 * EPMACH * defabs) & (abserr > errbnd), 2, 0)
    if limit == 1:
        ier[:] = 1
    done = (ier != 0) | ((abserr <= errbnd) & (abserr != resabs)) | (abserr == 0.0)
    last = np.ones(a.shape, dtype=int)
    for i in np.flatnonzero(~done):
        fi = f if arg is None else lambda x, p=float(arg[i]): f(x, p)
        result[i], abserr[i], last[i], ier[i] = _bisect(
            fi, float(a[i]), float(b[i]), float(result[i]), float(abserr[i]),
            float(defabs[i]), epsabs, epsrel, limit,
        )
    return result, abserr, last, ier


def _bisect(f, a, b, result, abserr, defabs, epsabs, epsrel, limit):
    """The main loop of dqagse, from the first rule's (result, abserr,
    defabs) on [a, b]; returns (result, abserr, last, ier).

    Lists are 1-based, as in the reference, so that its index arithmetic
    carries over unchanged; entry 0 is unused."""
    alist = [0.0, a] + [0.0] * limit
    blist = [0.0, b] + [0.0] * limit
    rlist = [0.0, result] + [0.0] * limit
    elist = [0.0, abserr] + [0.0] * limit
    iord = [0, 1] + [0] * limit
    rlist2 = [0.0] * (_LIMEXP + 3)
    res3la = [0.0] * 4
    dres = abs(result)
    ier = 0
    ierro = 0
    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    iroff1 = iroff2 = iroff3 = 0
    ksgn = 1 if dres >= (1.0 - 50.0 * EPMACH) * defabs else -1
    small = erlarg = ertest = correc = 0.0

    to_sum = False
    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area_k, error_k, _, defab_k = qk21(f, np.array([a1, a2]), np.array([b1, b2]))
        area1, area2 = area_k.tolist()
        error1, error2 = error_k.tolist()
        defab1, defab2 = defab_k.tolist()

        # improve the previous approximations and test for accuracy
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (
                abs(rlist[maxerr] - area12) > 0.1e-04 * abs(area12)
                or erro12 < 0.99 * errmax
            ):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))

        # roundoff, subdivision limit and bad integrand behaviour
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * EPMACH) * (abs(a2) + 1000.0 * UFLOW):
            ier = 4

        # append the newly created intervals to the list
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2

        # keep the error list ordered; pick the interval to bisect next
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            to_sum = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # is the interval to be bisected next the smallest one?
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if ierro != 3 and erlarg > ertest:
            # the smallest interval has the largest error: before bisecting,
            # decrease the sum of the errors over the larger intervals
            # (erlarg) and extrapolate
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue

        # perform extrapolation
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 0.1e-02 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break

        # prepare bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    kept = None
    if not to_sum:
        kept = _extrapolated(
            ier, ierro, result, abserr, correc, area, errsum, defabs, ksgn
        )
    if kept is None:
        # the sum of the subinterval results
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    else:
        result, abserr, ier = kept
    if ier > 2:
        ier -= 1
    return result, abserr, last, ier


def _extrapolated(ier, ierro, result, abserr, correc, area, errsum, defabs, ksgn):
    """dqagse's labels 100-110: (result, abserr, ier) when the extrapolated
    result stands, None when the sum over the subintervals replaces it."""
    if abserr == OFLOW:
        return None
    if ier + ierro != 0:
        if ierro == 3:
            abserr = abserr + correc
        if ier == 0:
            ier = 3
        if result != 0.0 and area != 0.0:
            if abserr / abs(result) > errsum / abs(area):
                return None
        elif abserr > errsum:
            return None
        elif area == 0.0:
            return result, abserr, ier
    # test on divergence
    if ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.1e-01:
        return result, abserr, ier
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = float(np.float64(result) / area)
    if 0.1e-01 > ratio or ratio > 0.1e03 or errsum > abs(area):
        ier = 6
    return result, abserr, ier


def _qpsrt(limit, last, maxerr, elist, iord, nrmax):
    """dqpsrt: keep iord[1..] pointing at the error estimates in descending
    order after the bisection of interval maxerr; returns the new (maxerr,
    errmax, nrmax)."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        if nrmax != 1:
            # subdivision increased the error estimate (a difficult
            # integrand): move maxerr up past the entries it now exceeds
            for _ in range(nrmax - 1):
                isucc = iord[nrmax - 1]
                if errmax <= elist[isucc]:
                    break
                iord[nrmax] = isucc
                nrmax -= 1
        # only the entries that can still be bisected are kept in order
        jupbn = last
        if last > limit // 2 + 2:
            jupbn = limit + 3 - last
        errmin = elist[last]
        # insert errmax by traversing the list top-down
        jbnd = jupbn - 1
        ibeg = nrmax + 1
        i = ibeg
        inserted = False
        for i in range(ibeg, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                inserted = True
                break
            iord[i - 1] = isucc
        if not inserted:
            iord[jbnd] = maxerr
            iord[jupbn] = last
        else:
            # insert errmin by traversing the list bottom-up
            iord[i - 1] = maxerr
            k = jbnd
            for _ in range(i, jbnd + 1):
                isucc = iord[k]
                if errmin < elist[isucc]:
                    break
                iord[k + 1] = isucc
                k -= 1
            else:
                iord[i] = last
                k = None
            if k is not None:
                iord[k + 1] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n, epstab, res3la, nres):
    """dqelg: the epsilon algorithm on epstab[1..n], the sequence of
    bisection sums; updates epstab and res3la in place and returns
    (n, result, abserr, nres)."""
    nres += 1
    abserr = OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 5.0 * EPMACH * abs(result)), nres
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = OFLOW
    num = n
    k1 = n
    converged = False
    for i in range(1, newelm + 1):
        k2 = k1 - 1
        k3 = k1 - 2
        res = epstab[k1 + 2]
        e0 = epstab[k3]
        e1 = epstab[k2]
        e2 = res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * EPMACH
        if err2 <= tol2 and err3 <= tol3:
            # e0, e1 and e2 are equal to within machine accuracy:
            # convergence is assumed
            result = res
            abserr = err2 + err3
            converged = True
            break
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * EPMACH
        # two elements very close to each other, or irregular behaviour:
        # omit a part of the table by adjusting n
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        if not epsinf > 0.1e-03:
            n = i + i - 1
            break
        # a new element, which may improve the result
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 = k1 - 2
        error = err2 + abs(res - e2) + err3
        if error > abserr:
            continue
        abserr = error
        result = res
    if not converged:
        # shift the table
        if n == _LIMEXP:
            n = 2 * (_LIMEXP // 2) - 1
        ib = 1 if num % 2 else 2
        for _ in range(newelm + 1):
            ib2 = ib + 2
            epstab[ib] = epstab[ib2]
            ib = ib2
        if num != n:
            indx = num - n + 1
            for i in range(1, n + 1):
                epstab[i] = epstab[indx]
                indx += 1
        if nres >= 4:
            abserr = abs(result - res3la[3]) + abs(result - res3la[2])
            abserr = abserr + abs(result - res3la[1])
            res3la[1] = res3la[2]
            res3la[2] = res3la[3]
            res3la[3] = result
        else:
            res3la[nres] = result
            abserr = OFLOW
    return n, result, max(abserr, 5.0 * EPMACH * abs(result)), nres
