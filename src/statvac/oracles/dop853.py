"""Dormand-Prince 8(5,3) integration of an autonomous system to a fixed end.

The explicit Runge-Kutta pair DOP853 of Hairer, Norsett & Wanner (Solving
ODEs I, II.10): twelve stages give the 8th-order solution, and the 5th-
and 3rd-order embedded estimates combine into one error norm, which sets
the next step by the usual controller (ibid. II.4).  The arithmetic
follows ``scipy.integrate.DOP853`` operation for operation, so the final
state, the evaluation count and the step count are bitwise scipy's; the
tests hold it to that.  Only what the geodesic spheres need is here: an
autonomous real system, integrated forward from 0 to a fixed end, with
the whole interval as the first trial step, no dense output and no maximum
step.
"""

from __future__ import annotations

import numpy as np

from ..errors import NumericalFailure

__all__ = ["TOO_SMALL_STEP", "integrate"]

SAFETY = 0.9  # the step proposed by the error estimate is scaled by this
MIN_FACTOR = 0.2  # a step shrinks at most this much at once
MAX_FACTOR = 10.0  # and grows at most this much
_EXPONENT = -1.0 / 8.0  # the embedded estimate is of order 7
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."

# Stages 1-11 of the tableau: row s holds a_s0 ... a_s,s-1.
_A = np.zeros((12, 12))
_A[1, :1] = [5.26001519587677318785587544488e-2]
_A[2, :2] = [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2]
_A[3, :3] = [2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2]
_A[4, :4] = [2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
             9.24834003261792003115737966543e-1]
_A[5, :5] = [3.7037037037037037037037037037e-2, 0.0, 0.0,
             1.70828608729473871279604482173e-1, 1.25467687566822425016691814123e-1]
_A[6, :6] = [3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
             6.02165389804559606850219397283e-2, -1.7578125e-2]
_A[7, :7] = [3.70920001185047927108779319836e-2, 0.0, 0.0,
             1.70383925712239993810214054705e-1, 1.07262030446373284651809199168e-1,
             -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3]
_A[8, :8] = [6.24110958716075717114429577812e-1, 0.0, 0.0,
             -3.36089262944694129406857109825, -8.68219346841726006818189891453e-1,
             2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
             -4.34898841810699588477366255144e1]
_A[9, :9] = [4.77662536438264365890433908527e-1, 0.0, 0.0,
             -2.48811461997166764192642586468, -5.90290826836842996371446475743e-1,
             2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
             -3.32882109689848629194453265587e1, -2.03312017085086261358222928593e-2]
_A[10, :10] = [-9.3714243008598732571704021658e-1, 0.0, 0.0,
               5.18637242884406370830023853209, 1.09143734899672957818500254654,
               -8.14978701074692612513997267357, -1.85200656599969598641566180701e1,
               2.27394870993505042818970056734e1, 2.49360555267965238987089396762,
               -3.0467644718982195003823669022]
_A[11, :11] = [2.27331014751653820792359768449, 0.0, 0.0,
               -1.05344954667372501984066689879e1, -2.00087205822486249909675718444,
               -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1,
               -2.85899827713502369474065508674, -8.87285693353062954433549289258,
               1.23605671757943030647266201528e1, 6.43392746015763530355970484046e-1]

# The 8th-order weights, row 12 of the extended tableau.
_B = np.array([5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
               4.45031289275240888144113950566, 1.89151789931450038304281599044,
               -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
               -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
               4.47106157277725905176885569043e-2])

# Error weights over the twelve stages and the new state's derivative:
# the 3rd-order estimate is B minus three weights, the 5th-order one given.
_E3 = np.append(_B, 0.0)
_E3[[0, 8, 11]] -= [0.244094488188976377952755905512, 0.733846688281611857341361741547,
                    0.220588235294117647058823529412e-1]
_E5 = np.zeros(13)
_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1]


def _error_norm(K, h, scale):
    """The RMS error of a step, from the 5th- and 3rd-order estimates."""
    err5_sq = np.linalg.norm(np.dot(K.T, _E5) / scale) ** 2
    err3_sq = np.linalg.norm(np.dot(K.T, _E3) / scale) ** 2
    if err5_sq == 0 and err3_sq == 0:
        return 0.0
    return h * err5_sq / np.sqrt((err5_sq + 0.01 * err3_sq) * len(scale))


def integrate(fun, y0, t_end: float, *, rtol: float, atol: float):
    """Integrate y' = fun(y) from t = 0 to t_end; return (y, nfev, nstep).

    ``fun`` maps a state (n,) to its derivative (n,).  The first trial
    step is the whole interval, t_end.  A step passes when the RMS of its
    error over atol + rtol * max(|y|, |y_new|) is below 1; the next trial
    step is the last one times SAFETY * err^(-1/8), kept within
    [MIN_FACTOR, MAX_FACTOR], and at most the last one just after a
    rejection.  An rtol below 100 machine epsilons is raised to that; a
    negative atol is a ValueError.
    Returns the state at t_end, the number of ``fun`` evaluations and the
    number of accepted steps.  A step below ten float spacings at t raises
    NumericalFailure(TOO_SMALL_STEP), which is where non-finite data ends:
    its error norm rejects every step.
    """
    y = np.asarray(y0, dtype=float)
    if atol < 0.0:
        raise ValueError("atol must be non-negative")
    rtol = max(rtol, 100.0 * np.finfo(float).eps)

    K = np.empty((13, y.size))  # the twelve stages and the new derivative
    f = fun(y)
    nfev, nstep, t, h_abs = 1, 0, 0.0, t_end
    while t < t_end:
        min_step = 10.0 * (np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise NumericalFailure(TOO_SMALL_STEP)
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            K[0] = f
            for s in range(1, 12):
                K[s] = fun(y + np.dot(K[:s].T, _A[s, :s]) * h)
            y_new = y + h * np.dot(K[:-1].T, _B)
            K[-1] = f_new = fun(y_new)
            nfev += 12
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = _error_norm(K, h, scale)
            if err < 1.0:
                factor = MAX_FACTOR if err == 0 else min(MAX_FACTOR, SAFETY * err ** _EXPONENT)
                h_abs = h * (min(1.0, factor) if rejected else factor)
                break
            h_abs = h * max(MIN_FACTOR, SAFETY * err ** _EXPONENT)
            rejected = True
        t, y, f = t_new, y_new, f_new
        nstep += 1
    return y, nfev, nstep
