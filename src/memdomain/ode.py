"""Adaptive DOP853 integration of the damped oscillator.

The package integrates one system, q'' + damping q' + omega_sq(t) q = 0,
as the first-order pair y = (q, p) with y' = (p, -damping p - omega_sq(t) q).
`integrate_oscillator` steps it with DOP853, the explicit 8(5,3) pair of
Prince and Dormand (J. Comput. Appl. Math. 7 (1981) 67-75; Hairer, Norsett
& Wanner, Solving ODEs I, II.5 and II.10): twelve stages and the end value,
first same as last, under a PI step controller with safety factor 0.9,
rejected steps halved. The error of a step is the combined 5th/3rd-order
estimate h |e5|^2 / sqrt((|e5|^2 + 0.01 |e3|^2) * 2), where e5 and e3 are
the two embedded differences over both components, each scaled by
rel_tol + rel_tol max(|y|, |y_new|): rel_tol serves as both the relative and
the absolute tolerance. The coefficients of the oscillator equations are
smooth and non-stiff, so an explicit pair is adequate and keeps results
reproducible across platforms.

Steps are set by the error control alone, not by the output grid: the
integration runs in free steps from the first grid time to the last, and
only the final step is clipped to end there. Every grid time between is
read from DOP853's own 7th-order dense output (Hairer, Norsett & Wanner,
II.6): a step that holds a grid time evaluates the two extra stages its
q-interpolant needs and keeps that interpolant's seven coefficients as one
row of doubles. So the memory grows with the grid, not with the steps. One
numpy pass evaluates the rows at the grid times; the first and last grid
values are the step ends themselves.

The state is two Python floats and the stages are written out: on a
2-vector, numpy's per-call overhead is nearly all of the cost. Each stage
state is y + h * (0.0 + a_1 k_1 + a_2 k_2 + ...) over the nonzero
coefficients in index order, which is the order a vector implementation
that sums a_ij * k_j arrays performs, and the interpolant uses only IEEE
arithmetic (+, -, *, /) in a fixed order, so the results equal such an
implementation's bit for bit; the test suite keeps one as a reference.
"""

import math

import numpy as np

from .errors import DomainError, StepSizeUnderflow, finite, reals

__all__ = ["time_grid", "integrate_oscillator"]

# DOP853 tableau, the values of Hairer's dop853.f. _C holds the nodes of the
# twelve stages and _A[i] the coefficients of stage i + 1 on k_1 ... k_i;
# the last stage sits at t + h.
_C = (
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0,
)
_A = (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (
        2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
        9.24834003261792003115737966543e-1,
    ),
    (
        3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
        1.25467687566822425016691814123e-1,
    ),
    (
        3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
        6.02165389804559606850219397283e-2, -1.7578125e-2,
    ),
    (
        3.70920001185047927108779319836e-2, 0.0, 0.0,
        1.70383925712239993810214054705e-1, 1.07262030446373284651809199168e-1,
        -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3,
    ),
    (
        6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
        -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
        2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1,
    ),
    (
        4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
        -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
        1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
        -2.03312017085086261358222928593e-2,
    ),
    (
        -9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
        1.09143734899672957818500254654, -8.14978701074692612513997267357,
        -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
        2.49360555267965238987089396762, -3.0467644718982195003823669022,
    ),
    (
        2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
        -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
        2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
        -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
        6.43392746015763530355970484046e-1,
    ),
)
# the 8th-order weights on k_1 ... k_12, which give the step's end value
_B = (
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
    4.45031289275240888144113950566, 1.89151789931450038304281599044,
    -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2,
)
# the 5th-order error weights: e5 is their sum over the stages
_E5 = (
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
    -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1,
)
# the 3rd-order weights on k_1, k_9 and k_12; e3 is the difference of the
# 8th- and 3rd-order increments, as dop853.f forms it
_B3 = (0.244094488188976377952755905512, *[0.0] * 7,
       0.733846688281611857341361741547, 0.0, 0.0, 0.220588235294117647058823529412e-1)
_E3 = tuple(b - b3 for b, b3 in zip(_B, _B3))
# The dense output's extra stages 14 to 16, on k_1 ... k_13 (k_13 is the
# end value f(t + h, y_new)) and the extra stages before them. The
# q-interpolant reads only the first component of k_16, its state's p, so
# stage 16 needs no node and no evaluation.
_C_DENSE = (0.1, 0.2)
_A_DENSE = (
    (
        5.61675022830479523392909219681e-2, 0.0, 0.0, 0.0, 0.0, 0.0,
        2.53500210216624811088794765333e-1, -2.46239037470802489917441475441e-1,
        -1.24191423263816360469010140626e-1, 1.5329179827876569731206322685e-1,
        8.20105229563468988491666602057e-3, 7.56789766054569976138603589584e-3,
        -8.298e-3,
    ),
    (
        3.18346481635021405060768473261e-2, 0.0, 0.0, 0.0, 0.0,
        2.83009096723667755288322961402e-2, 5.35419883074385676223797384372e-2,
        -5.49237485713909884646569340306e-2, 0.0, 0.0,
        -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
        -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1,
    ),
    (
        -4.28896301583791923408573538692e-1, 0.0, 0.0, 0.0, 0.0,
        -4.69762141536116384314449447206, 7.68342119606259904184240953878,
        4.06898981839711007970213554331, 3.56727187455281109270669543021e-1, 0.0, 0.0,
        0.0, -1.39902416515901462129418009734e-3, 2.9475147891527723389556272149,
        -9.15095847217987001081870187138,
    ),
)
# the interpolant's coefficients F_3 ... F_6, each h times these weights
# over k_1 ... k_16 (F_0 ... F_2 come from the step's ends)
_D = (
    (
        -0.84289382761090128651353491142e+1, 0.0, 0.0, 0.0, 0.0,
        0.56671495351937776962531783590, -0.30689499459498916912797304727e+1,
        0.23846676565120698287728149680e+1, 0.21170345824450282767155149946e+1,
        -0.87139158377797299206789907490, 0.22404374302607882758541771650e+1,
        0.63157877876946881815570249290, -0.88990336451333310820698117400e-1,
        0.18148505520854727256656404962e+2, -0.91946323924783554000451984436e+1,
        -0.44360363875948939664310572000e+1,
    ),
    (
        0.10427508642579134603413151009e+2, 0.0, 0.0, 0.0, 0.0,
        0.24228349177525818288430175319e+3, 0.16520045171727028198505394887e+3,
        -0.37454675472269020279518312152e+3, -0.22113666853125306036270938578e+2,
        0.77334326684722638389603898808e+1, -0.30674084731089398182061213626e+2,
        -0.93321305264302278729567221706e+1, 0.15697238121770843886131091075e+2,
        -0.31139403219565177677282850411e+2, -0.93529243588444783865713862664e+1,
        0.35816841486394083752465898540e+2,
    ),
    (
        0.19985053242002433820987653617e+2, 0.0, 0.0, 0.0, 0.0,
        -0.38703730874935176555105901742e+3, -0.18917813819516756882830838328e+3,
        0.52780815920542364900561016686e+3, -0.11573902539959630126141871134e+2,
        0.68812326946963000169666922661e+1, -0.10006050966910838403183860980e+1,
        0.77771377980534432092869265740, -0.27782057523535084065932004339e+1,
        -0.60196695231264120758267380846e+2, 0.84320405506677161018159903784e+2,
        0.11992291136182789328035130030e+2,
    ),
    (
        -0.25693933462703749003312586129e+2, 0.0, 0.0, 0.0, 0.0,
        -0.15418974869023643374053993627e+3, -0.23152937917604549567536039109e+3,
        0.35763911791061412378285349910e+3, 0.93405324183624310003907691704e+2,
        -0.37458323136451633156875139351e+2, 0.10409964950896230045147246184e+3,
        0.29840293426660503123344363579e+2, -0.43533456590011143754432175058e+2,
        0.96324553959188282948394950600e+2, -0.39177261675615439165231486172e+2,
        -0.14972683625798562581422125276e+3,
    ),
)

_SAFETY = 0.9
_REJECT_BACKOFF = 0.5
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
# PI controller exponents for an 8th-order pair
_ALPHA = 0.7 / 8.0
_BETA = 0.4 / 8.0

# The tableau entries the stepper uses by name. Zero entries are skipped, as
# the vector form skips them; neither error row weighs the end value, so a
# rejected step does not evaluate it.
_C2, _C3, _C4, _C5, _C6, _C7, _C8, _C9, _C10, _C11 = _C[1:11]
((_A2_1,), (_A3_1, _A3_2), (_A4_1, _, _A4_3), (_A5_1, _, _A5_3, _A5_4),
 (_A6_1, _, _, _A6_4, _A6_5), (_A7_1, _, _, _A7_4, _A7_5, _A7_6),
 (_A8_1, _, _, _A8_4, _A8_5, _A8_6, _A8_7),
 (_A9_1, _, _, _A9_4, _A9_5, _A9_6, _A9_7, _A9_8),
 (_A10_1, _, _, _A10_4, _A10_5, _A10_6, _A10_7, _A10_8, _A10_9),
 (_A11_1, _, _, _A11_4, _A11_5, _A11_6, _A11_7, _A11_8, _A11_9, _A11_10),
 (_A12_1, _, _, _A12_4, _A12_5, _A12_6, _A12_7, _A12_8, _A12_9, _A12_10, _A12_11),
 ) = _A[1:]
_B1, _, _, _, _, _B6, _B7, _B8, _B9, _B10, _B11, _B12 = _B
_E5_1, _, _, _, _, _E5_6, _E5_7, _E5_8, _E5_9, _E5_10, _E5_11, _E5_12 = _E5
_E3_1, _, _, _, _, _E3_6, _E3_7, _E3_8, _E3_9, _E3_10, _E3_11, _E3_12 = _E3
_C14, _C15 = _C_DENSE
((_A14_1, _, _, _, _, _, _A14_7, _A14_8, _A14_9, _A14_10, _A14_11, _A14_12, _A14_13),
 (_A15_1, _, _, _, _, _A15_6, _A15_7, _A15_8, _, _, _A15_11, _A15_12, _A15_13, _A15_14),
 (_A16_1, _, _, _, _, _A16_6, _A16_7, _A16_8, _A16_9, _, _, _, _A16_13, _A16_14,
  _A16_15),
 ) = _A_DENSE
((_D3_1, _, _, _, _, _D3_6, _D3_7, _D3_8, _D3_9, _D3_10, _D3_11, _D3_12, _D3_13, _D3_14,
  _D3_15, _D3_16),
 (_D4_1, _, _, _, _, _D4_6, _D4_7, _D4_8, _D4_9, _D4_10, _D4_11, _D4_12, _D4_13, _D4_14,
  _D4_15, _D4_16),
 (_D5_1, _, _, _, _, _D5_6, _D5_7, _D5_8, _D5_9, _D5_10, _D5_11, _D5_12, _D5_13, _D5_14,
  _D5_15, _D5_16),
 (_D6_1, _, _, _, _, _D6_6, _D6_7, _D6_8, _D6_9, _D6_10, _D6_11, _D6_12, _D6_13, _D6_14,
  _D6_15, _D6_16),
 ) = _D


def _initial_step(q, p, dp, tol, span, floor):
    """First trial step from the scaled sizes of y0 and y0' = (p, dp), at
    most a tenth of the span but at least min(floor, span): a shorter first
    step would fail the step floor at once, and a span below the floor is
    taken in one landing step."""
    sq = tol + tol * abs(q)
    sp = tol + tol * abs(p)
    e0, e1 = q / sq, p / sp
    d0 = math.sqrt((e0 * e0 + e1 * e1) / 2)
    e0, e1 = p / sq, dp / sp
    d1 = math.sqrt((e0 * e0 + e1 * e1) / 2)
    if d0 < 1e-5 or d1 < 1e-5:
        h = 1e-6 * span
    else:
        h = 0.01 * d0 / d1
    return max(min(h, 0.1 * span), min(floor, span))


def time_grid(t_grid, least: int) -> np.ndarray:
    """t_grid as errors.reals returns it, if 1-D with at least `least`
    strictly increasing times, else DomainError."""
    grid = reals("t_grid", t_grid)
    if grid.ndim != 1 or grid.size < least or not np.all(np.diff(grid) > 0):
        raise DomainError(
            f"t_grid must be a 1-D array of at least {least} strictly increasing times")
    return grid


def integrate_oscillator(omega_sq, damping, q0, p0, t_grid, rel_tol):
    """Integrate q'' + damping q' + omega_sq(t) q = 0 from (q0, p0 = q'0).

    t_grid must pass time_grid(t_grid, 2), q0, p0 and damping errors.finite
    and rel_tol lie in [1e-13, 1e-3], else DomainError before any step;
    integration starts at t_grid[0]. omega_sq must be a pure function of t:
    the last stage of a step and its end value share one evaluation. The
    steps depend on the first and last grid times only; the grid times
    between are read from the dense output, and the first and last are step
    ends themselves.
    Returns (q, stats): q on the grid, stats = {"nfev", "accepted",
    "rejected", "h_min", "h_max"}, the RHS evaluations, step counts and the
    smallest and largest accepted step (the clipped last step included).
    nfev is 1 + 12 accepted + 11 rejected + 2 per step that holds a grid
    time between the ends: a trial step evaluates stages 2 to 12, an
    accepted one also the end value, and one that holds a grid time also
    the two dense stages. So of the stats only nfev follows the grid times
    between the ends.
    Raises DomainError, naming t, when a trial step leaves the float range
    although omega_sq is finite at all its stages, and StepSizeUnderflow
    otherwise if a step is nan or below the floor 1e-14 * max(1, |t|). The
    step that lands on the last grid time is exempt from the floor, so a
    span below it is integrated in that one step.
    """
    grid = time_grid(t_grid, 2)
    rel_tol = finite("rel_tol", rel_tol)
    if not 1e-13 <= rel_tol <= 1e-3:
        raise DomainError(f"rel_tol must lie in [1e-13, 1e-3], got {rel_tol!r}")
    nd = -finite("damping", damping)

    t, t_end = float(grid[0]), float(grid[-1])
    q, p = finite("q0", q0), finite("p0", p0)
    start = q
    # k1 = (p, dp); the first component of every stage derivative is that
    # stage's p, so only the second one gets a name
    dp = nd * p - omega_sq(t) * q
    h = _initial_step(q, p, dp, rel_tol, t_end - t, 1e-14 * max(1.0, abs(t)))
    err = err_prev = 1.0
    accepted = rejected = 0
    h_min, h_max = math.inf, 0.0
    # array and bisect are imported here, so importing this module loads no
    # more. A step that holds a grid time before the last keeps one row of
    # (t_next, t, h, q, F_0 ... F_6) doubles; times[j] is the first such
    # grid time not yet held by a row.
    from array import array
    from bisect import bisect_left
    rows = array("d")
    times = grid.tolist()
    j = 1

    while t < t_end:
        lands = h >= t_end - t
        step = t_end - t if lands else h
        # written so that a nan step (from a non-finite omega_sq) fails
        # here instead of being retried forever; the step that lands on
        # t_end may be shorter than the floor, as it is the last
        if not (step >= 1e-14 * max(1.0, abs(t)) or lands):
            # a last trial that went non-finite although omega_sq was finite
            # at each of its stage times means the solution itself overflows
            last = step / _REJECT_BACKOFF
            if not math.isfinite(err) and all(
                math.isfinite(omega_sq(t + c * last)) for c in _C
            ):
                raise DomainError(f"the solution leaves the float range at t = {t:.6g}")
            raise StepSizeUnderflow(
                f"step {step:.3e} below resolution floor at t = {t:.6g}"
            )
        q2 = q + step * (0.0 + _A2_1 * p)
        p2 = p + step * (0.0 + _A2_1 * dp)
        dp2 = nd * p2 - omega_sq(t + _C2 * step) * q2
        q3 = q + step * (0.0 + _A3_1 * p + _A3_2 * p2)
        p3 = p + step * (0.0 + _A3_1 * dp + _A3_2 * dp2)
        dp3 = nd * p3 - omega_sq(t + _C3 * step) * q3
        q4 = q + step * (0.0 + _A4_1 * p + _A4_3 * p3)
        p4 = p + step * (0.0 + _A4_1 * dp + _A4_3 * dp3)
        dp4 = nd * p4 - omega_sq(t + _C4 * step) * q4
        q5 = q + step * (0.0 + _A5_1 * p + _A5_3 * p3 + _A5_4 * p4)
        p5 = p + step * (0.0 + _A5_1 * dp + _A5_3 * dp3 + _A5_4 * dp4)
        dp5 = nd * p5 - omega_sq(t + _C5 * step) * q5
        q6 = q + step * (0.0 + _A6_1 * p + _A6_4 * p4 + _A6_5 * p5)
        p6 = p + step * (0.0 + _A6_1 * dp + _A6_4 * dp4 + _A6_5 * dp5)
        dp6 = nd * p6 - omega_sq(t + _C6 * step) * q6
        q7 = q + step * (0.0 + _A7_1 * p + _A7_4 * p4 + _A7_5 * p5 + _A7_6 * p6)
        p7 = p + step * (0.0 + _A7_1 * dp + _A7_4 * dp4 + _A7_5 * dp5 + _A7_6 * dp6)
        dp7 = nd * p7 - omega_sq(t + _C7 * step) * q7
        q8 = q + step * (
            0.0 + _A8_1 * p + _A8_4 * p4 + _A8_5 * p5 + _A8_6 * p6 + _A8_7 * p7
        )
        p8 = p + step * (
            0.0 + _A8_1 * dp + _A8_4 * dp4 + _A8_5 * dp5 + _A8_6 * dp6 + _A8_7 * dp7
        )
        dp8 = nd * p8 - omega_sq(t + _C8 * step) * q8
        q9 = q + step * (
            0.0 + _A9_1 * p + _A9_4 * p4 + _A9_5 * p5 + _A9_6 * p6 + _A9_7 * p7 + _A9_8 * p8
        )
        p9 = p + step * (
            0.0 + _A9_1 * dp + _A9_4 * dp4 + _A9_5 * dp5 + _A9_6 * dp6 + _A9_7 * dp7
            + _A9_8 * dp8
        )
        dp9 = nd * p9 - omega_sq(t + _C9 * step) * q9
        q10 = q + step * (
            0.0 + _A10_1 * p + _A10_4 * p4 + _A10_5 * p5 + _A10_6 * p6 + _A10_7 * p7
            + _A10_8 * p8 + _A10_9 * p9
        )
        p10 = p + step * (
            0.0 + _A10_1 * dp + _A10_4 * dp4 + _A10_5 * dp5 + _A10_6 * dp6 + _A10_7 * dp7
            + _A10_8 * dp8 + _A10_9 * dp9
        )
        dp10 = nd * p10 - omega_sq(t + _C10 * step) * q10
        q11 = q + step * (
            0.0 + _A11_1 * p + _A11_4 * p4 + _A11_5 * p5 + _A11_6 * p6 + _A11_7 * p7
            + _A11_8 * p8 + _A11_9 * p9 + _A11_10 * p10
        )
        p11 = p + step * (
            0.0 + _A11_1 * dp + _A11_4 * dp4 + _A11_5 * dp5 + _A11_6 * dp6 + _A11_7 * dp7
            + _A11_8 * dp8 + _A11_9 * dp9 + _A11_10 * dp10
        )
        dp11 = nd * p11 - omega_sq(t + _C11 * step) * q11
        t_new = t + step
        w2_end = omega_sq(t_new)
        q12 = q + step * (
            0.0 + _A12_1 * p + _A12_4 * p4 + _A12_5 * p5 + _A12_6 * p6 + _A12_7 * p7
            + _A12_8 * p8 + _A12_9 * p9 + _A12_10 * p10 + _A12_11 * p11
        )
        p12 = p + step * (
            0.0 + _A12_1 * dp + _A12_4 * dp4 + _A12_5 * dp5 + _A12_6 * dp6 + _A12_7 * dp7
            + _A12_8 * dp8 + _A12_9 * dp9 + _A12_10 * dp10 + _A12_11 * dp11
        )
        dp12 = nd * p12 - w2_end * q12
        qn = q + step * (
            0.0 + _B1 * p + _B6 * p6 + _B7 * p7 + _B8 * p8 + _B9 * p9 + _B10 * p10
            + _B11 * p11 + _B12 * p12
        )
        pn = p + step * (
            0.0 + _B1 * dp + _B6 * dp6 + _B7 * dp7 + _B8 * dp8 + _B9 * dp9 + _B10 * dp10
            + _B11 * dp11 + _B12 * dp12
        )
        # (qn, pn) is the 8th-order solution; e5 and e3 are the embedded
        # 5th- and 3rd-order differences, scaled
        sq = rel_tol + rel_tol * max(abs(q), abs(qn))
        sp = rel_tol + rel_tol * max(abs(p), abs(pn))
        e5q = (
            0.0 + _E5_1 * p + _E5_6 * p6 + _E5_7 * p7 + _E5_8 * p8 + _E5_9 * p9
            + _E5_10 * p10 + _E5_11 * p11 + _E5_12 * p12
        ) / sq
        e5p = (
            0.0 + _E5_1 * dp + _E5_6 * dp6 + _E5_7 * dp7 + _E5_8 * dp8 + _E5_9 * dp9
            + _E5_10 * dp10 + _E5_11 * dp11 + _E5_12 * dp12
        ) / sp
        e3q = (
            0.0 + _E3_1 * p + _E3_6 * p6 + _E3_7 * p7 + _E3_8 * p8 + _E3_9 * p9
            + _E3_10 * p10 + _E3_11 * p11 + _E3_12 * p12
        ) / sq
        e3p = (
            0.0 + _E3_1 * dp + _E3_6 * dp6 + _E3_7 * dp7 + _E3_8 * dp8 + _E3_9 * dp9
            + _E3_10 * dp10 + _E3_11 * dp11 + _E3_12 * dp12
        ) / sp
        n5 = e5q * e5q + e5p * e5p
        n3 = e3q * e3q + e3p * e3p
        # both sums are >= 0, so a zero denominator means n5 == 0
        den = n5 + 0.01 * n3
        err = step * n5 / math.sqrt(den * 2) if den else 0.0
        if err <= 1.0:
            dpn = nd * pn - w2_end * qn
            # t + (t_end - t) can fall one ulp short of t_end, which would
            # leave a step below the resolution floor
            t_next = t_end if lands else t_new
            if times[j] < t_next:
                q14 = q + step * (
                    0.0 + _A14_1 * p + _A14_7 * p7 + _A14_8 * p8 + _A14_9 * p9 + _A14_10 * p10
                    + _A14_11 * p11 + _A14_12 * p12 + _A14_13 * pn
                )
                p14 = p + step * (
                    0.0 + _A14_1 * dp + _A14_7 * dp7 + _A14_8 * dp8 + _A14_9 * dp9
                    + _A14_10 * dp10 + _A14_11 * dp11 + _A14_12 * dp12 + _A14_13 * dpn
                )
                dp14 = nd * p14 - omega_sq(t + _C14 * step) * q14
                q15 = q + step * (
                    0.0 + _A15_1 * p + _A15_6 * p6 + _A15_7 * p7 + _A15_8 * p8 + _A15_11 * p11
                    + _A15_12 * p12 + _A15_13 * pn + _A15_14 * p14
                )
                p15 = p + step * (
                    0.0 + _A15_1 * dp + _A15_6 * dp6 + _A15_7 * dp7 + _A15_8 * dp8
                    + _A15_11 * dp11 + _A15_12 * dp12 + _A15_13 * dpn + _A15_14 * dp14
                )
                dp15 = nd * p15 - omega_sq(t + _C15 * step) * q15
                p16 = p + step * (
                    0.0 + _A16_1 * dp + _A16_6 * dp6 + _A16_7 * dp7 + _A16_8 * dp8
                    + _A16_9 * dp9 + _A16_13 * dpn + _A16_14 * dp14 + _A16_15 * dp15
                )
                dq = qn - q
                f3 = step * (
                    0.0 + _D3_1 * p + _D3_6 * p6 + _D3_7 * p7 + _D3_8 * p8 + _D3_9 * p9
                    + _D3_10 * p10 + _D3_11 * p11 + _D3_12 * p12 + _D3_13 * pn
                    + _D3_14 * p14 + _D3_15 * p15 + _D3_16 * p16
                )
                f4 = step * (
                    0.0 + _D4_1 * p + _D4_6 * p6 + _D4_7 * p7 + _D4_8 * p8 + _D4_9 * p9
                    + _D4_10 * p10 + _D4_11 * p11 + _D4_12 * p12 + _D4_13 * pn
                    + _D4_14 * p14 + _D4_15 * p15 + _D4_16 * p16
                )
                f5 = step * (
                    0.0 + _D5_1 * p + _D5_6 * p6 + _D5_7 * p7 + _D5_8 * p8 + _D5_9 * p9
                    + _D5_10 * p10 + _D5_11 * p11 + _D5_12 * p12 + _D5_13 * pn
                    + _D5_14 * p14 + _D5_15 * p15 + _D5_16 * p16
                )
                f6 = step * (
                    0.0 + _D6_1 * p + _D6_6 * p6 + _D6_7 * p7 + _D6_8 * p8 + _D6_9 * p9
                    + _D6_10 * p10 + _D6_11 * p11 + _D6_12 * p12 + _D6_13 * pn
                    + _D6_14 * p14 + _D6_15 * p15 + _D6_16 * p16
                )
                rows.extend((t_next, t, step, q, dq, step * p - dq,
                             2.0 * dq - step * (pn + p), f3, f4, f5, f6))
                j = bisect_left(times, t_next, j)
            t, q, p, dp = t_next, qn, pn, dpn  # first-same-as-last
            factor = _SAFETY * (err + 1e-300) ** -_ALPHA * err_prev**_BETA
            h = step * min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            err_prev = max(err, 1e-4)
            accepted += 1
            if step < h_min:
                h_min = step
            if step > h_max:
                h_max = step
        else:
            h = step * _REJECT_BACKOFF
            rejected += 1

    stats = {
        "nfev": 1 + 12 * accepted + 11 * rejected + 2 * (len(rows) // 11),
        "accepted": accepted,
        "rejected": rejected,
        "h_min": h_min,
        "h_max": h_max,
    }
    # the step holding each grid time between the ends is the first row
    # whose t_next lies past it; the interpolant in Horner form in
    # theta = (time - t) / h and 1 - theta
    inner = grid[1:-1]
    table = np.frombuffer(rows).reshape(-1, 11)
    _, t_row, h_row, q_row, *f = table[np.searchsorted(table[:, 0], inner, side="right")].T
    th = (inner - t_row) / h_row
    mu = 1.0 - th
    q_inner = q_row + th * (
        f[0] + mu * (f[1] + th * (f[2] + mu * (f[3] + th * (f[4] + mu * (f[5] + th * f[6])))))
    )
    return np.concatenate(([start], q_inner, [q])), stats
