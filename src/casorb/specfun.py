"""Struve/Bessel kernels and small special-function utilities.

``struve_k`` returns an :class:`FnEval` carrying the value and an absolute
error bound.  Its one route is the integral representation, whose bound is
the heuristic Gauss-Kronrod estimate, so every value it returns reads
``method == "integral_rep"`` and ``bound_is_rigorous is False``.

Struve K of orders 1 and 2 takes the integral route at every z.  The
Laplace integral is mapped to [0, 1] by s = zt = v/(1-v), which leaves an
integrand that is smooth on the closed interval and flat to all orders at
v = 1.  One adaptive Kronrod run starts from 11 fixed panels that narrow
towards v = 1 (``_STRUVE_K_GRID``, a grid built and validated at import)
and, at every argument of a (2,3,7) run, reaches a relative 1e-13 on them
at once: one array call of the integrand, 165 evaluations, and no split.
The integrand's factors that do not depend on z (s, e^{-s}, (1-v)^2 and
the suffix where s > 745) come from one helper; on the grid's 165 nodes
they are read from a table that helper built at import, so a
new argument computes only the z-dependent part, with the bits that
bisected panels get.  Where s > 745, e^{-s} underflows and the integrand
is taken as 0.

The modified Bessel function K_1 enters only through ``csch_k1`` and
``csch_k1_array``, which share one numpy kernel for e^z K_1(z): the power
series below z = 1/4 and, above, Chebyshev series on dyadic windows whose
coefficients are built at import from a trapezoid rule.  Its relative
error bound (``CSCH_K1_REL_ERROR``, about 1.9e-15) is computed from the
coefficients in use and proved given one assumption: numpy's elementary
functions are within ``_ELEM_ULP`` ulp, an allowance measured against
mpmath, not documented by numpy.  That table build is the only
extended-precision (80-bit numpy longdouble) code in the package;
everything else is plain binary64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .quadrature import QuadratureNonConvergence, adaptive_quadrature, kronrod_grid

__all__ = [
    "FnEval",
    "UnsupportedOrderError",
    "struve_k",
    "csch_k1",
    "csch_k1_array",
    "CSCH_K1_REL_ERROR",
    "upper_incomplete_gamma_half",
    "clear_caches",
]

_LD = np.longdouble
_U = 2.0 ** -53                         # binary64 unit roundoff
_U_LD = float(np.finfo(_LD).eps) / 2    # longdouble unit roundoff
_PI_LD = _LD("3.141592653589793238462643383279502884")
_EULER_LD = _LD("0.577215664901532860606512090082402431")


class UnsupportedOrderError(ValueError):
    pass


@dataclass(frozen=True)
class FnEval:
    """A Struve K value and its absolute error bound.  The class constants
    ``method`` and ``bound_is_rigorous`` name the one (integral) route and
    flag its bound, a Kronrod estimate, as no proof."""

    value: float
    abs_error_bound: float
    method = "integral_rep"
    bound_is_rigorous = False

    def __post_init__(self):
        if not (math.isfinite(self.value) and math.isfinite(self.abs_error_bound)):
            raise ValueError("non-finite function value or error bound")
        if self.abs_error_bound < 0:
            raise ValueError("negative error bound")


# ----------------------------------------------------------------------
# Struve K = H - Y
# ----------------------------------------------------------------------

# Starting panels of the integral route, in v.  Started from [0, 1], the
# bisection of each of the 600 integrals of a cold (2,3,7) run ended on a
# coarsening of these edges (582 of them on 9 of the 11 panels), and these
# edges are the union of where they ended.  Started from them, each of the
# 600 converges on the first call of the integrand, at 165 evaluations
# instead of about 256 (measured).  The panels narrow towards v = 1, where
# s = v/(1-v) runs through the decay of e^{-s}.
_STRUVE_K_GRID = kronrod_grid((0.0, 1 / 4, 1 / 2, 5 / 8, 3 / 4, 13 / 16, 7 / 8,
                               29 / 32, 15 / 16, 31 / 32, 63 / 64, 1.0))


def _struve_k_factors(v: np.ndarray):
    """The Struve K integrand's factors that do not depend on z, at nodes v:
    s = v/(1-v), e^{-s}, (1-v)^2, and the cut where s > 745 as a slice: the
    node arrays a run passes do not decrease, so neither does s, and the cut
    is a suffix.  Only a split panel a few ulps wide about a power of two
    puts its nodes out of order, and inside (0, 1) that is at 1/2 or below,
    where s <= 1, so the suffix holds there too."""
    w = 1.0 - v
    s = v / w
    return s, np.exp(-s), w * w, slice(int(np.count_nonzero(s <= 745.0)), None)


_STRUVE_K_TABLE = _STRUVE_K_GRID.nodes, _struve_k_factors(_STRUVE_K_GRID.nodes)
for _t in _STRUVE_K_TABLE[1][:3]:
    _t.flags.writeable = False
del _t


def _struve_k_integral(nu: int, z: float) -> FnEval:
    # K_nu(z) = c_nu * int_0^inf e^{-zt} (1+t^2)^{nu-1/2} dt  (DLMF 11.5.2)
    # with s = zt = v/(1-v) the integral becomes
    # (1/z) int_0^1 e^{-s} (1 + (s/z)^2)^{nu-1/2} / (1-v)^2 dv, smooth on
    # [0, 1] and flat to all orders at v = 1.  (The map u = e^{-zt} leaves a
    # |log u|^{2nu-1} singularity at u = 0 that costs ~4x the evaluations.)
    # Past s = 745, e^{-s} underflows to 0 while s itself can reach inf as
    # v -> 1, so the integrand is 0 there rather than 0 * inf = NaN.
    # On the first pass from _STRUVE_K_GRID the factors come from the table
    # above, which _struve_k_factors computed, so both give the same bits.
    if nu == 1:
        c = 2.0 * z / math.pi
        power = 0.5
    else:
        c = 2.0 * z * z / (3.0 * math.pi)
        power = 1.5
    inv_z = 1.0 / z
    nodes, table = _STRUVE_K_TABLE

    def integrand(v: np.ndarray) -> np.ndarray:
        s, e, w2, cut = table if v is nodes else _struve_k_factors(v)
        x = s * inv_z
        y = inv_z * e * (1.0 + x * x) ** power / w2
        y[cut] = 0.0
        return y

    res = adaptive_quadrature(integrand, _STRUVE_K_GRID, tol_abs=0.0,
                              tol_rel=1e-13, max_intervals=1200)
    if not res.converged:
        raise QuadratureNonConvergence(
            f"Struve K_{nu}({z!r}) missed its 1e-13 tolerance")
    value = c * res.value
    bound = c * res.est_error + 16 * _U * abs(value)
    return FnEval(value, bound)


# struve_k's memo of the integral route
_struve_k_dispatch = lru_cache(maxsize=100000)(_struve_k_integral)


def struve_k(nu: int, z: float) -> FnEval:
    """Struve function of the second kind, K_nu = H_nu - Y_nu, for nu in {1, 2}.

    Both orders take the Laplace-type integral representation on the smooth
    map s = zt = v/(1-v).  It accepts 1e-60 <= z <= 1e100, where both
    orders were swept without a floating-point warning; production
    arguments run from pi/7 to about 190.  Any other z, NaN included,
    raises ValueError; at NaN, inf, 1e308 or 1e-160 the route fails.  A new
    argument costs one array call of the integrand on 11 starting panels
    (165 evaluations, with its z-free factors read from a table) where those
    panels resolve it: at every argument of a (2,3,7) run, and measured for
    2.1 < z < 1e4.  Below z = 0.26 (order 1) or 2.1 (order 2) bisection
    refines them, and the split panels compute those factors afresh.  The
    tests hold it to mpmath's H - Y at 30 digits.
    An integral that misses its tolerance raises QuadratureNonConvergence,
    and nothing is cached for it.
    """
    if nu not in (1, 2):
        raise UnsupportedOrderError(f"struve_k supports orders 1 and 2, got {nu}")
    if not 1e-60 <= z <= 1e100:
        raise ValueError(f"struve_k needs 1e-60 <= z <= 1e100, got {z!r}")
    return _struve_k_dispatch(int(nu), float(z))


# ----------------------------------------------------------------------
# e^z K_1(z) with a proved error bound
# ----------------------------------------------------------------------
#
# Below z = 1/4, K_1 is the power series DLMF 10.31.1.  From 1/4 up to
# 2^9, e^z K_1(z) is a Chebyshev series on each dyadic window [a, 2a),
# a = 2^k, in t = 2z/a - 3.  The nearest singularity, the branch point at
# z = 0, sits at t = -3 for every window, so one degree serves them all.
# Beyond 2^9, e^{-2z} underflows and csch_k1 is 0.
#
# Each window interpolates at the 33 Chebyshev points of the second kind,
# sampled once at import, in 80-bit precision, by the trapezoid rule on
#     e^z K_1(z) = (2/sqrt z) int_0^inf e^{-u^2} (1 + u^2/z) / sqrt(2 + u^2/z) du,
# which is DLMF 10.32.9 under u^2 = z (cosh t - 1).  The error of the
# evaluated series f~ against f = e^z K_1 on a window is at most the sum of
#   - interpolation: 4 M rho^-N / (rho - 1) (Trefethen, Approximation Theory
#     and Approximation Practice, Thm 8.2) on the Bernstein ellipse
#     rho = 4, where |f(z)| <= e^x K_1(x) <= sqrt(pi/(2x)) (1 + 1/x) at
#     x = Re z > 0 (DLMF 10.32.9, and K_1 <= K_{3/2});
#   - samples: the trapezoid error M_T / (e^{2 pi s/h} - 1) for the strip
#     |Im u| < s = 1/2 (Trefethen & Weideman, SIAM Review 56 (2014),
#     Thm 5.1, halved for the half line), the truncation at u = 7, and the
#     80-bit rounding, all times the Lebesgue constant (2/pi) log(N+1) + 1;
#   - coefficients: their 80-bit rounding and the rounding to binary64;
#   - truncation: the dropped binary64 coefficients, sum_{k >= 21} |c_k|;
#   - Clenshaw's recurrence in binary64: each step's rounding eta_k enters
#     the result as eta_k T_k(t), |T_k| <= 1, and |b_k| <= sum_{j>=k}
#     |c_j| (j - k + 1) since b_k = sum_j c_j U_{j-k}(t).
# Dividing by f(2a) = min f on the window (e^x K_1(x) is decreasing) gives
# the window's relative bound, and _K1E_CHEB_REL_BOUND is the largest.
# Everything is computed below from the samples and coefficients in use.

# Allowance for the elementary functions, in ulp: numpy's exp, expm1 and
# log, and the 80-bit exp and cos of the table build.  This is the one
# assumption of the bounds below, not a proof: numpy and libm document no
# error bound, and numpy picks its SIMD implementation per CPU.  Against
# mpmath they stayed within 0.66 ulp (binary64, 20 000 arguments each;
# numpy 2.4 on an AVX-512 x86-64 machine) and 0.57 ulp (80-bit, 3000
# arguments each).
_ELEM_ULP = 1.0
_K1E_LO_EXP, _K1E_HI_EXP = -2, 9    # windows [2^k, 2^{k+1}), -2 <= k < 9
_K1E_LO = 2.0 ** _K1E_LO_EXP
_K1E_TOP = math.nextafter(2.0 ** _K1E_HI_EXP, 0.0)
# The table build below also sets how fast the tail runs.  Its one pass
# over all windows frees ~0.8 MB of temporaries (11 windows x 33 points x
# _TRAP_NODES longdoubles), and glibc raises its dynamic mmap and trim
# thresholds to match.  The tail's arrays (~16 000 floats, just over the
# 128 KiB default) then stay on the heap; with the default thresholds they
# are mapped and faulted in again on every call, and a warm tail_b1_bound
# took 2.3 ms instead of 1.3 ms (MALLOC_MMAP_THRESHOLD_=131072, x86-64).
# The winding sums hold a few arrays of one float per term.  A 16-letter
# enumeration's 6865 terms (55 kB each) sit under the 128 KiB default;
# a 20-letter one's 26 237 terms (210 kB each) stay on the heap too, and
# pinning the threshold at 128 KiB made that head 1.5 to 2 times slower.
# The one pass costs peak RSS at import: building the tables one window
# at a time gave the same coefficients and a 2.4-2.7 MB lower peak after
# `import casorb`, but left the thresholds low, and a warm tail_b1_bound
# took 2.0-3.3 ms instead of 1.5-1.6.  Shrinking _CHEB_N, _TRAP_NODES or
# the window range shrinks that pass.
_CHEB_N = 32                        # interpolation degree
_CHEB_TERMS = 21                    # coefficients kept for evaluation
_BERNSTEIN_RHO = 4.0
_TRAP_H = _LD(1) / 20
_TRAP_NODES = 141                   # u = 0, h, ..., 7
_TRAP_STRIP = 0.5
_K1_SERIES_TERMS = 7


def _k1e_samples(z):
    """e^z K_1 at the longdouble array z >= 1/4 by the trapezoid rule.

    Also returns each sample's relative rounding bound: every term carries
    at most (3u^2 + 24) units of longdouble roundoff (3u^2 + 4 in the
    weight, where e^{-u^2} amplifies the node's rounding; under 11 in the
    integrand and its product with the weight; under 9 in the prefactor
    and the sample point, where |z f'(z) / f(z)| <= 1), and the sum adds
    one unit per term.
    """
    u = np.arange(_TRAP_NODES, dtype=_LD) * _TRAP_H
    w = np.exp(-u * u) * _TRAP_H
    w[0] /= 2
    s = (u * u) / z[:, None]
    g = (1 + s) / np.sqrt(2 + s)
    total = g @ w
    rounding = (g @ (w * (3 * u * u + 24))) / total + _TRAP_NODES
    return 2 / np.sqrt(z) * total, rounding.astype(np.float64) * _U_LD


def _trapezoid_truncation(z):
    """Relative discretization and truncation error of _k1e_samples at z >= 1/4."""
    a, h = _TRAP_STRIP, float(_TRAP_H)
    # the integrand's absolute integral along each line Im u = y, |y| <= a
    m_t = (math.exp(a * a) * math.sqrt(math.pi) * (1 + (a * a + 0.5) / z)
           / np.sqrt(2 - a * a / z))
    disc = m_t / math.expm1(2 * math.pi * a / h)
    # past the last node the integrand is below e^{-u^2} (1 + u / sqrt z)
    end = (_TRAP_NODES - 1) * h
    trunc = (0.5 * math.sqrt(math.pi) * math.erfc(end)
             + math.exp(-end * end) / (2 * np.sqrt(z)))
    # the integral exceeds its z -> inf limit, sqrt(pi / 8)
    return (disc + trunc) / math.sqrt(math.pi / 8)


def _k1e_tables():
    """Chebyshev coefficients of e^z K_1 on every window, and the largest
    relative error bound among the windows.

    All windows are sampled in one pass; see the note above _CHEB_N on
    what freeing that pass's temporaries does to the tail's speed.
    """
    n = _CHEB_N
    j = np.arange(n + 1)
    a = 2.0 ** np.arange(_K1E_LO_EXP, _K1E_HI_EXP)        # window starts
    x = np.cos(j.astype(_LD) * _PI_LD / n)
    f, rounding = _k1e_samples((a.astype(_LD)[:, None] * (3 + x) / 2).ravel())
    f = f.reshape(len(a), n + 1)
    fw = f.copy()
    fw[:, [0, -1]] /= 2
    # cos(j k pi / n) from the reduced argument (j k mod 2n) pi / n
    cos_jk = np.cos((np.outer(j, j) % (2 * n)).astype(_LD) * _PI_LD / n)
    c_ld = (2 / _LD(n)) * (fw @ cos_jk)
    c_ld[:, [0, -1]] /= 2
    c = c_ld.astype(np.float64)

    sample = rounding.reshape(f.shape).max(axis=1) + _trapezoid_truncation(a)
    f_max = f[:, -1].astype(np.float64) * (1 + sample)     # f(a)
    f_min = f[:, 0].astype(np.float64) * (1 - sample)      # f(2a)
    x_min = a * (3 - (_BERNSTEIN_RHO + 1 / _BERNSTEIN_RHO) / 2) / 2
    m_ellipse = np.sqrt(np.pi / (2 * x_min)) * (1 + 1 / x_min)
    interp = 4 * m_ellipse * _BERNSTEIN_RHO ** -n / (_BERNSTEIN_RHO - 1)
    lebesgue = 2 / math.pi * math.log(n + 1) + 1
    absc = np.abs(c)
    # each longdouble coefficient: a cosine within 16 units, n + 1 summands
    coefs = _U * absc.sum(axis=1) + 2 * (n + 1) * (n + 18) * _U_LD * f_max
    kept = absc[:, :_CHEB_TERMS]
    truncation = absc[:, _CHEB_TERMS:].sum(axis=1)
    # B_k = sum_{j >= k} |c_j| (j - k + 1), padded with B_{m+1} = B_{m+2} = 0
    bk = np.cumsum(np.cumsum(kept[:, ::-1], axis=1), axis=1)[:, ::-1]
    bk = np.pad(bk, ((0, 0), (0, 2)))
    steps = np.sum(bk[:, 1:-2] + 4 * bk[:, 2:-1] + bk[:, 3:], axis=1)
    clenshaw = 1.01 * _U * (steps + bk[:, 1] + bk[:, 2])
    absolute = (interp + lebesgue * sample * f_max + coefs + truncation
                + clenshaw)
    # the last two roundings, fl(c_0 + t b_1) and the final subtraction,
    # are relative to the result itself
    bound = absolute / f_min + 2.01 * _U
    return np.ascontiguousarray(c[:, :_CHEB_TERMS]), float(bound.max())


_K1E_COEFS, _K1E_CHEB_REL_BOUND = _k1e_tables()

# (psi(k+1) + psi(k+2)) / 2 for the series, from harmonic numbers
_K1_SERIES_H = tuple(
    float(sum(_LD(1) / i for i in range(1, k + 1)) + _LD(1) / (2 * k + 2) - _EULER_LD)
    for k in range(_K1_SERIES_TERMS))

# Series route, z < 1/4: K_1 = 1/z + (z/2) s, s = sum_k r_k (log(z/2) - h_k),
# r_k = (z^2/4)^k / (k! (k+1)!), all terms of one sign.  There z K_1(z) >=
# 0.936 (it decreases from 1) and (z^2/2)|s| <= 0.07.  With s within 25 u
# of itself (log included), (z/2) s within 26 u, and one rounding each for
# 1/z and the sum, K_1 is within 3.82 u / z, under 4.1 u relative; the
# first dropped term is below 1e-21 relative.  exp(z) and the product add
# _ELEM_ULP ulp and u.
_K1E_SERIES_REL_BOUND = 4.1 * _U + 2 * _ELEM_ULP * _U + _U

# The end of the range where CSCH_K1_REL_ERROR is proved.
_CSCH_K1_Z_MAX = 350.0

CSCH_K1_REL_ERROR = (max(_K1E_CHEB_REL_BOUND, _K1E_SERIES_REL_BOUND)
                     + 2 * 2 * _ELEM_ULP * _U + 2 * _U)
"""Relative error of csch_k1 and csch_k1_array for 1e-150 <= z <= 350.

The larger kernel bound, an allowance of _ELEM_ULP ulp for each of
exp(-2z) and expm1(-2z), and the two roundings of the product and quotient.
Proved given numpy's exp, expm1 and log within _ELEM_ULP ulp, which is
measured, not documented.
Past z = 354, e^{-2z} is subnormal and only an absolute bound holds.
"""


def _k1e_series(z):
    """e^z K_1(z) by DLMF 10.31.1 for an array of 0 < z < 1/4."""
    q = 0.25 * z * z
    lg = np.log(0.5 * z)
    r = 1.0
    s = lg - _K1_SERIES_H[0]
    for k in range(1, _K1_SERIES_TERMS):
        r *= q / (k * (k + 1))
        s += r * (lg - _K1_SERIES_H[k])
    return (1.0 / z + 0.5 * z * s) * np.exp(z)


def _clenshaw(coef, t2):
    """sum_k c_k T_k(t2 / 2) over k < _CHEB_TERMS, where coef(k) gives c_k:
    one window's coefficient, or an array of each element's."""
    b1 = b2 = 0.0
    for k in range(_CHEB_TERMS - 1, 0, -1):
        tmp = t2 * b1
        tmp -= b2
        tmp += coef(k)
        b1, b2 = tmp, b1
    tmp = t2 * b1
    tmp *= 0.5
    tmp += coef(0)
    tmp -= b2
    return tmp


# _K1E_COLUMNS[k] holds c_k of every window, contiguous, for gathering one
# step's coefficients at a time
_K1E_COLUMNS = tuple(np.ascontiguousarray(_K1E_COEFS.T))


def _k1e(z):
    """e^z K_1(z) for a 1-d float64 array of positive z.

    Arguments at or past 2^9 are evaluated at the top of the last window;
    csch_k1_array multiplies them by e^{-2z} = 0.
    """
    t2, expo = np.frexp(np.clip(z, _K1E_LO, _K1E_TOP))
    window = np.subtract(expo, _K1E_LO_EXP + 1, dtype=np.intp)
    t2 *= 8.0
    t2 -= 6.0                   # 2t from the mantissa, t = 4 mant - 3: exact
    # Both ways below take the same operations, so they agree bit for bit.
    # One Clenshaw run per window costs ~64 numpy calls per occupied
    # window.  Gathering each step's coefficients into one reused array
    # costs one take per step and holds no more than a few arrays of z's
    # size.  Monotone input (the tail) takes the first way and anything
    # else (the winding sums) the second.  Either way alone is slower on
    # one of them (x86-64, numpy 2.4): gathering took 1.45 ms instead of
    # 1.14 on 26 335 sorted tail arguments, and sorting the table
    # spectrum's 413 winding terms by window to run them per window took
    # 0.30 ms instead of 0.055.  The take's mode="clip" never clips
    # (0 <= window < 11); the default mode="raise" copies through a buffer
    # when given out=, and took 1.6 ms instead of 1.3 on the 26 237
    # winding terms of a 20-letter enumeration's distinct lengths.
    if (window[1:] >= window[:-1]).all():
        out = np.empty_like(t2)
        edges = np.searchsorted(window, np.arange(len(_K1E_COEFS) + 1))
        for c, lo, hi in zip(_K1E_COEFS, edges[:-1], edges[1:]):
            if lo < hi:
                out[lo:hi] = _clenshaw(c.__getitem__, t2[lo:hi])
    else:
        row = np.empty_like(t2)
        out = _clenshaw(
            lambda k: _K1E_COLUMNS[k].take(window, out=row, mode="clip"), t2)
    small = z < _K1E_LO
    if small.any():
        out[small] = _k1e_series(z[small])
    return out


# ----------------------------------------------------------------------
# combined kernels and utilities
# ----------------------------------------------------------------------

def csch_k1(z: float) -> float:
    """csch(z) * K_1(z): the one-element case of :func:`csch_k1_array`."""
    return float(csch_k1_array([z])[0])


def csch_k1_array(z: np.ndarray) -> np.ndarray:
    """csch(z) K_1(z) = 2 e^{-2z} e^z K_1(z) / (1 - e^{-2z}), elementwise.

    Relative error at most CSCH_K1_REL_ERROR (1.9e-15) for
    1e-150 <= z <= 350; 0.0 once e^{-2z} underflows (z > 372).
    """
    z = np.asarray(z, dtype=np.float64)
    if not (z > 0).all():   # NaN included
        raise ValueError("z must be positive")
    flat = z.reshape(-1)
    k1e = _k1e(flat)
    m2z = -2.0 * flat
    return (2.0 * np.exp(m2z) * k1e / -np.expm1(m2z)).reshape(z.shape)


def upper_incomplete_gamma_half(a: float) -> float:
    """int_a^inf t^{-1/2} e^{-t} dt = sqrt(pi) * erfc(sqrt(a))."""
    if a < 0:
        raise ValueError("a must be nonnegative")
    return math.sqrt(math.pi) * math.erfc(math.sqrt(a))


def clear_caches() -> None:
    """Drop every memoized result: kernels, series weights, corpus, generators."""
    from . import contributions, triangle   # both import this module

    for cache in (_struve_k_dispatch, contributions._euler_weights,
                  triangle.table_corpus, triangle.generators_237):
        cache.cache_clear()
