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
231 coefficients are committed below as data.  Their relative error bound
(``CSCH_K1_REL_ERROR``, about 1.9e-15) is committed too, and a Tier-1
test proves it from those coefficients in mpmath, given one assumption:
numpy's exp, expm1 and log are within 1 ulp, an allowance measured
against mpmath, not documented by numpy.  All arithmetic is binary64.
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

_U = 2.0 ** -53                         # binary64 unit roundoff


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
    node arrays a run passes do not decrease, since every panel's nodes lie
    strictly inside it, so neither does s, and the cut is a suffix."""
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
# a = 2^k, in t = 2z/a - 3.  Beyond 2^9, e^{-2z} underflows and csch_k1
# is 0.  Each window's series is its interpolant at the 33 Chebyshev
# points of the second kind, cut to 21 terms and held in binary64.
# tests/test_specfun.py::TestK1Kernel::test_rel_error_is_proved rebuilds
# every interpolant in mpmath and proves CSCH_K1_REL_ERROR from these
# very coefficients.

_K1E_LO_EXP, _K1E_HI_EXP = -2, 9    # windows [2^k, 2^{k+1}), -2 <= k < 9
_K1E_LO = 2.0 ** _K1E_LO_EXP
_K1E_TOP = math.nextafter(2.0 ** _K1E_HI_EXP, 0.0)
_CHEB_TERMS = 21                    # coefficients kept for evaluation
_K1_SERIES_TERMS = 7

# c_0 .. c_20 of each window in turn, from [1/4, 1/2) up to [256, 512)
_K1E_COEFS = np.array([float.fromhex(h) for h in """
     0x1.cc6fca98536a1p+1   -0x1.02afe4714c9e9p+0    0x1.59ee104a81829p-3
    -0x1.d756f18349403p-6    0x1.4289266661bbep-8   -0x1.ba15353c12f7dp-11
     0x1.2f292ea12a8b8p-13  -0x1.9fea8260c0c94p-16   0x1.1d59fbebc6f80p-18
    -0x1.8795ebdebca00p-21   0x1.0cb3802bec400p-23  -0x1.70c5fad914000p-26
     0x1.fa21048c88000p-29  -0x1.5b543c1180000p-31   0x1.dcb683e300000p-34
    -0x1.4726751000000p-36   0x1.c106806000000p-39  -0x1.3427448000000p-41
     0x1.a6f47c0000000p-44  -0x1.2243700000000p-46   0x1.8e6a000000000p-49

     0x1.0c168058ff38fp+1   -0x1.109704f203401p-1    0x1.62a943123bcb1p-4
    -0x1.de0ca793e3bbcp-7    0x1.4570a58fa0611p-9   -0x1.bcce76b050a0fp-12
     0x1.30836fd3612a6p-14  -0x1.a1518132afb10p-17   0x1.1e1a6095b9450p-19
    -0x1.8869a7a6a1100p-22   0x1.0d2a88d378c00p-24  -0x1.714e363922000p-27
     0x1.fabf453f18000p-30  -0x1.5bb15291c0000p-32   0x1.dd253a8700000p-35
    -0x1.4768ec3c00000p-37   0x1.c156f78000000p-40  -0x1.34585c0000000p-42
     0x1.a731500000000p-45  -0x1.2267600000000p-47   0x1.8ea7000000000p-50

     0x1.49a7d11a5fdaap+0   -0x1.2c99c05b2ff01p-2    0x1.771802938b2f6p-5
    -0x1.ef7e590405e61p-8    0x1.4d94e572f301ap-10  -0x1.c4e05cf948947p-13
     0x1.34b11b0083531p-15  -0x1.a5caee791bc80p-18   0x1.20901e3d801a0p-20
    -0x1.8b2d22a92da00p-23   0x1.0ebf0ff720800p-25  -0x1.7323c559a2000p-28
     0x1.fce747f788000p-31  -0x1.5cf95c7bc0000p-33   0x1.deaed69000000p-36
    -0x1.48570bf000000p-38   0x1.c2793d8000000p-41  -0x1.350a5a0000000p-43
     0x1.a80d400000000p-46  -0x1.22efc00000000p-48   0x1.8f34000000000p-51

     0x1.a9a96101de109p-1   -0x1.5fc01585578d1p-3    0x1.a12cebba329f6p-6
    -0x1.0b757569d9b51p-8    0x1.615f2cb94db61p-11  -0x1.d9a9f2e99f5b6p-14
     0x1.3ff8e70ae7482p-16  -0x1.b258cad8b3b38p-19   0x1.27b0b0a6f5240p-21
    -0x1.93672a4d7ac00p-24   0x1.138f5cae04400p-26  -0x1.78d6df1152000p-29
     0x1.01dc3ab8b0000p-31  -0x1.6116424f40000p-34   0x1.e3af2d6000000p-37
    -0x1.4b66dce000000p-39   0x1.c63ed1c000000p-42  -0x1.37606d0000000p-44
     0x1.aaf4e80000000p-47  -0x1.24c1200000000p-49   0x1.916c000000000p-52

     0x1.1d20fe0dc5bfep-1   -0x1.b5813c791c40ep-4    0x1.ee3d39c9a8bcbp-7
    -0x1.3250a4891b7a4p-9    0x1.8ae0e50ae5858p-12  -0x1.03d01578915ffp-14
     0x1.5a1216ae00868p-17  -0x1.d08e35b73df30p-20   0x1.397046695b2a0p-22
    -0x1.a88439e71b400p-25   0x1.203f9c471cc00p-27  -0x1.883987e97e000p-30
     0x1.0b4266f900000p-32  -0x1.6ca5e10c40000p-35   0x1.f1fd221400000p-38
    -0x1.544c55f000000p-40   0x1.d15d2b4000000p-43  -0x1.3e5a960000000p-45
     0x1.b3bfe80000000p-48  -0x1.2a54c00000000p-50   0x1.9893000000000p-53

     0x1.8748734cfc382p-2   -0x1.1e1167da4c611p-4    0x1.374730e689041p-7
    -0x1.7679f335b2a62p-10   0x1.d727d2cf376c3p-13  -0x1.2fd7ff9a064b2p-15
     0x1.8dfd937839a11p-18  -0x1.075dee6334b84p-20   0x1.5f1e71edd95a0p-23
    -0x1.d6a06b9531500p-26   0x1.3cafb92e8b400p-28  -0x1.ab89e095ac000p-31
     0x1.214ffc7d48000p-33  -0x1.8854aa6d80000p-36   0x1.0a72537100000p-38
    -0x1.6a63f30000000p-41   0x1.ed6e070000000p-44  -0x1.503d4c0000000p-46
     0x1.ca9c480000000p-49  -0x1.38f4c00000000p-51   0x1.ab87000000000p-54

     0x1.104b77e2b5bb8p-2   -0x1.832184cb8a744p-5    0x1.9b1c569b29eb3p-8
    -0x1.e41e45c9de36dp-11   0x1.2ada144dc96afp-13  -0x1.7b082b20e6366p-16
     0x1.e91374a165f44p-19  -0x1.3f4e6f8282af0p-21   0x1.a48cd7678f100p-24
    -0x1.16c1f20215000p-26   0x1.736b038a9f000p-29  -0x1.f0dfa46c38000p-32
     0x1.4d6fd4f150000p-34  -0x1.c0b8358000000p-37   0x1.2e9aeff200000p-39
    -0x1.98e865e000000p-42   0x1.14b8500000000p-44  -0x1.770b480000000p-47
     0x1.fce9d00000000p-50  -0x1.59a1000000000p-52   0x1.d62a000000000p-55

     0x1.7deb685c21d81p-3   -0x1.0b61f2c4764fcp-5    0x1.17f6ab3c1327dp-8
    -0x1.4560363f05982p-11   0x1.8cd137fbd9623p-14  -0x1.f18953801ac9fp-17
     0x1.3d8ed2bafde18p-19  -0x1.9a7c3281f5500p-22   0x1.0bc3aa8bfddc0p-24
    -0x1.5fcf21765c800p-27   0x1.d0d09d8135000p-30  -0x1.347132fc5e000p-32
     0x1.9addd53230000p-35  -0x1.127efe1300000p-37   0x1.6fbbd08400000p-40
    -0x1.edbd8a8000000p-43   0x1.4c19d04000000p-45  -0x1.bf81b20000000p-48
     0x1.2df4580000000p-50  -0x1.97f0800000000p-53   0x1.13e9000000000p-55

     0x1.0ced6ef1cb9d7p-3   -0x1.758ff9f53ad05p-6    0x1.84294d6ba1d97p-9
    -0x1.bfd13d57f6f0cp-12   0x1.0f24474ce1cc5p-14  -0x1.51a4f9528c316p-17
     0x1.ac2c619af88c8p-20  -0x1.12f9c0fc742f8p-22   0x1.64890e7365240p-25
    -0x1.d1a8fb8f44400p-28   0x1.31d9a364aa800p-30  -0x1.93a79600f0000p-33
     0x1.0b66705fe0000p-35  -0x1.636e5ecb00000p-38   0x1.d9c0b33400000p-41
    -0x1.3c7c3c8000000p-43   0x1.a7ba060000000p-46  -0x1.1c2b300000000p-48
     0x1.7dc4700000000p-51  -0x1.00c8000000000p-53   0x1.5a04000000000p-56

     0x1.7b8463a186e53p-4   -0x1.06846f884190ap-6    0x1.0fb14c5ff886ep-9
    -0x1.383a500d9867ap-12   0x1.78a59a6912966p-15  -0x1.d3449b8f3b291p-18
     0x1.272f660f6e501p-20  -0x1.79c4eb16cf718p-23   0x1.e8147426f4040p-26
    -0x1.3d9f4648c1500p-28   0x1.9fce5cab82800p-31  -0x1.11768bf70c000p-33
     0x1.691ccd2300000p-36  -0x1.de6f7cd980000p-39   0x1.3dd5a0de00000p-41
    -0x1.a751b30000000p-44   0x1.1a81a6c000000p-46  -0x1.79c55c0000000p-49
     0x1.f9ffd00000000p-52  -0x1.535cc00000000p-54   0x1.c7a4000000000p-57

     0x1.0c12fe39889ccp-4   -0x1.7218d65d35915p-7    0x1.7e411a7028821p-10
    -0x1.b666f3b345ee5p-13   0x1.07e69c12bf887p-15  -0x1.46c012f0ae4b3p-18
     0x1.9c0709a7ead12p-21  -0x1.0724043d802d8p-23   0x1.5354075d31240p-26
    -0x1.b8cdc1b136800p-29   0x1.1ffd99ed96800p-31  -0x1.7a199dff94000p-34
     0x1.f25dc07140000p-37  -0x1.498997cc80000p-39   0x1.b50b394400000p-42
    -0x1.228612c000000p-44   0x1.83141f8000000p-47  -0x1.02590e0000000p-49
     0x1.5972700000000p-52  -0x1.ce92800000000p-55   0x1.3626000000000p-57
""".split()]).reshape(_K1E_HI_EXP - _K1E_LO_EXP, _CHEB_TERMS)

# (psi(k+1) + psi(k+2)) / 2 for the series, k < _K1_SERIES_TERMS, rounded
# once from harmonic numbers and Euler's constant to 36 digits (rebuilt in
# tests/test_specfun.py)
_K1_SERIES_H = tuple(float.fromhex(h) for h in """
    -0x1.3c467e37db0c8p-4   0x1.58773039049e7p-1   0x1.16e642c72cf9ep+0
     0x1.6190ed71d7a49p+0   0x1.9b2a870b713e2p+0   0x1.ca1975fa602d1p+0
     0x1.f1b7efe1fea70p+0
""".split())

# The end of the range where CSCH_K1_REL_ERROR is proved.
_CSCH_K1_Z_MAX = 350.0

CSCH_K1_REL_ERROR = float.fromhex("0x1.0b79335361621p-49")
"""Relative error of csch_k1 and csch_k1_array for 1e-150 <= z <= 350
(about 1.86e-15).

Proved in tests/test_specfun.py from the committed coefficients, given
numpy's exp, expm1 and log within 1 ulp: an allowance measured against
mpmath, not documented by numpy.
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
# step's coefficients at a time; both tables are read-only, as the Struve
# ones are, so neither way of _k1e can drift from the other
_K1E_COLUMNS = np.ascontiguousarray(_K1E_COEFS.T)
for _t in (_K1E_COEFS, _K1E_COLUMNS):
    _t.flags.writeable = False
del _t
_K1E_COLUMNS = tuple(_K1E_COLUMNS)


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


# Freeing one 1 MiB block raises glibc's mmap threshold past the tail's
# 131 kB arrays, which then stay on the heap instead of being mapped anew
# on every call
np.empty(1 << 17)
