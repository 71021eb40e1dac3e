"""Struve/Bessel kernels and small special-function utilities.

Each kernel returns an :class:`FnEval` carrying the value, an absolute
error bound, and the evaluation method.  Bounds from series and asymptotic
routes are rigorous (truncation plus a conservative rounding envelope);
bounds from the integral route inherit the heuristic Gauss-Kronrod
estimate and are flagged through ``method == "integral_rep"``.

Struve K of orders 1 and 2 takes the integral route at every z.  The
Laplace integral is mapped to [0, 1] by s = zt = v/(1-v), which leaves an
integrand that is smooth on the closed interval and flat to all orders at
v = 1, so one adaptive Kronrod run reaches a relative 1e-13 in about 256
integrand evaluations.  Where s > 745, e^{-s} underflows and the integrand
is taken as 0.

The power series run in 80-bit extended precision (numpy longdouble) so
the z <= 12 accuracy contract of 1e-12 * max(1, |value|) holds with
margin; binary64 alone loses ~1e-11 to cancellation at the top of that
window.  Everything downstream of the kernels is plain binary64.

The modified Bessel function K_1 enters only through ``csch_k1``, which
rides on scipy's Cephes ``k1e``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.special as sps

from .quadrature import adaptive_quadrature

__all__ = [
    "FnEval",
    "UnsupportedOrderError",
    "struve_h",
    "bessel_y",
    "struve_k",
    "csch_k1",
    "csch_k1_array",
    "upper_incomplete_gamma_half",
    "clear_caches",
]

_LD = np.longdouble
_EPS_LD = float(np.finfo(_LD).eps)
_EPS = math.ulp(1.0)
_PI_LD = _LD("3.141592653589793238462643383279502884")
_SQRTPI_LD = np.sqrt(_PI_LD)
_EULER_LD = _LD("0.577215664901532860606512090082402431")

_METHODS = ("series", "asymptotic", "integral_rep", "closed_form")


class UnsupportedOrderError(ValueError):
    pass


@dataclass(frozen=True)
class FnEval:
    value: float
    abs_error_bound: float
    method: str

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError("non-finite function value")
        if self.abs_error_bound < 0:
            raise ValueError("negative error bound")
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == "closed_form" and self.abs_error_bound > 4 * math.ulp(self.value):
            raise ValueError("closed-form bound exceeds 4 ulp")

    @property
    def bound_is_rigorous(self) -> bool:
        """Integral-route bounds are Kronrod estimates, not proofs."""
        return self.method != "integral_rep"


def _closed(value: float) -> FnEval:
    return FnEval(value, 3 * math.ulp(value), "closed_form")


# ----------------------------------------------------------------------
# power series in extended precision
# ----------------------------------------------------------------------

def _struve_h_series_ld(nu: int, z: float):
    """H_nu power series: sum_k (-1)^k (z/2)^{2k+nu+1} / (G(k+3/2)G(k+nu+3/2))."""
    zh = _LD(z) / 2
    q = zh * zh
    # Gamma(3/2) and Gamma(nu + 3/2) built up from Gamma(1/2) = sqrt(pi)
    g1 = _SQRTPI_LD / 2
    g2 = _SQRTPI_LD
    for i in range(nu + 1):
        g2 = g2 * (_LD(2 * i + 1) / 2)
    t = zh ** (nu + 1) / (g1 * g2)
    total = _LD(0)
    wsum = 0.0          # (k+3)-weighted |term| sum, for the rounding envelope
    abssum = _LD(0)
    k = 0
    while True:
        total += t
        abssum += abs(t)
        wsum += (k + 3) * abs(float(t))
        ratio = q / ((_LD(k) + _LD(1.5)) * (_LD(k) + _LD(nu) + _LD(1.5)))
        t_next = -t * ratio
        if ratio < 0.5 and abs(t_next) < _LD(1e-26) * max(abssum, _LD(1)):
            trunc = 2 * abs(t_next)
            break
        t = t_next
        k += 1
        if k > 400:
            raise ArithmeticError("Struve series failed to converge")
    value = float(total)
    bound = float(trunc) + 3 * _EPS_LD * wsum + 2 * _EPS * abs(value)
    return value, bound


def _bessel_y_series_ld(n: int, z: float):
    """Y_n power series (DLMF 10.8.1) for integer n in {1, 2}, z <= 12."""
    zh = _LD(z) / 2
    q = zh * zh
    lg = np.log(zh)

    # finite part: sum_{k<n} (n-k-1)!/k! * q^k
    p = _LD(1)
    if n == 2:
        p = p + q

    # shared term u_k = q^k / (k! (n+k)!)
    u = _LD(1)
    for i in range(1, n + 1):
        u = u / _LD(i)
    hk = _LD(0)             # H_k
    hnk = _LD(0)            # H_{n+k}
    for i in range(1, n + 1):
        hnk += _LD(1) / _LD(i)

    jsum = _LD(0)           # sum (-1)^k u_k
    ssum = _LD(0)           # sum (-1)^k (-2g + H_k + H_{n+k}) u_k
    zhn = zh ** n
    part_scale = float(zhn * (2 * abs(lg) + 1)) / math.pi
    absacc = _LD(0)
    wsum = 0.0
    sign = _LD(1)
    k = 0
    while True:
        w = -2 * _EULER_LD + hk + hnk
        jsum += sign * u
        ssum += sign * w * u
        mag = abs(u) * (1 + abs(w))
        absacc += mag
        wsum += (k + 3) * float(mag) * part_scale
        ratio = q / ((_LD(k) + 1) * (_LD(k) + n + 1))
        if ratio < 0.5 and mag < _LD(1e-26) * max(absacc, _LD(1)):
            trunc = 2 * float(u * ratio) * (3 + abs(float(w)) + 2 * abs(float(lg)))
            break
        u = u * ratio
        hk += _LD(1) / _LD(k + 1)
        hnk += _LD(1) / _LD(n + k + 1)
        sign = -sign
        k += 1
        if k > 400:
            raise ArithmeticError("Bessel Y series failed to converge")

    y = (-(zh ** (-n)) * p + 2 * lg * zhn * jsum - zhn * ssum) / _PI_LD
    wsum += 3 * float(abs(zh ** (-n)) * abs(p)) / math.pi
    value = float(y)
    bound = trunc * float(zhn) / math.pi + 4 * _EPS_LD * wsum + 2 * _EPS * abs(value)
    return value, bound


def struve_h(nu: int, z: float) -> FnEval:
    """Struve function H_nu for nu in {1, 2} and 0 < z <= 12 (power series)."""
    if nu not in (1, 2):
        raise UnsupportedOrderError(f"struve_h supports orders 1 and 2, got {nu}")
    if z <= 0:
        raise ValueError("z must be positive")
    if z > 12.0:
        raise ValueError("struve_h is validated for z <= 12")
    value, bound = _struve_h_series_ld(nu, z)
    return FnEval(value, bound, "series")


def bessel_y(nu: int, z: float) -> FnEval:
    """Bessel function Y_nu for nu in {1, 2} and 0 < z <= 12 (power series)."""
    if nu not in (1, 2):
        raise UnsupportedOrderError(f"bessel_y supports orders 1 and 2, got {nu}")
    if z <= 0:
        raise ValueError("z must be positive")
    if z > 12.0:
        raise ValueError("bessel_y is validated for z <= 12")
    value, bound = _bessel_y_series_ld(nu, z)
    return FnEval(value, bound, "series")


# ----------------------------------------------------------------------
# Struve K = H - Y
# ----------------------------------------------------------------------

def _struve_k_integral(nu: int, z: float) -> FnEval:
    # K_nu(z) = c_nu * int_0^inf e^{-zt} (1+t^2)^{nu-1/2} dt  (DLMF 11.5.2)
    # with s = zt = v/(1-v) the integral becomes
    # (1/z) int_0^1 e^{-s} (1 + (s/z)^2)^{nu-1/2} / (1-v)^2 dv, smooth on
    # [0, 1] and flat to all orders at v = 1.  (The map u = e^{-zt} leaves a
    # |log u|^{2nu-1} singularity at u = 0 that costs ~4x the evaluations.)
    # Past s = 745, e^{-s} underflows to 0 while s itself can reach inf as
    # v -> 1, so the integrand is 0 there rather than 0 * inf = NaN.
    if nu == 1:
        c = 2.0 * z / math.pi
        power = 0.5
    else:
        c = 2.0 * z * z / (3.0 * math.pi)
        power = 1.5
    inv_z = 1.0 / z

    def integrand(v: float) -> float:
        w = 1.0 - v
        s = v / w
        if s > 745.0:
            return 0.0
        x = s * inv_z
        return inv_z * math.exp(-s) * (1.0 + x * x) ** power / (w * w)

    res = adaptive_quadrature(integrand, 0.0, 1.0, tol_abs=0.0,
                              tol_rel=1e-13, max_intervals=1200)
    value = c * res.value
    bound = c * res.est_error + 8 * _EPS * abs(value)
    return FnEval(value, bound, "integral_rep")


def _struve_k_asymptotic(nu: int, z: float) -> FnEval:
    # (1/pi) sum_k Gamma(k+1/2) (z/2)^{nu-2k-1} / Gamma(nu+1/2-k),
    # truncated at the smallest term, which also bounds the error.
    if z < 40.0:
        raise ValueError("asymptotic route for Struve K requires z >= 40")
    if nu == 1:
        t = 2.0 / math.pi
    else:
        t = 2.0 * z / (3.0 * math.pi)
    total = t
    abssum = abs(t)
    k = 0
    while True:
        ratio = (k + 0.5) * (nu - 0.5 - k) * (2.0 / z) ** 2
        t_next = t * ratio
        if abs(t_next) >= abs(t) or k > 200:
            bound = abs(t_next)
            break
        total += t_next
        abssum += abs(t_next)
        t = t_next
        k += 1
    bound += 4 * (k + 2) * _EPS * abssum
    return FnEval(total, bound, "asymptotic")


def _struve_k_series(nu: int, z: float) -> FnEval:
    h = struve_h(nu, z)
    y = bessel_y(nu, z)
    return FnEval(h.value - y.value, h.abs_error_bound + y.abs_error_bound,
                  "series")


@lru_cache(maxsize=100000)
def _struve_k_dispatch(nu2: int, z: float) -> FnEval:
    if nu2 == 1:   # nu = 1/2: H - Y telescopes to an elementary expression
        return _closed(math.sqrt(2.0 / (math.pi * z)))
    if nu2 == 3:   # nu = 3/2
        return _closed(math.sqrt(z / (2.0 * math.pi)) * (1.0 + 2.0 / (z * z)))
    return _struve_k_integral(nu2 // 2, z)


def struve_k(nu: float, z: float) -> FnEval:
    """Struve function of the second kind, K_nu = H_nu - Y_nu.

    Orders 1/2 and 3/2 are closed forms (the expansion terminates).  Orders
    1 and 2 take the Laplace-type integral representation on the smooth map
    s = zt = v/(1-v), stable for every z > 0; its cost is about 256
    integrand evaluations per new argument.  The power series (z <= 12) and
    the asymptotic expansion (z >= 40) are kept as private check routes for
    the tests.
    """
    nu2 = int(round(2 * nu))
    if nu2 not in (1, 2, 3, 4) or abs(2 * nu - nu2) > 1e-12:
        raise UnsupportedOrderError(
            f"struve_k supports orders 1/2, 1, 3/2, 2, got {nu}")
    if z <= 0:
        raise ValueError("z must be positive")
    return _struve_k_dispatch(nu2, float(z))


# ----------------------------------------------------------------------
# combined kernels and utilities
# ----------------------------------------------------------------------

def csch_k1(z: float) -> float:
    """csch(z) * K_1(z), evaluated in e^{-2z}-scaled form (no overflow)."""
    if z <= 0:
        raise ValueError("z must be positive")
    e = math.exp(-2.0 * z)
    return 2.0 * e * float(sps.k1e(z)) / -math.expm1(-2.0 * z)


def csch_k1_array(z: np.ndarray) -> np.ndarray:
    """Vectorized :func:`csch_k1` for the tail reductions."""
    z = np.asarray(z, dtype=np.float64)
    if np.any(z <= 0):
        raise ValueError("z must be positive")
    e = np.exp(-2.0 * z)
    return 2.0 * e * sps.k1e(z) / -np.expm1(-2.0 * z)


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
