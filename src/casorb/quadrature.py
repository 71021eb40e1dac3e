"""Adaptive Gauss-Kronrod quadrature and the two integrals it must own.

This module is the independent oracle against which every series route in
the package is validated, so it never imports from :mod:`casorb.specfun` or
:mod:`casorb.contributions`.  The base rule is the classical 7/15-point
Gauss-Kronrod pair with largest-error-first bisection.  Semi-infinite
domains are mapped to (0, 1] by t = e^{-y}; endpoint values are never
sampled because all Kronrod nodes are interior.

The returned ``est_error`` is the usual Kronrod-minus-Gauss discrepancy
estimate.  It is a heuristic, not a proven bound; rigorous truncation
bounds live in the series routes of :mod:`casorb.contributions`.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

__all__ = [
    "QuadResult",
    "QuadratureNonConvergence",
    "adaptive_quadrature",
    "integrate_decaying",
    "elliptic_kernel_integral",
    "identity_integral",
]


class QuadratureNonConvergence(ArithmeticError):
    """Raised by callers that demand a converged result and did not get one."""


@dataclass
class QuadResult:
    value: float
    est_error: float
    evaluations: int
    converged: bool = True

    def __post_init__(self):
        if self.est_error < 0 or self.evaluations < 1:
            raise ValueError("QuadResult invariants violated")


# 15-point Kronrod extension of 7-point Gauss on [-1, 1], regenerated from
# the Stieltjes polynomial at 60 digits; exact through degree 22 (asserted
# by the test suite to within a few ulp).
_XGK: Sequence[float] = (
    0.9914553711208126392068547,
    0.9491079123427585245261897,
    0.8648644233597690727897128,
    0.7415311855993944398638648,
    0.5860872354676911302941448,
    0.4058451513773971669066064,
    0.2077849550078984676006894,
    0.0,
)
_WGK: Sequence[float] = (
    0.02293532201052922496373201,
    0.06309209262997855329070066,
    0.1047900103222501838398763,
    0.1406532597155259187451896,
    0.1690047266392679028265834,
    0.1903505780647854099132564,
    0.2044329400752988924141620,
    0.2094821410847278280129992,
)
_WG: Sequence[float] = (
    0.1294849661688696932706114,
    0.2797053914892766679014678,
    0.3818300505051189449503698,
    0.4179591836734693877551020,
)


def _kronrod_panel(f: Callable[[float], float], a: float, b: float):
    """One G7/K15 application on [a, b]; returns (value, err_estimate)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)

    fc = f(mid)
    resg = _WG[3] * fc
    resk = _WGK[7] * fc
    resabs = _WGK[7] * abs(fc)

    flo = [0.0] * 7
    fhi = [0.0] * 7
    for i in range(7):
        dx = half * _XGK[i]
        f1 = f(mid - dx)
        f2 = f(mid + dx)
        flo[i], fhi[i] = f1, f2
        resk += _WGK[i] * (f1 + f2)
        resabs += _WGK[i] * (abs(f1) + abs(f2))
    for i, j in enumerate((1, 3, 5)):
        resg += _WG[i] * (flo[j] + fhi[j])

    reskh = 0.5 * resk
    resasc = _WGK[7] * abs(fc - reskh)
    for i in range(7):
        resasc += _WGK[i] * (abs(flo[i] - reskh) + abs(fhi[i] - reskh))

    value = resk * half
    err = abs((resk - resg) * half)
    resasc *= abs(half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    scale = 50.0 * math.ulp(1.0) * resabs * abs(half)
    if scale > 0.0:
        err = max(err, scale)
    return value, err


def adaptive_quadrature(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol_abs: float = 1e-12,
    tol_rel: float = 1e-12,
    max_intervals: int = 4000,
) -> QuadResult:
    """Adaptive bisection on [a, b], splitting the worst panel first."""
    value, err = _kronrod_panel(f, a, b)
    # heap entries: (-err, a, b, value, err); seq breaks comparison ties
    heap = [(-err, 0, a, b, value, err)]
    done = []  # panels too narrow to split further
    seq = 0
    evaluations = 15

    def totals():
        vals = [e[4] for e in heap] + [d[0] for d in done]
        errs = [e[5] for e in heap] + [d[1] for d in done]
        return math.fsum(vals), math.fsum(errs)

    while heap:
        total_val, total_err = totals()
        if total_err <= max(tol_abs, tol_rel * abs(total_val)):
            return QuadResult(total_val, total_err, evaluations, True)
        if len(heap) + len(done) >= max_intervals:
            break
        _, _, pa, pb, pval, perr = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        if mid <= pa or mid >= pb:
            done.append((pval, perr))
            continue
        v1, e1 = _kronrod_panel(f, pa, mid)
        v2, e2 = _kronrod_panel(f, mid, pb)
        evaluations += 30
        seq += 1
        heapq.heappush(heap, (-e1, seq, pa, mid, v1, e1))
        seq += 1
        heapq.heappush(heap, (-e2, seq, mid, pb, v2, e2))

    total_val, total_err = totals()
    converged = total_err <= max(tol_abs, tol_rel * abs(total_val))
    return QuadResult(total_val, total_err, evaluations, converged)


def _halfline(f: Callable[[float], float]) -> Callable[[float], float]:
    """Map int_0^inf f(y) dy to (0, 1] via t = e^{-y}."""

    def g(t: float) -> float:
        return f(-math.log(t)) / t

    return g


def integrate_decaying(f: Callable[[float], float], domain: str,
                       tol: float = 1e-12) -> QuadResult:
    """Integrate a smooth decaying integrand over [0, inf) or (-inf, inf).

    ``domain`` is ``"halfline"`` or ``"realline"``.  Both use the
    exponential substitution t = e^{-y}; the real line folds to the half
    line first, f(y) + f(-y).
    """
    if domain == "halfline":
        g = _halfline(f)
    elif domain == "realline":
        g = _halfline(lambda y: f(y) + f(-y))
    else:
        raise ValueError(f"unknown domain {domain!r}")
    return adaptive_quadrature(g, 0.0, 1.0, tol_abs=tol, tol_rel=tol)


def elliptic_kernel_integral(C: float, D: float = 0.0,
                             s: float = -0.5) -> QuadResult:
    """int_0^inf e^{-Cy} / (e^{-Dy} + 1) * (1+y^2)^{-s} dy.

    Evaluated in the t = e^{-y} coordinates, where the integrand becomes
    t^{C-1} (1 + log^2 t)^{-s} / (t^D + 1) on (0, 1].  For C < 1 the origin
    carries an integrable algebraic-logarithmic singularity, which the
    adaptive bisection resolves without special casing.
    """
    if C <= 0:
        raise ValueError("C must be positive")
    if D < 0:
        raise ValueError("D must be nonnegative")
    if s >= 1:
        raise ValueError("s must be < 1 for integrability")

    cm1 = C - 1.0
    ms = -s

    def integrand(t: float) -> float:
        lt = math.log(t)
        return math.exp(cm1 * lt + ms * math.log1p(lt * lt)) / (math.exp(D * lt) + 1.0)

    return adaptive_quadrature(integrand, 0.0, 1.0, tol_abs=0.0,
                               tol_rel=1e-12, max_intervals=20000)


def _sech(x: float) -> float:
    # overflow-free; 2e^{-x}/(1+e^{-2x}) for x >= 0
    ax = abs(x)
    e = math.exp(-ax)
    return 2.0 * e / (1.0 + e * e)


def identity_integral() -> QuadResult:
    """int_{-inf}^{inf} (1/4 + r^2)^{3/2} sech^2(pi r) dr.

    The integrand is even, so it is integrated on [0, inf) and doubled.
    """

    def f(r: float) -> float:
        s = _sech(math.pi * r)
        return (0.25 + r * r) ** 1.5 * s * s

    res = integrate_decaying(f, "halfline", tol=5e-13)
    return QuadResult(2.0 * res.value, 2.0 * res.est_error,
                      res.evaluations, res.converged)
