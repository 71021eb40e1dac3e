"""Adaptive Gauss-Kronrod quadrature and the elliptic kernel integral.

The tests check the elliptic kernel series against it; it is no independent oracle,
since every Struve K value the certificate uses comes from its
:func:`adaptive_quadrature`.  It imports only the standard library and
numpy.  The base rule is the classical 7/15-point Gauss-Kronrod pair
with largest-error-first bisection.  Semi-infinite domains are mapped to
(0, 1] by t = e^{-y}, and the elliptic kernel by u = e^{-min(C,1) y}; endpoint
values are never sampled because all Kronrod nodes are interior.

Integrands work on arrays: ``f`` takes a 1-d float64 array of nodes and
returns an array of the same shape.  A run starts from a sequence of panel
edges, evaluates every starting panel in one call of ``f``, and then both
halves of each bisected panel in one call; the G7/K15 sums of a batch of
panels are one matrix product, and each panel's estimate is shaped on
Python floats.  Starting panels that already resolve the integrand (see
:func:`casorb.specfun.struve_k`) make a run one call, with no bisection
heap.  A :class:`KronrodGrid` from :func:`kronrod_grid` holds validated
starting edges and their read-only nodes; a run from it hands ``f`` that
very node array on its first pass, so ``f`` may tabulate on it.

The returned ``est_error`` is the usual Kronrod-minus-Gauss discrepancy
estimate.  It is a heuristic, not a proven bound; rigorous truncation
bounds live in the series routes of :mod:`casorb.contributions`.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "QuadResult",
    "QuadratureNonConvergence",
    "KronrodGrid",
    "kronrod_grid",
    "adaptive_quadrature",
    "integrate_decaying",
    "elliptic_kernel_integral",
]

Integrand = Callable[[np.ndarray], np.ndarray]


class QuadratureNonConvergence(ArithmeticError):
    """Raised by callers that demand a converged result and did not get one."""


@dataclass
class QuadResult:
    value: float
    est_error: float
    evaluations: int
    converged: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.value) and math.isfinite(self.est_error)):
            raise ValueError("non-finite quadrature value or error estimate")
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

# The rule on all 15 nodes, left to right: Kronrod weights, and the
# Kronrod-minus-Gauss weights (Gauss uses every other node, centre included).
_NODES = np.array([-x for x in _XGK[:7]] + list(_XGK[::-1]))
_WK = np.array(list(_WGK) + list(_WGK[6::-1]))
_WG15 = np.zeros(15)
_WG15[1::2] = _WG + _WG[2::-1]
_RULE = np.column_stack((_WK, _WK - _WG15))


class KronrodGrid(NamedTuple):
    """Validated starting panels: build with :func:`kronrod_grid`."""

    edges: np.ndarray       # read-only, increasing, finite
    nodes: np.ndarray       # read-only, the 15 Kronrod nodes of each panel
    half: tuple             # each panel's half-width


def _panel_nodes(edges: np.ndarray):
    """Kronrod nodes of the panels between increasing ``edges``, and their
    half-widths; the edges are not checked."""
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    return (mid[:, None] + half[:, None] * _NODES).ravel(), half.tolist()


def kronrod_grid(edges: Sequence[float]) -> KronrodGrid:
    """The grid of the panels between consecutive ``edges``, validated once.

    ``edges`` must be an increasing sequence of at least two finite floats.
    The grid keeps a read-only copy of them and read-only nodes, so an
    integrand may tabulate whatever does not depend on its parameters at
    ``grid.nodes`` and use the tables when it is called with that very
    array (``x is grid.nodes``); split panels get fresh arrays.
    """
    edges = np.array(edges, dtype=np.float64)
    # increasing with finite ends, so finite throughout
    if not (edges.ndim == 1 and len(edges) >= 2
            and np.count_nonzero(edges[1:] > edges[:-1]) == len(edges) - 1
            and math.isfinite(edges[0]) and math.isfinite(edges[-1])):
        raise ValueError("edges must be an increasing sequence of two or more finite floats")
    nodes, half = _panel_nodes(edges)
    edges.flags.writeable = False
    nodes.flags.writeable = False
    return KronrodGrid(edges, nodes, tuple(half))


def _kronrod_panels(f: Integrand, nodes: np.ndarray, half: Sequence[float]):
    """G7/K15 on each panel of a grid from :func:`_panel_nodes`, with one call of f.

    Returns lists (value, err_estimate), one entry per panel.
    """
    fv = f(nodes).reshape(len(half), 15)
    resabs = (np.abs(fv) @ _WK).tolist()   # positive weights: inf, NaN pass quietly
    if not math.isfinite(sum(resabs)):
        raise ValueError("non-finite integrand value")
    rule = fv @ _RULE
    resasc = np.abs(fv - 0.5 * rule[:, :1]) @ _WK
    values, errs, ulps = [], [], 50.0 * math.ulp(1.0)
    for (resk, kmg), h, ra, rs in zip(rule.tolist(), half, resabs, resasc.tolist()):
        err = abs(kmg * h)
        rs *= h
        # QUADPACK's resasc * min(1, 200 err/resasc)^1.5 where both factors
        # are nonzero; the power of r < 1 cannot overflow
        if rs and err:
            r = 200.0 * err / rs
            err = rs * r ** 1.5 if r < 1.0 else rs
        floor = ulps * ra * h
        values.append(resk * h)
        errs.append(floor if floor > err else err)   # max(err, floor)
    return values, errs


def adaptive_quadrature(
    f: Integrand,
    edges: KronrodGrid | Sequence[float],
    tol_abs: float = 1e-12,
    tol_rel: float = 1e-12,
    max_intervals: int = 4000,
) -> QuadResult:
    """Adaptive bisection from the panels between consecutive ``edges``.

    ``edges`` is a :class:`KronrodGrid`, or the edges to build one from
    (see :func:`kronrod_grid`); ``(a, b)`` integrates over [a, b] from one
    panel.  Starting panels that meet the tolerance end the run.  Otherwise
    the worst panel is split first, and each split evaluates both halves
    in one call of ``f``.
    """
    grid = edges if isinstance(edges, KronrodGrid) else kronrod_grid(edges)
    values, errs = _kronrod_panels(f, grid.nodes, grid.half)
    evaluations = 15 * len(values)

    def met(total_val, total_err):
        return total_err <= max(tol_abs, tol_rel * abs(total_val))

    total_val, total_err = math.fsum(values), math.fsum(errs)
    if met(total_val, total_err):
        return QuadResult(total_val, total_err, evaluations, True)
    # heap entries: (-err, seq, a, b, value, err); seq breaks comparison ties
    heap = [(-e, seq, a, b, v, e) for seq, (a, b, v, e) in enumerate(
        zip(grid.edges[:-1].tolist(), grid.edges[1:].tolist(), values, errs))]
    heapq.heapify(heap)
    done = []  # panels too narrow to split further
    seq = len(heap) - 1

    def totals():
        vals = [e[4] for e in heap] + [d[0] for d in done]
        errs = [e[5] for e in heap] + [d[1] for d in done]
        return math.fsum(vals), math.fsum(errs)

    while heap and len(heap) + len(done) < max_intervals:
        _, _, pa, pb, pval, perr = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        if mid <= pa or mid >= pb:
            done.append((pval, perr))
            continue
        # increasing by construction, so not validated again
        (v1, v2), (e1, e2) = _kronrod_panels(f, *_panel_nodes(np.array((pa, mid, pb))))
        evaluations += 30
        seq += 1
        heapq.heappush(heap, (-e1, seq, pa, mid, v1, e1))
        seq += 1
        heapq.heappush(heap, (-e2, seq, mid, pb, v2, e2))
        total_val, total_err = totals()
        if met(total_val, total_err):
            return QuadResult(total_val, total_err, evaluations, True)

    total_val, total_err = totals()
    return QuadResult(total_val, total_err, evaluations, met(total_val, total_err))


def _halfline(f: Integrand) -> Integrand:
    """Map int_0^inf f(y) dy to (0, 1] via t = e^{-y}."""

    def g(t: np.ndarray) -> np.ndarray:
        return f(-np.log(t)) / t

    return g


def integrate_decaying(f: Integrand, domain: str,
                       tol: float = 1e-12) -> QuadResult:
    """Integrate a smooth decaying integrand over [0, inf) or (-inf, inf).

    ``domain`` is ``"halfline"`` or ``"realline"``.  Both use the
    exponential substitution t = e^{-y}; the real line folds to the half
    line first, f(y) + f(-y).  ``f`` works on arrays, as for
    :func:`adaptive_quadrature`.
    """
    if domain == "halfline":
        g = _halfline(f)
    elif domain == "realline":
        g = _halfline(lambda y: f(y) + f(-y))
    else:
        raise ValueError(f"unknown domain {domain!r}")
    return adaptive_quadrature(g, (0.0, 1.0), tol_abs=tol, tol_rel=tol)


def elliptic_kernel_integral(C: float, D: float = 0.0,
                             s: float = -0.5) -> QuadResult:
    """int_0^inf e^{-Cy} / (e^{-Dy} + 1) * (1+y^2)^{-s} dy.

    Evaluated in the coordinate u = e^{-ay}, a = min(C, 1), on (0, 1],
    where the integrand becomes
    (1/a) u^{C/a - 1} (1 + (log u / a)^2)^{-s} / (u^{D/a} + 1).  For C < 1
    the map absorbs e^{-Cy} and leaves only a logarithmic singularity at
    u = 0; t = e^{-y} would leave t^{C-1}, which bisection cannot resolve
    (at C = 0.03 it overflowed to an infinite value).  For C >= 1 the map
    is t = e^{-y}, whose factor t^{C-1} is bounded and takes fewer
    evaluations than u = e^{-Cy}.
    """
    if C <= 0:
        raise ValueError("C must be positive")
    if D < 0:
        raise ValueError("D must be nonnegative")
    if s >= 1:
        raise ValueError("s must be < 1 for integrability")

    ms = -s
    a = min(C, 1.0)
    power = C / a - 1.0             # 0 when a = C

    def integrand(u: np.ndarray) -> np.ndarray:
        lu = np.log(u)
        ly = lu / a                 # -y
        return (np.exp(power * lu + ms * np.log1p(ly * ly))
                / (a * (np.exp(D * ly) + 1.0)))

    return adaptive_quadrature(integrand, (0.0, 1.0), tol_abs=0.0,
                               tol_rel=1e-12, max_intervals=20000)
