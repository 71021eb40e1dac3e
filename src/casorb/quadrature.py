"""Adaptive Gauss-Kronrod quadrature and the elliptic kernel integral.

The tests check the elliptic kernel series against it; it is no
independent oracle, since every Struve K value the certificate uses
comes from its :func:`adaptive_quadrature`.  It imports only the
standard library and numpy.  The base rule is the classical 7/15-point
Gauss-Kronrod pair, on a worst-first list: the panels are kept oldest
first, and the one of largest error estimate is bisected next.
Semi-infinite domains are mapped to (0, 1] by t = e^{-y}, and the
elliptic kernel by u = e^{-min(C,1) y}; endpoint values are never sampled
because every Kronrod node lies strictly inside its panel:
:func:`kronrod_grid` refuses a panel too narrow for that, and a panel
whose halves would be is not split.

Integrands work on arrays: ``f`` takes a 1-d float64 array of nodes and
returns an array of the same shape.  A run starts from a sequence of panel
edges, evaluates every starting panel in one call of ``f``, and then both
halves of each bisected panel in one call; the G7/K15 sums of a batch of
panels are one matrix product, and each panel's estimate is shaped on
Python floats.  Starting panels that already resolve the integrand (see
:func:`casorb.specfun.struve_k`) make a run one call, which returns
before the list of panel ends is built.  A :class:`KronrodGrid` from
:func:`kronrod_grid` holds validated starting edges and their read-only
nodes; a run from it hands ``f`` that very node array on its first pass,
so ``f`` may tabulate on it.

The returned ``est_error`` is the usual Kronrod-minus-Gauss discrepancy
estimate.  It is a heuristic, not a proven bound; rigorous truncation
bounds live in the series routes of :mod:`casorb.contributions`.
"""

from __future__ import annotations

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
    half-widths; None when some panel's rounded nodes reach or pass its
    edges, as on panels a few hundred ulps wide."""
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = mid[:, None] + half[:, None] * _NODES
    # rounding keeps each panel's nodes in order: its first and last decide
    if not (np.all(nodes[:, 0] > edges[:-1]) and np.all(nodes[:, -1] < edges[1:])):
        return None
    return nodes.ravel(), half.tolist()


def kronrod_grid(edges: Sequence[float]) -> KronrodGrid:
    """The grid of the panels between consecutive ``edges``, validated once.

    ``edges`` must be an increasing sequence of at least two finite floats,
    each panel wide enough that its Kronrod nodes, rounded, lie strictly
    inside it (at 1.0, from 118 ulps when the midpoint is exact and from
    234 ulps at every width).  The grid keeps a read-only copy of them and
    read-only nodes, so an integrand may tabulate whatever does not depend
    on its parameters at ``grid.nodes`` and use the tables when it is
    called with that very array (``x is grid.nodes``); split panels get
    fresh arrays.
    """
    edges = np.array(edges, dtype=np.float64)
    # increasing with finite ends, so finite throughout
    if not (edges.ndim == 1 and len(edges) >= 2
            and np.count_nonzero(edges[1:] > edges[:-1]) == len(edges) - 1
            and math.isfinite(edges[0]) and math.isfinite(edges[-1])):
        raise ValueError("edges must be an increasing sequence of two or more finite floats")
    panels = _panel_nodes(edges)
    if panels is None:
        raise ValueError("a panel is too narrow for its Kronrod nodes to lie inside it")
    nodes, half = panels
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
    the panels are kept in one list, oldest first: the split takes the
    panel of largest error estimate (the oldest of equal ones) and appends
    its halves, evaluated in one call of ``f``.  A panel too narrow to
    halve, one whose halves' nodes would not lie strictly inside them,
    leaves the list but still counts towards the totals and
    ``max_intervals``.
    """
    grid = edges if isinstance(edges, KronrodGrid) else kronrod_grid(edges)
    values, errs = _kronrod_panels(f, grid.nodes, grid.half)
    evaluations = 15 * len(values)
    spans = None                        # built once a split is due
    narrow_values, narrow_errs = [], []   # panels too narrow to halve
    while True:
        # fsum rounds once, so the order of the panels does not matter
        total_val = math.fsum(values + narrow_values)
        total_err = math.fsum(errs + narrow_errs)
        converged = total_err <= max(tol_abs, tol_rel * abs(total_val))
        if converged or not errs or len(errs) + len(narrow_errs) >= max_intervals:
            return QuadResult(total_val, total_err, evaluations, converged)
        if spans is None:
            spans = list(zip(grid.edges[:-1].tolist(), grid.edges[1:].tolist()))
        i = errs.index(max(errs))
        (pa, pb), pval, perr = spans.pop(i), values.pop(i), errs.pop(i)
        mid = 0.5 * (pa + pb)
        halves = _panel_nodes(np.array((pa, mid, pb)))
        if halves is None:
            narrow_values.append(pval)
            narrow_errs.append(perr)
            continue
        (v1, v2), (e1, e2) = _kronrod_panels(f, *halves)
        evaluations += 30
        spans += (pa, mid), (mid, pb)
        values += v1, v2
        errs += e1, e2


def _halfline(f: Integrand) -> Integrand:
    """Map int_0^inf f(y) dy to (0, 1] via t = e^{-y}."""

    def g(t: np.ndarray) -> np.ndarray:
        return f(-np.log(t)) / t

    return g


def integrate_decaying(f: Integrand, domain: str) -> QuadResult:
    """Integrate a smooth decaying integrand over [0, inf) or (-inf, inf).

    ``domain`` is ``"halfline"`` or ``"realline"``.  Both use the
    exponential substitution t = e^{-y}; the real line folds to the half
    line first, f(y) + f(-y).  ``f`` works on arrays, as for
    :func:`adaptive_quadrature`, which runs at its default tolerances.
    """
    if domain == "halfline":
        g = _halfline(f)
    elif domain == "realline":
        g = _halfline(lambda y: f(y) + f(-y))
    else:
        raise ValueError(f"unknown domain {domain!r}")
    return adaptive_quadrature(g, (0.0, 1.0))


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
