"""The three spectral contributions and their rigorous truncation bounds.

The cone-point (elliptic) and area (identity) terms are exponentially
convergent Euler-transformed series in Struve kernels, both evaluated as
one weighted sum sum_k (-1)^k w_k f_k; both carry truncation bounds
inherited from the geometric remainder of the 1/(1+x) expansions that
generate them.  The geodesic (hyperbolic) term is a sum over a length
spectrum with a closed-form csch*K_{3/2} majorant controlling the
winding-number tail.  ``casimir_energy`` assembles everything into a
certified lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Tuple

import numpy as np

from .quadrature import QuadResult, elliptic_kernel_integral
from .specfun import csch_k1, csch_k1_array, struve_k, upper_incomplete_gamma_half

__all__ = [
    "OrbifoldSignature",
    "LengthSpectrum",
    "SeriesEvaluation",
    "AssumptionReport",
    "EnergyBreakdown",
    "SpectrumFormatError",
    "REFERENCE_TAIL_237",
    "elliptic_kernel_series",
    "elliptic_kernel_truncation_bound",
    "elliptic_kernel_truncation_bound_log10",
    "elliptic_kernel_series_noise",
    "elliptic_contribution",
    "elliptic_contribution_via_integral",
    "elliptic_small_angle_lower_bound",
    "identity_series",
    "identity_interval",
    "hyperbolic_term",
    "hyperbolic_n_tail_bound",
    "hyperbolic_contribution",
    "geodesic_contribution",
    "geodesic_contributions",
    "assumption_check",
    "tail_direct_sum",
    "tail_b1_bound",
    "tail_far_prefactor",
    "tail_far_integral",
    "tail_far_bound",
    "tail_windings_prefactor",
    "tail_windings_integral",
    "tail_higher_windings_bound",
    "growth_inequality_check",
    "casimir_energy",
    "read_spectrum_file",
    "spectrum_file_lines",
]

FOUR_PI = 4.0 * math.pi

# Reference magnitude for the full geodesic tail of the (2,3,7) run, used
# in reports next to the recomputed bound so the two can be compared.
REFERENCE_TAIL_237 = 0.293867


class SpectrumFormatError(ValueError):
    """Malformed spectrum file."""


# ----------------------------------------------------------------------
# domain types
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class OrbifoldSignature:
    """Cone-point orders and hyperbolic area of a compact quotient."""

    cone_orders: Tuple[int, ...]
    volume: float
    label: str = ""

    def __post_init__(self):
        if any((not isinstance(m, int)) or m < 2 for m in self.cone_orders):
            raise ValueError("cone orders must be integers >= 2")
        if not (self.volume > 0 and math.isfinite(self.volume)):
            raise ValueError("volume must be positive and finite")


@dataclass(frozen=True)
class LengthSpectrum:
    """Sorted primitive geodesic lengths with multiplicities.

    ``group`` holds the cone orders of the triangle group whose geodesics
    these are, when known (``(2, 3, 7)`` for the built-in spectra and for
    files that name their group); None otherwise.
    """

    entries: Tuple[Tuple[float, int], ...]
    provenance: str = "file"
    group: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        prev = 0.0
        for ell, mult in self.entries:
            if ell <= 0 or not math.isfinite(ell):
                raise ValueError("lengths must be positive and finite")
            if mult < 1 or not isinstance(mult, int):
                raise ValueError("multiplicities must be positive integers")
            if ell < prev:
                raise ValueError("lengths must be non-decreasing")
            prev = ell

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[float, int]],
                   provenance: str = "file",
                   group: Optional[Tuple[int, ...]] = None) -> "LengthSpectrum":
        return cls(tuple(sorted((float(l), int(m)) for l, m in pairs)),
                   provenance, group)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.entries)

    def expand(self) -> list[float]:
        """Lengths repeated by multiplicity, ascending."""
        out: list[float] = []
        for ell, mult in self.entries:
            out.extend([ell] * mult)
        return out

    def merged(self, tol: float = 1e-9) -> "LengthSpectrum":
        """Opt-in merge of entries whose lengths agree within tol."""
        out: list[list] = []
        for ell, mult in self.entries:
            if out and ell - out[-1][0] <= tol:
                out[-1][1] += mult
            else:
                out.append([ell, mult])
        return LengthSpectrum(tuple((l, m) for l, m in out), self.provenance,
                              self.group)


@dataclass(frozen=True)
class SeriesEvaluation:
    """A value with a rigorous truncation bound and the outer terms used."""

    value: float
    truncation_bound: float
    terms_used: int

    def __post_init__(self):
        if self.truncation_bound < 0:
            raise ValueError("truncation bound must be nonnegative")
        if self.terms_used < 0:
            raise ValueError("terms_used must be nonnegative")


@dataclass(frozen=True)
class AssumptionReport:
    """Result of checking ell_j >= log j + log log j over a spectrum."""

    holds: bool
    first_violation: Optional[int]
    checked_through: int
    skipped_below: int


@dataclass(frozen=True)
class EnergyBreakdown:
    identity: SeriesEvaluation
    identity_interval: Tuple[float, float]
    elliptic: SeriesEvaluation
    hyperbolic_head: float
    hyperbolic_head_bound: float
    hyperbolic_tail_magnitude_bound: float
    tail_components: Tuple[float, float, float]
    certified_lower_bound: float
    assumption: AssumptionReport

    @property
    def assumption_verified_through(self) -> int:
        return self.assumption.checked_through


# ----------------------------------------------------------------------
# Euler-transformed kernel series, shared by the elliptic and identity terms
# ----------------------------------------------------------------------

# kind -> (c_n, shift) of sum_{n<N} c_n 2^{-n-shift} sum_{k<=n} (-1)^k C(n,k) f_k
_EULER_KINDS = {"elliptic": (lambda n: 1, 2), "identity": (lambda n: n + 1, 6)}


@lru_cache(maxsize=128)
def _euler_weights(N: int, kind: str) -> Tuple[float, ...]:
    """w_k = sum_{n=k}^{N-1} c_n C(n,k) 2^{-n-shift}, each correctly rounded.

    Swapping the finite double sum gives sum_k (-1)^k w_k f_k.  Every w_k
    is an exact integer over 2^{N-1+shift}, rounded once by the division.
    """
    c, shift = _EULER_KINDS[kind]
    denom = 1 << (N - 1 + shift)
    return tuple(
        sum(c(n) * math.comb(n, k) << (N - 1 - n) for n in range(k, N)) / denom
        for k in range(N))


def _euler_sum(f, kind: str) -> float:
    """sum_k (-1)^k w_k f_k over the kernel values f, in one fsum."""
    w = _euler_weights(len(f), kind)
    return math.fsum(wk * fk if k % 2 == 0 else -wk * fk
                     for k, (wk, fk) in enumerate(zip(w, f)))


# ----------------------------------------------------------------------
# cone-point (elliptic) term
# ----------------------------------------------------------------------

def _k1_over_arg(x: float) -> float:
    return struve_k(1, x).value / x


def elliptic_kernel_truncation_bound(C: float, N: int) -> float:
    """2^{-N} (pi C K_1(C) + 4) / (2 C^2), the remainder after N outer terms."""
    if C <= 0:
        raise ValueError("C must be positive")
    k1 = struve_k(1, C).value
    return math.ldexp((math.pi * C * k1 + 4.0) / (2.0 * C * C), -N)


def elliptic_kernel_truncation_bound_log10(C: float, N: int) -> float:
    """log10 of the same bound, safe for N far beyond float underflow."""
    if C <= 0:
        raise ValueError("C must be positive")
    k1 = struve_k(1, C).value
    return (-N * math.log10(2.0)
            + math.log10((math.pi * C * k1 + 4.0) / (2.0 * C * C)))


def elliptic_kernel_series(C: float, D: float = 0.0, s: float = -0.5,
                           N: int = 60) -> SeriesEvaluation:
    """pi * sum_{n<N} 2^{-n-2} sum_k (-1)^k C(n,k) K_1(C+Dk)/(C+Dk).

    Only s = -1/2 (Struve order 1) is implemented; the kernel identity
    holds for general s < 1 but nothing downstream needs it.
    """
    if C <= 0:
        raise ValueError("C must be positive")
    if D < 0:
        raise ValueError("D must be nonnegative")
    if s != -0.5:
        raise NotImplementedError("elliptic_kernel_series is specialized to s = -1/2")
    if N < 1:
        raise ValueError("N must be >= 1")

    f = [_k1_over_arg(C + D * k) for k in range(N)]
    return SeriesEvaluation(math.pi * _euler_sum(f, "elliptic"),
                            elliptic_kernel_truncation_bound(C, N), N)


def elliptic_kernel_series_noise(C: float, D: float = 0.0, N: int = 60) -> float:
    """First-order rounding envelope pi * eps * sum_k w_k |K_1(C+Dk)/(C+Dk)|."""
    f = [abs(_k1_over_arg(C + D * k)) for k in range(N)]
    w = _euler_weights(N, "elliptic")
    return math.pi * math.ulp(1.0) * math.fsum(wk * fk for wk, fk in zip(w, f))


def _cone_weights(sig: OrbifoldSignature):
    for m in sig.cone_orders:
        for ell in range(1, m):
            yield m, ell, 1.0 / (4.0 * m * math.sin(math.pi * ell / m))


def elliptic_contribution(sig: OrbifoldSignature, N: int = 60) -> SeriesEvaluation:
    """Total cone-point contribution: sum of weighted kernel series.

    Each cyclic subgroup of order m contributes m-1 kernel evaluations at
    C = pi*l/m, D = pi, weighted by 1/(4 m sin(pi l / m)).
    """
    vals, bounds = [], []
    for m, ell, w in _cone_weights(sig):
        ser = elliptic_kernel_series(math.pi * ell / m, math.pi, -0.5, N)
        vals.append(w * ser.value)
        bounds.append(w * ser.truncation_bound)
    return SeriesEvaluation(math.fsum(vals), math.fsum(bounds), N)


def elliptic_contribution_via_integral(sig: OrbifoldSignature) -> QuadResult:
    """Quadrature cross-route for :func:`elliptic_contribution`."""
    vals, errs, evals = [], [], 0
    conv = True
    for m, ell, w in _cone_weights(sig):
        res = elliptic_kernel_integral(math.pi * ell / m, math.pi, -0.5)
        vals.append(w * res.value)
        errs.append(w * res.est_error)
        evals += res.evaluations
        conv = conv and res.converged
    return QuadResult(math.fsum(vals), math.fsum(errs), max(evals, 1), conv)


def elliptic_small_angle_lower_bound(theta: float) -> float:
    """pi K_1(theta) / (4 theta), a lower bound for the cone kernel integral.

    Grows like 1/theta^2 as the cone angle closes, which is what makes
    sharp cones dominate the energy.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    return math.pi * struve_k(1, theta).value / (4.0 * theta)


# ----------------------------------------------------------------------
# area (identity) term
# ----------------------------------------------------------------------

def identity_series(volume: float, N: int = 60) -> SeriesEvaluation:
    """-(vol/pi) sum_{n<N} (n+1) 2^{-n-6} sum_k (-1)^k C(n,k) K_2(pi(1+k))/(1+k)^2.

    The truncation bound comes from the remainder of the 1/(1+x)^2
    expansion, sum_{n>=N} (n+1) 2^{-n-2} <= (N+2) 2^{-N-1}, times the
    closed-form value of the undamped integral, 3 K_2(pi) / (2 pi).
    """
    if volume <= 0:
        raise ValueError("volume must be positive")
    if N < 1:
        raise ValueError("N must be >= 1")
    f = [struve_k(2, math.pi * (1 + k)).value / (1 + k) ** 2 for k in range(N)]
    value = -volume / math.pi * _euler_sum(f, "identity")
    bound = (volume * (N + 2) * math.ldexp(1.0, -(N + 1))
             * struve_k(2, math.pi).value / (16.0 * math.pi))
    return SeriesEvaluation(value, bound, N)


def identity_interval(volume: float) -> Tuple[float, float]:
    """Exact bracket (-2 vol / (45 pi), -vol / (36 pi)) for the area term."""
    if volume <= 0:
        raise ValueError("volume must be positive")
    return (-2.0 * volume / (45.0 * math.pi), -volume / (36.0 * math.pi))


# ----------------------------------------------------------------------
# geodesic (hyperbolic) term
# ----------------------------------------------------------------------

def hyperbolic_term(ell: float, n: int) -> float:
    """(1/n) csch(n ell / 2) K_1(n ell / 2); one winding of one geodesic."""
    if ell <= 0:
        raise ValueError("length must be positive")
    if n < 1:
        raise ValueError("winding number must be >= 1")
    return csch_k1(0.5 * n * ell) / n


def _n_tail_bounds(ell, n_done):
    """:func:`hyperbolic_n_tail_bound` elementwise over arrays."""
    n = n_done + 1.0
    z = 0.5 * n * ell
    # csch(z) K_{3/2}(z) = sqrt(2 pi / z) (1+z) e^{-2z} / (z (1 - e^{-2z}))
    csch_k32 = (np.sqrt(2.0 * np.pi / z) * (1.0 + z) * np.exp(-2.0 * z)
                / (z * -np.expm1(-2.0 * z)))
    return csch_k32 / n / -np.expm1(-ell)


def hyperbolic_n_tail_bound(ell: float, n_done: int) -> float:
    """Bound on sum_{n > n_done} (1/n) csch(n ell/2) K_1(n ell/2).

    K_1 <= K_{3/2} gives a closed-form majorant whose successive terms
    shrink at least by e^{-ell}; the tail is the usual geometric sum.
    """
    return float(_n_tail_bounds(float(ell), n_done))


# Windings tested per pass when searching for each length's stopping point.
_WINDING_BLOCK = 32
_MAX_WINDINGS = 100_000


def _winding_sums(lengths, tol: float):
    """Winding sums of many lengths in one kernel call.

    For each length ell, sum_{n <= N} (1/n) csch(n ell/2) K_1(n ell/2),
    where N is the first winding count whose majorant tail
    (:func:`hyperbolic_n_tail_bound`) is at most tol.  Returns the sums,
    those tails and the N, as arrays.  Each sum adds its terms smallest
    first.
    """
    ell = np.asarray(lengths, dtype=np.float64)
    n = np.zeros(ell.size, dtype=np.int64)
    tails = np.zeros(ell.size)
    todo = np.arange(ell.size)
    start = 1
    while todo.size:
        if start > _MAX_WINDINGS:
            raise ArithmeticError("winding sum did not reach tolerance")
        k = np.arange(start, start + _WINDING_BLOCK)
        t = _n_tail_bounds(ell[todo, None], k)
        ok = t <= tol
        hit = ok.any(axis=1)
        first = ok.argmax(axis=1)[hit]
        n[todo[hit]] = k[first]
        tails[todo[hit]] = t[hit, first]
        todo = todo[~hit]
        start += _WINDING_BLOCK
    offsets = np.cumsum(n) - n
    # windings n, n-1, ..., 1 within each length's run
    k = (np.repeat(offsets + n, n) - np.arange(n.sum())).astype(np.float64)
    terms = csch_k1_array(0.5 * k * np.repeat(ell, n)) / k
    return np.add.reduceat(terms, offsets), tails, n


def hyperbolic_contribution(spectrum: LengthSpectrum) -> SeriesEvaluation:
    """-(1/4pi) sum over the spectrum of the winding sums.

    Each winding sum stops once its majorant tail is at most 1e-13.
    """
    if len(spectrum) == 0:
        raise ValueError("empty length spectrum")
    ell, mult = (np.array(col) for col in zip(*spectrum.entries))
    sums, tails, n = _winding_sums(ell, 1e-13)
    return SeriesEvaluation(-math.fsum(mult * sums) / FOUR_PI,
                            math.fsum(mult * tails) / FOUR_PI, int(n.max()))


def geodesic_contributions(lengths, weights) -> list[float]:
    """Contributions of geodesic classes, each counted ``weight`` times.

    One batched winding sum; each stops once its majorant tail is at most
    1e-14.
    """
    sums, _, _ = _winding_sums(lengths, 1e-14)
    return (-np.asarray(weights, dtype=np.int64) * sums / FOUR_PI).tolist()


def geodesic_contribution(ell: float, weight: int = 1) -> float:
    """Contribution of one geodesic class counted ``weight`` times."""
    return geodesic_contributions([ell], [weight])[0]


# ----------------------------------------------------------------------
# growth assumption and tail bounds
# ----------------------------------------------------------------------

def _growth_threshold(j: int) -> float:
    return math.log(j) + math.log(math.log(j))


def assumption_check(spectrum: LengthSpectrum) -> AssumptionReport:
    """Check ell_j >= log j + log log j for represented indices j.

    Indices 1 and 2 are skipped (and counted): log log j only makes sense
    once log j clears 1.
    """
    lengths = spectrum.expand()
    skipped = min(len(lengths), 2)
    first_violation = None
    checked_through = 0
    for j in range(3, len(lengths) + 1):
        checked_through = j
        if lengths[j - 1] < _growth_threshold(j):
            first_violation = j
            break
    return AssumptionReport(first_violation is None, first_violation,
                            checked_through, skipped)


def _tail_terms(j: np.ndarray) -> np.ndarray:
    """csch(z_j) K_1(z_j) with z_j = (log j + log log j) / 2, for real j >= 3."""
    return csch_k1_array(0.5 * (np.log(j) + np.log(np.log(j))))


# Indices per numpy reduction in the direct sum; bounds its memory.
_TAIL_CHUNK = 1 << 20


def tail_direct_sum(j_lo: int = 51, j_hi: int = 10_000_000) -> float:
    """(1/4pi) sum_{j=j_lo}^{j_hi} csch(z_j) K_1(z_j), z_j from the growth floor.

    Chunk sums use numpy's pairwise summation and are combined in index
    order with fsum.  Costs one kernel evaluation per index; the
    certificate uses :func:`tail_b1_bound`, and this sum is its oracle.
    """
    if not 3 <= j_lo <= j_hi:
        raise ValueError("need 3 <= j_lo <= j_hi")
    parts = []
    for start in range(j_lo, j_hi + 1, _TAIL_CHUNK):
        j = np.arange(start, min(start + _TAIL_CHUNK, j_hi + 1), dtype=np.float64)
        parts.append(float(_tail_terms(j).sum()))
    return math.fsum(parts) / FOUR_PI


# Indices summed term by term before the integral bound takes over.
_TAIL_HEAD_TERMS = 10_000
# Panels of the geometric trapezoid beyond the head.
_TAIL_PANELS = 16_384
# Relative inflation covering every rounding in the bound, about 2e-14 in
# all: csch_k1's error (specfun.CSCH_K1_REL_ERROR, 1.9e-15), the
# error of z_j (a few units of 2^-53, times |z g'/g| <= 2z + 2 <= 21 for
# j <= 10^7), the panel widths and both sums.
_TAIL_REL_MARGIN = 1e-12


def tail_b1_bound(j_lo: int = 51, j_hi: int = 10_000_000) -> float:
    """Upper bound on (1/4pi) sum_{j=j_lo}^{j_hi} csch(z_j) K_1(z_j).

    f(j) = g(z_j) with g = csch * K_1 is convex in j for j >= 3: g is
    positive, decreasing and log-convex in z, and z_j is increasing and
    concave in j, so f'' = g'' z'^2 + g' z'' >= 0.  Indices up to
    10^4 are summed directly (:func:`tail_direct_sum`).  Beyond, convexity
    gives f(j) <= int_{j-1/2}^{j+1/2} f (Hermite-Hadamard), and the
    trapezoid rule over-estimates the integral of a convex function on any
    partition; a 16384-panel geometric trapezoid is used.  That sum is
    inflated by a relative 1e-12.

    Rigor class: proof, given numpy's exp, expm1 and log within 1 ulp (an
    allowance measured against mpmath, not documented by numpy).  The
    inequalities are exact, and the margin covers the floating-point
    error, whose largest parts are csch_k1's relative bound
    (``specfun.CSCH_K1_REL_ERROR``, proved in the comment block that opens
    the e^z K_1 section of ``specfun``) and the rounding of z_j.
    When ``j_hi <= 10^4`` the result is the direct sum itself, with no
    integral part and no margin.
    """
    if not 3 <= j_lo <= j_hi:
        raise ValueError("need 3 <= j_lo <= j_hi")
    head_hi = min(j_hi, _TAIL_HEAD_TERMS)
    total = tail_direct_sum(j_lo, head_hi) if j_lo <= head_hi else 0.0
    if j_hi > head_hi:
        a = max(head_hi, j_lo - 1) + 0.5
        b = j_hi + 0.5
        x = a * np.exp(np.linspace(0.0, math.log(b / a), _TAIL_PANELS + 1))
        x[0], x[-1] = a, b
        f = _tail_terms(x)
        trapezoid = 0.5 * math.fsum(np.diff(x) * (f[:-1] + f[1:]))
        total = (total + trapezoid / FOUR_PI) * (1.0 + _TAIL_REL_MARGIN)
    return total


def tail_far_prefactor(j_split: int) -> float:
    """A_{1, j} / (2 sqrt(pi)) with A_{n, j} = 1 + 2/(n (log j + log log j))."""
    return (1.0 + 2.0 / _growth_threshold(j_split)) / (2.0 * math.sqrt(math.pi))


def tail_far_integral(j_split: int) -> float:
    """Integral bound for sum_{j > j_split} 1/(j log^{3/2} j): 2/sqrt(log j_split)."""
    return 2.0 / math.sqrt(math.log(j_split))


def tail_far_bound(j_split: int = 10_000_000) -> float:
    """Bound on the single-winding contribution of indices beyond j_split."""
    if j_split < 16:
        raise ValueError("the majorant chain is only asserted for j >= 16")
    return tail_far_prefactor(j_split) * tail_far_integral(j_split)


def tail_windings_prefactor(j_lo: int) -> float:
    """sup over n >= 2 of A_{n, j_lo} / (2 sqrt(pi))."""
    return (1.0 + 1.0 / _growth_threshold(j_lo)) / (2.0 * math.sqrt(math.pi))


def tail_windings_integral(j_lo: int) -> float:
    """(1/1.9) int_{j_lo - 1}^inf dj / (j^2 log^{5/2} j), in closed form."""
    a = float(j_lo - 1)
    la = math.log(a)
    integral = (2.0 / (3.0 * a * la ** 1.5)
                - 4.0 / (3.0 * a * math.sqrt(la))
                + 4.0 * upper_incomplete_gamma_half(la) / 3.0)
    return integral / 1.9


def tail_higher_windings_bound(j_lo: int = 51) -> float:
    """Bound on all n >= 2 windings of geodesics with index >= j_lo."""
    if j_lo < 51:
        raise ValueError("-log(1 - 1/x) <= 1/x + 1/(1.9 x^2) is used from x = 50 up")
    return tail_windings_prefactor(j_lo) * tail_windings_integral(j_lo)


def growth_inequality_check(j: int, n: int) -> bool:
    """j^n log^{n+1/2} j <= (j^n log^n j - 1)(log j + log log j)^{1/2}.

    Evaluated in log space so large n cannot overflow.  Guaranteed for
    j >= 16; smaller j are evaluated as-is.
    """
    if j < 2 or n < 1:
        raise ValueError("need j >= 2 and n >= 1")
    lj = math.log(j)
    llj = math.log(lj)
    v = n * (lj + llj)           # log(j^n log^n j)
    if v <= 0:
        return False
    lhs = n * lj + (n + 0.5) * llj
    rhs = v + math.log1p(-math.exp(-v)) + 0.5 * math.log(lj + llj)
    return lhs <= rhs


# ----------------------------------------------------------------------
# assembly
# ----------------------------------------------------------------------

# Geodesic index at which the tail model takes over from the spectrum.
_TAIL_J_LO = 51


def casimir_energy(sig: OrbifoldSignature,
                   spectrum: LengthSpectrum,
                   tail_j_hi: int = 10_000_000) -> EnergyBreakdown:
    """Assemble the certified lower bound for the energy at s = -1/2.

    The bound takes the pessimistic end of every piece: the low end of the
    identity bracket, the cone-point series minus its truncation bound,
    the spectrum head minus its winding-truncation bound, and minus the
    full tail magnitude (the b1 convexity bound plus far-index and
    higher-winding bounds).  The tail starts at geodesic index 51: it
    presumes the spectrum lists every geodesic below that index and that
    the growth floor ell_j >= log j + log log j holds from there on.  A
    spectrum of total multiplicity below 50 (an empty one included), or
    one whose own lengths break the growth floor, is refused with
    ValueError, since no certified bound follows.
    """
    covered = spectrum.total_multiplicity
    if covered < _TAIL_J_LO - 1:
        raise ValueError(
            f"spectrum covers j=1..{covered} but the tail starts at "
            f"j={_TAIL_J_LO}; no certified bound")
    report = assumption_check(spectrum)
    if not report.holds:
        raise ValueError(
            f"growth assumption ell_j >= log j + log log j fails at "
            f"j={report.first_violation}; no certified bound")

    ident = identity_series(sig.volume)
    interval = identity_interval(sig.volume)
    ellip = elliptic_contribution(sig)
    head = hyperbolic_contribution(spectrum)
    b1 = tail_b1_bound(_TAIL_J_LO, tail_j_hi)
    b2 = tail_far_bound(tail_j_hi)
    b3 = tail_higher_windings_bound(_TAIL_J_LO)
    tail_bound = b1 + b2 + b3

    certified = (ellip.value - ellip.truncation_bound + interval[0]
                 + head.value - head.truncation_bound - tail_bound)
    return EnergyBreakdown(
        identity=ident,
        identity_interval=interval,
        elliptic=ellip,
        hyperbolic_head=head.value,
        hyperbolic_head_bound=head.truncation_bound,
        hyperbolic_tail_magnitude_bound=tail_bound,
        tail_components=(b1, b2, b3),
        certified_lower_bound=certified,
        assumption=report,
    )


# ----------------------------------------------------------------------
# spectrum file format: "length,multiplicity" with '#' comments
# ----------------------------------------------------------------------

def _parse_group_line(path: str, lineno: int, text: str) -> Tuple[int, ...]:
    try:
        group = tuple(int(f) for f in text.split(","))
    except ValueError as exc:
        raise SpectrumFormatError(f"{path}:{lineno}: {exc}") from exc
    if len(group) != 3 or min(group) < 2:
        raise SpectrumFormatError(
            f"{path}:{lineno}: expected '# group P,Q,R' with P, Q, R >= 2")
    return group


def read_spectrum_file(path: str) -> LengthSpectrum:
    """Spectrum from a file of 'length,multiplicity' lines; '#' starts a comment.

    A comment line '# group P,Q,R' names the triangle group the lengths
    belong to; the spectrum keeps it.
    """
    pairs = []
    group = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line, _, comment = raw.partition("#")
            line, comment = line.strip(), comment.split()
            if not line:
                if comment[:1] == ["group"]:
                    if group is not None:
                        raise SpectrumFormatError(
                            f"{path}:{lineno}: a second '# group' line")
                    group = _parse_group_line(path, lineno, "".join(comment[1:]))
                continue
            fields = [f.strip() for f in line.split(",")]
            if len(fields) != 2:
                raise SpectrumFormatError(
                    f"{path}:{lineno}: expected 'length,multiplicity'")
            try:
                ell = float(fields[0])
                mult = int(fields[1])
            except ValueError as exc:
                raise SpectrumFormatError(f"{path}:{lineno}: {exc}") from exc
            pairs.append((ell, mult))
    if not pairs:
        raise SpectrumFormatError(f"{path}: no spectrum entries found")
    try:
        return LengthSpectrum.from_pairs(pairs, provenance="file", group=group)
    except ValueError as exc:
        raise SpectrumFormatError(f"{path}: {exc}") from exc


def spectrum_file_lines(spectrum: LengthSpectrum) -> list[str]:
    """Lines of the file format; a spectrum with a known group names it first."""
    lines = []
    if spectrum.group is not None:
        lines.append("# group " + ",".join(map(str, spectrum.group)))
    lines.append("# length,multiplicity")
    lines.extend(f"{ell!r},{mult}" for ell, mult in spectrum.entries)
    return lines
