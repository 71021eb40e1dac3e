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
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from .quadrature import QuadResult, elliptic_kernel_integral
from .specfun import (_CSCH_K1_Z_MAX, csch_k1, csch_k1_array, struve_k,
                      upper_incomplete_gamma_half)

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
    "tail_bounds",
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


class NonHyperbolicSignatureError(ValueError):
    """2g - 2 + sum(1 - 1/m) <= 0: a spherical or Euclidean signature."""


# ----------------------------------------------------------------------
# domain types
# ----------------------------------------------------------------------

def _cone_orders(orders) -> Tuple[int, ...]:
    """The orders as a sorted tuple; each must be an int >= 2."""
    orders = tuple(orders)
    if any(not isinstance(m, int) or m < 2 for m in orders):
        raise ValueError("cone orders must be integers >= 2")
    return tuple(sorted(orders))


@dataclass(frozen=True)
class OrbifoldSignature:
    """Genus and cone-point orders of a compact hyperbolic quotient; they
    fix its area, :attr:`volume`, by Gauss-Bonnet; the orders are kept sorted."""

    cone_orders: Tuple[int, ...]
    genus: int = 0

    def __post_init__(self):
        object.__setattr__(self, "cone_orders", _cone_orders(self.cone_orders))
        # the cap keeps the area 2 pi (2g - 2 + sum(1 - 1/m)) a finite float
        if type(self.genus) is not int or not 0 <= self.genus <= 10**300:
            raise ValueError(f"genus must be an int in [0, 1e300], got {self.genus!r}")
        if self._euler_fraction()[0] <= 0:   # exact: (2,3,6) sits on zero
            orders = ",".join(map(str, self.cone_orders)) or "none"
            raise NonHyperbolicSignatureError(
                f"genus {self.genus} with cone orders {orders} is not "
                "hyperbolic: 2g - 2 + sum(1 - 1/m) <= 0")

    def _euler_fraction(self) -> Tuple[int, int]:
        """(n, L) with n / L == 2g - 2 + sum(1 - 1/m) exactly."""
        L = math.lcm(*self.cone_orders)
        return (2 * self.genus - 2) * L + sum(L - L // m for m in self.cone_orders), L

    @property
    def volume(self) -> float:
        """2 pi (2g - 2 + sum(1 - 1/m)); int / int rounds the fraction once."""
        n, L = self._euler_fraction()
        return 2.0 * math.pi * (n / L)


@dataclass(frozen=True)
class LengthSpectrum:
    """Sorted primitive geodesic lengths with multiplicities.

    ``group`` holds the cone orders of the group whose geodesics these
    are, when known (``(2, 3, 7)`` for the built-in spectra, and whatever
    a file's '# group' line names; at least one order, kept sorted); None
    otherwise, and then :func:`casimir_energy` certifies nothing for a
    signature with cones.  ``provenance`` is a label: equality and hash
    see only the entries and the group.
    """

    entries: Tuple[Tuple[float, int], ...]
    provenance: str = field(default="file", compare=False)
    group: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        if self.group is not None:
            object.__setattr__(self, "group", _cone_orders(self.group))
            if not self.group:
                raise ValueError("a group names at least one cone order")
        prev = 0.0
        for ell, mult in self.entries:
            # exactly float: np.float64 is a float subclass, but the file
            # format would write it as "np.float64(1.5)", which the reader refuses
            if type(ell) is not float:
                raise ValueError("lengths must be floats")
            if ell <= 0 or not math.isfinite(ell):
                raise ValueError("lengths must be positive and finite")
            # exactly int: True passes isinstance(True, int), but the file
            # format would write it as "True", which read_spectrum_file refuses
            if type(mult) is not int or mult < 1:
                raise ValueError("multiplicities must be positive integers")
            if ell < prev:
                raise ValueError("lengths must be non-decreasing")
            prev = ell

    @classmethod
    def from_columns(cls, lengths: Sequence[float], multiplicities: Sequence[int],
                     provenance: str = "file",
                     group: Optional[Tuple[int, ...]] = None) -> "LengthSpectrum":
        """Spectrum of lengths[i] with multiplicities[i], by length, then multiplicity.

        Each length goes through float(); one ``np.lexsort`` orders both
        columns together.  A multiplicity is never coerced: an integer
        column comes back as Python ints of the same values, any other
        reaches the constructor unconverted, and a bool is refused here,
        since numpy would hold it among ints as 0 or 1.
        """
        if not {bool, np.bool_}.isdisjoint(map(type, multiplicities)):
            raise ValueError("multiplicities must be positive integers")
        ell = np.array(lengths, dtype=np.float64)
        mult = np.array(multiplicities)
        if mult.dtype.kind == "f":   # as numpy holds ints on both sides of 2**63
            mult = np.array(multiplicities, dtype=object)
        order = np.lexsort((mult, ell))
        return cls(tuple(zip(ell[order].tolist(), mult[order].tolist())),
                   provenance, group)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.entries)


@dataclass(frozen=True)
class SeriesEvaluation:
    """A value with a rigorous truncation bound and the outer terms used."""

    value: float
    truncation_bound: float
    terms_used: int

    def __post_init__(self):
        if not (math.isfinite(self.value) and math.isfinite(self.truncation_bound)):
            raise ValueError("non-finite series value or truncation bound")
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


@dataclass(frozen=True)
class EnergyBreakdown:
    """The pieces of the energy; every figure is derived from them."""

    identity: SeriesEvaluation
    identity_interval: Tuple[float, float]
    elliptic: SeriesEvaluation
    hyperbolic_head: float
    hyperbolic_head_bound: float
    tail_components: Tuple[float, float, float]
    assumption: AssumptionReport

    @property
    def hyperbolic_tail_magnitude_bound(self) -> float:
        return _tail_magnitude(self.tail_components)

    def lower_bound(self, tail_magnitude: float) -> float:
        """Low end of the identity bracket, plus the cone-point series and the
        spectrum head each less its truncation bound, less ``tail_magnitude``."""
        return (self.elliptic.value - self.elliptic.truncation_bound
                + self.identity_interval[0] + self.hyperbolic_head
                - self.hyperbolic_head_bound - tail_magnitude)

    @property
    def certified_lower_bound(self) -> float:
        return self.lower_bound(self.hyperbolic_tail_magnitude_bound)


# ----------------------------------------------------------------------
# Euler-transformed kernel series, shared by the elliptic and identity terms
# ----------------------------------------------------------------------

_SERIES_TERMS = 60   # outer terms N of every kernel series and its envelope
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


def _elliptic_remainder(C: float) -> float:
    """(pi C K_1(C) + 4) / (2 C^2), the remainder bound before its factor 2^{-N}."""
    if C <= 0:
        raise ValueError("C must be positive")
    return (math.pi * C * struve_k(1, C).value + 4.0) / (2.0 * C * C)


def elliptic_kernel_truncation_bound(C: float, N: int) -> float:
    """2^{-N} (pi C K_1(C) + 4) / (2 C^2), the remainder after N outer terms."""
    return math.ldexp(_elliptic_remainder(C), -N)


def elliptic_kernel_truncation_bound_log10(C: float, N: int) -> float:
    """log10 of the same bound, safe for N far beyond float underflow."""
    return -N * math.log10(2.0) + math.log10(_elliptic_remainder(C))


def elliptic_kernel_series(C: float, D: float = 0.0, s: float = -0.5,
                           N: int = _SERIES_TERMS) -> SeriesEvaluation:
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


def elliptic_kernel_series_noise(C: float, D: float = 0.0,
                                 N: int = _SERIES_TERMS) -> float:
    """First-order rounding envelope pi * eps * sum_k w_k |K_1(C+Dk)/(C+Dk)|."""
    f = [abs(_k1_over_arg(C + D * k)) for k in range(N)]
    w = _euler_weights(N, "elliptic")
    return math.pi * math.ulp(1.0) * math.fsum(wk * fk for wk, fk in zip(w, f))


def _cone_weights(sig: OrbifoldSignature):
    for m in sig.cone_orders:
        for ell in range(1, m):
            yield m, ell, 1.0 / (4.0 * m * math.sin(math.pi * ell / m))


def elliptic_contribution(sig: OrbifoldSignature,
                          N: int = _SERIES_TERMS) -> SeriesEvaluation:
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


# ----------------------------------------------------------------------
# area (identity) term
# ----------------------------------------------------------------------

def identity_series(volume: float, N: int = _SERIES_TERMS) -> SeriesEvaluation:
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


def hyperbolic_n_tail_bound(ell, n_done):
    """Bound on sum_{n > n_done} (1/n) csch(n ell/2) K_1(n ell/2), elementwise.

    K_1 <= K_{3/2} gives a closed-form majorant whose successive terms
    shrink at least by e^{-ell}; the tail is the usual geometric sum.
    """
    n = n_done + 1.0
    z = 0.5 * n * ell
    # csch(z) K_{3/2}(z) = sqrt(2 pi / z) (1+z) e^{-2z} / (z (1 - e^{-2z}))
    csch_k32 = (np.sqrt(2.0 * np.pi / z) * (1.0 + z) * np.exp(-2.0 * z)
                / (z * -np.expm1(-2.0 * z)))
    return csch_k32 / n / -np.expm1(-ell)


_MAX_WINDINGS = 100_000
# Majorant tail at which every winding sum stops, head and class terms alike.
_WINDING_TOL = 1e-13
# With x = n ell at n = N + 1 windings, the majorant tail is
# log hyperbolic_n_tail_bound(ell, N) = h(x) - log((1 - e^{-ell}) / ell),
# h(x) = log(2 sqrt(pi)) + log(2 + x) - 2.5 log x - x - log(1 - e^{-x}),
# so a length's stopping point solves h(x) = r(ell) with
# r = log(_WINDING_TOL (1 - e^{-ell}) / ell): one equation in x for every
# ell.  Its roots lie in x = 26.4..32.6 for 0 < ell <= 700, where the last
# term of h is below 4e-12 and is left out of the estimate.  _X0 is a
# point among them.
_LOG_2_SQRT_PI = math.log(2.0 * math.sqrt(math.pi))
_X0 = 28.0


def _log_majorant(x):
    """h(x) above without its last term, and its derivative."""
    p = 2.0 + x
    return (_LOG_2_SQRT_PI + np.log(p) - 2.5 * np.log(x) - x,
            1.0 / p - 2.5 / x - 1.0)


_H0, _DH0 = _log_majorant(_X0)
_LAST_TWO = np.array([1, 0])        # N - 1 and N


def _winding_counts(ell):
    """For each length, the first N >= 1 with
    hyperbolic_n_tail_bound(ell, N) <= _WINDING_TOL, and that tail.

    Two Newton steps on h(x) = r, the first from _X0 where h and h' are
    constants, estimate N; then the majorant itself moves N one winding
    at a time until N passes the test and N - 1 does not.  The estimate
    was already that N for the 25 945 lengths of 20 letters and for
    45 000 lengths spread over 1e-3..700.  The crossing is unique: each
    winding shrinks the majorant by at least e^{-ell}, far above its
    rounding for every length the cap admits.
    """
    r = np.log(np.expm1(-ell) / ell * -_WINDING_TOL)
    x = _X0 + (r - _H0) / _DH0
    h, dh = _log_majorant(x)
    x -= (h - r) / dh
    x /= ell                                # n = N + 1, not yet an integer
    np.maximum(x, 2.0, out=x)
    np.minimum(x, _MAX_WINDINGS + 1.0, out=x)
    n = np.ceil(x, out=x).astype(np.int64) - 1
    while True:
        t = hyperbolic_n_tail_bound(ell[:, None], n[:, None] - _LAST_TWO)
        above = t[:, 1] > _WINDING_TOL
        below = (t[:, 0] <= _WINDING_TOL) & (n > 1)
        if not (above.any() or below.any()):
            return n, t[:, 1]
        n += above
        n -= below
        if n.max() > _MAX_WINDINGS:
            raise ArithmeticError("winding sum did not reach tolerance")


def _winding_sums(lengths):
    """Winding sums of many lengths in one kernel call.

    For each length ell, sum_{n <= N} (1/n) csch(n ell/2) K_1(n ell/2),
    where N is the first winding count whose majorant tail
    (:func:`hyperbolic_n_tail_bound`) is at most ``_WINDING_TOL``; N is
    solved from the majorant's logarithm and checked against the majorant
    (:func:`_winding_counts`).  Returns the sums, those tails and the N,
    as arrays in the order of the lengths.  A sum depends only on its
    length, so each distinct length is summed once and shared by its
    copies (3785 distinct of 25 945 lengths at 20 letters).  Each sum
    adds its terms smallest first.  The lengths must be positive and
    finite.
    """
    ell, back = np.unique(np.asarray(lengths, dtype=np.float64),
                          return_inverse=True)
    n, tails = _winding_counts(ell)
    ends = np.cumsum(n)
    offsets = ends - n
    # windings n, n-1, ..., 1 within each length's run
    k = (np.repeat(ends, n) - np.arange(n.sum())).astype(np.float64)
    terms = csch_k1_array(0.5 * k * np.repeat(ell, n)) / k
    return np.add.reduceat(terms, offsets)[back], tails[back], n[back]


def hyperbolic_contribution(spectrum: LengthSpectrum) -> SeriesEvaluation:
    """-(1/4pi) sum over the spectrum of the winding sums.

    Each winding sum stops once its majorant tail is at most 1e-13, as in
    :func:`geodesic_contributions`, so the class terms add up to this head.
    """
    if len(spectrum) == 0:
        raise ValueError("empty length spectrum")
    ell, mult = (np.array(col) for col in zip(*spectrum.entries))
    sums, tails, n = _winding_sums(ell)
    return SeriesEvaluation(-math.fsum((mult * sums).tolist()) / FOUR_PI,
                            math.fsum((mult * tails).tolist()) / FOUR_PI,
                            int(n.max()))


def geodesic_contributions(lengths, weights) -> list[float]:
    """Contributions of geodesic classes, each counted ``weight`` times.

    One batched winding sum; each stops once its majorant tail is at most
    1e-13, as in :func:`hyperbolic_contribution`, the sum of these terms.
    """
    ell = np.asarray(lengths, dtype=np.float64)
    if not ((ell > 0) & (ell < np.inf)).all():
        raise ValueError("lengths must be positive and finite")
    sums, _, _ = _winding_sums(ell)
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

    Indices 1 and 2 are skipped: log log j only makes sense once log j
    clears 1.  An entry stands for its multiplicity of consecutive indices
    and is not expanded: the threshold increases with j, so an entry breaks
    the floor iff it does at its last index, found first by bisection.
    """
    hi = 0
    for ell, mult in spectrum.entries:
        lo, hi = max(hi + 1, 3), hi + mult
        if lo <= hi and ell < _growth_threshold(hi):
            while lo < hi:
                mid = (lo + hi) // 2
                if ell < _growth_threshold(mid):
                    hi = mid
                else:
                    lo = mid + 1
            return AssumptionReport(False, lo, lo)
    return AssumptionReport(True, None, hi if hi >= 3 else 0)


def _tail_terms(j: np.ndarray) -> np.ndarray:
    """csch(z_j) K_1(z_j) with z_j = (log j + log log j) / 2, for real j >= 3."""
    return csch_k1_array(0.5 * (np.log(j) + np.log(np.log(j))))


# The tail's first index, past the spectrum, and the last index b1 covers.
_TAIL_J_LO = 51
_TAIL_J_HI = 10_000_000
# Indices per numpy reduction in the direct sum; bounds its memory.
_TAIL_CHUNK = 1 << 20


def tail_direct_sum(j_lo: int = _TAIL_J_LO, j_hi: int = _TAIL_J_HI) -> float:
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
# Relative inflation covering every rounding in the bound, at most about
# 4e-13 in all: csch_k1's error (specfun.CSCH_K1_REL_ERROR, 1.9e-15), the
# error of z_j (a few units of 2^-53, times |z g'/g| <= 2z + 2, which is
# 21 for j <= 10^7 and 702 at z_j = 350), the panel widths and
# both sums.
_TAIL_REL_MARGIN = 1e-12


def tail_b1_bound(j_lo: int = _TAIL_J_LO, j_hi: int = _TAIL_J_HI) -> float:
    """Upper bound on (1/4pi) sum_{j=j_lo}^{j_hi} csch(z_j) K_1(z_j).

    f(j) = g(z_j) with g = csch * K_1 is convex in j for j >= 3: g is
    positive, decreasing and log-convex in z, and z_j is increasing and
    concave in j, so f'' = g'' z'^2 + g' z'' >= 0.  Indices up to
    10^4 are summed directly (:func:`tail_direct_sum`).  Beyond, convexity
    gives f(j) <= int_{j-1/2}^{j+1/2} f (Hermite-Hadamard), and the
    trapezoid rule over-estimates the integral of a convex function on any
    partition; a 16384-panel geometric trapezoid is used.  The whole sum
    is inflated by a relative 1e-12.

    Rigor class: proof, given numpy's exp, expm1 and log within 1 ulp (an
    allowance measured against mpmath, not documented by numpy).  The
    inequalities are exact, and the margin covers the floating-point
    error, whose largest parts are csch_k1's relative bound
    (``specfun.CSCH_K1_REL_ERROR``, proved in the comment block that opens
    the e^z K_1 section of ``specfun``) and the rounding of z_j, both
    present in the direct part too.  A j_hi whose z_J passes 350, the end of
    the proved kernel range (j_hi above about 10^301.2), is refused.
    """
    if not 3 <= j_lo <= j_hi:
        raise ValueError("need 3 <= j_lo <= j_hi")
    z_hi = 0.5 * _growth_threshold(j_hi)
    if z_hi > _CSCH_K1_Z_MAX:
        raise ValueError(f"j_hi puts z_J = {z_hi:.1f} past {_CSCH_K1_Z_MAX:g}, where "
                         "csch_k1's error bound ends (j_hi <= about 10^301)")
    head_hi = min(j_hi, _TAIL_HEAD_TERMS)
    total = tail_direct_sum(j_lo, head_hi) if j_lo <= head_hi else 0.0
    if j_hi > head_hi:
        a = max(head_hi, j_lo - 1) + 0.5
        b = j_hi + 0.5
        x = a * np.exp(np.linspace(0.0, math.log(b / a), _TAIL_PANELS + 1))
        x[0], x[-1] = a, b
        f = _tail_terms(x)
        # a memoryview yields Python floats: no numpy scalars and no list
        trapezoid = 0.5 * math.fsum(memoryview(np.diff(x) * (f[:-1] + f[1:])))
        total += trapezoid / FOUR_PI
    return total * (1.0 + _TAIL_REL_MARGIN)


def tail_far_prefactor(j_split: int) -> float:
    """A_{1, j} / (2 sqrt(pi)) with A_{n, j} = 1 + 2/(n (log j + log log j))."""
    return (1.0 + 2.0 / _growth_threshold(j_split)) / (2.0 * math.sqrt(math.pi))


def tail_far_integral(j_split: int) -> float:
    """Integral bound for sum_{j > j_split} 1/(j log^{3/2} j): 2/sqrt(log j_split)."""
    return 2.0 / math.sqrt(math.log(j_split))


def tail_far_bound(j_split: int = _TAIL_J_HI) -> float:
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


def tail_higher_windings_bound(j_lo: int = _TAIL_J_LO) -> float:
    """Bound on all n >= 2 windings of geodesics with index >= j_lo."""
    if j_lo < 51:
        raise ValueError("-log(1 - 1/x) <= 1/x + 1/(1.9 x^2) is used from x = 50 up")
    return tail_windings_prefactor(j_lo) * tail_windings_integral(j_lo)


def tail_bounds(j_lo: int = _TAIL_J_LO, j_hi: int = _TAIL_J_HI) -> Tuple[float, ...]:
    """(b1, b2, b3): single windings j_lo..j_hi, beyond j_hi, and n >= 2 from j_lo.

    Their sum, :func:`_tail_magnitude`, is :func:`casimir_energy`'s tail.
    """
    return (tail_b1_bound(j_lo, j_hi), tail_far_bound(j_hi),
            tail_higher_windings_bound(j_lo))


def _tail_magnitude(components: Tuple[float, float, float]) -> float:
    """b1 + b2 + b3, summed in that order: the tail magnitude."""
    b1, b2, b3 = components
    return b1 + b2 + b3


def growth_inequality_check(j: int, n: int) -> bool:
    """j^n log^{n+1/2} j <= (j^n log^n j - 1)(log j + log log j)^{1/2}.

    Evaluated in log space so large n cannot overflow.  Guaranteed for
    j >= 16; smaller j are evaluated as-is.
    """
    if j < 2 or n < 1:
        raise ValueError("need j >= 2 and n >= 1")
    lj = math.log(j)
    llj = math.log(lj)
    v = n * (lj + llj)           # log(j^n log^n j), positive as 2 log 2 > 1
    lhs = n * lj + (n + 0.5) * llj
    rhs = v + math.log1p(-math.exp(-v)) + 0.5 * math.log(lj + llj)
    return lhs <= rhs


# ----------------------------------------------------------------------
# assembly
# ----------------------------------------------------------------------

def casimir_energy(sig: OrbifoldSignature,
                   spectrum: LengthSpectrum,
                   tail_j_hi: int = _TAIL_J_HI) -> EnergyBreakdown:
    """The pieces of the energy at s = -1/2, whose certified lower bound
    :class:`EnergyBreakdown` derives; the tail pieces are :func:`tail_bounds`.

    The tail starts at geodesic index 51: it presumes the spectrum lists
    every geodesic below that index and that the growth floor
    ell_j >= log j + log log j holds from there on.

    This function alone decides certifiability, and refuses with
    ValueError, in this order: a spectrum whose ``group`` is not the cone
    orders (None when there are none); a spectrum of total multiplicity
    below 50 (an empty one included); lengths that break the growth floor.
    """
    if spectrum.group != (sig.cone_orders or None):
        named = ("names no group" if spectrum.group is None
                 else f"is a ({','.join(map(str, spectrum.group))}) spectrum")
        orders = ",".join(map(str, sig.cone_orders)) or "none"
        raise ValueError(f"the spectrum {named}, but the cone orders are "
                         f"{orders}; no certified bound")
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

    head = hyperbolic_contribution(spectrum)
    return EnergyBreakdown(
        identity=identity_series(sig.volume),
        identity_interval=identity_interval(sig.volume),
        elliptic=elliptic_contribution(sig),
        hyperbolic_head=head.value,
        hyperbolic_head_bound=head.truncation_bound,
        tail_components=tail_bounds(_TAIL_J_LO, tail_j_hi),
        assumption=report,
    )


# ----------------------------------------------------------------------
# spectrum file format: "length,multiplicity" with '#' comments
# ----------------------------------------------------------------------

def _parse_group_line(path: str, lineno: int, text: str) -> Tuple[int, ...]:
    try:
        return _cone_orders(int(f) for f in text.split(","))
    except ValueError as exc:
        raise SpectrumFormatError(f"{path}:{lineno}: {exc}") from exc


def read_spectrum_file(path: str) -> LengthSpectrum:
    """Spectrum from a file of 'length,multiplicity' lines; '#' starts a comment.

    A comment line '# group M1,M2,...' names the cone orders of the group
    the lengths belong to (2,3,7 for the (2,3,7) triangle group); the
    spectrum keeps them, sorted.
    """
    lengths, multiplicities = [], []
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
                    group = _parse_group_line(path, lineno, " ".join(comment[1:]))
                continue
            fields = [f.strip() for f in line.split(",")]
            if len(fields) != 2:
                raise SpectrumFormatError(
                    f"{path}:{lineno}: expected 'length,multiplicity'")
            try:
                lengths.append(float(fields[0]))
                multiplicities.append(int(fields[1]))
            except ValueError as exc:
                raise SpectrumFormatError(f"{path}:{lineno}: {exc}") from exc
    if not lengths:
        raise SpectrumFormatError(f"{path}: no spectrum entries found")
    try:
        return LengthSpectrum.from_columns(lengths, multiplicities, "file", group)
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
