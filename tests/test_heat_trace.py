"""The geometric side of the (2,3,7) heat trace, held to what a spectrum allows.

The Selberg trace formula in McKean's heat form, with h(r) = e^{-t(1/4 + r^2)}
(Hejhal, *The Selberg Trace Formula for PSL(2,R)*, vol. 1; Iwaniec,
*Spectral Methods of Automorphic Forms*, ch. 10), gives, with every
integral over the whole real line,

    Theta(t) = sum_k e^{-t lambda_k}
             = (A / 4 pi) int r tanh(pi r) h(r) dr                        identity
             + sum_cones sum_{0<k<m} int h(r) cosh((pi - 2 pi k/m) r)
                                     / cosh(pi r) dr / (4 m sin(pi k/m))  cones
             + sum_classes c sum_{n>=1} l e^{-t/4 - (n l)^2 / (4t)}
                                     / (2 sinh(n l / 2) sqrt(4 pi t))     classes

The area A is ``sig.volume``, the cone weights 1/(4 m sin(pi k/m)) are
``contributions._cone_weights(sig)`` and the class lengths l come from
``table_corpus()``, each counted c times.  The spectral side is
1 + sum_{k>=1} e^{-t lambda_k}, so it is >= 1 and non-increasing in t.  As
t -> 0, Theta = A/(4 pi t) - A/(12 pi) + sum (m^2 - 1)/(12 m) + O(t): the
identity integral is (A / 4 pi)(1/t - 1/12) e^{-t/4} + O(t), and
int cosh(a r)/cosh(pi r) dr = 1/cos(a/2) turns each cone weight into
1/(4 m sin^2(pi k/m)), whose sum over k is (m^2 - 1)/(12 m).

The table's classes stop at l_51, so on a t grid where the missing classes
weigh more than Theta - 1 the test can say nothing; the grids stop at 0.35.
"""

import math

import pytest
from mpmath import mp

from casorb.contributions import _cone_weights
from casorb.triangle import table_corpus, triangle_signature

SIG_237 = triangle_signature(2, 3, 7)

# the two stored counts the heat trace rejects, and the counts it accepts
HEAT_TRACE_COUNTS = {"RLRLL": 1, "RLLRRLL": 1}


def _counts(overrides=None):
    """(length, count) of every table class, ``overrides`` replacing counts by word."""
    overrides = overrides or {}
    return [(c.length, overrides.get(c.representative, c.class_count))
            for c in table_corpus()]


def heat_trace(t, sig, counts):
    """Theta(t) from the area, cone weights and (length, count) pairs, at 20 digits.

    Every integrand is even in r, so each integral is twice its half-line one.
    """
    with mp.workdps(20):
        t = mp.mpf(t)

        def h(r):
            return mp.exp(-t * (mp.mpf(1) / 4 + r * r))

        def integral(f):
            return 2 * mp.quad(f, [0, 10, mp.inf])

        total = (mp.mpf(sig.volume) / (4 * mp.pi)
                 * integral(lambda r: r * mp.tanh(mp.pi * r) * h(r)))
        for m, k, w in _cone_weights(sig):
            a = mp.pi - 2 * mp.pi * k / m
            total += w * integral(lambda r: h(r) * mp.cosh(a * r) / mp.cosh(mp.pi * r))
        for ell, count in counts:
            ell, n = mp.mpf(ell), 1
            while True:   # the winding sum, until a term drops below 1e-25
                term = (ell * mp.exp(-t / 4 - (n * ell) ** 2 / (4 * t))
                        / (2 * mp.sinh(n * ell / 2) * mp.sqrt(4 * mp.pi * t)))
                total += count * term
                if term < mp.mpf(10) ** -25:
                    break
                n += 1
        return total


@pytest.mark.parametrize("t", [1e-3, 5e-4])
def test_small_t_limit(t):
    # the area and cone invariants; the next term is -1.35 t for (2,3,7)
    area = SIG_237.volume
    invariant = math.fsum((m * m - 1) / (12 * m) for m in SIG_237.cone_orders)
    limit = mp.mpf(area) / (4 * mp.pi * t) - mp.mpf(area) / (12 * mp.pi) + invariant
    assert abs(heat_trace(t, SIG_237, _counts()) - limit) <= 2 * t


def test_stored_counts_make_the_heat_trace_rise():
    # no spectrum lets Theta rise; the stored counts do: 1.00185 < 1.00936
    low, high = (heat_trace(t, SIG_237, _counts()) for t in (0.2, 0.3))
    assert 1.0018 < low < 1.0019 and 1.0093 < high < 1.0094
    assert low < high


def test_two_counts_at_one_fit_a_spectrum():
    # RLRLL and RLLRRLL at 1: Theta falls from 1.011234 to 1.00000015
    counts = _counts(HEAT_TRACE_COUNTS)
    grid = [0.10 + 0.05 * i for i in range(6)]
    theta = [heat_trace(t, SIG_237, counts) for t in grid]
    assert all(x >= 1 for x in theta)
    assert all(a >= b for a, b in zip(theta, theta[1:]))
    assert theta[0] == pytest.approx(1.011234, abs=1e-6)
    assert theta[-1] == pytest.approx(1.00000015, abs=1e-8)
