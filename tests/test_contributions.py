"""Series routes, tail bounds, and the certified assembly."""

import dataclasses
import itertools
import json
import math
import random
import re
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casorb.contributions import (
    _cone_weights,
    _euler_sum,
    _euler_weights,
    REFERENCE_TAIL_237,
    AssumptionReport,
    EnergyBreakdown,
    LengthSpectrum,
    NonHyperbolicSignatureError,
    OrbifoldSignature,
    SeriesEvaluation,
    SpectrumFormatError,
    assumption_check,
    casimir_energy,
    elliptic_contribution,
    elliptic_contribution_via_integral,
    elliptic_kernel_series,
    elliptic_kernel_series_noise,
    elliptic_kernel_truncation_bound,
    elliptic_kernel_truncation_bound_log10,
    geodesic_contribution,
    geodesic_contributions,
    growth_inequality_check,
    hyperbolic_contribution,
    hyperbolic_n_tail_bound,
    hyperbolic_term,
    identity_interval,
    identity_series,
    read_spectrum_file,
    spectrum_file_lines,
    tail_b1_bound,
    tail_bounds,
    tail_direct_sum,
    tail_far_bound,
    tail_far_integral,
    tail_far_prefactor,
    tail_higher_windings_bound,
    tail_windings_integral,
    tail_windings_prefactor,
)
from casorb.quadrature import elliptic_kernel_integral
from casorb.specfun import (csch_k1, csch_k1_array, struve_k,
                            upper_incomplete_gamma_half)

VOL_237 = 2.0 * math.pi * (1.0 - (1.0 / 2 + 1.0 / 3 + 1.0 / 7))
SIG_237 = OrbifoldSignature((2, 3, 7))

# frozen against the high-precision series run (80 outer terms, 50 digits)
ELLIPTIC_237 = 0.87567611517881749
IDENTITY_237 = -0.0016213251736439330
# (pi/4) K_1(1): the D = 0 degenerate kernel value
KERNEL_C1_D0 = 0.76943114243754049


def _corpus_spectrum():
    from casorb.triangle import table_corpus, to_spectrum

    return to_spectrum(table_corpus(), provenance="table_corpus")


# (c_n, shift) of sum_{n<N} c_n 2^{-n-shift} sum_{k<=n} (-1)^k C(n,k) f_k
EULER_SERIES = {"elliptic": (lambda n: 1, 2), "identity": (lambda n: n + 1, 6)}
EPS = math.ulp(1.0)

kernel_values = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


def _double_sum(f, kind, sign=-1):
    """The binomial double loop the Euler weights replace, in exact arithmetic."""
    c, shift = EULER_SERIES[kind]
    F = [Fraction(x) for x in f]
    return sum(Fraction(c(n), 2 ** (n + shift))
               * sum(sign ** k * math.comb(n, k) * F[k] for k in range(n + 1))
               for n in range(len(f)))


class TestEulerWeights:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(sorted(EULER_SERIES)),
           f=st.lists(kernel_values, min_size=1, max_size=80))
    def test_sum_matches_exact_double_sum(self, kind, f):
        w = _euler_weights(len(f), kind)
        envelope = EPS * math.fsum(wk * abs(fk) for wk, fk in zip(w, f))
        gap = abs(Fraction(_euler_sum(f, kind)) - _double_sum(f, kind))
        assert gap <= Fraction(envelope)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(N=st.integers(1, 80))
    def test_weights_correctly_rounded_and_bounded(self, N):
        for kind, (c, shift) in EULER_SERIES.items():
            w = _euler_weights(N, kind)
            for k, wk in enumerate(w):
                exact = sum(Fraction(c(n) * math.comb(n, k), 2 ** (n + shift))
                            for n in range(k, N))
                assert wk == float(exact)
                assert wk > 0.0
                # the n -> inf sums: sum_n C(n,k) 2^-n = 2, (n+1) C(n,k) 2^-n = 4(k+1)
                assert wk <= (0.5 if kind == "elliptic" else (k + 1) / 16.0)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(C=st.sampled_from([math.pi / 7, math.pi / 3, 1.0, 6 * math.pi / 7]),
           D=st.sampled_from([0.0, math.pi]),
           N=st.integers(1, 80))
    def test_noise_matches_double_loop_envelope(self, C, D, N):
        f = [struve_k(1, C + D * k).value / (C + D * k) for k in range(N)]
        looped = math.pi * EPS * float(_double_sum([abs(x) for x in f], "elliptic", 1))
        assert elliptic_kernel_series_noise(C, D, N) == pytest.approx(looped, rel=1e-15)


class TestEllipticKernelSeries:
    def test_matches_integral_on_grid(self):
        cs = [math.pi / 7, math.pi / 3, math.pi / 2, 2 * math.pi / 3, 6 * math.pi / 7]
        ds = [0.0, math.pi / 2, math.pi, 2 * math.pi, 3 * math.pi]
        for C in cs:
            for D in ds:
                ser = elliptic_kernel_series(C, D, -0.5, 60)
                quad = elliptic_kernel_integral(C, D, -0.5)
                gap = abs(ser.value - quad.value)
                assert gap <= ser.truncation_bound + 10.0 * quad.est_error, (C, D)

    def test_degenerate_damping(self):
        ser = elliptic_kernel_series(1.0, 0.0, -0.5, 30)
        assert ser.value == pytest.approx(KERNEL_C1_D0, rel=1e-12)

    def test_truncation_bound_halves(self):
        for N in (5, 20, 40, 60):
            b1 = elliptic_kernel_truncation_bound(math.pi / 7, N)
            b2 = elliptic_kernel_truncation_bound(math.pi / 7, N + 1)
            assert b2 / b1 <= 0.51

    def test_bound_log_space(self):
        # 4^{-1/2}-scaled bound at C = pi/7, N = 100 sits below 1e-29
        lg = (elliptic_kernel_truncation_bound_log10(math.pi / 7, 100)
              + math.log10(0.5))
        assert lg < -29.0

    def test_rounding_noise_budget(self):
        assert elliptic_kernel_series_noise(math.pi / 7, math.pi, 60) <= 1e-13

    def test_errors(self):
        with pytest.raises(ValueError):
            elliptic_kernel_series(0.0, 1.0)
        with pytest.raises(NotImplementedError):
            elliptic_kernel_series(1.0, 1.0, s=-1.0)


class TestEllipticContribution:
    def test_237_value(self):
        ser = elliptic_contribution(SIG_237, 60)
        assert ser.value == pytest.approx(ELLIPTIC_237, abs=1e-10)
        assert ser.truncation_bound < 1e-16

    def test_no_cone_points(self):
        ser = elliptic_contribution(OrbifoldSignature((), 2), 60)
        assert ser.value == 0.0 and ser.truncation_bound == 0.0

    def test_integral_route_agreement(self):
        ser = elliptic_contribution(SIG_237, 60)
        quad = elliptic_contribution_via_integral(SIG_237)
        assert abs(ser.value - quad.value) <= 1e-9

    def test_integral_route_cost(self):
        # u = e^{-min(C,1) y}: in u = e^{-Cy} at every C the (2,3,7) cone
        # integrals took 10 755 evaluations
        assert elliptic_contribution_via_integral(SIG_237).evaluations < 8000

    def test_positivity(self):
        for orders in ((2,), (3, 5), (2, 3, 7)):
            ser = elliptic_contribution(OrbifoldSignature(orders, 1), 40)
            assert ser.value > 0.0

    @pytest.mark.parametrize(
        "sig", [OrbifoldSignature((m,), 1) for m in range(2, 41)]
        + [SIG_237, OrbifoldSignature((2, 3, 8)), OrbifoldSignature((2, 3), 1)],
        ids=lambda sig: f"g{sig.genus}-{sig.cone_orders}")
    def test_cone_weights_carry_the_heat_invariant(self, sig):
        # As t -> 0 the heat trace's cone terms tend to sum w / sin(pi k/m),
        # since int cosh((pi - 2 pi k/m) r) / cosh(pi r) dr = 1 / sin(pi k/m).
        # With w = 1/(4 m sin(pi k/m)) that is sum (m^2 - 1)/(12 m), the
        # orbifold heat invariant (Dryden, Gordon, Greenwald and Webb,
        # Michigan Math. J. 56, 2008).
        got = math.fsum(w / math.sin(math.pi * k / m)
                        for m, k, w in _cone_weights(sig))
        want = math.fsum((m * m - 1) / (12 * m) for m in sig.cone_orders)
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)


class TestIdentity:
    def test_237_value_inside_interval(self):
        ser = identity_series(VOL_237, 60)
        lo, hi = identity_interval(VOL_237)
        assert ser.value == pytest.approx(IDENTITY_237, abs=1e-13)
        assert lo < ser.value < hi

    def test_interval_exact_fractions(self):
        lo, hi = identity_interval(VOL_237)
        assert lo == pytest.approx(-2.0 / 945.0, abs=1e-12)
        assert hi == pytest.approx(-1.0 / 756.0, abs=1e-12)
        assert lo < hi < 0.0

    def test_interval_scaling(self):
        lo, hi = identity_interval(36.0 * math.pi)
        assert hi == pytest.approx(-1.0, rel=1e-15)

    def test_volume_linearity(self):
        a = identity_series(1.0, 50).value
        b = identity_series(2.0, 50).value
        assert b == pytest.approx(2.0 * a, rel=1e-13)

    def test_containment_across_volumes(self):
        for vol in (VOL_237, 1.0, 10.0):
            ser = identity_series(vol, 40)
            lo, hi = identity_interval(vol)
            assert lo < ser.value < hi

    def test_quadrature_route(self):
        # the series against 2 int_0^inf (1/4 + r^2)^{3/2} sech^2(pi r) dr,
        # integrated by mpmath at 30 digits
        mp = pytest.importorskip("mpmath")
        ser = identity_series(VOL_237, 60)
        with mp.workdps(30):
            quad = 2 * mp.quad(lambda r: (mp.mpf(1) / 4 + r * r) ** 1.5
                               * mp.sech(mp.pi * r) ** 2, [0, mp.inf])
        assert ser.value == pytest.approx(-VOL_237 / 12.0 * float(quad), rel=1e-12)

    def test_truncation_decay(self):
        for N in (50, 55, 60, 65):
            a = identity_series(1.0, N).truncation_bound
            b = identity_series(1.0, N + 1).truncation_bound
            assert b / a <= 0.51


class TestHyperbolic:
    def test_term_monotonicity(self):
        for ell in (0.5, 1.0, 3.0):
            for n in range(1, 10):
                assert hyperbolic_term(ell, n + 1) < hyperbolic_term(ell, n)
        assert hyperbolic_term(1.1, 1) < hyperbolic_term(1.0, 1)
        assert hyperbolic_term(0.3, 2) > 0.0

    def test_tail_bound_dominates(self):
        for ell in (0.98, 1.736, 4.0):
            for m in (1, 3, 10):
                actual = sum(hyperbolic_term(ell, n) for n in range(m + 1, m + 200))
                assert actual <= hyperbolic_n_tail_bound(ell, m)

    def test_corpus_head(self):
        head = hyperbolic_contribution(_corpus_spectrum())
        assert head.value == pytest.approx(-0.5680851, abs=1e-6)

    def test_corpus_head_bits(self):
        # the exact sums of the head and its bound, as recorded before
        head = hyperbolic_contribution(_corpus_spectrum())
        assert head.value.hex() == "-0x1.22dc0e055d29fp-1"
        assert head.truncation_bound.hex() == "0x1.67c8738619fb5p-44"

    def test_enumerate16_head_bits(self):
        # the exact sums of the benchmark's enumerated head and its bound
        from casorb.triangle import enumerate_classes, to_spectrum

        head = hyperbolic_contribution(to_spectrum(enumerate_classes(16)))
        assert head.value.hex() == "-0x1.57db5555314edp+7"
        assert head.truncation_bound.hex() == "0x1.e76a8c3d8c7bap-37"

    def test_enumerate20_head_bits(self):
        # the head of 25 945 lengths, 3785 of them distinct, and 26 237
        # winding terms, as recorded before the winding counts were solved
        # in closed form and before each distinct length was summed once
        from casorb.triangle import enumerate_classes, to_spectrum

        head = hyperbolic_contribution(to_spectrum(enumerate_classes(20)))
        assert head.value.hex() == "-0x1.82ead270409d7p+10"
        assert head.truncation_bound.hex() == "0x1.610dcca2e24f5p-33"

    @staticmethod
    def _head_peak(letters):
        # numpy reports its buffers to tracemalloc
        import tracemalloc

        from casorb.triangle import enumerate_classes, to_spectrum

        spectrum = to_spectrum(enumerate_classes(letters))
        hyperbolic_contribution(spectrum)
        tracemalloc.start()
        try:
            hyperbolic_contribution(spectrum)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_enumerate16_head_memory(self):
        # a few float arrays per winding term of the 735 distinct lengths
        # (6865 terms, 0.56 MB), not per entry (17 043 terms, 1.28 MB), and
        # not 21 coefficients per term
        assert self._head_peak(16) < 1_000_000

    def test_enumerate20_head_memory(self):
        # 26 237 winding terms of the 3785 distinct lengths peak at 2.6 MB;
        # summing every entry's 169 752 terms peaked at 13.0 MB
        assert self._head_peak(20) < 4_000_000

    def test_single_class(self):
        spec = LengthSpectrum(((1.736006, 1),), "file")
        head = hyperbolic_contribution(spec)
        assert head.value == pytest.approx(-0.064746, abs=5e-6)

    def test_multiplicity_linearity(self):
        spec1 = LengthSpectrum(((1.0, 1), (2.0, 3)), "file")
        spec2 = LengthSpectrum(((1.0, 2), (2.0, 6)), "file")
        a = hyperbolic_contribution(spec1).value
        b = hyperbolic_contribution(spec2).value
        assert b == pytest.approx(2.0 * a, rel=1e-12)

    def test_empty_spectrum(self):
        with pytest.raises(ValueError):
            hyperbolic_contribution(LengthSpectrum((), "file"))

    def test_geodesic_contribution_weighting(self):
        one = geodesic_contribution(2.0, 1)
        four = geodesic_contribution(2.0, 4)
        assert four == pytest.approx(4.0 * one, rel=1e-13)


class TestBatchedWindingSums:
    @staticmethod
    def _scalar_winding_count(ell, tol):
        # the first winding count whose majorant tail is at most tol, one
        # winding at a time
        n = 1
        while (tail := hyperbolic_n_tail_bound(ell, n)) > tol:
            n += 1
        return tail, n

    @classmethod
    def _scalar_winding_sum(cls, ell, tol):
        # the per-length loop the batched sums replaced, kept as the oracle
        from casorb.compensated import NeumaierSum

        tail, n = cls._scalar_winding_count(ell, tol)
        acc = NeumaierSum()
        for k in range(1, n + 1):
            acc.add(hyperbolic_term(ell, k))
        return acc.total, tail, n

    def test_matches_scalar_loop(self):
        from casorb.contributions import _WINDING_TOL, _winding_sums
        from casorb.triangle import enumerate_classes, table_corpus

        lengths = [c.length for c in enumerate_classes(16)]
        assert len(lengths) == 2147
        lengths += [c.length for c in table_corpus()]
        sums, tails, ns = _winding_sums(lengths)
        for ell, s, tail, n in zip(lengths, sums, tails, ns):
            want, want_tail, want_n = self._scalar_winding_sum(ell, _WINDING_TOL)
            assert n == want_n and tail == want_tail
            assert abs(s - want) <= 4 * math.ulp(want)

    def test_batch_size_keeps_bits(self):
        # a length's sum, tail and count do not depend on the batch around it
        from casorb.contributions import _winding_sums
        from casorb.triangle import enumerate_classes

        lengths = np.array([c.length for c in enumerate_classes(16)])
        some = _winding_sums(lengths[::8])
        every = _winding_sums(lengths)
        for got, want in zip(some, every):
            assert got.tobytes() == want[::8].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.floats(1e-3, 700.0))
    @example(1e-3)
    @example(700.0)
    def test_counts_match_scalar_search(self, ell):
        # the solved winding count is the first crossing, with its tail
        from casorb.contributions import _WINDING_TOL, _winding_sums

        _, tails, ns = _winding_sums([ell])
        assert (tails[0], ns[0]) == self._scalar_winding_count(ell, _WINDING_TOL)

    def test_refuses_length_past_max_windings(self):
        # 1e-6 needs millions of windings; a count past the cap is refused
        from casorb.contributions import _MAX_WINDINGS, _winding_sums

        assert hyperbolic_n_tail_bound(1e-6, _MAX_WINDINGS) > 1e-13
        with pytest.raises(ArithmeticError, match="did not reach tolerance"):
            _winding_sums([2.0, 1e-6])

    @pytest.mark.parametrize("ell", [1e-300, 5e-324, 1e-5])
    def test_refuses_short_length_before_the_majorant(self, ell):
        # pytest turns RuntimeWarning into an error: the majorant, which
        # underflows or overflows at such lengths, is never evaluated
        spec = LengthSpectrum(((ell, 1),), "file")
        with pytest.raises(ArithmeticError, match="^winding sum did not reach tolerance$"):
            hyperbolic_contribution(spec)

    def test_longest_lengths_take_one_winding(self):
        # the counts work on min(ell, 1000), where N = 1 and the tail is
        # 0.0; uncapped, the majorant at n = 2 overflows near 9e307
        from casorb.contributions import _winding_sums

        lengths = [1e3, 1e17, 3e17, 1e300, sys.float_info.max]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sums, tails, ns = _winding_sums(lengths)
        assert sums.tolist() == tails.tolist() == [0.0] * 5
        assert ns.tolist() == [1] * 5

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 1.0))
    @example(0.0)
    @example(1.0)
    def test_secant_bracket(self, u):
        # the majorant crosses _WINDING_TOL between x = (N + 1) ell = 26 and
        # 33 for every admitted length up to 700, the bracket the secant
        # and _MIN_LENGTH rest on
        from casorb.contributions import _MIN_LENGTH, _SECANT_X, _WINDING_TOL

        x0, x1 = _SECANT_X
        ell = np.append(np.geomspace(_MIN_LENGTH, 700.0, 2001),
                        _MIN_LENGTH * (700.0 / _MIN_LENGTH) ** u)
        assert (hyperbolic_n_tail_bound(ell, x0 / ell - 1.0) > _WINDING_TOL).all()
        assert (hyperbolic_n_tail_bound(ell, x1 / ell - 1.0) <= _WINDING_TOL).all()

    def test_no_refused_length_fits_under_the_cap(self):
        # the longest refused length still needs more than _MAX_WINDINGS
        from casorb.contributions import _MAX_WINDINGS, _MIN_LENGTH, _WINDING_TOL

        ell = np.nextafter(_MIN_LENGTH, 0.0)
        assert hyperbolic_n_tail_bound(ell, _MAX_WINDINGS) > _WINDING_TOL

    @pytest.mark.parametrize("ell", [0.0, -1.0, math.nan, math.inf])
    def test_refuses_lengths_that_are_not_positive_and_finite(self, ell):
        # raw lengths are checked before a winding count is solved for them
        with pytest.raises(ValueError, match="lengths must be positive and finite"):
            geodesic_contributions([2.0, ell], [1, 1])

    def test_one_call_per_batch(self, monkeypatch):
        # enumeration takes no winding sum; table_corpus's check and each
        # printed batch evaluate all their lengths at once
        from casorb import contributions, triangle

        calls = []
        real = contributions.csch_k1_array

        def counting(z):
            calls.append(np.size(z))
            return real(z)

        monkeypatch.setattr(contributions, "csch_k1_array", counting)
        classes = triangle.enumerate_classes(12)
        assert len(calls) == 0
        triangle.table_corpus.cache_clear()
        corpus = triangle.table_corpus()
        hyperbolic_contribution(_corpus_spectrum())
        assert len(calls) == 2
        rows = [json.loads(triangle.classes_to_json(batch))
                for batch in (classes, corpus)]
        assert len(calls) == 4
        for row in rows[0] + rows[1]:
            assert row["contribution"] == geodesic_contribution(
                row["length"], row["class_count"])

    @pytest.mark.parametrize("source", ["table", "enumerate12"])
    def test_printed_terms_add_up_to_head(self, source):
        # the head and the printed class terms stop at the same winding
        from casorb import triangle

        classes = (triangle.table_corpus() if source == "table"
                   else triangle.enumerate_classes(12))
        head = hyperbolic_contribution(triangle.to_spectrum(classes)).value
        rows = json.loads(triangle.classes_to_json(classes))
        total = math.fsum(row["contribution"] for row in rows)
        assert abs(total - head) <= 2 * math.ulp(head)

    def test_each_distinct_length_once(self, monkeypatch):
        # copies of a length share its winding sum: duplicated and shuffled
        # lengths cost the kernel what their distinct values cost, and give
        # the one-copy values bit for bit
        from casorb import contributions
        from casorb.triangle import enumerate_classes, to_spectrum

        elements = []
        real = contributions.csch_k1_array

        def counting(z):
            elements.append(np.size(z))
            return real(z)

        monkeypatch.setattr(contributions, "csch_k1_array", counting)
        lengths = [c.length for c in enumerate_classes(12)]
        distinct = sorted(set(lengths))
        assert (len(lengths), len(distinct)) == (208, 143)
        once = dict(zip(distinct, geodesic_contributions(
            distinct, [1] * len(distinct))))
        copies = lengths * 3
        random.Random(1).shuffle(copies)
        got = geodesic_contributions(copies, [1] * len(copies))
        assert elements[1] == elements[0]
        assert got == [once[ell] for ell in copies]
        elements.clear()
        hyperbolic_contribution(to_spectrum(enumerate_classes(16)))
        assert elements == [6865]

    def test_contributions_independent_of_order(self):
        # each winding sum depends only on its own length, bit for bit
        from casorb.triangle import enumerate_classes

        classes = enumerate_classes(12)
        lengths = [c.length for c in classes]
        counts = [c.class_count for c in classes]
        perm = list(range(len(classes)))
        random.Random(0).shuffle(perm)
        shuffled = geodesic_contributions([lengths[i] for i in perm],
                                          [counts[i] for i in perm])
        got = geodesic_contributions(lengths, counts)
        assert shuffled == [got[i] for i in perm]


class TestAssumption:
    def test_corpus_holds(self):
        rep = assumption_check(_corpus_spectrum())
        assert rep.holds and rep.first_violation is None
        assert rep.checked_through == 51

    def test_constructed_violation(self):
        # entries hug the growth floor through j = 50, then fall below it:
        # threshold(50) ~ 5.2765, threshold(51) ~ 5.3009
        def thr(j):
            return math.log(j) + math.log(math.log(j))

        lengths = [1.0, 1.1] + [thr(j) + 1e-3 for j in range(3, 51)]
        lengths.append(5.29)   # >= lengths[-1], < threshold(51)
        spec = LengthSpectrum(tuple((l, 1) for l in lengths), "file")
        rep = assumption_check(spec)
        assert not rep.holds
        assert rep.first_violation == 51

    @staticmethod
    def _per_index_check(spectrum):
        # the loop over the expanded spectrum that the entry walk replaced
        lengths = [ell for ell, mult in spectrum.entries for _ in range(mult)]
        checked_through = 0
        for j in range(3, len(lengths) + 1):
            checked_through = j
            if lengths[j - 1] < math.log(j) + math.log(math.log(j)):
                return AssumptionReport(False, j, j)
        return AssumptionReport(True, None, checked_through)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(3, 80), st.floats(-0.05, 0.05),
                              st.integers(1, 12)), min_size=1, max_size=8))
    def test_entry_walk_matches_per_index_loop(self, rows):
        # lengths near the floor at some index, multiplicities that can
        # carry an entry across the index where it falls below it
        spec = LengthSpectrum.from_columns(
            [math.log(j) + math.log(math.log(j)) + d for j, d, _ in rows],
            [m for _, _, m in rows])
        assert assumption_check(spec) == self._per_index_check(spec)

    def test_huge_multiplicity_is_not_expanded(self):
        def thr(j):
            return math.log(j) + math.log(math.log(j))

        rep = assumption_check(LengthSpectrum(
            ((1.0, 1), (2.0, 2), (30.0, 10**12))))
        j = rep.first_violation
        assert not rep.holds and rep.checked_through == j
        assert thr(j - 1) <= 30.0 < thr(j)
        rep = assumption_check(LengthSpectrum(((31.0, 10**12),)))
        assert rep == AssumptionReport(True, None, 10**12)
        # past 2**63 the bisection still runs on Python ints, where
        # bisect over a range would overflow len()
        rep = assumption_check(LengthSpectrum(((31.0, 10**12), (73.0, 10**30))))
        j = rep.first_violation
        assert not rep.holds and rep.checked_through == j > 2**63
        assert thr(j - 1) <= 73.0 < thr(j)

    def test_threshold_value(self):
        assert (math.log(3) + math.log(math.log(3))) == pytest.approx(
            1.1926601162848087, rel=1e-14)


class TestTails:
    def test_direct_sum_single_term(self):
        z = 0.5 * (math.log(51.0) + math.log(math.log(51.0)))
        want = csch_k1(z) / (4.0 * math.pi)
        assert tail_direct_sum(51, 51) == pytest.approx(want, rel=1e-13)
        assert want == pytest.approx(0.00069301763270892476, rel=1e-12)

    def test_direct_sum_monotone_in_cutoff(self):
        a = tail_direct_sum(51, 1000)
        b = tail_direct_sum(51, 2000)
        assert b > a

    def test_chunking_invariance(self):
        j = np.arange(51, 40001, dtype=np.float64)
        terms = csch_k1_array(0.5 * (np.log(j) + np.log(np.log(j))))
        chunked = math.fsum(float(terms[i:i + 777].sum())
                            for i in range(0, terms.size, 777))
        assert abs(tail_direct_sum(51, 40000) - chunked / (4.0 * math.pi)) <= 1e-12

    @pytest.mark.parametrize("j_lo, j_hi", [
        (51, 5000), (51, 10001), (51, 2 * 10**5), (51, 10**6), (200, 10**6),
        (51, 10**7), (20_000, 10**6), (10**6, 3 * 10**6)])
    def test_b1_bound_dominates_direct_sum(self, j_lo, j_hi):
        bound = tail_b1_bound(j_lo, j_hi)
        direct = tail_direct_sum(j_lo, j_hi)
        assert direct <= bound <= direct + 1e-8

    def test_kernel_matches_mpmath_at_tail_nodes(self, monkeypatch):
        # csch_k1_array at the arguments tail_b1_bound(51, 10**150) hands it:
        # a sample of the direct head's z_j and every 256th trapezoid node,
        # z from 2.65 to 175.6, within the kernel's proved relative bound
        mp = pytest.importorskip("mpmath")
        from casorb import contributions
        from casorb.specfun import CSCH_K1_REL_ERROR

        seen = []

        def recording(z):
            seen.append(z.copy())
            return csch_k1_array(z)

        monkeypatch.setattr(contributions, "csch_k1_array", recording)
        tail_b1_bound(51, 10**150)
        head, nodes = seen
        assert (head.size, nodes.size) == (10**4 - 50, 16_385)
        z = np.concatenate((head[::199], nodes[::256]))
        assert 2.6 < z.min() < 2.7 and 175.5 < z.max() < 175.7
        with mp.workdps(30):
            for zi, got in zip(z.tolist(), csch_k1_array(z).tolist()):
                x = mp.mpf(zi)
                want = mp.besselk(1, x) / mp.sinh(x)
                assert abs(got - want) <= CSCH_K1_REL_ERROR * want, zi

    def test_b1_bound_bits(self):
        # the trapezoid's exact sum, as recorded before
        assert tail_b1_bound(51, 10**7).hex() == "0x1.1b798a13cf4bep-3"

    def test_b1_bound_is_direct_sum_below_head(self):
        # the direct sum carries the kernel and z_j rounding too: same margin
        for j_lo, j_hi in ((3, 3), (51, 2000), (51, 10**4), (9000, 10**4)):
            assert tail_b1_bound(j_lo, j_hi) == (
                tail_direct_sum(j_lo, j_hi) * (1.0 + 1e-12))

    def test_b1_bound_errors(self):
        for j_lo, j_hi in ((2, 100), (0, 100), (100, 99)):
            with pytest.raises(ValueError):
                tail_b1_bound(j_lo, j_hi)

    def test_b1_bound_stays_in_proved_kernel_range(self):
        # z_J is 349.8 at 10^301 and 351.0 at 10^302; csch_k1's bound ends at 350
        assert 0.0 < tail_b1_bound(51, 10**300) < tail_b1_bound(51, 10**301) < 1.0
        with pytest.raises(ValueError, match="past 350"):
            tail_b1_bound(51, 10**302)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(j=st.floats(4.0, 1e7))
    def test_tail_term_convex(self, j):
        # the premise of tail_b1_bound: f(j) = csch(z_j) K_1(z_j) is convex
        def f(x):
            return csch_k1(0.5 * (math.log(x) + math.log(math.log(x))))

        h = j / 10.0
        assert f(j - h) + f(j + h) - 2.0 * f(j) > 0.0

    def test_far_bound_parts(self):
        assert tail_far_prefactor(10**7) == pytest.approx(0.311949, abs=1e-5)
        assert tail_far_integral(10**7) == pytest.approx(0.498165, abs=1e-5)
        assert tail_far_bound(10**7) == pytest.approx(0.155402, abs=1e-5)
        # prefactor decreases toward 1/(2 sqrt(pi)) as the split grows
        assert tail_far_prefactor(10**12) < tail_far_prefactor(10**7)
        assert tail_far_bound(16) > 0.0
        with pytest.raises(ValueError):
            tail_far_bound(15)

    def test_windings_bound_parts(self):
        assert tail_windings_prefactor(51) == pytest.approx(0.335311, abs=1e-5)
        assert tail_windings_integral(51) == pytest.approx(0.000224, abs=1e-5)
        assert tail_higher_windings_bound(51) == pytest.approx(0.000075, abs=5e-6)
        with pytest.raises(ValueError):
            tail_higher_windings_bound(50)

    def test_log_inequality_numeric(self):
        for x in (50.0, 100.0, 1e4):
            assert -math.log1p(-1.0 / x) <= 1.0 / x + 1.0 / (1.9 * x * x)

    def test_growth_inequality(self):
        assert growth_inequality_check(16, 1)
        assert growth_inequality_check(10**6, 3)
        assert growth_inequality_check(15, 1)   # outside the guaranteed range
        with pytest.raises(ValueError):
            growth_inequality_check(1, 1)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(log_j=st.floats(math.log(16.0), 150.0 * math.log(10.0)),
           n=st.integers(1, 60))
    @example(log_j=math.log(16.0), n=60)
    @example(log_j=150.0 * math.log(10.0), n=60)
    def test_growth_inequality_holds_from_16(self, log_j, n):
        # the guaranteed range, far past the acceptance grid (j <= 1e4,
        # n <= 10): j log-uniform in [16, 1e150], as far as a tail split
        # J = 1e150 would need
        j = min(max(16, int(math.exp(log_j))), 10**150)
        assert growth_inequality_check(j, n)


class TestAssembly:
    def test_cone_free_is_negative(self):
        sig = OrbifoldSignature((), 2)   # genus 2: area 4 pi
        # the table's lengths without its group, which a cone-free run refuses
        unnamed = LengthSpectrum(_corpus_spectrum().entries, "file")
        b = casimir_energy(sig, unnamed, tail_j_hi=10**5)
        assert b.elliptic.value == 0.0
        assert b.certified_lower_bound < 0.0
        assert b.identity.value + b.hyperbolic_head < 0.0

    def test_empty_spectrum_refused(self):
        # no geodesic term means no lower bound
        sig = OrbifoldSignature((), 2)
        with pytest.raises(ValueError, match=r"covers j=1\.\.0 "):
            casimir_energy(sig, LengthSpectrum((), "file"))

    def test_tail_bounds_are_the_three_bounds(self):
        parts = tail_bounds(51, 10**7)
        assert parts == (tail_b1_bound(51, 10**7), tail_far_bound(10**7),
                         tail_higher_windings_bound(51))
        assert tail_bounds() == parts
        b = casimir_energy(SIG_237, _corpus_spectrum())
        assert b.tail_components == parts
        assert b.hyperbolic_tail_magnitude_bound == parts[0] + parts[1] + parts[2]

    def test_breakdown_stores_pieces_and_derives_figures(self):
        b = casimir_energy(SIG_237, _corpus_spectrum())
        assert [f.name for f in dataclasses.fields(EnergyBreakdown)] == [
            "identity", "identity_interval", "elliptic", "hyperbolic_head",
            "hyperbolic_head_bound", "tail_components", "assumption"]
        assert b.certified_lower_bound == b.lower_bound(
            b.hyperbolic_tail_magnitude_bound)
        # the certificate and the paper's reference-tail figure, to the bit
        assert b.certified_lower_bound.hex() == "0x1.7b85600dabd40p-7"
        assert b.lower_bound(REFERENCE_TAIL_237).hex() == "0x1.7c5b6cd33c7a0p-7"
        # new tail pieces move both derived figures, and nothing else
        moved = dataclasses.replace(b, tail_components=(0.1, 0.2, 0.3))
        assert moved.hyperbolic_tail_magnitude_bound == 0.1 + 0.2 + 0.3
        assert moved.certified_lower_bound == b.lower_bound(0.1 + 0.2 + 0.3)
        assert moved.certified_lower_bound < b.certified_lower_bound
        assert moved.lower_bound(REFERENCE_TAIL_237) == b.lower_bound(
            REFERENCE_TAIL_237)

    def test_certified_bound_identity(self):
        b = casimir_energy(SIG_237, _corpus_spectrum(), tail_j_hi=10**5)
        reconstructed = (b.elliptic.value - b.elliptic.truncation_bound
                         + b.identity_interval[0] + b.hyperbolic_head
                         - b.hyperbolic_head_bound
                         - b.hyperbolic_tail_magnitude_bound)
        assert b.certified_lower_bound == pytest.approx(reconstructed, abs=1e-15)
        assert b.assumption.checked_through == 51

    def test_refuses_spectrum_short_of_tail_start(self):
        # the tail starts at j = 51, so the head must list geodesics 1..50
        table = _corpus_spectrum()
        assert table.total_multiplicity == 51
        assert casimir_energy(SIG_237, table, tail_j_hi=10**5).certified_lower_bound > 0
        entries = table.entries[:-1]
        short = LengthSpectrum(entries, "file", group=(2, 3, 7))
        assert short.total_multiplicity == 49
        with pytest.raises(ValueError, match=r"covers j=1\.\.49 "):
            casimir_energy(SIG_237, short, tail_j_hi=10**5)
        with pytest.raises(ValueError, match=r"covers j=1\.\.1 "):
            casimir_energy(SIG_237,
                           LengthSpectrum(((0.98, 1),), group=(2, 3, 7)),
                           tail_j_hi=10**5)
        fifty = LengthSpectrum(entries + ((5.46, 1),), "file", group=(2, 3, 7))
        assert casimir_energy(SIG_237, fifty, tail_j_hi=10**5).assumption.holds

    def test_refuses_spectrum_of_another_group(self):
        from casorb.triangle import triangle_signature

        table = _corpus_spectrum()
        with pytest.raises(ValueError, match=r"is a \(2,3,7\) spectrum"):
            casimir_energy(triangle_signature(2, 3, 8), table)
        # genus 1 with cone orders (2,3): hyperbolic, but not the group
        with pytest.raises(ValueError, match=r"is a \(2,3,7\) spectrum"):
            casimir_energy(OrbifoldSignature((2, 3), 1), table)
        # a named group is held to the cone orders even when there are none
        with pytest.raises(ValueError, match=r"is a \(2,3,7\) spectrum, but "
                                             "the cone orders are none;"):
            casimir_energy(OrbifoldSignature((), 2), table)
        # the cone orders are stored sorted, so their order does not matter
        b = casimir_energy(triangle_signature(7, 3, 2), table)
        assert b.certified_lower_bound == pytest.approx(
            casimir_energy(SIG_237, table).certified_lower_bound, rel=1e-12)
        # a group of strings never reaches the comparison
        with pytest.raises(ValueError, match="cone orders must be integers >= 2"):
            LengthSpectrum(table.entries, "x", ("2", "3", "7"))

    @pytest.mark.parametrize("genus", [1, 2])
    def test_refuses_group_of_another_genus(self, genus):
        # a named group is the genus-0 group with those cone orders; the
        # same orders at genus >= 1 are another orbifold with other geodesics
        with pytest.raises(ValueError, match=(
                r"^the spectrum is a genus-0 \(2,3,7\) spectrum, but the "
                f"genus is {genus}; no certified bound$")):
            casimir_energy(OrbifoldSignature((2, 3, 7), genus),
                           _corpus_spectrum())

    def test_refuses_spectrum_naming_no_group(self):
        # the table's lengths without its group: nothing ties them to (2,3,7)
        unnamed = LengthSpectrum(_corpus_spectrum().entries)
        assert unnamed.group is None
        with pytest.raises(ValueError, match="names no group"):
            casimir_energy(SIG_237, unnamed)
        # a cone-free run is exploratory and takes it
        casimir_energy(OrbifoldSignature((), 2), unnamed,
                       tail_j_hi=10**5)

    @pytest.mark.parametrize("sig, group, message", [
        (SIG_237, None, "the spectrum names no group, but the cone orders "
                        "are 2,3,7; no certified bound"),
        (OrbifoldSignature((2, 3, 8)), (2, 3, 7),
         "the spectrum is a (2,3,7) spectrum, but the cone orders are 2,3,8; "
         "no certified bound"),
        (OrbifoldSignature((), 2), (2, 3, 7),
         "the spectrum is a (2,3,7) spectrum, but the cone orders are none; "
         "no certified bound"),
    ], ids=["no-group", "other-group", "group-without-cones"])
    def test_group_refusal_messages(self, sig, group, message):
        # one rule: the group must be the cone orders, None when there are none
        spectrum = LengthSpectrum(_corpus_spectrum().entries, group=group)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            casimir_energy(sig, spectrum)

    def test_refuses_area_breaking_gauss_bonnet(self):
        # the area follows from genus and cone orders, so none can be given:
        # an old-style area in the genus slot is refused
        with pytest.raises(ValueError,
                           match=r"genus must be an int in \[0, 1e300\], got 0\.01"):
            OrbifoldSignature((2, 3, 7), 0.01)

    def test_refusal_order(self):
        # the group, then coverage
        one = LengthSpectrum(((0.98, 1),), group=(2, 3, 7))
        with pytest.raises(ValueError, match=r"is a \(2,3,7\) spectrum"):
            casimir_energy(OrbifoldSignature((2, 3, 8)), one)
        with pytest.raises(ValueError, match=r"covers j=1\.\.1 "):
            casimir_energy(SIG_237, one)
        with pytest.raises(ValueError, match=r"is a \(2,3,7\) spectrum"):
            casimir_energy(OrbifoldSignature((), 2), one)

    def test_refuses_growth_violation(self):
        from casorb.triangle import enumerate_classes, to_spectrum

        spec = to_spectrum(enumerate_classes(12))
        assert spec.total_multiplicity >= 50
        with pytest.raises(ValueError, match=r"fails at j=3;"):
            casimir_energy(SIG_237, spec, tail_j_hi=10**5)

    def test_series_evaluation_invariants(self):
        with pytest.raises(ValueError):
            SeriesEvaluation(1.0, -1.0, 10)
        with pytest.raises(ValueError):
            SeriesEvaluation(1.0, 0.0, -1)
        for value, bound in ((math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0),
                             (1.0, math.nan), (1.0, math.inf)):
            with pytest.raises(ValueError):
                SeriesEvaluation(value, bound, 3)


class TestOrbifoldSignature:
    def test_volume_is_gauss_bonnet(self):
        # every signature of genus 0..3 with up to four cone orders in 2..12
        hyperbolic = 0
        for genus in range(4):
            for k in range(5):
                for orders in itertools.combinations_with_replacement(range(2, 13), k):
                    chi = Fraction(2 * genus - 2) + sum(Fraction(m - 1, m)
                                                        for m in orders)
                    if chi <= 0:
                        with pytest.raises(NonHyperbolicSignatureError,
                                           match="is not hyperbolic"):
                            OrbifoldSignature(orders, genus)
                        continue
                    hyperbolic += 1
                    sig = OrbifoldSignature(orders, genus)
                    assert sig.volume == 2.0 * math.pi * float(chi), (orders, genus)
        assert hyperbolic == 5363   # 97 of the 5460 are spherical or Euclidean

    @pytest.mark.parametrize("args, message", [
        (((2, 3, 7), True), "genus must be an int in [0, 1e300], got True"),
        (((2, 3, 7), -1), "genus must be an int in [0, 1e300], got -1"),
        (((2, 3, 7), 1.5), "genus must be an int in [0, 1e300], got 1.5"),
        (((2, 3, 7), 0.1495996), "genus must be an int in [0, 1e300], got 0.1495996"),
        (((), 10**300 + 1), "genus must be an int in [0, 1e300], got 1000"),
        (((2, 3),), "genus 0 with cone orders 2,3 is not hyperbolic"),
        (((), 1), "genus 1 with cone orders none is not hyperbolic"),
    ], ids=["bool", "negative", "float", "area", "huge", "spherical", "torus"])
    def test_refusals(self, args, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            OrbifoldSignature(*args)

    def test_largest_genus_has_a_finite_area(self):
        assert OrbifoldSignature((), 10**300).volume == 2.0 * math.pi * 2e300

    def test_cone_orders_are_a_tuple(self):
        # a list is stored as the tuple it holds, so the signature hashes
        from_list = OrbifoldSignature([2, 3, 7])
        assert from_list.cone_orders == (2, 3, 7)
        assert from_list == OrbifoldSignature((2, 3, 7))
        assert hash(from_list) == hash(OrbifoldSignature((2, 3, 7)))
        with pytest.raises(ValueError, match="cone orders must be integers >= 2"):
            OrbifoldSignature("237")
        # stored sorted, so the order they are given in does not matter
        unsorted = OrbifoldSignature((7, 3, 2))
        assert unsorted.cone_orders == (2, 3, 7)
        assert unsorted == SIG_237
        assert hash(unsorted) == hash(SIG_237)


class TestSpectrumTypesAndIO:
    def test_validation(self):
        with pytest.raises(ValueError):
            LengthSpectrum(((1.0, 1), (0.5, 1)), "file")       # unsorted
        with pytest.raises(ValueError):
            LengthSpectrum(((-1.0, 1),), "file")
        with pytest.raises(ValueError):
            LengthSpectrum(((1.0, 0),), "file")
        with pytest.raises(ValueError, match="cone orders must be integers >= 2"):
            OrbifoldSignature((1,))
        with pytest.raises(ValueError, match="is not hyperbolic"):
            OrbifoldSignature((2, 3))

    @pytest.mark.parametrize("entries", [
        [(1.0, 1), (2.0, 3)], [[1.0, 1], [2.0, 3]], iter([(1.0, 1), (2.0, 3)])],
        ids=["list", "list-of-lists", "iterator"])
    def test_entries_stored_as_tuple_of_pairs(self, entries):
        # a list would make the spectrum unhashable and unequal to its
        # tuple twin; an iterator would be used up by the validation
        spec = LengthSpectrum(entries, group=(2, 3, 7))
        twin = LengthSpectrum(((1.0, 1), (2.0, 3)), group=(2, 3, 7))
        assert spec.entries == ((1.0, 1), (2.0, 3))
        assert spec == twin and hash(spec) == hash(twin)
        assert len(spec) == 2 and spec.total_multiplicity == 4

    def test_bool_multiplicity_refused(self):
        # True is an int to isinstance, but would be written as "True"
        with pytest.raises(ValueError, match="multiplicities must be positive integers"):
            LengthSpectrum(((1.0, True),), "file")
        with pytest.raises(ValueError, match="multiplicities must be positive integers"):
            LengthSpectrum(((1.0, 2), (2.0, True)), "file")

    @pytest.mark.parametrize("ell", [np.float64(1.5), np.float32(1.5), True,
                                     Fraction(3, 2), 2],
                             ids=["float64", "float32", "bool", "fraction", "int"])
    def test_length_that_is_not_a_float_refused(self, ell, tmp_path):
        # np.float64(1.5) would be written as "np.float64(1.5)", which
        # read_spectrum_file refuses; a numpy column through from_columns
        # arrives as floats and reads back equal
        with pytest.raises(ValueError, match="lengths must be floats"):
            LengthSpectrum(((ell, 1),), group=(2, 3, 7))
        spec = LengthSpectrum.from_columns(np.array([ell], dtype=np.float64), [1],
                                           group=(2, 3, 7))
        path = tmp_path / "spec.txt"
        path.write_text("\n".join(spectrum_file_lines(spec)) + "\n")
        assert read_spectrum_file(str(path)) == spec

    def test_builders_never_coerce_a_multiplicity(self):
        # int(2.7) = 2 would undercount the class and raise the bound
        for mult in (2.7, True, np.True_, "3", 2.0):
            with pytest.raises(ValueError, match="multiplicities must be positive integers"):
                LengthSpectrum.from_columns([1.0], [mult], "file")
            with pytest.raises(ValueError, match="multiplicities must be positive integers"):
                LengthSpectrum.from_columns([2.0, 1.0], [3, mult], "file")
        # exact integers still pass, as Python ints of the same value
        spec = LengthSpectrum.from_columns([2.0, 1.0], np.array([3, 4]))
        assert spec.entries == ((1.0, 4), (2.0, 3))
        assert [type(m) for _, m in spec.entries] == [int, int]
        big = LengthSpectrum.from_columns([2.0, 1.0, 1.5], [10**30, 2**64, 3])
        assert big.entries == ((1.0, 2**64), (1.5, 3), (2.0, 10**30))
        assert [type(m) for _, m in big.entries] == [int, int, int]
        # numpy makes a float column of ints on both sides of 2**63
        mixed = LengthSpectrum.from_columns([1.0, 1.0], [2**63, 1])
        assert mixed.entries == ((1.0, 1), (1.0, 2**63))
        assert [type(m) for _, m in mixed.entries] == [int, int]

    def test_from_columns_sorts_like_sorted_tuples(self):
        # one lexsort over both columns orders pairs as sorted() orders
        # (length, multiplicity) tuples
        pairs = [(2.0, 1), (1.0, 3), (2.0, 10**30), (1.0, 2), (0.5, 7), (2.0, 4)]
        spec = LengthSpectrum.from_columns(*zip(*pairs))
        assert spec.entries == tuple(sorted(pairs))
        assert LengthSpectrum.from_columns([], [], "file").entries == ()

    @pytest.mark.parametrize("lengths, multiplicities", [
        ([[1.0, 2.0]], [[1, 2]]), ([1.0, 2.0], [1, 2, 3]), ([1.0, 2.0], [1])],
        ids=["2-d", "longer-counts", "shorter-counts"])
    def test_from_columns_refuses_columns_that_do_not_pair(self, lengths,
                                                           multiplicities):
        # a ValueError, which the CLI reports with exit code 2, not numpy's
        # IndexError or its lexsort message
        with pytest.raises(ValueError, match="lengths and multiplicities must be "
                                             "1-d columns of equal length"):
            LengthSpectrum.from_columns(lengths, multiplicities)

    @pytest.mark.parametrize("counts", [(3, 1), (10**30, 1)], ids=["int64", "big"])
    def test_columns_match_the_entries(self, counts):
        # both builders store the same two read-only columns, and entries
        # gives them back as Python floats and ints
        pairs = ((1.5, counts[0]), (2.5, counts[1]))
        spec = LengthSpectrum(pairs, group=(2, 3, 7))
        twin = LengthSpectrum.from_columns([2.5, 1.5], counts[::-1], "x", (2, 3, 7))
        assert spec == twin and hash(spec) == hash(twin)
        assert spec.entries == twin.entries == pairs
        assert all(type(ell) is float and type(m) is int
                   for ell, m in twin.entries)
        assert twin.lengths.dtype == np.float64
        assert twin.multiplicities.dtype == (np.int64 if counts[0] < 2**63 else object)
        for column in (twin.lengths, twin.multiplicities):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[1]
        assert spec == twin and spec.total_multiplicity == sum(counts)

    @pytest.mark.parametrize("build, refusal", [
        (lambda: LengthSpectrum(((1.0, 0), (-1.0, 1))), "multiplicities"),
        (lambda: LengthSpectrum(((-1.0, 1), (1.0, 0))), "lengths"),
        # sorted, the first faulty entry is (-1.0, 1), then (1.0, 0)
        (lambda: LengthSpectrum.from_columns([2.0, -1.0], [0, 1]), "lengths"),
        (lambda: LengthSpectrum.from_columns([math.inf, 1.0], [1, 0]), "multiplicities"),
        (lambda: LengthSpectrum.from_columns([math.nan, 1.0], [1, 2.5]),
         "multiplicities")])
    def test_first_faulty_entry_is_reported(self, build, refusal):
        # with two faulty entries, the first in length order names the refusal
        message = {"lengths": "lengths must be positive and finite",
                   "multiplicities": "multiplicities must be positive integers"}
        with pytest.raises(ValueError, match=f"^{message[refusal]}$"):
            build()

    def test_enumerated_spectrum_is_small(self):
        # two columns of 2147 entries: 34 KB, not a tuple of 2147 pairs
        # (185 KB); numpy reports its buffers to tracemalloc
        import tracemalloc

        from casorb.triangle import enumerate_classes, to_spectrum

        classes = enumerate_classes(16)
        to_spectrum(classes)
        tracemalloc.start()
        try:
            spectrum = to_spectrum(classes)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(spectrum) == 2147 and kept < 64_000

    def test_multiplicity_and_merge(self):
        spec = LengthSpectrum(
            ((1.0, 2), (1.0 + 1e-12, 3), (2.0, 1)), "file")
        assert spec.total_multiplicity == 6
        assert sum(m for ell, m in spec.entries if abs(ell - 1.0) <= 1e-9) == 5
        # nearly equal lengths are never merged: the spectrum keeps both
        assert spec.entries == ((1.0, 2), (1.0 + 1e-12, 3), (2.0, 1))
        assert len(spec) == 3

    def test_file_roundtrip(self, tmp_path):
        spec = LengthSpectrum(
            ((0.983987, 1), (1.736006, 1), (2.131105, 2)), "file")
        path = tmp_path / "spec.txt"
        path.write_text("\n".join(spectrum_file_lines(spec)) + "\n")
        back = read_spectrum_file(str(path))
        assert back == spec and hash(back) == hash(spec)

    def test_file_group_line(self, tmp_path):
        # provenance is a label: the spectrum read back equals the one
        # written, though the file calls it "file"
        spec = LengthSpectrum(((0.983987, 1), (1.736006, 1)), "table_corpus",
                              group=(2, 3, 7))
        lines = spectrum_file_lines(spec)
        assert lines[0] == "# group 2,3,7"
        path = tmp_path / "spec.txt"
        path.write_text("\n".join(lines) + "\n")
        back = read_spectrum_file(str(path))
        assert back.provenance == "file"
        assert back == spec and hash(back) == hash(spec)
        # without a group line the group is unknown
        path.write_text("1.5,2\n")
        assert read_spectrum_file(str(path)).group is None
        assert spectrum_file_lines(read_spectrum_file(str(path)))[0] == (
            "# length,multiplicity")
        # any hyperbolic genus-0 group, for orbifolds that are not triangles
        for text, group in (("# group 3,2,2,2\n1.5,2\n", (2, 2, 2, 3)),
                            ("# group 2, 3, 7\n1.5,2\n", (2, 3, 7))):
            path.write_text(text)
            assert read_spectrum_file(str(path)).group == group
        for bad in ("# group 2,x,7\n1.5,2\n", "# group 1,3,7\n1.5,2\n",
                    "# group 2,3,\n1.5,2\n", "# group\n1.5,2\n",
                    "# group 2 3 7\n1.5,2\n",   # not the single order 237
                    "# group 2,3\n1.5,2\n", "# group 5\n1.5,2\n",
                    "# group 2,3,6\n1.5,2\n",
                    "# group 2,3,7\n# group 2,3,8\n1.5,2\n"):
            path.write_text(bad)
            with pytest.raises(SpectrumFormatError):
                read_spectrum_file(str(path))

    @pytest.mark.parametrize("group, refusal", [
        ((), "genus 0 with cone orders none is not hyperbolic"),
        ((5,), "genus 0 with cone orders 5 is not hyperbolic"),
        ((3, 2), "genus 0 with cone orders 2,3 is not hyperbolic"),
        ((2, 2, 5), "genus 0 with cone orders 2,2,5 is not hyperbolic"),
        ((2, 3, 6), "genus 0 with cone orders 2,3,6 is not hyperbolic"),
        ((2, 4, 4), "genus 0 with cone orders 2,4,4 is not hyperbolic"),
        ((3, 3, 3), "genus 0 with cone orders 3,3,3 is not hyperbolic"),
        ((1, 0), "cone orders must be integers >= 2"),
        ((2.5,), "cone orders must be integers >= 2"),
        (("2", "3", "7"), "cone orders must be integers >= 2"),
        ([7, 3, 2], None),
        ((3, 2, 2, 2), None),
    ], ids=["empty", "one-order", "two-orders", "spherical", "euclidean-236",
            "euclidean-244", "euclidean-333", "below-2", "float", "strings",
            "unsorted-list", "four-orders"])
    def test_group_is_refused_or_round_trips(self, tmp_path, group, refusal):
        # a group the file format cannot carry, or whose genus-0 orbifold
        # is not hyperbolic (so that no energy run could use it), is
        # refused at construction
        entries = ((0.983987, 1), (1.736006, 2))
        if refusal is not None:
            with pytest.raises(ValueError, match=re.escape(refusal)):
                LengthSpectrum(entries, "file", group)
            return
        spec = LengthSpectrum(entries, "file", group)
        path = tmp_path / "spec.txt"
        path.write_text("\n".join(spectrum_file_lines(spec)) + "\n")
        assert read_spectrum_file(str(path)) == spec

    def test_group_equality_and_hash(self):
        entries = ((0.983987, 1), (1.736006, 2))
        from_list = LengthSpectrum(entries, "file", [7, 3, 2])
        from_tuple = LengthSpectrum(entries, "file", (2, 3, 7))
        assert from_list.group == (2, 3, 7)
        assert from_list == from_tuple
        assert hash(from_list) == hash(from_tuple)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(rows=st.lists(st.tuples(st.floats(0.0, 1e300, exclude_min=True),
                                   st.integers(1, 10**30)), min_size=1, max_size=20),
           group=st.lists(st.integers(2, 50), min_size=3, max_size=6).filter(
               lambda g: sum(1 - Fraction(1, m) for m in g) > 2),
           provenance=st.sampled_from(["file", "table_corpus", "enumerated"]))
    def test_file_round_trip_keeps_any_valid_group(self, tmp_path_factory, rows,
                                                   group, provenance):
        # hyperbolic genus-0 groups of orders 2..50 in any order, repeats
        # included; any provenance label
        spec = LengthSpectrum(tuple(sorted(rows)), provenance, group)
        path = tmp_path_factory.mktemp("spec") / "spec.txt"
        path.write_text("\n".join(spectrum_file_lines(spec)) + "\n")
        back = read_spectrum_file(str(path))
        assert back == spec and hash(back) == hash(spec)

    def test_file_group_of_a_non_triangle_orbifold(self, tmp_path):
        # genus 1 with cone orders (2,3) is hyperbolic, but a named group
        # has genus 0, and the genus-0 (2,3) orbifold is not hyperbolic:
        # the '# group 2,3' file is refused at its group line
        path = tmp_path / "spec.txt"
        path.write_text("# group 2,3\n1.5,2\n")
        with pytest.raises(SpectrumFormatError,
                           match=re.escape(f"{path}:1: genus 0 with cone orders "
                                           "2,3 is not hyperbolic")):
            read_spectrum_file(str(path))

    def test_file_comments_and_errors(self, tmp_path):
        path = tmp_path / "ok.txt"
        path.write_text("# comment\n\n 1.5 , 2 # inline\n2.5,1\n")
        spec = read_spectrum_file(str(path))
        assert spec.entries == ((1.5, 2), (2.5, 1))

        bad = tmp_path / "bad.txt"
        bad.write_text("1.5\n")
        with pytest.raises(SpectrumFormatError):
            read_spectrum_file(str(bad))
        bad.write_text("abc,1\n")
        with pytest.raises(SpectrumFormatError):
            read_spectrum_file(str(bad))
        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing\n")
        with pytest.raises(SpectrumFormatError):
            read_spectrum_file(str(empty))

    @pytest.mark.parametrize("row, message", [
        ("1.5,0", "multiplicities must be positive integers"),
        ("-1.5,2", "lengths must be positive and finite"),
        ("nan,1", "lengths must be positive and finite"),
        ("inf,1", "lengths must be positive and finite"),
    ], ids=["zero-multiplicity", "negative", "nan", "inf"])
    def test_file_row_the_spectrum_type_refuses(self, tmp_path, row, message):
        # the row parses, and the constructor's refusal is reported with the path
        path = tmp_path / "spec.txt"
        path.write_text(f"# group 2,3,7\n0.98,1\n{row}\n")
        with pytest.raises(SpectrumFormatError) as info:
            read_spectrum_file(str(path))
        assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("call, args, message", [
    (elliptic_kernel_series, (1.0, -1.0), "D must be nonnegative"),
    (elliptic_kernel_series, (1.0, 0.0, -0.5, 0), "N must be >= 1"),
    (elliptic_kernel_truncation_bound, (0.0, 10), "C must be positive"),
    (identity_series, (0.0,), "volume must be positive"),
    (identity_series, (1.0, 0), "N must be >= 1"),
    (identity_interval, (-1.0,), "volume must be positive"),
    (hyperbolic_term, (0.0, 1), "length must be positive"),
    (hyperbolic_term, (1.0, 0), "winding number must be >= 1"),
    (tail_direct_sum, (2, 100), "need 3 <= j_lo <= j_hi"),
    (tail_direct_sum, (100, 99), "need 3 <= j_lo <= j_hi"),
    (upper_incomplete_gamma_half, (-1.0,), "a must be nonnegative"),
], ids=["series-D", "series-N", "truncation-C", "identity-volume", "identity-N",
        "interval-volume", "term-length", "term-winding", "direct-sum-j_lo",
        "direct-sum-empty", "gamma-a"])
def test_argument_refusals(call, args, message):
    with pytest.raises(ValueError) as info:
        call(*args)
    assert (info.type, str(info.value)) == (ValueError, message)
