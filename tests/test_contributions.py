"""Series routes, tail bounds, and the certified assembly."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casorb.contributions import (
    _euler_sum,
    _euler_weights,
    LengthSpectrum,
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
    elliptic_small_angle_lower_bound,
    geodesic_contribution,
    growth_inequality_check,
    hyperbolic_contribution,
    hyperbolic_n_tail_bound,
    hyperbolic_term,
    identity_interval,
    identity_series,
    read_spectrum_file,
    spectrum_file_lines,
    tail_b1_bound,
    tail_direct_sum,
    tail_far_bound,
    tail_far_integral,
    tail_far_prefactor,
    tail_higher_windings_bound,
    tail_windings_integral,
    tail_windings_prefactor,
)
from casorb.quadrature import elliptic_kernel_integral, identity_integral
from casorb.specfun import csch_k1, csch_k1_array, struve_k

VOL_237 = 2.0 * math.pi * (1.0 - (1.0 / 2 + 1.0 / 3 + 1.0 / 7))
SIG_237 = OrbifoldSignature((2, 3, 7), VOL_237, "(2,3,7)")

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
        ser = elliptic_contribution(OrbifoldSignature((), 1.0), 60)
        assert ser.value == 0.0 and ser.truncation_bound == 0.0

    def test_integral_route_agreement(self):
        ser = elliptic_contribution(SIG_237, 60)
        quad = elliptic_contribution_via_integral(SIG_237)
        assert abs(ser.value - quad.value) <= 1e-9

    def test_positivity(self):
        for orders in ((2,), (3, 5), (2, 3, 7)):
            ser = elliptic_contribution(OrbifoldSignature(orders, 1.0), 40)
            assert ser.value > 0.0


class TestSmallAngle:
    def test_lower_bound_against_integral(self):
        for theta in (0.3, 0.1, 0.03):
            quad = elliptic_kernel_integral(theta, math.pi, -0.5)
            assert quad.value >= elliptic_small_angle_lower_bound(theta)

    def test_growth_scale(self):
        theta = 0.01
        v = elliptic_small_angle_lower_bound(theta)
        assert v >= 1.0 / (16.0 * theta * theta)
        assert v >= 100.0

    def test_bounded_ratio(self):
        import numpy as np

        for theta in np.geomspace(1e-3, 1e-1, 25):
            r = elliptic_small_angle_lower_bound(float(theta)) * 8.0 * theta**2
            assert 3.5 <= r <= 4.5

    def test_domain(self):
        with pytest.raises(ValueError):
            elliptic_small_angle_lower_bound(1.5)


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
        ser = identity_series(VOL_237, 60)
        quad = identity_integral()
        assert ser.value == pytest.approx(-VOL_237 / 12.0 * quad.value, abs=1e-9)

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

    def test_single_class(self):
        spec = LengthSpectrum.from_pairs([(1.736006, 1)], "file")
        head = hyperbolic_contribution(spec)
        assert head.value == pytest.approx(-0.064746, abs=5e-6)

    def test_multiplicity_linearity(self):
        spec1 = LengthSpectrum.from_pairs([(1.0, 1), (2.0, 3)], "file")
        spec2 = LengthSpectrum.from_pairs([(1.0, 2), (2.0, 6)], "file")
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
    def _scalar_winding_sum(ell, tol):
        # the per-length loop the batched sums replaced, kept as the oracle
        from casorb.compensated import NeumaierSum

        acc = NeumaierSum()
        n = 0
        while True:
            n += 1
            acc.add(hyperbolic_term(ell, n))
            tail = hyperbolic_n_tail_bound(ell, n)
            if tail <= tol:
                return acc.total, tail, n

    @pytest.mark.parametrize("tol", [1e-13, 1e-14])
    def test_matches_scalar_loop(self, tol):
        from casorb.contributions import _winding_sums
        from casorb.triangle import enumerate_classes, table_corpus

        lengths = [c.length for c in enumerate_classes(16)]
        assert len(lengths) == 2147
        lengths += [c.length for c in table_corpus()]
        sums, tails, ns = _winding_sums(lengths, tol)
        for ell, s, tail, n in zip(lengths, sums, tails, ns):
            want, want_tail, want_n = self._scalar_winding_sum(ell, tol)
            assert n == want_n and tail == want_tail
            assert abs(s - want) <= 4 * math.ulp(want)

    def test_one_call_per_batch(self, monkeypatch):
        # enumerate_classes and table_corpus evaluate all lengths at once
        from casorb import contributions, triangle

        calls = []
        real = contributions.csch_k1_array

        def counting(z):
            calls.append(np.size(z))
            return real(z)

        monkeypatch.setattr(contributions, "csch_k1_array", counting)
        classes = triangle.enumerate_classes(12)
        assert len(calls) == 1
        triangle.table_corpus.cache_clear()
        corpus = triangle.table_corpus()
        hyperbolic_contribution(_corpus_spectrum())
        assert len(calls) == 3
        for c in list(classes) + list(corpus):
            assert c.contribution == geodesic_contribution(c.length, c.class_count)


class TestAssumption:
    def test_corpus_holds(self):
        rep = assumption_check(_corpus_spectrum())
        assert rep.holds and rep.first_violation is None
        assert rep.checked_through == 51
        assert rep.skipped_below == 2

    def test_constructed_violation(self):
        # entries hug the growth floor through j = 50, then fall below it:
        # threshold(50) ~ 5.2765, threshold(51) ~ 5.3009
        def thr(j):
            return math.log(j) + math.log(math.log(j))

        lengths = [1.0, 1.1] + [thr(j) + 1e-3 for j in range(3, 51)]
        lengths.append(5.29)   # >= lengths[-1], < threshold(51)
        spec = LengthSpectrum.from_pairs([(l, 1) for l in lengths], "file")
        rep = assumption_check(spec)
        assert not rep.holds
        assert rep.first_violation == 51

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
        (51, 10**7), (20_000, 10**6)])
    def test_b1_bound_dominates_direct_sum(self, j_lo, j_hi):
        bound = tail_b1_bound(j_lo, j_hi)
        direct = tail_direct_sum(j_lo, j_hi)
        assert direct <= bound <= direct + 1e-8

    def test_b1_bound_is_direct_sum_below_head(self):
        for j_lo, j_hi in ((3, 3), (51, 2000), (51, 10**4), (9000, 10**4)):
            assert tail_b1_bound(j_lo, j_hi) == tail_direct_sum(j_lo, j_hi)

    def test_b1_bound_errors(self):
        for j_lo, j_hi in ((2, 100), (0, 100), (100, 99)):
            with pytest.raises(ValueError):
                tail_b1_bound(j_lo, j_hi)

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


class TestAssembly:
    def test_cone_free_is_negative(self):
        sig = OrbifoldSignature((), 4.0 * math.pi)   # genus-2-like area
        b = casimir_energy(sig, _corpus_spectrum(), tail_j_hi=10**5)
        assert b.elliptic.value == 0.0
        assert b.certified_lower_bound < 0.0
        assert b.identity.value + b.hyperbolic_head < 0.0

    def test_empty_spectrum_refused(self):
        # no geodesic term means no lower bound
        sig = OrbifoldSignature((), 1.0)
        with pytest.raises(ValueError, match=r"covers j=1\.\.0 "):
            casimir_energy(sig, LengthSpectrum((), "file"))

    def test_certified_bound_identity(self):
        b = casimir_energy(SIG_237, _corpus_spectrum(), tail_j_hi=10**5)
        reconstructed = (b.elliptic.value - b.elliptic.truncation_bound
                         + b.identity_interval[0] + b.hyperbolic_head
                         - b.hyperbolic_head_bound
                         - b.hyperbolic_tail_magnitude_bound)
        assert b.certified_lower_bound == pytest.approx(reconstructed, abs=1e-15)
        assert b.assumption_verified_through == 51

    def test_refuses_spectrum_short_of_tail_start(self):
        # the tail starts at j = 51, so the head must list geodesics 1..50
        table = _corpus_spectrum()
        assert table.total_multiplicity == 51
        assert casimir_energy(SIG_237, table, tail_j_hi=10**5).certified_lower_bound > 0
        entries = table.entries[:-1]
        short = LengthSpectrum(entries, "file")
        assert short.total_multiplicity == 49
        with pytest.raises(ValueError, match=r"covers j=1\.\.49 "):
            casimir_energy(SIG_237, short, tail_j_hi=10**5)
        with pytest.raises(ValueError, match=r"covers j=1\.\.1 "):
            casimir_energy(SIG_237, LengthSpectrum.from_pairs([(0.98, 1)]),
                           tail_j_hi=10**5)
        fifty = LengthSpectrum(entries + ((5.46, 1),), "file")
        assert casimir_energy(SIG_237, fifty, tail_j_hi=10**5).assumption.holds

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


class TestSpectrumTypesAndIO:
    def test_validation(self):
        with pytest.raises(ValueError):
            LengthSpectrum(((1.0, 1), (0.5, 1)), "file")       # unsorted
        with pytest.raises(ValueError):
            LengthSpectrum(((-1.0, 1),), "file")
        with pytest.raises(ValueError):
            LengthSpectrum(((1.0, 0),), "file")
        with pytest.raises(ValueError):
            OrbifoldSignature((1,), 1.0)
        with pytest.raises(ValueError):
            OrbifoldSignature((2, 3), 0.0)

    def test_multiplicity_and_merge(self):
        spec = LengthSpectrum.from_pairs(
            [(1.0, 2), (1.0 + 1e-12, 3), (2.0, 1)], "file")
        assert spec.total_multiplicity == 6
        assert sum(m for ell, m in spec.entries if abs(ell - 1.0) <= 1e-9) == 5
        merged = spec.merged(1e-9)
        assert merged.entries == ((1.0, 5), (2.0, 1))
        # merge is opt-in: the raw spectrum keeps both entries
        assert len(spec) == 3

    def test_file_roundtrip(self, tmp_path):
        spec = LengthSpectrum.from_pairs(
            [(0.983987, 1), (1.736006, 1), (2.131105, 2)], "file")
        path = tmp_path / "spec.txt"
        path.write_text("\n".join(spectrum_file_lines(spec)) + "\n")
        back = read_spectrum_file(str(path))
        assert back.entries == spec.entries

    def test_file_group_line(self, tmp_path):
        spec = LengthSpectrum.from_pairs([(0.983987, 1), (1.736006, 1)], "file",
                                         group=(2, 3, 7))
        lines = spectrum_file_lines(spec)
        assert lines[0] == "# group 2,3,7"
        path = tmp_path / "spec.txt"
        path.write_text("\n".join(lines) + "\n")
        back = read_spectrum_file(str(path))
        assert (back.entries, back.group) == (spec.entries, (2, 3, 7))
        assert back.merged(1e-9).group == (2, 3, 7)
        # without a group line the group is unknown
        path.write_text("1.5,2\n")
        assert read_spectrum_file(str(path)).group is None
        assert spectrum_file_lines(read_spectrum_file(str(path)))[0] == (
            "# length,multiplicity")
        for bad in ("# group 2,3\n1.5,2\n", "# group 2,x,7\n1.5,2\n",
                    "# group 1,3,7\n1.5,2\n",
                    "# group 2,3,7\n# group 2,3,8\n1.5,2\n"):
            path.write_text(bad)
            with pytest.raises(SpectrumFormatError):
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
