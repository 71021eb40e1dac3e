"""Kernel contracts: frozen oracle values, dual-path consistency, bounds."""

import dataclasses
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casorb import specfun
from casorb.specfun import (
    FnEval,
    UnsupportedOrderError,
    clear_caches,
    csch_k1,
    csch_k1_array,
    struve_k,
    upper_incomplete_gamma_half,
)

# frozen with mpmath at 40 digits
K1_STRUVE_AT_PI = 0.69085480644049455
K2_STRUVE_AT_PI = 0.91701938411356474
GAMMA_HALF_1 = 0.27880558528066198   # sqrt(pi) erfc(1)
# SHA-256 of float.hex(value) and float.hex(abs_error_bound) of struve_k of
# both orders at each of the 600 arguments z of a cold (2,3,7) run
PRODUCTION_DIGEST = "6dbd7d954988af79eae107759d5d03c605b6dd9723417480fd4b981006490945"
# SHA-256 of the bytes of the K_1 kernel's Chebyshev coefficient table
K1E_COEFS_DIGEST = "0f5774b266d71e8ffd82dbae67507c0b6cd9b4bf6304ef58a48fa5472eb37302"


class TestFnEval:
    def test_invariants(self):
        # a NaN bound would pass the sign check and reach the certificate
        for value, bound in ((math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0),
                             (1.0, math.nan), (1.0, math.inf)):
            with pytest.raises(ValueError):
                FnEval(value, bound)
        with pytest.raises(ValueError):
            FnEval(1.0, -1e-30)
        assert FnEval(1.0, 0.0).abs_error_bound == 0.0

    def test_rigor_flag(self):
        # no route with a proved bound ships, so every value is flagged
        e = struve_k(1, math.pi)
        assert (e.method, e.bound_is_rigorous) == ("integral_rep", False)
        assert [f.name for f in dataclasses.fields(FnEval)] == [
            "value", "abs_error_bound"]


class TestStruveK:
    def test_frozen_values(self):
        assert struve_k(1, math.pi).value == pytest.approx(K1_STRUVE_AT_PI, rel=1e-12)
        assert struve_k(2, math.pi).value == pytest.approx(K2_STRUVE_AT_PI, rel=1e-12)

    @staticmethod
    def _hold_to_mpmath(zs):
        # the production value is held to H - Y at 30 digits, within the
        # integral route's own bound
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            for z in zs:
                z = float(z)
                for nu in (1, 2):
                    e = struve_k(nu, z)
                    want = mp.struveh(nu, z) - mp.bessely(nu, z)
                    err = abs(float(mp.mpf(e.value) - want))
                    assert err <= e.abs_error_bound, (nu, z, err, e.abs_error_bound)

    def test_tri_method_consistency(self):
        # below z = 40 of the 200-point sweep, where a power series once
        # served as the second route, mpmath is now the reference
        zs = np.geomspace(1e-3, 200.0, 200)
        self._hold_to_mpmath(zs[zs < 40.0])

    def test_large_z_matches_mpmath(self):
        # the rest of the sweep, z >= 40
        zs = np.geomspace(1e-3, 200.0, 200)
        self._hold_to_mpmath(zs[zs >= 40.0])

    def test_bound_contract(self):
        for z in np.geomspace(1e-3, 200.0, 50):
            for nu in (1, 2):
                e = struve_k(nu, float(z))
                assert e.abs_error_bound <= 1e-11 * max(1.0, abs(e.value))

    def test_asymptotic_leading_term(self):
        # K_2(z) -> (2/(3 pi)) z at large z
        e = struve_k(2, 192.0)
        assert e.value == pytest.approx(2.0 * 192.0 / (3.0 * math.pi), rel=1e-3)

    def test_method_windows(self):
        with pytest.raises(UnsupportedOrderError):
            struve_k(2.5, 1.0)
        with pytest.raises(UnsupportedOrderError):   # no half orders
            struve_k(0.5, 1.0)
        with pytest.raises(TypeError):   # the route is not the caller's choice
            struve_k(1, 1.0, "series")

    @pytest.mark.parametrize("z", [math.nan, math.inf, 1e308, 1e-160, 0.0, -1.0])
    @pytest.mark.parametrize("nu", [1, 2])
    def test_refuses_arguments_outside_its_range(self, nu, z):
        with pytest.raises(ValueError, match="1e-60 <= z <= 1e100"):
            struve_k(nu, z)

    def test_range_ends_evaluate(self):
        # pytest turns RuntimeWarning into an error, so no step overflows;
        # 401 z per order from end to end, where an unconverged run, such
        # as one stopped at a panel too narrow to halve, would raise
        for nu in (1, 2):
            for z in np.logspace(-60, 100, 401).tolist():
                e = struve_k(nu, z)
                assert math.isfinite(e.value) and math.isfinite(e.abs_error_bound)

    def test_production_arguments_match_mpmath(self):
        # every z a cold (2,3,7) casimir_energy hands to struve_k: the
        # elliptic series at C + D k = pi l/m + pi k, the identity at pi(1+k)
        mp = pytest.importorskip("mpmath")
        from casorb.contributions import _cone_weights
        from casorb.triangle import triangle_signature

        sig = triangle_signature(2, 3, 7)
        zs = [math.pi * ell / m + math.pi * k
              for m, ell, _ in _cone_weights(sig) for k in range(60)]
        zs += [math.pi * (1 + k) for k in range(60)]
        with mp.workdps(30):
            for z in zs:
                x = mp.mpf(z)
                # Y_1 from the Wronskian J_1 Y_0 - J_0 Y_1 = 2/(pi x) and Y_2
                # by recurrence: mpmath's integer-order Y_1, Y_2 cost 3x Y_0
                y0 = mp.bessely(0, x)
                y1 = (mp.besselj(1, x) * y0 - 2 / (mp.pi * x)) / mp.besselj(0, x)
                y2 = 2 * y1 / x - y0
                for nu, y in ((1, y1), (2, y2)):
                    e = struve_k(nu, z)
                    want = mp.struveh(nu, x) - y
                    err = abs(float(mp.mpf(e.value) - want))
                    assert err <= 1e-13 * abs(float(want)), (nu, z, err)
                    assert err <= e.abs_error_bound, (nu, z, err)

    def test_production_arguments_keep_their_bits(self):
        # the 10-digit goldens cannot see a last-bit drift of the kernel: a
        # digest of every value and bound at the production arguments can
        from casorb.contributions import _cone_weights
        from casorb.triangle import triangle_signature

        sig = triangle_signature(2, 3, 7)
        zs = [math.pi * ell / m + math.pi * k
              for m, ell, _ in _cone_weights(sig) for k in range(60)]
        zs += [math.pi * (1 + k) for k in range(60)]
        clear_caches()
        digest = hashlib.sha256()
        for z in zs:
            for nu in (1, 2):
                e = struve_k(nu, z)
                digest.update(f"{e.value.hex()} {e.abs_error_bound.hex()}\n".encode())
        assert len(zs) == 600
        assert digest.hexdigest() == PRODUCTION_DIGEST

    def test_cold_237_quadrature_cost(self, monkeypatch):
        # one Kronrod run per cache miss, each converged on its starting
        # panels with a single call of the integrand, and on average at most
        # 300 integrand evaluations (the u = e^{-zt} map needed ~1087)
        from casorb.contributions import elliptic_contribution, identity_series
        from casorb.triangle import triangle_signature

        real = specfun.adaptive_quadrature
        runs = []
        calls = []

        def counting(f, edges, *args, **kwargs):
            n = len(calls)
            calls.append(0)

            def counted(x):
                calls[n] += 1
                return f(x)

            res = real(counted, edges, *args, **kwargs)
            runs.append((res, len(edges.half)))
            return res

        monkeypatch.setattr(specfun, "adaptive_quadrature", counting)
        clear_caches()
        sig = triangle_signature(2, 3, 7)
        elliptic_contribution(sig)
        identity_series(sig.volume)
        misses = specfun._struve_k_dispatch.cache_info().misses
        assert misses > 0
        assert len(runs) == misses
        assert all(r.converged for r, _ in runs)
        assert sum(r.evaluations for r, _ in runs) <= 300 * misses
        assert calls == [1] * misses
        assert all(r.evaluations == 15 * panels for r, panels in runs)
        assert {panels for _, panels in runs} == {len(specfun._STRUVE_K_GRID.half)} == {11}

    def test_starting_panels_match_single_panel_start(self, monkeypatch):
        # over the mpmath sweep, the integral started from the fixed
        # panels and from [0, 1] agree within the sum of their bounds
        zs = [float(z) for z in np.geomspace(1e-3, 200.0, 200)]
        fixed = {(nu, z): specfun._struve_k_integral(nu, z)
                 for z in zs for nu in (1, 2)}
        monkeypatch.setattr(specfun, "_STRUVE_K_GRID", (0.0, 1.0))
        for (nu, z), e in fixed.items():
            one = specfun._struve_k_integral(nu, z)
            gap = abs(e.value - one.value)
            allow = e.abs_error_bound + one.abs_error_bound
            assert gap <= allow, (nu, z, gap, allow)

    def test_tables_are_read_only_and_take_the_first_pass(self, monkeypatch):
        grid = specfun._STRUVE_K_GRID
        nodes, (s, e, w2, cut) = specfun._STRUVE_K_TABLE
        assert nodes is grid.nodes
        tables = (nodes, s, e, w2)
        assert all(not t.flags.writeable for t in tables + (grid.edges,))
        assert all(t.shape == (15 * len(grid.half),) for t in tables)
        # s increases with the nodes, so s > 745 exactly on the cut, a
        # suffix; the table is the factors the helper computes, cut included
        live = cut.start
        assert cut == slice(live, None) and 0 < live < len(s)
        assert np.all(s[:live] <= 745.0) and np.all(s[live:] > 745.0)
        *factors, copy_cut = specfun._struve_k_factors(nodes.copy())
        assert all(np.array_equal(a, b) for a, b in zip(factors, (s, e, w2)))
        assert copy_cut == cut
        with pytest.raises(ValueError):
            e[0] = 0.0
        # a production argument: one call of the integrand, on the table
        # nodes; at every node the tables give the generic branch's values
        # (a copy of the nodes is not the table array)
        real = specfun.adaptive_quadrature
        seen, integrands = [], []

        def recording(f, edges, *args, **kwargs):
            integrands.append(f)
            return real(lambda v: seen.append(v) or f(v), edges, *args, **kwargs)

        monkeypatch.setattr(specfun, "adaptive_quadrature", recording)
        specfun._struve_k_integral(2, math.pi)
        assert len(seen) == 1 and seen[0] is nodes
        for z in (1e-3, 0.3, 40.0, 1e4):
            for nu in (1, 2):
                specfun._struve_k_integral(nu, z)
        for f in integrands:
            assert np.array_equal(f(nodes), f(nodes.copy()))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(nu=st.sampled_from((1, 2)),
           log_z=st.floats(math.log(1e-3), math.log(1e4)))
    def test_table_path_is_bit_identical(self, nu, log_z):
        # the production integral against the same run on a local copy of
        # the generic integrand, which computes s, e^{-s}, (1-v)^2 and the
        # underflow mask at every call; small z bisects, so both paths run
        z = math.exp(log_z)
        c = 2.0 * z / math.pi if nu == 1 else 2.0 * z * z / (3.0 * math.pi)
        power = nu - 0.5
        inv_z = 1.0 / z

        def generic(v):
            w = 1.0 - v
            s = v / w
            x = s * inv_z
            y = inv_z * np.exp(-s) * (1.0 + x * x) ** power / (w * w)
            return np.where(s > 745.0, 0.0, y)

        res = specfun.adaptive_quadrature(generic, specfun._STRUVE_K_GRID.edges,
                                          tol_abs=0.0, tol_rel=1e-13,
                                          max_intervals=1200)
        e = specfun._struve_k_integral(nu, z)
        value = c * res.value
        assert e.value == value
        assert e.abs_error_bound == c * res.est_error + 8 * math.ulp(1.0) * abs(value)

    def test_moved_edges_take_the_generic_path(self, monkeypatch):
        # with another starting grid no call sees the table nodes, and the
        # values still match mpmath (H - Y at 30 digits)
        mp = pytest.importorskip("mpmath")
        real = specfun.adaptive_quadrature
        nodes = specfun._STRUVE_K_TABLE[0]
        calls = []

        def recording(f, edges, *args, **kwargs):
            return real(lambda v: calls.append(v is nodes) or f(v),
                        edges, *args, **kwargs)

        monkeypatch.setattr(specfun, "adaptive_quadrature", recording)
        monkeypatch.setattr(specfun, "_STRUVE_K_GRID", specfun.kronrod_grid(
            (0.0, 1 / 2, 3 / 4, 7 / 8, 15 / 16, 1.0)))
        with mp.workdps(30):
            for z in (0.05, 1.0, math.pi, 20.0, 300.0):
                for nu in (1, 2):
                    e = specfun._struve_k_integral(nu, z)
                    want = mp.struveh(nu, z) - mp.bessely(nu, z)
                    err = abs(float(mp.mpf(e.value) - want))
                    assert err <= 1e-12 * abs(float(want)), (nu, z, err)
        assert calls and not any(calls)

    def test_small_angle_blowup(self):
        # pi K_1(theta)/(4 theta) grows like C/theta^2, bounded constant
        for theta in np.geomspace(1e-4, 1e-1, 20):
            ratio = (math.pi * struve_k(1, float(theta)).value
                     / (4.0 * theta)) * 8.0 * theta * theta
            assert 3.5 <= ratio <= 4.5


class TestBesselK:
    def test_relative_accuracy_sweep(self):
        # K_1 enters only through csch_k1; recover it and check against mpmath
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            for z in np.geomspace(1e-3, 100.0, 50):
                got = csch_k1(float(z)) * math.sinh(float(z))
                want = float(mp.besselk(1, float(z)))
                assert got == pytest.approx(want, rel=1e-12)


class TestCschK1:
    def test_matches_components(self):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            for z in np.geomspace(1e-3, 100.0, 50):
                want = float(mp.besselk(1, float(z)) / mp.sinh(float(z)))
                assert csch_k1(float(z)) == pytest.approx(want, rel=1e-12)

    def test_strictly_decreasing(self):
        z = np.linspace(1e-3, 50.0, 10000)
        vals = csch_k1_array(z)
        assert np.all(np.diff(vals) < 0)

    def test_k32_majorant(self):
        # csch(z) K_1(z) <= csch(z) K_{3/2}(z) = sqrt(2 pi/z)(1+z)/(z e^{2z} - z)
        for z in np.geomspace(0.05, 40.0, 60):
            z = float(z)
            major = (math.sqrt(2.0 * math.pi / z) * (1.0 + z)
                     / (z * math.exp(2.0 * z) - z))
            assert csch_k1(z) <= major

    def test_array_matches_scalar(self):
        z = np.array([0.25, 1.0, 2.0, 7.5])
        vals = csch_k1_array(z)
        for zi, vi in zip(z, vals):
            assert vi == pytest.approx(csch_k1(float(zi)), rel=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            csch_k1(0.0)
        with pytest.raises(ValueError):
            csch_k1_array(np.array([1.0, -1.0]))

    def test_refuses_nan(self):
        with pytest.raises(ValueError):
            csch_k1(math.nan)
        with pytest.raises(ValueError):
            csch_k1_array(np.array([1.0, np.nan]))


class TestMoments:
    def test_gamma_half(self):
        assert upper_incomplete_gamma_half(0.0) == pytest.approx(
            math.sqrt(math.pi), rel=1e-15)
        assert upper_incomplete_gamma_half(1.0) == pytest.approx(
            GAMMA_HALF_1, rel=1e-13)

    def test_gamma_half_quadrature_oracle(self):
        from casorb.quadrature import adaptive_quadrature

        for a in (0.3, 1.0, math.log(50.0)):
            res = adaptive_quadrature(
                lambda t: np.exp(-t) / np.sqrt(t), (a, a + 60.0))
            assert upper_incomplete_gamma_half(a) == pytest.approx(
                res.value, rel=1e-11)



def test_clear_caches_empties_every_cache():
    from casorb import contributions, triangle

    contributions.elliptic_contribution(triangle.triangle_signature(2, 3, 7), 20)
    triangle.table_corpus()
    caches = (specfun._struve_k_dispatch, contributions._euler_weights,
              triangle.table_corpus, triangle.generators_237)
    assert all(c.cache_info().currsize > 0 for c in caches)
    clear_caches()
    for cache in caches:
        assert cache.cache_info().currsize == 0, cache.__name__


def _seam_points():
    # every window seam 2^k of the K_1 kernel below underflow, with the
    # neighbouring floats on each side
    pts = []
    for k in range(-2, 9):
        c = 2.0 ** k
        pts += [math.nextafter(math.nextafter(c, 0.0), 0.0), math.nextafter(c, 0.0),
                c, math.nextafter(c, math.inf)]
    return pts


class TestK1Kernel:
    @staticmethod
    def _rel_errors(zs):
        mp = pytest.importorskip("mpmath")
        got = csch_k1_array(np.array(zs))
        out = []
        with mp.workdps(30):
            for z, g in zip(zs, got):
                want = mp.besselk(1, mp.mpf(z)) / mp.sinh(mp.mpf(z))
                out.append(float(abs((mp.mpf(float(g)) - want) / want)))
        return np.array(out)

    def test_tail_window_and_seams_match_mpmath(self):
        zs = list(np.linspace(2.5, 9.5, 200)) + _seam_points()
        errs = self._rel_errors(zs)
        assert errs.max() <= 2e-15
        assert np.all(errs <= specfun.CSCH_K1_REL_ERROR)

    def test_declared_bound_dominates_everywhere(self):
        # series route, every window, and the head's winding arguments
        zs = list(np.geomspace(1e-3, 0.25, 20, endpoint=False))
        zs += list(np.geomspace(0.25, 350.0, 80))
        errs = self._rel_errors(zs)
        assert np.all(errs <= specfun.CSCH_K1_REL_ERROR)
        assert specfun.CSCH_K1_REL_ERROR < 1e-14

    def test_scalar_is_array_element(self):
        rng = np.random.default_rng(8)
        zs = np.concatenate([np.exp(rng.uniform(math.log(1e-3), math.log(800.0), 3000)),
                             _seam_points()])
        rng.shuffle(zs)
        unsorted = csch_k1_array(zs)
        ordered = csch_k1_array(np.sort(zs))
        for z, v in zip(zs, unsorted):
            assert csch_k1(float(z)) == csch_k1_array([z])[0] == v
        assert np.array_equal(np.sort(unsorted)[::-1], ordered)

    def test_shuffled_input_keeps_bits(self):
        # sorted input runs Clenshaw per window, shuffled input gathers each
        # element's coefficients: the same operations, so the same bits
        rng = np.random.default_rng(24)
        zs = [0.25 * 2.0 ** k * (1 + rng.random(5)) for k in range(11)]
        zs += [2.0 ** np.arange(-2, 10), rng.uniform(1e-3, 0.25, 8),
               rng.uniform(512.0, 800.0, 4)]
        ordered = np.sort(np.concatenate(zs))
        assert ordered[0] < 0.25 and ordered[-1] > 2.0 ** 9
        assert len(np.unique(np.frexp(ordered[ordered >= 0.25])[1])) == 12
        perm = rng.permutation(ordered.size)
        assert np.any(np.diff(ordered[perm]) < 0)
        want = csch_k1_array(ordered)[perm]
        assert csch_k1_array(ordered[perm]).tobytes() == want.tobytes()

    def test_zero_past_underflow(self):
        zs = np.linspace(380.0, 800.0, 200)
        vals = csch_k1_array(zs)
        assert not np.isnan(vals).any()
        assert np.all(vals == 0.0)
        for z in (380.0, 512.0, 800.0, 1e6):
            assert csch_k1(z) == 0.0

    def test_tables_keep_their_bits(self):
        # every coefficient and the proved bound, not only the head and b1
        # bits they feed
        assert hashlib.sha256(specfun._K1E_COEFS.tobytes()).hexdigest() == K1E_COEFS_DIGEST
        assert specfun.CSCH_K1_REL_ERROR.hex() == "0x1.0b79335361621p-49"
        # unsorted input reads the transposed copy, so it holds the same
        # bits, and neither table takes a write
        columns = specfun._K1E_COLUMNS
        assert np.array_equal(np.stack(columns), specfun._K1E_COEFS.T)
        for table in (specfun._K1E_COEFS, columns[0]):
            with pytest.raises(ValueError, match="read-only"):
                table[0] += 1e-3

    def test_series_constants_are_their_exact_sums(self):
        # (psi(k+1) + psi(k+2)) / 2 from harmonic numbers and Euler's
        # constant to 36 digits, rounded once, as the committed hex holds it
        want = tuple(
            float(sum(Fraction(1, i) for i in range(1, k + 1)) + Fraction(1, 2 * k + 2)
                  - Fraction("0.577215664901532860606512090082402431"))
            for k in range(specfun._K1_SERIES_TERMS))
        assert [h.hex() for h in specfun._K1_SERIES_H] == [h.hex() for h in want]

    def test_rel_error_is_proved(self):
        # CSCH_K1_REL_ERROR from the committed coefficients.  On the window
        # [a, 2a), in t = 2z/a - 3 (exact in the kernel), the evaluated
        # series differs from f = e^z K_1 by at most the sum of
        #   - interpolation: f minus its exact interpolant p at the n + 1
        #     Chebyshev points is at most 4 M rho^-n / (rho - 1) (Trefethen,
        #     Approximation Theory and Approximation Practice, Thm 8.2) on
        #     the Bernstein ellipse rho = 4.  The branch point z = 0 sits at
        #     t = -3, outside it; on it Re z >= x_min > 0, and |f(z)| <=
        #     e^x K_1(x) <= sqrt(pi/(2x)) (1 + 1/x) at x = Re z (DLMF
        #     10.32.9, and K_1 <= K_{3/2});
        #   - the committed coefficients: sum_{k<21} |c_k - p_k|;
        #   - truncation: the dropped sum_{k>=21} |p_k|;
        #   - Clenshaw's recurrence in binary64.  A rounding at step k acts
        #     as a change of c_k, so it enters the result times T_k(t),
        #     |T_k| <= 1.  Step k rounds t2 b_{k+1}, its difference with
        #     b_{k+2} and the sum with c_k, and |b_k| <= B_k = sum_{j>=k}
        #     |c_j| (j - k + 1), since b_k = sum_j c_j U_{j-k}(t);
        #   - mpmath's own error: every sample within eps relative (20
        #     digits against 40 measured 2.1e-21 at most), which moves
        #     each p_k by at most 2 eps f(a) and f(2a) by eps f(2a).  It
        #     also covers the 20-digit arithmetic and this test's float
        #     roundings, both far smaller.
        # Dividing by f(2a) = min f on the window (e^x K_1(x) decreases),
        # and adding the last two roundings, fl(c_0 + t b_1) and the final
        # subtraction, which are relative to the result, bounds the window.
        mp = pytest.importorskip("mpmath")
        u = 2.0 ** -53
        n, rho, eps = 32, 4.0, 1e-19
        coefs = specfun._K1E_COEFS
        windows = range(specfun._K1E_LO_EXP, specfun._K1E_HI_EXP)
        assert coefs.shape == (len(windows), specfun._CHEB_TERMS)
        cheb = 0.0
        with mp.workdps(20):
            cos = [mp.cospi(mp.mpf(m) / n) for m in range(2 * n)]
            for c, k in zip(coefs, windows):
                # e^z K_1(z) = 2z sqrt(pi) U(3/2, 3, 2z) (DLMF 10.39.6):
                # mpmath's U takes about half the time of mp.besselk here
                zs = [mp.ldexp(3 + cos[j], k - 1) for j in range(n + 1)]
                f = [2 * z * mp.sqrt(mp.pi) * mp.hyperu(1.5, 3, 2 * z) for z in zs]
                w = [f[0] / 2] + f[1:-1] + [f[-1] / 2]
                p = [mp.fsum(w[j] * cos[j * m % (2 * n)] for j in range(n + 1)) * 2 / n
                     for m in range(n + 1)]
                p[0] /= 2
                p[-1] /= 2
                f_max, f_min = float(f[-1]), float(f[0])    # f(a), f(2a)
                x_min = 2.0 ** k * (3 - (rho + 1 / rho) / 2) / 2
                m_ellipse = math.sqrt(math.pi / (2 * x_min)) * (1 + 1 / x_min)
                interp = 4 * m_ellipse * rho ** -n / (rho - 1)
                coef = float(mp.fsum(abs(ci - pi) for ci, pi in zip(c.tolist(), p)))
                dropped = float(mp.fsum(abs(pi) for pi in p[len(c):]))
                # B_k, padded with B_21 = B_22 = 0
                bk = np.pad(np.cumsum(np.cumsum(np.abs(c)[::-1]))[::-1], (0, 2))
                steps = np.sum(bk[1:-2] + 4 * bk[2:-1] + bk[3:])
                clenshaw = 1.01 * u * (steps + bk[1] + bk[2])
                absolute = interp + coef + dropped + clenshaw + 2 * (n + 1) * eps * f_max
                cheb = max(cheb, absolute / (f_min * (1 - eps)) + 2.01 * u)
            # the series' constants (psi(k+1) + psi(k+2)) / 2, correctly rounded
            assert specfun._K1_SERIES_H == tuple(
                float((mp.digamma(k + 1) + mp.digamma(k + 2)) / 2)
                for k in range(specfun._K1_SERIES_TERMS))
        # Series route, z < 1/4: K_1 = 1/z + (z/2) s, s = sum_k r_k (log(z/2)
        # - h_k), r_k = (z^2/4)^k / (k! (k+1)!), all terms of one sign.  There
        # z K_1(z) >= 0.936 (it decreases from 1) and (z^2/2)|s| <= 0.07.
        # With s within 25 u of itself (log included), (z/2) s within 26 u,
        # and one rounding each for 1/z and the sum, K_1 is within 3.82 u / z,
        # under 4.1 u relative; the first dropped term is below 1e-21
        # relative.  exp(z) adds 1 ulp and the product u.
        series = 4.1 * u + 2 * u + u
        # csch_k1_array: 1 ulp each for exp(-2z) and expm1(-2z), and one
        # rounding each for the product and the quotient
        derived = max(cheb, series) + 2 * 2 * u + 2 * u
        assert specfun.CSCH_K1_REL_ERROR >= derived, derived

    def test_import_memory(self):
        # `import casorb` in a fresh interpreter that has numpy peaks at
        # 1.93 MB.  Compiling casorb's source is traced too, so the figure
        # is for an import without cached bytecode.
        import os
        import pathlib
        import subprocess
        import sys

        src = pathlib.Path(specfun.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH", "")) if p))
        probe = ("import numpy, tracemalloc\n"
                 "tracemalloc.start()\n"
                 "import casorb\n"
                 "print(tracemalloc.get_traced_memory()[1])")
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout.split()[-1]) < 2_500_000
