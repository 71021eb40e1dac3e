"""Kernel contracts: frozen oracle values, dual-path consistency, bounds."""

import hashlib
import math

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
H1_AT_1 = 0.1984573362019444
H2_AT_2 = 0.28031806035385379
Y1_AT_1 = -0.78121282130028872
Y2_AT_5 = 0.36766288260552452
K1_STRUVE_AT_PI = 0.69085480644049455
K2_STRUVE_AT_PI = 0.91701938411356474
GAMMA_HALF_1 = 0.27880558528066198   # sqrt(pi) erfc(1)
# SHA-256 of float.hex(value) and float.hex(abs_error_bound) of struve_k of
# both orders at each of the 600 arguments z of a cold (2,3,7) run
PRODUCTION_DIGEST = "6dbd7d954988af79eae107759d5d03c605b6dd9723417480fd4b981006490945"


def h_series(nu, z):
    """H_nu(z) from the 80-bit power series of the z <= 12 check route."""
    return FnEval(*specfun._struve_h_series_ld(nu, z), "series")


def y_series(nu, z):
    """Y_nu(z) from the 80-bit power series of the z <= 12 check route."""
    return FnEval(*specfun._bessel_y_series_ld(nu, z), "series")


class TestFnEval:
    def test_invariants(self):
        # a NaN bound would pass the sign check and reach the certificate
        for value, bound in ((math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0),
                             (1.0, math.nan), (1.0, math.inf)):
            with pytest.raises(ValueError):
                FnEval(value, bound, "series")
        with pytest.raises(ValueError):
            FnEval(1.0, -1e-30, "series")
        with pytest.raises(ValueError):
            FnEval(1.0, 0.0, "magic")
        with pytest.raises(ValueError):
            FnEval(1.0, 1e-10, "closed_form")   # a route no kernel has

    def test_rigor_flag(self):
        assert FnEval(1.0, 1e-13, "series").bound_is_rigorous
        assert not FnEval(1.0, 1e-13, "integral_rep").bound_is_rigorous


class TestStruveH:
    def test_frozen_values(self):
        assert h_series(1, 1.0).value == pytest.approx(H1_AT_1, abs=1e-14)
        assert h_series(2, 2.0).value == pytest.approx(H2_AT_2, abs=1e-14)

    def test_small_z_quadratic_growth(self):
        # H_1(theta) = (2/(3 pi)) theta^2 (1 + o(1)) as theta -> 0
        for theta in (1e-2, 1e-3, 1e-4):
            lead = 2.0 * theta * theta / (3.0 * math.pi)
            assert h_series(1, theta).value == pytest.approx(lead, rel=1e-3)

    def test_bound_contract_z_le_12(self):
        for z in np.geomspace(1e-3, 12.0, 40):
            for nu in (1, 2):
                e = h_series(nu, float(z))
                assert e.abs_error_bound <= 1e-12 * max(1.0, abs(e.value))

    def test_cross_method_at_large_z(self):
        # composition H = K + Y must match the series at the window edge
        h = h_series(2, 12.0)
        k = struve_k(2, 12.0)
        y = y_series(2, 12.0)
        assert abs(h.value - (k.value + y.value)) < 1e-8


class TestBesselY:
    def test_frozen_values(self):
        assert y_series(1, 1.0).value == pytest.approx(Y1_AT_1, abs=1e-14)
        assert y_series(2, 5.0).value == pytest.approx(Y2_AT_5, abs=1e-13)

    def test_small_z_divergence(self):
        # Y_1(theta) ~ -2/(pi theta): negative blow-up like -c/theta
        for theta in (1e-2, 1e-3):
            v = y_series(1, theta).value
            assert v == pytest.approx(-2.0 / (math.pi * theta), rel=1e-3)

    def test_mpmath_sweep(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        for z in np.geomspace(1e-2, 12.0, 40):
            for nu in (1, 2):
                e = y_series(nu, float(z))
                want = float(mp.bessely(nu, float(z)))
                assert abs(e.value - want) <= max(e.abs_error_bound, 1e-15), (nu, z)


class TestStruveK:
    def test_frozen_values(self):
        assert struve_k(1, math.pi).value == pytest.approx(K1_STRUVE_AT_PI, rel=1e-12)
        assert struve_k(2, math.pi).value == pytest.approx(K2_STRUVE_AT_PI, rel=1e-12)

    def test_tri_method_consistency(self):
        # the production value and the private series route agree within
        # the sum of their bounds across the series window; needs no mpmath
        zs = np.geomspace(1e-3, 200.0, 200)
        for z in zs[zs <= 12.0]:
            z = float(z)
            for nu in (1.0, 2.0):
                e = struve_k(nu, z)
                s = specfun._struve_k_series(int(nu), z)
                gap = abs(e.value - s.value)
                allow = e.abs_error_bound + s.abs_error_bound
                assert gap <= allow, (nu, z, gap, allow)

    def test_large_z_matches_mpmath(self):
        # past the series window the production value is held to H - Y at
        # 30 digits, within the integral route's own bound
        mp = pytest.importorskip("mpmath")
        zs = np.geomspace(1e-3, 200.0, 200)
        with mp.workdps(30):
            for z in zs[zs >= 40.0]:
                z = float(z)
                for nu in (1.0, 2.0):
                    e = struve_k(nu, z)
                    want = mp.struveh(int(nu), z) - mp.bessely(int(nu), z)
                    err = abs(float(mp.mpf(e.value) - want))
                    assert err <= e.abs_error_bound, (nu, z, err, e.abs_error_bound)

    def test_bound_contract(self):
        for z in np.geomspace(1e-3, 200.0, 50):
            for nu in (1, 2):
                e = struve_k(nu, float(z))
                assert e.abs_error_bound <= 1e-11 * max(1.0, abs(e.value))

    def test_asymptotic_leading_term(self):
        # K_2(z) -> (2/(3 pi)) z at large z
        e = struve_k(2, 192.0)
        assert e.value == pytest.approx(2.0 * 192.0 / (3.0 * math.pi), rel=1e-3)

    @pytest.mark.parametrize("nu, z, error, message", [
        (3, 1.0, UnsupportedOrderError, "orders 1 and 2, got 3"),
        (1, 0.0, ValueError, "0 < z <= 12, got 0.0"),
        (2, 12.0 + 1e-9, ValueError, "0 < z <= 12, got 12.000000001"),
    ])
    def test_series_route_refuses_outside_its_window(self, nu, z, error, message):
        # one check of the order and the window for both power series
        with pytest.raises(error, match=message):
            specfun._struve_k_series(nu, z)

    def test_method_windows(self):
        with pytest.raises(ValueError):
            specfun._struve_k_series(1, 13.0)
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
        # pytest turns RuntimeWarning into an error, so no step overflows
        for nu in (1, 2):
            for z in (1e-60, 1e100):
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
        # over the tri-method sweep, the integral started from the fixed
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
        *factors, mask = specfun._struve_k_factors(nodes.copy())
        assert all(np.array_equal(a, b) for a, b in zip(factors, (s, e, w2)))
        assert np.array_equal(np.flatnonzero(mask), np.arange(len(s))[cut])
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
        mp.mp.dps = 30
        for z in np.geomspace(1e-3, 100.0, 50):
            got = csch_k1(float(z)) * math.sinh(float(z))
            want = float(mp.besselk(1, float(z)))
            assert got == pytest.approx(want, rel=1e-12)


class TestCschK1:
    def test_matches_components(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
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
        mp.mp.dps = 30
        got = csch_k1_array(np.array(zs))
        out = []
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
