"""Quadrature core: rule validity, oracle integrals, domain maps."""

import hashlib
import math
import pathlib
import sys

import numpy as np
import pytest

from casorb.quadrature import (
    _NODES,
    _RULE,
    _WK,
    KronrodGrid,
    QuadResult,
    _kronrod_panels,
    adaptive_quadrature,
    elliptic_kernel_integral,
    integrate_decaying,
    kronrod_grid,
)

# 64 / (15 pi)
SQUARE_BRACKET = 1.3581221810508402
# mpmath: quad(e^{-pi y/7}/(e^{-pi y}+1) (1+y^2)^{1/2}, [0, inf])
ELLIPTIC_PI7_PI = 5.5892429550905866
# mpmath (30 digits): the same integral at C = 0.03, with D = pi
ELLIPTIC_003_PI = 1112.940428883811


def sech2(x):
    e = np.exp(-np.abs(x))
    s = 2.0 * e / (1.0 + e * e)
    return s * s


def panels(f, edges):
    """Kronrod value and error estimate of each panel of the grid of ``edges``."""
    grid = edges if isinstance(edges, KronrodGrid) else kronrod_grid(edges)
    return _kronrod_panels(f, grid.nodes, grid.half)


def test_kronrod_rule_polynomial_exactness():
    # the 15-point Kronrod rule must integrate monomials through degree 22
    for k in range(0, 23):
        value, _ = panels(lambda x, k=k: x**k, (-1.0, 1.0))
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert value[0] == pytest.approx(exact, abs=5e-15), f"degree {k}"


def test_kronrod_error_estimate_vanishes_on_gauss_exact_degrees():
    # G7 and K15 agree on polynomials of degree <= 13, so err ~ rounding
    for k in (0, 3, 8, 13):
        _, err = panels(lambda x, k=k: x**k, (-1.0, 1.0))
        assert err[0] < 1e-12


def test_adaptive_simple_integrals():
    res = adaptive_quadrature(np.exp, (0.0, 1.0))
    assert res.value == pytest.approx(math.e - 1.0, rel=1e-13)
    assert res.converged and res.evaluations >= 15

    res = adaptive_quadrature(lambda x: np.sqrt(np.abs(x)), (0.0, 1.0))
    assert res.value == pytest.approx(2.0 / 3.0, rel=1e-11)


def test_integrate_decaying_halfline():
    res = integrate_decaying(lambda x: np.exp(-x), "halfline")
    assert res.value == pytest.approx(1.0, rel=1e-12)

    res = integrate_decaying(sech2, "halfline")
    assert res.value == pytest.approx(1.0, rel=1e-12)

    # x^2 sech^2 x on [0, inf) = pi^2/12; matches the closed-form moment
    res = integrate_decaying(lambda x: x * x * sech2(x), "halfline")
    assert res.value == pytest.approx(math.pi**2 / 12.0, rel=1e-11)


def test_integrate_decaying_matches_sech2_moment():
    # int_0^inf x^{b-1} sech^2 x dx in closed form for b = 1, 3, 5
    for b, moment in ((1.0, 1.0), (3.0, math.pi**2 / 12.0),
                      (5.0, 7.0 * math.pi**4 / 240.0)):
        res = integrate_decaying(lambda x, b=b: x ** (b - 1.0) * sech2(x),
                                 "halfline")
        assert res.value == pytest.approx(moment, abs=1e-10)


def test_substitution_invariance():
    # mapped half-line route vs direct panels on [0, 60] (tail < 1e-40)
    mapped = integrate_decaying(sech2, "halfline")
    direct = adaptive_quadrature(sech2, (0.0, 60.0))
    assert abs(mapped.value - direct.value) <= 2 * (mapped.est_error + direct.est_error) + 1e-14


def test_elliptic_kernel_integral_elementary_cases():
    # s = -1, D = 0: integrand e^{-Cy}(1+y^2)/2, value (1/C + 2/C^3)/2
    for C in (1.0, 2.5):
        res = elliptic_kernel_integral(C, 0.0, -1.0)
        assert res.value == pytest.approx(0.5 * (1.0 / C + 2.0 / C**3), rel=1e-11)
        assert res.converged
    # s = 0 collapses the bracket entirely: value 1/(2C)
    res = elliptic_kernel_integral(2.0, 0.0, 0.0)
    assert res.value == pytest.approx(0.25, rel=1e-11)


def test_elliptic_kernel_integral_frozen_value():
    res = elliptic_kernel_integral(math.pi / 7, math.pi, -0.5)
    assert res.value == pytest.approx(ELLIPTIC_PI7_PI, rel=1e-11)
    assert res.est_error <= 1e-11 * max(1.0, abs(res.value))


def test_elliptic_kernel_integral_small_angle_frozen_value():
    # in t = e^{-y} coordinates bisection towards t = 0 overflowed here and
    # reported value = est_error = inf as converged
    res = elliptic_kernel_integral(0.03, math.pi, -0.5)
    assert res.converged
    assert res.value == pytest.approx(ELLIPTIC_003_PI, rel=1e-11)
    assert res.est_error <= 1e-11 * res.value


def test_elliptic_kernel_integral_dominates_small_angle_bound():
    from casorb.specfun import struve_k

    for theta in (0.3, 0.1, 0.03):
        res = elliptic_kernel_integral(theta, math.pi, -0.5)
        lower = math.pi * struve_k(1, theta).value / (4.0 * theta)
        assert res.value >= lower


def test_identity_integral_bracket_moments():
    def upper(r):
        return (1.0 + 4.0 * r * r) ** 2 * sech2(np.pi * r)

    res = integrate_decaying(upper, "realline")
    assert res.value == pytest.approx(SQUARE_BRACKET, abs=1e-9)

    def lower(r):
        return (1.0 + 4.0 * r * r) * sech2(np.pi * r)

    res = integrate_decaying(lower, "halfline")
    assert 2.0 * res.value == pytest.approx(8.0 / (3.0 * math.pi), abs=1e-10)


def test_domain_and_argument_errors():
    with pytest.raises(ValueError):
        elliptic_kernel_integral(-1.0)
    with pytest.raises(ValueError):
        elliptic_kernel_integral(1.0, -1.0)
    with pytest.raises(ValueError):
        elliptic_kernel_integral(1.0, 0.0, 1.5)
    with pytest.raises(ValueError):
        integrate_decaying(np.exp, "circle")
    with pytest.raises(ValueError):
        QuadResult(1.0, -1.0, 10)
    with pytest.raises(ValueError):
        QuadResult(1.0, 0.0, 0)
    # plain edges are validated by kronrod_grid, where they enter; a 2-d
    # array of good edges is refused too
    from casorb.specfun import _STRUVE_K_GRID

    good = _STRUVE_K_GRID.edges
    for edges in ((1.0,), (0.0, 0.0), (1.0, 0.0), (0.0, 0.5, 0.5, 1.0),
                  (0.0, math.inf), (math.nan, 1.0), ((0.0, 1.0),),
                  good.reshape(3, 4), good[None, :]):
        with pytest.raises(ValueError):
            adaptive_quadrature(np.exp, edges)
        with pytest.raises(ValueError):
            kronrod_grid(edges)


def test_edges_are_validated_once(monkeypatch):
    # a bisecting run from plain edges builds one grid, and a run from a
    # grid builds none: split panels are increasing by construction
    from casorb import quadrature

    real = quadrature.kronrod_grid
    built = []

    def counting(edges):
        built.append(edges)
        return real(edges)

    def f(x):
        return np.abs(x - 1 / math.pi) ** -0.5

    monkeypatch.setattr(quadrature, "kronrod_grid", counting)
    res = adaptive_quadrature(f, (0.0, 0.5, 1.0), max_intervals=50)
    assert res.evaluations > 45 and len(built) == 1
    edges = [0.0, 0.5, 1.0]
    grid = real(edges)
    built.clear()
    assert adaptive_quadrature(f, grid, max_intervals=50) == res
    assert built == []
    # the grid keeps a read-only copy of its edges, and read-only nodes
    edges[1] = 0.75
    assert grid.edges.tolist() == [0.0, 0.5, 1.0]
    assert not grid.edges.flags.writeable and not grid.nodes.flags.writeable
    assert grid.half == (0.25, 0.25)


def test_quad_result_refuses_non_finite():
    for value, err in ((math.inf, 0.0), (-math.inf, 0.0), (math.nan, 0.0),
                       (1.0, math.inf), (1.0, math.nan)):
        with pytest.raises(ValueError):
            QuadResult(value, err, 15)


def test_integrand_called_once_per_pass():
    # one call for all starting panels, then one per bisection (both halves)
    for f, edges in ((np.exp, (0.0, 1.0)),
                     (lambda x: np.sqrt(np.abs(x)), (0.0, 0.25, 0.5, 1.0)),
                     (lambda x: np.abs(x - 1 / math.pi) ** -0.5, (0.0, 0.5, 1.0))):
        sizes = []

        def counted(x):
            assert isinstance(x, np.ndarray)
            assert x.ndim == 1 and x.dtype == np.float64
            sizes.append(x.size)
            return f(x)

        res = adaptive_quadrature(counted, edges, max_intervals=50)
        panels = len(edges) - 1
        assert sizes[0] == 15 * panels
        assert all(n == 30 for n in sizes[1:])
        assert res.evaluations == sum(sizes) == 15 * panels + 30 * (len(sizes) - 1)
    assert len(sizes) > 1 and not res.converged


def test_first_pass_return_is_the_exact_sum_of_the_panels(monkeypatch):
    # a run whose starting panels meet the tolerance returns the correctly
    # rounded sums of their values and estimates, from one pass
    from casorb import specfun

    runs = []

    def recording(f, edges, **kwargs):
        runs.append((f, edges, kwargs))
        return adaptive_quadrature(f, edges, **kwargs)

    monkeypatch.setattr(specfun, "adaptive_quadrature", recording)
    specfun._struve_k_integral(1, math.pi)
    for f, edges, kwargs in [(np.exp, (0.0, 1.0), {})] + runs:
        res = adaptive_quadrature(f, edges, **kwargs)
        values, errs = panels(f, edges)
        assert res.converged
        assert res.value == math.fsum(values)
        assert res.est_error == math.fsum(errs)
        assert res.evaluations == 15 * len(values)


def test_error_shaping_matches_masked_form():
    # the shaping on Python floats gives the bits of QUADPACK's masked numpy
    # form: where f vanishes on a panel (no shaping), where the ratio
    # 200 err/resasc reaches 1 (the min caps it), on the two panels of a
    # bisection; an f that is NaN or inf somewhere is refused outright
    def masked(f, edges):
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        fv = f((mid[:, None] + half[:, None] * _NODES).ravel()).reshape(len(half), 15)
        resk, kmg = (fv @ _RULE).T
        resabs = np.abs(fv) @ _WK
        resasc = np.abs(fv - 0.5 * resk[:, None]) @ _WK * half
        err = np.abs(kmg * half)
        shaped = (resasc != 0.0) & (err != 0.0)
        ratio = np.divide(200.0 * err, resasc, out=np.zeros_like(err), where=shaped)
        err = np.where(shaped, resasc * np.minimum(1.0, ratio ** 1.5), err)
        return resk * half, np.maximum(err, 50.0 * math.ulp(1.0) * resabs * half), ratio

    def kink(x):
        return np.sqrt(np.abs(x - 0.3))

    def sine(x):
        return np.sin(40.0 * x)

    def nan_past(x):
        return np.where(x < 0.6, x, np.nan)

    def inf_past(x):
        return np.where(x < 0.6, x, np.inf)

    quarters = np.array((0.0, 0.25, 0.5, 0.75, 1.0))
    cases = [(f, quarters) for f in (
        np.exp, kink, lambda x: np.where(x < 0.5, 0.0, x * x),
        lambda x: np.ones_like(x))]
    cases += [(kink, np.array((0.25, 0.375, 0.5))), (sine, np.array((0.0, 1.0)))]
    for f, edges in cases:
        got = panels(f, edges)
        for got_part, want_part in zip(got, masked(f, edges)):
            assert np.array_equal(got_part, want_part)
    assert masked(sine, np.array((0.0, 1.0)))[2][0] >= 1.0
    # a non-finite value ends in a refusal, not in an estimate nor a warning
    for f in (nan_past, inf_past):
        with pytest.raises(ValueError, match="non-finite integrand value"):
            panels(f, quarters)
        with pytest.raises(ValueError, match="non-finite integrand value"):
            adaptive_quadrature(f, quarters, max_intervals=20)


def test_non_convergence_flag():
    res = adaptive_quadrature(lambda x: np.abs(x - 1 / math.pi) ** -0.5,
                              (0.0, 1.0), max_intervals=3)
    assert not res.converged


def test_oracle_independence_of_module_source():
    # the quadrature module must not import the series routes it checks
    src = pathlib.Path(__file__).resolve().parents[1].joinpath(
        "src", "casorb", "quadrature.py").read_text()
    imports = [line for line in src.splitlines()
               if line.startswith(("import ", "from "))]
    for needle in ("specfun", "struve", "sech2_moment", "contributions"):
        assert not any(needle in line for line in imports), needle
    # and nothing outside the standard library but numpy
    for line in imports:
        top = line.split()[1].split(".")[0]
        assert top == "numpy" or top in sys.stdlib_module_names, line


def _split_digest(monkeypatch, f, edges, tol, max_intervals):
    """The run of ``f``, and a digest of the (a, b) of every panel it split,
    in split order."""
    from casorb import quadrature

    real = quadrature._panel_nodes
    splits = []

    def recording(edges):
        if len(edges) == 3:                 # (a, mid, b) of a split
            splits.append((float(edges[0]), float(edges[2])))
        return real(edges)

    monkeypatch.setattr(quadrature, "_panel_nodes", recording)
    res = adaptive_quadrature(f, edges, tol, tol, max_intervals)
    digest = hashlib.sha256(repr(splits).encode()).hexdigest()[:16]
    return res, len(splits), digest


def test_split_order(monkeypatch):
    # the worst panel is split first, the oldest of equal error estimates:
    # a kink at 0.3 converges; a jump at 1/pi, run at tolerance 0, splits
    # towards the jump until the widest panels' 50-ulp floors are the
    # worst, and then splits those of one width, which tie, left to right
    kink = _split_digest(monkeypatch, lambda x: np.sqrt(np.abs(x - 0.3)),
                         (0.0, 0.25, 0.5, 0.75, 1.0), 1e-12, 4000)
    assert (kink[0].evaluations, kink[0].converged) == (960, True)
    assert kink[1:] == (30, "57eee9604426aa16")
    jump = _split_digest(monkeypatch, lambda x: np.where(x < 1 / math.pi, 1.0, 2.0),
                         (0.0, 1.0), 0.0, 100)
    assert (jump[0].evaluations, jump[0].converged) == (2985, False)
    assert jump[1:] == (99, "1e13726407066a23")


@pytest.mark.parametrize("widths, evaluations", [(1, 15), (2, 45)])
def test_panels_too_narrow_to_halve(widths, evaluations):
    # a panel one ulp wide, or one subnormal step, has rounded nodes on or
    # outside its edges and is refused.  Above 1, a panel 200 ulps wide
    # holds its nodes strictly inside, but its 100-ulp halves do not, so it
    # cannot be halved; 400 ulps split once, into two such panels.  At
    # tolerance 0 the run ends unconverged when its worst panel cannot be
    # halved.
    for edges in ((1.0, 1.0 + math.ulp(1.0)), (0.0, 5e-324)):
        with pytest.raises(ValueError, match="too narrow"):
            kronrod_grid(edges)
        with pytest.raises(ValueError, match="too narrow"):
            adaptive_quadrature(np.exp, edges)
    width = widths * 200 * math.ulp(1.0)
    res = adaptive_quadrature(np.exp, (1.0, 1.0 + width), 0.0, 0.0)
    assert (res.evaluations, res.converged) == (evaluations, False)
    assert res.value == pytest.approx(math.e * math.expm1(width), rel=1e-15, abs=0.0)


def test_narrow_panel_stays_in_the_totals():
    # f is 1e20 on the panel 200 ulps wide above 1 and 1 beyond: that
    # panel is the worst and its halves are too narrow for their nodes, so
    # the run ends before any split, with both starting panels in its totals
    edge = 1.0 + 200 * math.ulp(1.0)

    def f(x):
        return np.where(x < edge, 1e20, 1.0)

    (narrow, wide), (narrow_err, wide_err) = panels(f, (1.0, edge, 2.0))
    assert narrow_err > wide_err
    res = adaptive_quadrature(f, (1.0, edge, 2.0), 0.0, 0.0)
    assert (res.evaluations, res.converged) == (30, False)
    assert res.value == math.fsum([narrow, wide])
    assert res.est_error == math.fsum([narrow_err, wide_err])


def test_stuck_run_stops_at_the_narrow_panel():
    # a jump of 1e6 inside the panel 200 ulps wide above 1, and a kink at
    # 1.7 beyond: the kink's panels split until the jump's panel is the
    # worst, which cannot be halved, and the run ends there, unconverged,
    # with that panel's value (about 2e-8) in its total
    edge = 1.0 + 200 * math.ulp(1.0)

    def f(x):
        return 1e6 * (x < 1.0 + 100 * math.ulp(1.0)) + np.sqrt(np.abs(x - 1.7))

    (narrow, _), (narrow_err, _) = panels(f, (1.0, edge, 2.0))
    res = adaptive_quadrature(f, (1.0, edge, 2.0))
    assert (res.evaluations, res.converged) == (510, False)
    assert narrow_err <= res.est_error < 2 * narrow_err
    kink = (0.7 ** 1.5 + 0.3 ** 1.5) / 1.5
    assert res.value - kink == pytest.approx(narrow, rel=0.02)


def test_stuck_run_ends_unconverged_below_tolerance():
    # a jump of 1 in the narrow panel, whose error (2.2e-14) is below
    # tol_abs = 4e-14: once that panel is the worst the run ends,
    # unconverged, although splitting the kink's panels further would meet
    # the tolerance (a run that sets the panel aside converges after 1350)
    edge = 1.0 + 200 * math.ulp(1.0)

    def f(x):
        return (x < 1.0 + 100 * math.ulp(1.0)) + np.sqrt(np.abs(x - 1.7))

    _, (narrow_err, _) = panels(f, (1.0, edge, 2.0))
    assert narrow_err < 4e-14
    res = adaptive_quadrature(f, (1.0, edge, 2.0), 4e-14, 0.0)
    assert (res.evaluations, res.converged) == (1230, False)
    assert res.est_error > 4e-14
