"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure).  The expected numbers are the published six-to-seven digit
values; tolerances are the contract, not a calibration knob.
"""

import json
import math
import random
import time

import numpy as np
import pytest

import casorb
from casorb.contributions import (
    REFERENCE_TAIL_237,
    assumption_check,
    casimir_energy,
    elliptic_contribution,
    elliptic_kernel_series,
    elliptic_kernel_truncation_bound,
    elliptic_kernel_truncation_bound_log10,
    growth_inequality_check,
    identity_interval,
    identity_series,
    tail_direct_sum,
    tail_far_bound,
    tail_far_integral,
    tail_far_prefactor,
    tail_higher_windings_bound,
    tail_windings_integral,
    tail_windings_prefactor,
)
from casorb.quadrature import elliptic_kernel_integral, integrate_decaying
from casorb.specfun import clear_caches
from casorb.triangle import (
    classes_to_json,
    star_word,
    table_corpus,
    to_spectrum,
    triangle_signature,
    word_length,
    word_to_matrix,
)

SIG = triangle_signature(2, 3, 7)

# golden regression data: printed reference rows (word, count, length, A)
GOLDEN_ROWS = [
    ("RL", 1, 0.983987, -0.288955),
    ("RRLL", 1, 1.736006, -0.064746),
    ("RLRLL", 2, 2.131105, -0.069526),
    ("RLRRLL", 2, 2.661931, -0.032848),
    ("RLLRRLL", 2, 2.898149, -0.024028),
    ("RLRLRLL", 2, 3.154824, -0.017289),
    ("RLRRLRLL", 1, 3.542710, -0.0053429),
    ("RLRLRRLL", 2, 3.627316, -0.0096416),
    ("RLRRLRRLL", 2, 3.804704, -0.0077879),
    ("RLRLLRRLL", 2, 3.935946, -0.0066608),
    ("RLRLRLRLL", 2, 4.151972, -0.0051635),
    ("RLLRRLRRLL", 1, 4.201807, -0.0024355),
    ("RLRRLLRRLL", 2, 4.391460, -0.0039068),
    ("RLRLRRLRLL", 2, 4.489257, -0.0034894),
    ("RLRLRLRRLL", 2, 4.604733, -0.0030555),
    ("RLLRRLLRRLL", 2, 4.654014, -0.0028877),
    ("RLRLRRLRRLL", 2, 4.760433, -0.0025571),
    ("RLRLLRLRRLL", 4, 4.841798, -0.0046617),
    ("RLRLRLLRRLL", 2, 4.938763, -0.0020879),
    ("RLRLLRLLRRLL", 2, 5.013217, -0.0019192),
    ("RLRLRLRLRLL", 2, 5.140676, -0.0016622),
    ("RLRLLRRLRRLL", 2, 5.208017, -0.0015409),
    ("RLRLRLLRLRLL", 2, 5.288901, -0.0014072),
    ("RLRRLRLLRRLL", 2, 5.288901, -0.0014072),
    ("RLRLRRLLRRLL", 2, 5.351459, -0.0013120),
    ("RLRLRRLRLRLL", 1, 5.426797, -0.00060298),
    ("RLRLRLRRLRLL", 2, 5.459427, -0.0011628),
]


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_elliptic_value_and_runtime():
    clear_caches()
    t0 = time.perf_counter()
    ser = elliptic_contribution(SIG, N=60)
    elapsed = time.perf_counter() - t0
    ok = abs(ser.value - 0.875676) <= 5e-7 and elapsed < 1.0
    report("1 elliptic (2,3,7)", ok,
           f"value={ser.value:.9f} vs 0.875676 +-5e-7, runtime={elapsed:.3f}s < 1s")


def test_criterion_2_identity_interval():
    lo, hi = identity_interval(SIG.volume)
    exact_ok = (abs(lo - (-2.0 / 945.0)) <= 1e-12
                and abs(hi - (-1.0 / 756.0)) <= 1e-12)
    ser = identity_series(SIG.volume, N=60)
    inside = lo < ser.value < hi
    report("2 identity interval", exact_ok and inside,
           f"interval=({lo:.12f},{hi:.12f}), series={ser.value:.12f}, inside={inside}")


def test_criterion_3_closed_form_moment():
    def integrand(r):
        e = np.exp(-np.abs(np.pi * r))
        s = 2.0 * e / (1.0 + e * e)
        return (1.0 + 4.0 * r * r) ** 2 * s * s

    res = integrate_decaying(integrand, "realline")
    target = 64.0 / (15.0 * math.pi)
    ok = abs(res.value - target) <= 1e-9
    report("3 sech^2 moment", ok,
           f"quadrature={res.value:.12f} vs 64/(15 pi)={target:.12f}")


def test_criterion_4_corpus_regression():
    # the contributions are the ones `casorb spectrum --table --output json` prints
    corpus = {row["word"]: row for row in json.loads(classes_to_json(table_corpus()))}
    worst_len = worst_a = 0.0
    for word, count, ref_len, ref_a in GOLDEN_ROWS:
        row = corpus[word]
        assert row["class_count"] == count
        worst_len = max(worst_len, abs(word_length(word) - ref_len))
        worst_a = max(worst_a, abs(row["contribution"] - ref_a))
    total = math.fsum(row["contribution"] for row in corpus.values())
    ok = (worst_len <= 1e-5 and worst_a <= 5e-6
          and abs(total - (-0.5680851)) <= 1e-6)
    report("4 corpus regression", ok,
           f"max length err={worst_len:.2e} <= 1e-5, max A err={worst_a:.2e} <= 5e-6, "
           f"total={total:.7f} vs -0.5680851")


def test_criterion_5_tail_constants():
    t0 = time.perf_counter()
    b1 = tail_direct_sum(51, 10_000_000)
    elapsed = time.perf_counter() - t0
    b2_pref = tail_far_prefactor(10_000_000)
    b2_int = tail_far_integral(10_000_000)
    b2 = tail_far_bound(10_000_000)
    b3_pref = tail_windings_prefactor(51)
    b3_int = tail_windings_integral(51)
    b3 = tail_higher_windings_bound(51)
    checks = [
        ("b1", b1, 0.138415, 1e-5),
        ("b2", b2, 0.155402, 1e-5),
        ("b3", b3, 0.000075, 5e-6),
        ("b2 prefactor", b2_pref, 0.311949, 1e-5),
        ("b2 integral", b2_int, 0.498165, 1e-5),
        ("b3 prefactor", b3_pref, 0.335311, 1e-5),
        ("b3 integral", b3_int, 0.000224, 1e-5),
    ]
    ok = elapsed < 60.0 and all(abs(v - want) <= tol for _, v, want, tol in checks)
    detail = ", ".join(f"{n}={v:.7f}" for n, v, _, _ in checks)
    report("5 tail constants", ok, f"{detail}, b1 time={elapsed:.1f}s < 60s")


def test_criterion_6_certified_lower_bound():
    spectrum = to_spectrum(table_corpus(), provenance="table_corpus")
    b = casimir_energy(SIG, spectrum)
    with_reference_tail = (b.elliptic.value - b.elliptic.truncation_bound
                           + b.identity_interval[0] + b.hyperbolic_head
                           - REFERENCE_TAIL_237)
    ok = (abs(with_reference_tail - 0.0116079) <= 2e-6
          and b.certified_lower_bound >= 0.0115
          and 0.29 <= b.hyperbolic_tail_magnitude_bound <= 0.30)
    report("6 certified lower bound", ok,
           f"reference-tail total={with_reference_tail:.7f} vs 0.0116079 +-2e-6; "
           f"recomputed-tail total={b.certified_lower_bound:.7f} >= 0.0115 "
           f"(tail={b.hyperbolic_tail_magnitude_bound:.6f} vs stated {REFERENCE_TAIL_237})")


def test_criterion_7_error_bound_reproduction():
    lg = (elliptic_kernel_truncation_bound_log10(math.pi / 7, 100)
          + math.log10(4.0 ** -0.5))
    direct = 4.0 ** -0.5 * elliptic_kernel_truncation_bound(math.pi / 7, 100)
    ok = lg < -29.0 and direct < 1e-29
    report("7 error bound", ok,
           f"log10(scaled bound)={lg:.4f} < -29, direct={direct:.3e}")


def test_criterion_8_property_suite():
    # series vs quadrature on a 5x5 grid, within combined bounds
    cs = [math.pi / 7, math.pi / 3, math.pi / 2, 2 * math.pi / 3, 6 * math.pi / 7]
    ds = [0.0, math.pi / 2, math.pi, 2 * math.pi, 3 * math.pi]
    grid_ok = True
    for C in cs:
        for D in ds:
            ser = elliptic_kernel_series(C, D, -0.5, 60)
            quad = elliptic_kernel_integral(C, D, -0.5)
            if abs(ser.value - quad.value) > ser.truncation_bound + 10 * quad.est_error:
                grid_ok = False

    # geometric decay of the truncation bounds
    decay_ok = all(
        elliptic_kernel_series(1.0, math.pi, -0.5, N + 1).truncation_bound
        / elliptic_kernel_series(1.0, math.pi, -0.5, N).truncation_bound <= 0.51
        for N in (10, 30, 60))
    decay_ok = decay_ok and all(
        identity_series(1.0, N + 1).truncation_bound
        / identity_series(1.0, N).truncation_bound <= 0.51
        for N in (50, 60, 70))

    # word-length invariance under rotation and the involutions
    rng = random.Random(87)
    words_ok = True
    checked = 0
    while checked < 100:
        w = "".join(rng.choice("RL") for _ in range(rng.randint(2, 14)))
        try:
            ell = word_length(w)
        except ValueError:
            continue
        checked += 1
        rot = w[1:] + w[0]
        if abs(word_to_matrix(rot).trace) <= 2.0:
            words_ok = False
            continue
        if abs(word_length(star_word(w)) - ell) > 1e-9:
            words_ok = False
        if abs(word_length(w[::-1]) - ell) > 1e-9:
            words_ok = False
        if abs(2.0 * math.acosh(abs(word_to_matrix(rot).trace) / 2.0) - ell) > 1e-9:
            words_ok = False

    # growth inequality on the full grid
    jest_ok = all(growth_inequality_check(j, n)
                  for j in range(16, 10_001) for n in range(1, 11))

    # growth assumption on the corpus spectrum
    rep = assumption_check(to_spectrum(table_corpus(), provenance="table_corpus"))
    assumption_ok = rep.holds and rep.checked_through == 51

    ok = grid_ok and decay_ok and words_ok and jest_ok and assumption_ok
    report("8 property suite", ok,
           f"grid={grid_ok}, decay={decay_ok}, words={words_ok}, "
           f"growth-inequality={jest_ok}, assumption={assumption_ok}")


def test_package_version_exposed():
    assert casorb.__version__
