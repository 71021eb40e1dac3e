"""Tests of the benchmark itself: inputs, tracing, checks and the manifest.

Run from the repository root with ``python3 -m pytest perfbench -q``.
Workload sizes are cut down here so the suite stays fast; the benchmark's
own sizes are the constructor defaults.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spec  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from casorb import contributions as co  # noqa: E402


def small(name: str, seed: int):
    if name == "verify237":
        return workloads.Verify237(seed, tail_j_hi=2000)
    return workloads.SpectrumEnum(seed, max_letters=12)


def bindings():
    return {(mod.__name__, name): value
            for mod in tracing.MODULES for name, value in vars(mod).items()
            if callable(value)}


def test_same_seed_same_inputs():
    assert workloads.Verify237(3).order == workloads.Verify237(3).order
    assert workloads.Verify237(3).order != workloads.Verify237(4).order
    x, y, z = (small("spectrum_enum", s) for s in (3, 3, 4))
    for w in (x, y, z):
        w.prepare()
    assert x.order == y.order != z.order


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_equals_untraced_and_bindings_restored(name):
    w = small(name, 1)
    w.prepare()
    before = bindings()
    run.clear_caches()
    plain = w.run()
    t = tracing.Tracer()
    run.clear_caches()
    with t.active(0):
        traced = w.run()
    assert w.key(traced) == w.key(plain)
    assert bindings() == before
    assert t.spans and all(s is not None for s in t.spans)
    metrics = t.layer_metrics(0)
    assert set(metrics) <= {m["name"] for m in spec.PER_LAYER}


def test_kernel_layer_split_is_visible():
    w = small("verify237", 2)
    t = tracing.Tracer()
    run.clear_caches()
    with t.active(0):
        w.run()
    m = t.layer_metrics(0)
    assert m["specfun.struve_k.calls"] > m["specfun.struve_k.misses"] > 0
    assert m["specfun.struve_k.route.integral_rep"] == m["specfun.struve_k.misses"]
    assert m["quadrature.adaptive_quadrature.calls"] == m["specfun.struve_k.misses"]
    assert m["contributions.elliptic_contribution.self_s"] > 0
    assert m["contributions.tail_direct_sum.terms"] == 2000 - 51 + 1


def test_clear_caches_empties_every_cache():
    from casorb import specfun, triangle

    triangle.table_corpus()
    specfun.struve_k(1, 2.0)
    run.clear_caches()
    for cache in (specfun._struve_k_dispatch, triangle.table_corpus,
                  triangle.generators_237):
        assert cache.cache_info().currsize == 0


def test_perturbed_result_raises_error_rate():
    w = workloads.Verify237(3)
    w.prepare()
    b = w.run()
    ok = workloads.Checks()
    w.check(b, ok)
    assert ok.attempted > 0 and ok.error_rate == 0
    ell = dataclasses.replace(b.elliptic, value=b.elliptic.value + 1e-3)
    checks = workloads.Checks()
    w.check(dataclasses.replace(b, elliptic=ell), checks)
    assert checks.error_rate > 0
    assert checks.failures == ["elliptic value", "elliptic vs quadrature"]


def test_verify237_checks_reject_a_wrong_tail():
    w = small("verify237", 0)
    w.prepare()
    checks = workloads.Checks()
    w.check(w.run(), checks)
    assert checks.failures == ["tail b1", "certified bound"]


def test_spectrum_enum_checks_stored_counts():
    w = small("spectrum_enum", 4)
    w.prepare()
    result = w.run()
    checks = workloads.Checks()
    w.check(result, checks)
    assert checks.failed == 0 and checks.attempted == 2 + len(w.table_words)
    classes, spectrum, head, report = result
    short = co.LengthSpectrum(spectrum.entries[:-1], spectrum.provenance)
    checks = workloads.Checks()
    w.check((classes, short, head, report), checks)
    assert checks.failures == ["total multiplicity"]


def test_manifest_matches_spec():
    committed = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert committed == spec.manifest()
    names = [w["name"] for w in spec.WORKLOADS]
    assert sorted(names) == sorted(workloads.WORKLOADS)
    assert set(spec.PREDICTIONS) == {m["name"] for m in spec.PER_LAYER}
