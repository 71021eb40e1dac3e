"""Spans around calls into casorb's layers, recorded from outside the package.

:class:`Tracer` replaces a fixed set of casorb functions with timing
wrappers for the duration of a ``with tracer.active(iteration):`` block and
puts the originals back afterwards.  A function is replaced wherever the
package binds it: the defining module's attribute and every importer's
name for it (``contributions.struve_k``, ``triangle.geodesic_contribution``,
``casorb.struve_k``, ...), so calls made inside the package are seen too.

Each call records a span ``(name, start, end, parent, iteration)``; spans
stay in memory until the caller writes them out.  Counts that the package
already exposes are read at the same boundaries: the route of the returned
``FnEval``, the Struve dispatch cache's miss counter, ``QuadResult``
evaluations and convergence.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from collections import defaultdict

import numpy as np

import casorb
from casorb import cli, compensated, contributions, quadrature, specfun, triangle

MODULES = (casorb, specfun, quadrature, contributions, triangle, cli, compensated)

TRACED = (
    (specfun, "struve_k"),
    (specfun, "csch_k1_array"),
    (specfun, "csch_k1"),
    (quadrature, "adaptive_quadrature"),
    (contributions, "elliptic_contribution"),
    (contributions, "identity_series"),
    (contributions, "tail_direct_sum"),
    (contributions, "hyperbolic_contribution"),
    (contributions, "geodesic_contribution"),
    (contributions, "assumption_check"),
    (contributions, "casimir_energy"),
    (triangle, "enumerate_classes"),
    (triangle, "word_orbit"),
    (triangle, "canonical_rotation"),
    (triangle, "word_to_matrix"),
    (triangle, "table_corpus"),
    (cli, "run"),
    (cli, "emit_breakdown"),
)


def span_name(module, attr: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"


def _z_window(z: float) -> str:
    if z <= 12.0:
        return "z_le12"
    if z < 40.0:
        return "z_12_40"
    return "z_ge40"


class Tracer:
    """In-memory spans and counters for traced iterations."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self._stack: list = []
        self._iteration = 0
        self._tail_sig = inspect.signature(contributions.tail_direct_sum)

    # -- patching ---------------------------------------------------------

    def _bindings(self):
        """(module, attr, original, wrapper) for every binding of each target."""
        out = []
        for module, attr in TRACED:
            original = getattr(module, attr)
            wrapper = self._wrap(span_name(module, attr), original)
            for mod in MODULES:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        out.append((mod, name, original, wrapper))
        return out

    @contextlib.contextmanager
    def active(self, iteration: int):
        """Trace calls made inside the block; restore every binding on exit."""
        bindings = self._bindings()
        self._iteration = iteration
        try:
            for mod, name, _, wrapper in bindings:
                setattr(mod, name, wrapper)
            yield self
        finally:
            for mod, name, original, _ in bindings:
                setattr(mod, name, original)
            self._stack.clear()

    @contextlib.contextmanager
    def counting_adds(self):
        """Count NeumaierSum.add calls inside the block (no spans, no timing)."""
        original = compensated.NeumaierSum.add
        counts = self.counts

        def add(acc, x):
            counts["compensated.NeumaierSum.adds"] += 1
            original(acc, x)

        compensated.NeumaierSum.add = add
        try:
            yield self
        finally:
            compensated.NeumaierSum.add = original

    # -- spans ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        cache_info = specfun._struve_k_dispatch.cache_info
        misses = (lambda: cache_info().misses) if name == "specfun.struve_k" else (lambda: 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            m0 = misses()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self._iteration)
            if after is not None:
                after(args, kwargs, result, t1 - t0, misses() - m0)
            return result

        return wrapper

    def _after_specfun_struve_k(self, args, kwargs, result, dt, missed):
        z = args[1] if len(args) > 1 else kwargs["z"]
        window = "specfun.struve_k." + _z_window(z)
        self.counts[window + ".n"] += 1
        self.counts[window + ".s"] += dt
        if missed:
            self.counts["specfun.struve_k.misses"] += missed
            self.counts["specfun.struve_k.route." + result.method] += 1

    def _after_quadrature_adaptive_quadrature(self, args, kwargs, result, dt, missed):
        self.counts["quadrature.adaptive_quadrature.evaluations"] += result.evaluations
        self.counts["quadrature.adaptive_quadrature.unconverged"] += not result.converged

    def _after_specfun_csch_k1_array(self, args, kwargs, result, dt, missed):
        self.counts["specfun.csch_k1_array.elements"] += np.size(result)

    def _after_contributions_tail_direct_sum(self, args, kwargs, result, dt, missed):
        bound = self._tail_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        self.counts["contributions.tail_direct_sum.terms"] += a["j_hi"] - a["j_lo"] + 1

    def _after_triangle_enumerate_classes(self, args, kwargs, result, dt, missed):
        self.counts["triangle.enumerate_classes.classes"] += len(result)

    # -- aggregation ------------------------------------------------------

    def summary(self, iteration: int) -> dict:
        """Per-name calls, total seconds and self seconds for one iteration.

        Self time is a span's duration minus the durations of its direct
        child spans.
        """
        calls: dict = defaultdict(int)
        total: dict = defaultdict(float)
        child: dict = defaultdict(float)
        for idx, (name, t0, t1, parent, it) in enumerate(self.spans):
            if it != iteration:
                continue
            calls[name] += 1
            total[name] += t1 - t0
            if parent >= 0:
                child[parent] += t1 - t0
        self_s: dict = defaultdict(float)
        for idx, (name, t0, t1, parent, it) in enumerate(self.spans):
            if it == iteration:
                self_s[name] += (t1 - t0) - child.get(idx, 0.0)
        return {"calls": dict(calls), "s": dict(total), "self_s": dict(self_s)}

    def layer_metrics(self, iteration: int) -> dict:
        """The per-layer metrics of one traced iteration, by name."""
        sm = self.summary(iteration)
        calls, tot, slf = sm["calls"], sm["s"], sm["self_s"]
        c = self.counts
        out = {}
        kcalls = calls.get("specfun.struve_k", 0)
        kmiss = c.get("specfun.struve_k.misses", 0)
        out["specfun.struve_k.calls"] = kcalls
        out["specfun.struve_k.misses"] = kmiss
        out["specfun.struve_k.hit_ratio"] = 1.0 - kmiss / kcalls if kcalls else 0.0
        out["specfun.struve_k.s"] = tot.get("specfun.struve_k", 0.0)
        for route in ("integral_rep", "series", "asymptotic", "closed_form"):
            key = "specfun.struve_k.route." + route
            out[key] = c.get(key, 0)
        for window in ("z_le12", "z_12_40", "z_ge40"):
            for part in ("n", "s"):
                key = f"specfun.struve_k.{window}.{part}"
                out[key] = c.get(key, 0)
        out["specfun.csch_k1_array.s"] = tot.get("specfun.csch_k1_array", 0.0)
        out["specfun.csch_k1_array.elements"] = c.get("specfun.csch_k1_array.elements", 0)
        for name in ("specfun.csch_k1", "quadrature.adaptive_quadrature",
                     "contributions.hyperbolic_contribution",
                     "contributions.geodesic_contribution",
                     "contributions.assumption_check", "triangle.enumerate_classes",
                     "triangle.word_orbit", "triangle.canonical_rotation",
                     "triangle.word_to_matrix"):
            out[name + ".calls"] = calls.get(name, 0)
            out[name + ".s"] = tot.get(name, 0.0)
        evals = c.get("quadrature.adaptive_quadrature.evaluations", 0)
        out["quadrature.adaptive_quadrature.evaluations"] = evals
        out["quadrature.adaptive_quadrature.unconverged"] = c.get(
            "quadrature.adaptive_quadrature.unconverged", 0)
        out["quadrature.adaptive_quadrature.evaluations_per_miss"] = (
            evals / kmiss if kmiss else 0.0)
        for name in ("contributions.elliptic_contribution",
                     "contributions.identity_series", "contributions.casimir_energy"):
            out[name + ".self_s"] = slf.get(name, 0.0)
        out["contributions.tail_direct_sum.s"] = tot.get("contributions.tail_direct_sum", 0.0)
        out["contributions.tail_direct_sum.terms"] = c.get(
            "contributions.tail_direct_sum.terms", 0)
        out["triangle.enumerate_classes.classes"] = c.get(
            "triangle.enumerate_classes.classes", 0)
        out["triangle.table_corpus.s"] = tot.get("triangle.table_corpus", 0.0)
        out["cli.run.s"] = tot.get("cli.run", 0.0)
        out["cli.emit_breakdown.s"] = tot.get("cli.emit_breakdown", 0.0)
        return out

    def reset_counts(self) -> None:
        self.counts.clear()
