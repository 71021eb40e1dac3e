"""casorb benchmark: one workload, timed cold and warm, checked, one JSON line out.

Usage, from the repository root::

    python3 perfbench/run.py --workload verify237 --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 1
    python3 perfbench/run.py --write-manifest      # regenerate BENCHMARK.json

Each round clears every package cache and times one cold iteration, one
warm iteration on the caches the cold one left, and the workload's
``casorb`` command in a fresh interpreter.  Rounds repeat until
the next one would overrun ``--seconds``; every time reported is a median
over the rounds.  Correctness checks run between the timed regions.

With ``--trace 1`` the command is not run in a fresh interpreter; instead
each round also runs one traced cold iteration, one warm iteration counting
compensated adds, and the command in-process under the tracer; the last line then holds the per-layer metrics.  Spans of the last
round and the full record of every run go to ``perfbench/out/``.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import spec  # noqa: E402  (perfbench/ is sys.path[0] when run as a script)

IMPORT_CODE = ("import time; t = time.perf_counter(); import casorb; "
               "print(time.perf_counter() - t)")
SETUP_REPEATS = 7
CALIBRATION_REPEATS = 5
SUBPROCESS_TIMEOUT_S = 150


def child_env() -> dict:
    """Environment for fresh interpreters: casorb from src, no CASORB_THREADS."""
    env = {k: v for k, v in os.environ.items() if k != "CASORB_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def run_child(argv, env) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], env=env, cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT_S)
    return time.perf_counter() - t0, proc


def measure_setup(env) -> list[float]:
    """Seconds for ``import casorb`` in a fresh interpreter, several times."""
    out = []
    for _ in range(SETUP_REPEATS):
        _, proc = run_child(["-c", IMPORT_CODE], env)
        if proc.returncode != 0:
            raise RuntimeError(f"import casorb failed:\n{proc.stderr}")
        out.append(float(proc.stdout))
    return out


def scipy_special_import_s(env) -> float:
    """Cumulative import time of scipy.special under ``import casorb``."""
    samples = []
    for _ in range(3):
        _, proc = run_child(["-X", "importtime", "-c", "import casorb"], env)
        for line in proc.stderr.splitlines():
            fields = [f.strip() for f in line.split("|")]
            if len(fields) == 3 and fields[2] == "scipy.special":
                samples.append(int(fields[1]) * 1e-6)
                break
    return statistics.median(samples) if samples else 0.0


def calibrate() -> float:
    """Median time of a fixed interpreter-bound task, to expose machine drift."""

    def task():
        acc = 0.0
        for i in range(200_000):
            acc += math.sqrt(i + 1.0)
        return acc

    times = []
    for _ in range(CALIBRATION_REPEATS):
        t0 = time.perf_counter()
        task()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def clear_caches() -> None:
    """Empty every casorb cache and prove it.

    ``specfun.clear_caches()`` only covers the Struve dispatch; the corpus
    and the generator matrices are cached too.
    """
    from casorb import specfun, triangle

    caches = (specfun._struve_k_dispatch, triangle.table_corpus,
              triangle.generators_237)
    for cache in caches:
        cache.cache_clear()
        if cache.cache_info().currsize != 0:
            raise RuntimeError(f"{cache.__name__} still holds entries after clearing")


def timed(fn):
    gc.collect()
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def environment(threads_env) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "CASORB_THREADS": {"inherited": threads_env, "used": "unset, one thread"},
    }


def measure(workload, seconds: float, trace: bool, env: dict):
    """Rounds of cold, warm and command runs until ``seconds`` would be overrun."""
    from casorb import cli
    from workloads import Checks

    checks = Checks()
    samples = {"wall_s": [], "warm_s": [], "cli_s": [], "traced_wall_s": []}
    layers: list[dict] = []
    first_key = first_cli = None
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()

    def check_command(out: str, ok: bool) -> None:
        nonlocal first_cli
        checks.expect(ok, "command exit code 0")
        if not ok:
            return
        try:
            workload.check_cli(out, checks)
        except (ValueError, KeyError, TypeError):
            checks.expect(False, "command output parses")
        if first_cli is None:
            first_cli = out
        else:
            checks.expect(out == first_cli, "command output byte-identical")

    start = time.perf_counter()
    last = 0.0
    rnd = 0
    while rnd == 0 or time.perf_counter() - start + last <= seconds:
        t_round = time.perf_counter()
        clear_caches()
        dt, cold = timed(workload.run)
        samples["wall_s"].append(dt)
        dt, warm = timed(workload.run)
        samples["warm_s"].append(dt)
        if not trace:
            dt, proc = run_child(["-m", "casorb.cli", *workload.cli_argv], env)
            samples["cli_s"].append(dt)
            check_command(proc.stdout, proc.returncode == 0)
        else:
            tracer.spans.clear()
            tracer.reset_counts()
            clear_caches()
            with tracer.active(2 * rnd):
                dt, traced = timed(workload.run)
            samples["traced_wall_s"].append(dt)
            layer = tracer.layer_metrics(2 * rnd)
            layer["bench.spans"] = len(tracer.spans)
            tracer.reset_counts()
            with tracer.counting_adds():
                workload.run()
            layer["compensated.NeumaierSum.adds"] = tracer.counts[
                "compensated.NeumaierSum.adds"]
            clear_caches()
            buf = io.StringIO()
            with tracer.active(2 * rnd + 1), contextlib.redirect_stdout(buf):
                code = cli.run(list(workload.cli_argv))
            cli_layer = tracer.layer_metrics(2 * rnd + 1)
            layer["cli.run.s"] = cli_layer["cli.run.s"]
            layer["cli.emit_breakdown.s"] = cli_layer["cli.emit_breakdown.s"]
            layers.append(layer)
            check_command(buf.getvalue(), code == 0)
            checks.expect(workload.key(traced) == workload.key(cold),
                          "traced result equals untraced result")

        workload.check(cold, checks)
        checks.expect(workload.key(warm) == workload.key(cold),
                      "warm result equals the cold result")
        if first_key is None:
            first_key = workload.key(cold)
        else:
            checks.expect(workload.key(cold) == first_key, "result repeats exactly")
        last = time.perf_counter() - t_round
        rnd += 1
    return samples, layers, checks, tracer


def write_spans(path: Path, tracer) -> None:
    names = sorted({s[0] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    rows = [[index[n], round(a - t0, 9), round(b - t0, 9), p, it]
            for n, a, b, p, it in tracer.spans]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_s", "end_s", "parent", "iteration"],
                   "names": names, "spans": rows}, fh)


def run_workload(name: str, seed: int, seconds: float, trace: bool, env_info: dict):
    from workloads import WORKLOADS

    env = child_env()
    setup = [] if trace else measure_setup(env)
    calibration = calibrate()
    workload = WORKLOADS[name](seed)
    workload.prepare()
    samples, layers, checks, tracer = measure(workload, seconds, trace, env)
    med = statistics.median
    if trace:
        metrics = {k: med(layer[k] for layer in layers) for k in layers[0]}
        wall, traced_wall = med(samples["wall_s"]), med(samples["traced_wall_s"])
        metrics.update({
            "setup.scipy_special_s": scipy_special_import_s(env),
            "bench.wall_s": wall,
            "bench.warm_s": med(samples["warm_s"]),
            "bench.traced_wall_s": traced_wall,
            "bench.tracing_overhead_s": traced_wall - wall,
            "bench.calibration_s": calibration,
            "bench.error_rate": checks.error_rate,
            "env.nproc": env_info["nproc"],
        })
        units = {m["name"]: m["unit"] for m in spec.PER_LAYER}
    else:
        metrics = {
            "wall_s": med(samples["wall_s"]),
            "warm_s": med(samples["warm_s"]),
            "cli_s": med(samples["cli_s"]),
            "setup_s": med(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {m["name"]: m["unit"] for m in spec.END_TO_END}
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "env": env_info, "calibration_s": calibration, "setup_s": setup,
              "samples": samples, "failures": checks.failures,
              "error_rate": checks.error_rate, "result": result}
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if trace:
        write_spans(OUT / f"spans-{name}-seed{seed}.json", tracer)
    return result, calibration, checks


def print_table(name: str, result: dict, calibration: float, checks) -> None:
    print(f"# {name}: {checks.attempted} checks, {checks.failed} failed, "
          f"error_rate {checks.error_rate:.3g}; calibration {calibration:.4f} s")
    for key, m in result["metrics"].items():
        print(f"#   {key:<52} {m['value']:>14.6g} {m['unit']}")
    for label in checks.failures[:20]:
        print(f"#   FAILED: {label}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec.WORKLOADS] + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-manifest", action="store_true",
                    help="regenerate BENCHMARK.json from perfbench/spec.py and exit")
    args = ap.parse_args(argv)

    if args.write_manifest:
        with open(ROOT / "BENCHMARK.json", "w", encoding="utf-8") as fh:
            json.dump(spec.manifest(), fh, indent=2)
            fh.write("\n")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not (SRC / "casorb" / "__init__.py").is_file():
        print(f"error: no casorb package under {SRC}", file=sys.stderr)
        return 2

    # tail_direct_sum reads CASORB_THREADS; a user's shell must not steer it
    threads_env = os.environ.pop("CASORB_THREADS", None)
    sys.path.insert(0, str(SRC))
    env_info = environment(threads_env)
    print(json.dumps({"env": env_info}))

    names = ([w["name"] for w in spec.WORKLOADS] if args.workload == "all"
             else [args.workload])
    results = {}
    for name in names:
        result, calibration, checks = run_workload(
            name, args.seed, args.seconds, bool(args.trace), env_info)
        print_table(name, result, calibration, checks)
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
