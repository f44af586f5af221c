"""Benchmark of the fbmvar Monte Carlo pipeline.

    python3 perfbench/run.py --workload many_short [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  The package is imported from `src/` of the
same checkout.  With `--trace 0` the last line of standard output is a
JSON object holding the end-to-end metrics; with `--trace 1` it holds the
per-layer metrics of the fastest traced pass.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import Tracer
from workloads import CHECKS, WORKLOADS, build_ops, run_op

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: one BLAS/OpenMP thread, like the checks' threads=1; set before numpy loads
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: fresh-process imports per run; the fastest is setup_s
SETUP_REPEATS = 7

#: every check some workload calls, for the per-check layer metrics
ALL_CHECKS = tuple(dict.fromkeys(n for w in CHECKS.values() for n, _ in w["full"]))

#: (span, fields) reported from the traced pass
SPAN_METRICS = (
    ("harness.replicate_map", ("calls",)),
    ("fbm.SeedSpec.rng", ("calls", "s")),
    ("fbm.sample_fgn_circulant", ("calls", "s")),
    ("fbm._circulant_spectrum", ("s",)),
    ("fbm.sample_fbm", ("self_s",)),
    ("variations.midpoint_variation", ("s",)),
    ("variations.trapezoidal_variation", ("s",)),
    ("variations.unweighted_variation", ("s",)),
    ("variations.simulate_limit", ("s",)),
    ("brownian_time.sample_walk", ("s",)),
    ("brownian_time.walk_power_variation", ("s",)),
    ("brownian_time.identity_residuals", ("s",)),
    ("brownian_time.sample_fbmbt", ("self_s",)),
    ("gaussian.limit_sigma", ("calls", "s")),
    ("weights.WeightFunction", ("calls", "s")),
    ("harness.describe", ("s",)),
    ("harness.ks_one_sample", ("s",)),
    ("harness.ks_two_sample", ("s",)),
)

#: (counter, unit) tallied by the tracer
COUNT_METRICS = (
    ("harness.replicate_map.rows", "count"),
    ("fbm.sample_fgn_circulant.points", "count"),
    ("fbm.fft_bytes_computed", "B"),
    ("gaussian.limit_sigma.terms", "count"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed, passed as master_seed (default: the primary shipped seed)")
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="repeat whole passes while the next one fits in this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configuration of the same calls, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_fbmvar():
    """The package from this checkout's src/, never an installed copy."""
    if not (SRC / "fbmvar" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fbmvar source under {SRC}")
    sys.path.insert(0, str(SRC))
    import fbmvar

    if Path(fbmvar.__file__).resolve().parent != SRC / "fbmvar":
        sys.exit(f"perfbench: imported fbmvar from {fbmvar.__file__}, not from {SRC}")
    return fbmvar


def import_seconds() -> float:
    """Seconds to import fbmvar in a fresh process, which inherits this
    process's CPU affinity."""
    code = (
        "import time; t = time.perf_counter(); import fbmvar; "
        "print(time.perf_counter() - t); print(fbmvar.__file__)"
    )
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120, check=True)
    seconds, origin = proc.stdout.split("\n")[:2]
    if Path(origin).resolve().parent != SRC / "fbmvar":
        raise RuntimeError(f"set-up imported fbmvar from {origin}")
    return float(seconds)


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def environment(seed: int) -> dict:
    """What the output bits and timings depend on."""
    import numpy
    import scipy

    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), None)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(str(index / f)) for f in ("level", "type", "size"))
        if level and kind != "Instruction":
            caches[f"L{level}{'d' if kind == 'Data' else ''}"] = size
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "platform": platform.platform(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "seed": seed,
    }


def run_pass(fbmvar, ops, seed, spectrum, tracer=None):
    """One pass over the workload with a cold spectrum cache, as a fresh
    `fbmvar` process would run it."""
    spectrum.cache_clear()
    return [run_op(fbmvar, op, seed, tracer) for op in ops]


def measure(fbmvar, ops, seed, seconds, trace, setup_repeats):
    """Whole passes while the next one, as long as the last, fits in
    `seconds`, and `setup_repeats` fresh-process imports before the first
    passes.  With `trace`, every untraced pass is followed by a traced
    one, so both kinds see the same share of a busy host.

    Successive passes and imports are pinned to the allowed CPUs in turn,
    and the imports are spread over the run: on a shared host another
    tenant often slows one CPU and not the other, for seconds at a time."""
    spectrum = fbmvar.fbm._circulant_spectrum  # the original, before any patch
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    untraced, traced, setup = [], [], []
    busy = 0.0  # seconds spent in passes; imports do not count against `seconds`
    try:
        while True:
            os.sched_setaffinity(0, {cpus[len(untraced) % len(cpus)]})
            if len(setup) < setup_repeats:
                setup.append(import_seconds())
            t0 = time.perf_counter()
            untraced.append(run_pass(fbmvar, ops, seed, spectrum))
            if trace:
                tracer = Tracer()
                with tracer.patched(fbmvar):
                    outcomes = run_pass(fbmvar, ops, seed, spectrum, tracer)
                # run_pass cleared the cache and its statistics: these are the pass's deltas
                info = spectrum.cache_info()
                tracer.counts.update({"fbm.spectrum_cache.hits": info.hits,
                                      "fbm.spectrum_cache.misses": info.misses})
                traced.append((tracer, outcomes))
            last = time.perf_counter() - t0
            busy += last
            if busy + last > seconds:
                break
        while len(setup) < setup_repeats:
            os.sched_setaffinity(0, {cpus[len(setup) % len(cpus)]})
            setup.append(import_seconds())
    finally:
        os.sched_setaffinity(0, allowed)
    return untraced, traced, setup


def pass_wall(outcomes) -> float:
    return sum(o.seconds for o in outcomes)


def best_wall(passes) -> float:
    """Each operation at its fastest over the passes, summed.  Another
    tenant of a shared host only ever slows a call down, so the fastest
    of several is the steadiest estimate of what the call costs."""
    return sum(fastest(passes, i, "seconds") for i in range(len(passes[0])))


def fastest(passes, i, field):
    """Lowest value of one operation's field over the passes, or None."""
    values = [getattr(p[i], field) for p in passes if getattr(p[i], field) is not None]
    return min(values) if values else None


def digest_problems(reference, passes, label) -> list[str]:
    """The same seed must give the same bytes on every pass."""
    problems = []
    for outcomes in passes:
        for ref, got in zip(reference, outcomes):
            if (ref.sha256, ref.failed) != (got.sha256, got.failed):
                problems.append(f"{ref.name}: {label} output differs ({ref.sha256} vs {got.sha256})")
    return problems


def end_to_end(ops, passes, setup, workload):
    wall_s = best_wall(passes)
    # sigma_sweep samples no path; there the count is limit_sigma evaluations
    items = sum(op.paths for op in ops) if workload != "sigma_sweep" else len(ops)
    outcomes = [o for p in passes for o in p]
    return {
        "wall_s": (wall_s, "s"),
        "setup_s": (min(setup), "s"),
        "paths_per_s": (items / wall_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "ok_ratio": (sum(not o.failed for o in outcomes) / len(outcomes), "ratio"),
    }


def per_layer(tracer, ops, untraced):
    """Layer metrics of one traced pass, beside untraced per-check times."""
    fields = {"calls": (tracer.calls, "count"), "s": (tracer.total_s, "s"), "self_s": (tracer.self_s, "s")}
    m = {}
    for span, names in SPAN_METRICS:
        for field in names:
            table, unit = fields[field]
            m[f"{span}.{field}"] = (table.get(span, 0), unit)
    for name, unit in COUNT_METRICS:
        m[name] = (tracer.counts.get(name, 0), unit)
    m["harness.replicate_map.overhead_s"] = (tracer.self_s.get("harness.replicate_map", 0.0), "s")
    hits, misses = tracer.counts["fbm.spectrum_cache.hits"], tracer.counts["fbm.spectrum_cache.misses"]
    m["fbm.spectrum_cache.hits"] = (hits, "count")
    m["fbm.spectrum_cache.misses"] = (misses, "count")
    m["fbm.spectrum_cache.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    # per-check seconds by the benchmark's clock, untraced, beside the
    # McReport.wall_time_s the check records for itself
    for name in ALL_CHECKS:
        idx = next((i for i, op in enumerate(ops) if op.name == name), None)
        for field, key in (("seconds", "s"), ("self_reported_s", "self_reported_s")):
            value = fastest(untraced, idx, field) if idx is not None else None
            m[f"acceptance.{name}.{key}"] = (value or 0.0, "s")
    m["acceptance.checks_passed"] = (sum(o.passed is True and o.name.startswith("check_")
                                         for o in untraced[0]), "count")
    for layer, seconds in tracer.layer_self_s().items():
        m[f"layer.{layer}.self_s"] = (seconds, "s")
    untraced_wall = best_wall(untraced)
    m["trace.wall_s"] = (tracer.root_s, "s")
    m["trace.untraced_wall_s"] = (untraced_wall, "s")
    m["trace.overhead_s"] = (tracer.root_s - untraced_wall, "s")
    m["trace.spans"] = (sum(tracer.calls.values()), "count")
    m["trace.paths_sampled"] = (tracer.counts["paths"], "count")
    return m


def trace_problems(tracer, ops, workload) -> list[str]:
    problems = []
    layer_sum = sum(tracer.layer_self_s().values())
    if abs(layer_sum - tracer.root_s) > 1e-9 * max(1.0, tracer.root_s):
        problems.append(f"layer self times add to {layer_sum}, traced wall is {tracer.root_s}")
    stated = sum(op.paths for op in ops)
    if workload != "sigma_sweep" and tracer.counts["paths"] != stated:
        problems.append(f"traced {tracer.counts['paths']} paths, the config states {stated}")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(THREAD_ENV)
    variant = "smoke" if args.smoke else "full"
    fbmvar = import_fbmvar()
    setup_repeats = 0 if args.trace else 1 if args.smoke else SETUP_REPEATS
    seed = fbmvar.DEFAULT_MASTER_SEEDS[0] if args.seed is None else args.seed
    ops = build_ops(fbmvar, args.workload, seed, variant)

    untraced, traced, setup = measure(fbmvar, ops, seed, args.seconds, args.trace, setup_repeats)
    runs = untraced + [outcomes for _, outcomes in traced]
    problems = digest_problems(untraced[0], runs[1:], "repeated")
    if args.trace:
        tracer = min((t for t, _ in traced), key=lambda t: t.root_s)
        metrics = per_layer(tracer, ops, untraced)
        problems += trace_problems(tracer, ops, args.workload)
    else:
        metrics = end_to_end(ops, untraced, setup, args.workload)

    outcomes = [o for p in runs for o in p]
    attempted, failed = len(outcomes), sum(o.failed for o in outcomes)
    wrong = [f"{o.name}: {o.error}" for o in outcomes if o.wrong]
    walls = [pass_wall(p) for p in untraced]
    info = {
        "workload": args.workload,
        "variant": variant,
        "environment": environment(seed),
        "passes": len(untraced),
        "pass_wall_s": walls,
        "median_pass_wall_s": statistics.median(walls),
        "setup_s": setup,
        "failed_ratio": failed / attempted,
        "checks_passed": sum(o.passed is True for o in untraced[0] if o.name.startswith("check_")),
        "operations": [
            {
                "name": op.name,
                "paths": op.paths,
                "seconds": fastest(untraced, i, "seconds"),
                "self_reported_s": fastest(untraced, i, "self_reported_s"),
                "passed": untraced[0][i].passed,
                "sha256": untraced[0][i].sha256,
                "error": untraced[0][i].error,
            }
            for i, op in enumerate(ops)
        ],
        "problems": problems + wrong,
    }
    for op in info["operations"]:
        print(f"{op['name']:28s} {op['seconds']:10.4f} s  passed={op['passed']}  "
              f"sha256={(op['sha256'] or '-')[:16]}  {op['error'] or ''}")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:.6g} {unit}")
    print(f"failed_ratio {failed}/{attempted} = {failed / attempted:.6g}")
    print("info " + json.dumps(info, sort_keys=True))
    result = {
        "correct": not problems and not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
