"""trustmarket benchmark: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload sim-compare --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports trustmarket from its
src/ directory.  Passes of the workload's seeded operation sequence repeat
until --seconds have passed; set-up is repeated at even points of the run
and its median reported.  A speed reference timed between passes
(calibrate.py) scales the reported times.  Every output is checked against an oracle.  With --trace 0 the
end-to-end metrics of BENCHMARK.json are reported; with --trace 1
untraced and traced passes alternate, the per-layer metrics come from the
traced ones, and their spans are written to perfbench/out/.  The last line
of standard output is one JSON object; the lines above it print the same
metrics for reading.  --quick runs a small version of the workload,
for the self-tests in test_perfbench.py.  See README.md.
"""

import argparse
import gc
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import trustmarket  # noqa: E402

if not Path(trustmarket.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"trustmarket imported from {trustmarket.__file__}, "
                     f"not from {ROOT / 'src'}")

import calibrate  # noqa: E402
from tracing import TARGETS, Tracer, loglog_slope  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Tally  # noqa: E402

SETUP_REPEATS = 5
OUT = BENCH / "out"


def metric_specs() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {"end_to_end": {m["name"]: m for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m for m in spec["per_layer"]}}


def _percentiles(samples_ns) -> tuple:
    """(p50, p90) in ms."""
    ms = [s / 1e6 for s in samples_ns]
    if len(ms) < 2:
        return ms[0], ms[0]
    return statistics.median(ms), statistics.quantiles(ms, n=10,
                                                       method="inclusive")[8]


def end_to_end(setup_ns, tally) -> dict:
    read_p50, read_p90 = _percentiles(tally.read)
    write_p50, write_p90 = _percentiles(tally.write)
    return {
        "setup_s": statistics.median(setup_ns) / 1e9,
        "wall_s": statistics.median(tally.walls) / 1e9,
        "read_p50_ms": read_p50, "read_p90_ms": read_p90,
        "write_p50_ms": write_p50, "write_p90_ms": write_p90,
        "events_per_s": statistics.median(tally.rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, workload, ctx, untraced_walls, traced_walls) -> dict:
    passes = len(traced_walls)
    out = {}
    for _, _, name in TARGETS:
        out[f"{name}.calls"] = tracer.calls(name) / passes
        out[f"{name}.self_ms"] = tracer.self_ms(name) / passes
    counters = tracer.counters

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0
    opinions = tracer.calls("engine.compute_opinion")
    out.update({
        "identity.register.refused": tracer.raised("identity.register") / passes,
        "ratings.record.refused": tracer.raised("ratings.record") / passes,
        "ratings.latest_ratings_for.rows_per_call": ratio(
            counters["ratings.latest_ratings_for.rows"],
            tracer.calls("ratings.latest_ratings_for")),
        "ratings.latest_ratings_for.calls_per_opinion": ratio(
            counters["engine.opinion.lookups"], opinions),
        "engine.rater_weight.calls_per_opinion": ratio(
            counters["engine.opinion.weights"], opinions),
        "engine.fallback_share": ratio(counters["engine.rater_weight.fallback"],
                                       tracer.calls("engine.rater_weight")),
        "engine.opinion.fanin_exponent": loglog_slope(tracer.bins["engine.opinion"]),
        "eventlog.append.bytes": counters["eventlog.append.bytes"] / passes,
        "eventlog.lines_parsed_per_command": ratio(
            counters["eventlog.lines_parsed"], tracer.calls("cli.main")),
        "eventlog.ms_per_kevent": workload.eventlog_ms_per_kevent(ctx, tracer),
        "sim.step.horizon_exponent": loglog_slope(tracer.bins["sim.step"]),
        "trace.overhead_ratio": (statistics.median(traced_walls)
                                 / statistics.median(untraced_walls)),
    })
    return out


def _timed_setup(workload, seed, size, workdir) -> tuple:
    """(context, set-up ns, speed sample right after); a discarded context
    is freed before the next."""
    gc.collect()
    start = time.perf_counter_ns()
    ctx = workload.setup(seed, size, workdir)
    return ctx, time.perf_counter_ns() - start, calibrate.sample()


def measure(name: str, seed: int, seconds: float, traced: bool,
            size: str = "full") -> dict:
    """Run one workload; returns the result object printed as JSON."""
    workload = WORKLOADS[name]()
    specs = metric_specs()["per_layer" if traced else "end_to_end"]
    workdir = OUT / f"work-{os.getpid()}"
    spare = workdir / "spare"
    spare.mkdir(parents=True, exist_ok=True)
    try:
        ctx, *first = _timed_setup(workload, seed, size, workdir)
        setups = [first]
        tally = Tally()
        workload.check_setup(ctx, tally)
        gc.collect()
        start = time.perf_counter()
        deadline = start + seconds

        def more_setups():
            """Repeat set-up at even points of the run, so its median
            samples the machine at the same times the passes do."""
            due = start + len(setups) * seconds / SETUP_REPEATS
            if len(setups) < SETUP_REPEATS and time.perf_counter() >= due:
                setups.append(_timed_setup(workload, seed, size, spare)[1:])

        with workload.instrument(ctx):
            if not traced:
                speeds = [calibrate.sample()]
                for number in itertools.count():
                    tally.walls.append(workload.run_pass(ctx, tally, None, number))
                    tally.end_pass()
                    speeds.append(calibrate.sample())
                    if time.perf_counter() >= deadline:
                        break
                    more_setups()
                # Pass i ran between speed samples i and i + 1.
                factors = [2 * calibrate.REFERENCE_NS / (before + after)
                           for before, after in zip(speeds, speeds[1:])]
                values = end_to_end(
                    [ns * calibrate.REFERENCE_NS / speed for ns, speed in setups],
                    tally.scaled(factors))
                raw = end_to_end([ns for ns, _ in setups], tally)
            else:
                # The same pass runs untraced, then traced, so the overhead
                # ratio compares like with like.
                tracer = Tracer()
                untraced = []
                for number in itertools.count():
                    untraced.append(workload.run_pass(ctx, tally, None, number))
                    tracer.install()
                    try:
                        tally.walls.append(
                            workload.run_pass(ctx, tally, tracer, number))
                    finally:
                        tracer.uninstall()
                    if time.perf_counter() >= deadline:
                        break
                tracer.write(OUT / f"trace-{name}-seed{seed}.jsonl")
                values = per_layer(tracer, workload, ctx, untraced, tally.walls)
                raw = values
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in tally.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": values[key], "unit": spec["unit"]}
                    for key, spec in specs.items()},
        "raw": raw,
        "samples": {"passes": len(tally.walls), "setups": len(setups),
                    "read": len(tally.read), "write": len(tally.write),
                    "rate": len(tally.rates)},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small inputs, for the self-tests")
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     "quick" if args.quick else "full")
    samples, raw = result.pop("samples"), result.pop("raw")
    print(f"workload {args.workload} seed {args.seed} "
          f"{'traced' if args.trace else 'untraced'}: "
          + " ".join(f"{key}={value}" for key, value in samples.items()))
    for key, metric in result["metrics"].items():
        unscaled = "" if raw[key] == metric["value"] else f" (raw {raw[key]:.6g})"
        print(f"  {key} {metric['value']:.6g} {metric['unit']}{unscaled}")
    print(f"  error_rate {result['failed'] / result['attempted']:.6g} "
          f"failed/attempted ({result['failed']}/{result['attempted']})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
