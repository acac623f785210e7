"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload skewed_reads --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes a
separate traced run that reports the per-layer metrics (see
``BENCHMARK.json`` for both lists).  The bounded timings (``ref_*``) are
host-normalised: the timed phase runs the fixed reference computation of
``probe.py`` between requests, and each stretch of the run is scaled to a
host on which that computation takes ``probe.REFERENCE_S``; the timings as
measured are printed in the report.  The program under test is the library
in ``src/`` next to this directory; the command exits with code 2 when it is
missing.  Before the last line the command prints a JSON report with the
run's metadata, sample counts and the metrics that ``BENCHMARK.json`` does
not bound; the last line is the result object.  A wrong answer or a raised
error makes the command exit with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from probe import ProbeLog

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups per run; ``setup_s`` is their median, host-normalised.
SETUP_REPEATS = 3
#: Probes run just before and just after each set-up.
SETUP_PROBES = 5
#: Slices the timed phase is cut into; each is normalised by the probes
#: inside it.
RATE_SLICES = 20
#: A percentile is reported only with this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q))


def reportable(samples: int, q: float) -> bool:
    """Whether at least ``MIN_TAIL_SAMPLES`` samples lie beyond percentile ``q``."""
    return samples * (100 - q) / 100 >= MIN_TAIL_SAMPLES


class Slices:
    """The timed phase cut into ``RATE_SLICES`` equal time slices.

    Per slice: the queries done in it (each request's queries spread over
    its own duration), the seconds left after the probes run in it, and its
    probe factor (``probe.ProbeLog.factor``).
    """

    def __init__(self, run) -> None:
        self.begin = min(run.starts)
        self.width = (max(run.ends) - self.begin) / RATE_SLICES
        bounds = [
            (self.begin + slot * self.width, self.begin + (slot + 1) * self.width)
            for slot in range(RATE_SLICES)
        ]
        self.factors = [run.probes.factor(low, high) for low, high in bounds]
        self.seconds = [self.width - run.probes.seconds_within(low, high) for low, high in bounds]
        self.queries = [0.0] * RATE_SLICES
        self.latencies: list[list[float]] = [[] for _ in range(RATE_SLICES)]
        for start, end, queries in zip(run.starts, run.ends, run.queries):
            duration = max(end - start, 1e-12)
            first, last = self.slot(start), self.slot(end)
            self.latencies[first].append(end - start)
            for slot in range(first, last + 1):
                low, high = bounds[slot]
                self.queries[slot] += queries * max(min(end, high) - max(start, low), 0.0) / duration

    def slot(self, moment: float) -> int:
        return min(int((moment - self.begin) / self.width), RATE_SLICES - 1)

    def rates(self, whole_pass: bool) -> tuple[float, float]:
        """Queries/s as measured and host-normalised.

        By default the median over the slices, so one stall on a shared host
        moves a few slices, not the result.  With ``whole_pass``, all
        queries over all the pass's time instead, so rare long requests (the
        drifting workload's inline maintenance) count in full.  A slice's
        normalised time is its time divided by its factor.
        """
        if whole_pass:
            total = sum(self.queries)
            normalised = sum(seconds / factor for seconds, factor in zip(self.seconds, self.factors))
            return total / sum(self.seconds), total / normalised
        measured = [queries / seconds for queries, seconds in zip(self.queries, self.seconds)]
        return statistics.median(measured), statistics.median(
            rate * factor for rate, factor in zip(measured, self.factors)
        )

    def percentile(self, q: float) -> float:
        """Median over the slices of the slice's latency percentile ÷ its factor.

        Scaling each slice's percentile, not each request, keeps the noise
        of a slice's factor out of the spread of its latencies.
        """
        return statistics.median(
            percentile(latencies, q) / factor
            for latencies, factor in zip(self.latencies, self.factors)
            if latencies
        )


def timed_setups(workload, probes: ProbeLog | None = None):
    """Set up ``SETUP_REPEATS`` times; keep the last target and index, time each.

    Returns the target (the last ``workload.LAYOUTS`` set-ups' targets,
    combined), the last index, and each set-up's seconds as measured and
    host-normalised.  With ``probes``, each set-up is bracketed by
    ``SETUP_PROBES`` probes on either side, and its normalised time is its
    time divided by their factor; without, the two lists are the same.
    """
    seconds, normalised = [], []
    targets = []
    for _ in range(SETUP_REPEATS):
        if len(targets) == workload.LAYOUTS:
            workload.teardown(targets.pop(0))
        first = time.perf_counter()
        for _ in range(SETUP_PROBES if probes else 0):
            probes.run()
        start = time.perf_counter()
        target, index = workload.setup()
        elapsed = time.perf_counter() - start
        targets.append(target)
        for _ in range(SETUP_PROBES if probes else 0):
            probes.run()
        factor = probes.factor(first, time.perf_counter()) if probes else 1.0
        seconds.append(elapsed)
        normalised.append(elapsed / factor)
    return workload.combine(targets), index, seconds, normalised


def end_to_end(workload, seconds: float) -> tuple[dict, dict, list]:
    """The untraced run: set-up, one timed pass, then the index size."""
    target, index, setups, ref_setups = timed_setups(workload, ProbeLog())
    try:
        warm = workload.warm(target)
        run = workload.run(target, seconds=seconds, probes=ProbeLog())
        index_bytes = index.index_size_bytes()
    finally:
        workload.teardown(target)
    latencies = run.latencies
    slices = Slices(run)
    samples = len(latencies)
    query_qps, ref_query_qps = slices.rates(workload.WHOLE_PASS_RATE)
    metrics = {
        "ref_query_qps": ref_query_qps,
        "ref_latency_p50_ms": 1e3 * slices.percentile(50),
        "ref_latency_p90_ms": 1e3 * slices.percentile(90),
        "query_qps": query_qps,
        "latency_p50_ms": 1e3 * percentile(latencies, 50),
        "latency_p90_ms": 1e3 * percentile(latencies, 90),
        # Reported only with enough samples beyond it, and only where the
        # workload inserts; neither is bounded in BENCHMARK.json.
        "latency_p99_ms": 1e3 * percentile(latencies, 99) if reportable(samples, 99) else None,
        "insert_rows_per_s": run.insert_rows / run.insert_seconds if run.insert_rows else None,
        "index_bytes": index_bytes,
        "setup_s": statistics.median(ref_setups),
        "measured_setup_s": statistics.median(setups),
    }
    extra = {
        "wall_s": run.wall,
        "probes": len(run.probes.seconds),
        "probe_s": run.probes.seconds_within(-np.inf, np.inf),
        "probe_factor": run.probes.factor(),
        "queries": sum(run.queries),
        "setup_runs_s": setups,
        "latency_samples": samples,
        "percentiles_backed": {f"p{q}": reportable(samples, q) for q in (50, 90, 99)},
    }
    return metrics, extra, [warm, run]


def traced(workload, seconds: float) -> tuple[dict, dict, list]:
    """The traced run: an untraced pass, then the same requests traced.

    Both passes start from fresh set-ups so they do the same work; the
    ratio of their walls is the tracing overhead.
    """
    import layers
    from tracer import Tracer

    target, _, setups, _ = timed_setups(workload)
    try:
        warms = [workload.warm(target)]
        plain = workload.run(target, seconds=seconds / 2)
    finally:
        workload.teardown(target)
    target, index, _, _ = timed_setups(workload)
    builds = layers.build_reports(index)
    tracer = Tracer()
    try:
        warms.append(workload.warm(target))
        try:
            layers.install(tracer)
            traced_run = workload.run(target, replay=plain, tracer=tracer)
        finally:
            tracer.uninstall()
    finally:
        workload.teardown(target)
    load_threads = {
        span.thread for span in tracer.spans if span.name == "request" and span.parent is None
    }
    metrics = layers.layer_metrics(tracer, traced_run, builds, load_threads)
    metrics["trace.overhead"] = traced_run.wall / plain.wall
    extra = {
        "untraced_wall_s": plain.wall,
        "traced_wall_s": traced_run.wall,
        "requests": sum(plain.per_thread),
        "spans": len(tracer.spans),
        "setup_runs_s": setups,
        "queue_wait_samples": len(traced_run.queue_waits),
        "layer_map": layers.LAYER_MAP,
    }
    return metrics, extra, [*warms, plain, traced_run]


def load_declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def measure(name: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> tuple[dict, dict]:
    """Run one workload; returns the result object and the report."""
    from workloads import WORKLOADS, check_answers

    declared = load_declared()
    generate_start = time.perf_counter()
    workload = WORKLOADS[name](seed, seconds, scale)
    generate_s = time.perf_counter() - generate_start
    if trace:
        values, extra, runs = traced(workload, seconds)
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    else:
        values, extra, runs = end_to_end(workload, seconds)
        units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    oracle = workload.oracle()
    wrong = sum(check_answers(oracle, run) for run in runs)
    raised = sum(run.raised for run in runs)
    attempted = sum(run.attempted for run in runs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not trace:
        values["peak_rss_mb"] = peak_rss_mb
        values["error_rate"] = (wrong + raised) / attempted
    result = {
        "correct": wrong == 0 and raised == 0,
        "attempted": attempted,
        "failed": wrong + raised,
        "metrics": {
            metric: {"value": float(values[metric]), "unit": unit}
            for metric, unit in units.items()
        },
    }
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "scale": scale,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(ROOT),
        "generate_s": generate_s,
        "error_rate": (wrong + raised) / attempted,
        "wrong_answers": wrong,
        "raised_errors": raised,
        "metrics": values,
        **extra,
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"no library source under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    result, report = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale
    )
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
