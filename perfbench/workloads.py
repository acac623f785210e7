"""The benchmark's four workloads.

Each workload generates its inputs from the seed alone (through
``repro.common.rng.spawn_rngs`` and the public ``repro.datasets`` /
``repro.query`` generators), builds its serving stack with library defaults,
drives it in a closed loop and keeps every answer for the oracle check that
runs after the timed phase.

* ``skewed_reads`` — ``QueryEngine(TsunamiIndex())``, one caller, batches of
  256 zipf-drawn repeats of narrow templates over correlated x/y/z data.
* ``distinct_scans`` — ``QueryEngine(ShardedIndex(...))`` over the taxi
  stand-in, batches of 8 fresh, never-repeated queries, dealt over three
  independent instances (table, build workload and stream each).
* ``drifting_writes`` — ``LifecycleManager(DeltaBufferedIndex(TsunamiIndex))``,
  one caller alternating query and insert batches through a stationary
  phase and then step shifts to new template pools, the inserts following.
* ``served_clients`` — ``ServingFrontend(QueryEngine(TsunamiIndex()))`` with
  two closed-loop client threads, mostly hot (cached) queries plus a fixed
  share of fresh ones.
"""

from __future__ import annotations

import dataclasses
import inspect
import threading
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.common.rng import spawn_rngs
from repro.core.delta import DeltaBufferedIndex
from repro.core.lifecycle import LifecycleManager
from repro.core.sharding import ShardedIndex, scaled_tsunami_config
from repro.core.tsunami import TsunamiIndex
from repro.datasets import (
    QueryTemplate,
    RangeSpec,
    generate_workload,
    make_taxi_dataset,
    taxi_templates,
)
from repro.query.engine import QueryEngine, execute_full_scan
from repro.query.query import Query
from repro.query.workload import Workload
from repro.serve.frontend import ServingFrontend
from repro.storage.table import Table

import probe
from probe import ProbeLog

#: Domain of the correlated x column (y tracks 3x, z is small).
DOMAIN = 1_000_000
Z_DOMAIN = 5_000

#: Rows of the table sample fresh query instances are placed on.  Quantiles
#: of a sample are as valid a placement as the full table's and much cheaper
#: to compute for thousands of queries.
PLACEMENT_SAMPLE_ROWS = 2_000


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def correlated_xyz(num_rows: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Columns of the correlated table: x uniform, y = 3x + noise, z small."""
    x = rng.integers(0, DOMAIN, num_rows)
    return {
        "x": x,
        "y": 3 * x + rng.integers(-500, 501, num_rows),
        "z": rng.integers(0, Z_DOMAIN, num_rows),
    }


def strata(count: int, low: float, high: float, rng: np.random.Generator) -> np.ndarray:
    """``count`` values in ``[low, high)``, one per equal slice.

    The order of the slices is the same for every seed (a fixed shuffle), so
    the ``i``-th template, and with it the ``i``-th most popular query of a
    skewed stream, gets a similar value whatever the seed; only the value
    within its slice is drawn from ``rng``.
    """
    order = np.random.default_rng(count).permutation(count)
    return low + (high - low) * (order + rng.random(count)) / count


def narrow_templates(
    count: int, centre: tuple[float, float], rng: np.random.Generator
) -> list[QueryTemplate]:
    """One-query templates: narrow x and y ranges over the same slice of data.

    y tracks 3x, so each template is a small box on the correlated diagonal.
    Placement and selectivities are stratified (template ``i`` centres in
    the ``i``-th slice of ``centre`` and draws its selectivity from a fixed
    slice of the range), so every seed spreads its templates over the whole
    region and gives its popular templates similar costs.  Purely random placement, or a z range starting
    at 0, lets a few chance clusters decide the index layout, and with it
    the cost of a query, by up to a factor of two from one seed to the next.
    """
    selectivity = strata(count, 0.0005, 0.005, rng)
    low, high = centre
    step = (high - low) / count
    templates = []
    for i in range(count):
        slice_ = (low + i * step, low + (i + 1) * step)
        templates.append(
            QueryTemplate(
                f"narrow_{i}",
                {
                    "x": RangeSpec(float(selectivity[i]), centre_region=slice_),
                    "y": RangeSpec(float(2 * selectivity[i]), centre_region=slice_),
                },
                count=1,
            )
        )
    return templates


#: z selectivity of each step-shift pool's templates (the stationary pool
#: filters x and y only).  Neighbouring pools differ by more than the drift
#: detector's match tolerance, so every shift brings query types it has not
#: seen; within a pool all templates share one profile.
SHIFT_Z_SELECTIVITY = (0.2, 0.5, 0.8, 0.2, 0.5)


def drifting_pool(
    count: int, centre: tuple[float, float], phase: int, rng: np.random.Generator
) -> list[QueryTemplate]:
    """``narrow_templates`` plus, after the stationary phase, a z range."""
    templates = narrow_templates(count, centre, rng)
    if phase == 0:
        return templates
    z = RangeSpec(SHIFT_Z_SELECTIVITY[(phase - 1) % len(SHIFT_Z_SELECTIVITY)])
    return [
        dataclasses.replace(template, filters={**template.filters, "z": z})
        for template in templates
    ]


def make_table(name: str, columns: dict[str, np.ndarray]) -> Table:
    """A fresh table over copies of ``columns`` (builds reorder in place)."""
    return Table.from_arrays(name, {key: values.copy() for key, values in columns.items()})


def zipf_picks(pool: list[Query], count: int, rng: np.random.Generator) -> list[Query]:
    """``count`` zipf(1.2)-skewed draws from ``pool``."""
    ranks = (rng.zipf(1.2, size=count) - 1) % len(pool)
    return [pool[int(rank)] for rank in ranks]


def fresh_queries(
    table: Table,
    templates: list[QueryTemplate],
    exclude: set[Query],
    rng: np.random.Generator,
) -> list[Query]:
    """New instances of ``templates``, de-duplicated and shuffled."""
    sample = table.sample_rows(PLACEMENT_SAMPLE_ROWS, rng)
    generated = generate_workload(sample, templates, seed=rng)
    unique = [query for query in dict.fromkeys(generated) if query not in exclude]
    return [unique[int(i)] for i in rng.permutation(len(unique))]


def shifted(query: Query, seen: set[Query], rng: np.random.Generator) -> Query:
    """A query not in ``seen``: ``query``'s box moved along the x/y diagonal.

    A fresh query of the same shape as a hot one, so a cache miss costs what
    the hot query cost before it was cached.  The move is up to ``tries``
    widths of the x range, growing until a new box turns up.
    """
    ranges = query.filters()
    (x_low, x_high), (y_low, y_high) = ranges["x"], ranges["y"]
    width = x_high - x_low + 1
    tries = 1
    while True:
        offset = int(rng.integers(-tries * width, tries * width + 1))
        ranges["x"] = (x_low + offset, x_high + offset)
        ranges["y"] = (y_low + 3 * offset, y_high + 3 * offset)
        fresh = Query.from_ranges(ranges, query_type=query.query_type)
        if fresh not in seen:
            return fresh
        tries += 1


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------


class Oracle:
    """Full-scan answers over the base table plus the inserts before a request.

    Every benchmark query is a COUNT, which adds up over disjoint row sets, so
    the answer after ``k`` insert batches is the base table's count plus the
    count over the first ``k`` batches.  Both parts come from
    ``execute_full_scan``; the inserts are one table with a batch-number
    column that the oracle query restricts to ``[0, k)``.
    """

    BATCH_COLUMN = "_insert_batch"

    def __init__(self, columns: dict[str, np.ndarray], insert_batches=()) -> None:
        self._base = make_table("oracle", columns)
        self._inserts = None
        if insert_batches:
            names = list(columns)
            inserted = {
                name: np.array([row[name] for batch in insert_batches for row in batch])
                for name in names
            }
            inserted[self.BATCH_COLUMN] = np.repeat(
                np.arange(len(insert_batches)), [len(batch) for batch in insert_batches]
            )
            self._inserts = Table.from_arrays("oracle_inserts", inserted)
        self._memo: dict[tuple[Query, int], float] = {}

    def answer(self, query: Query, inserts_before: int) -> float:
        key = (query, inserts_before)
        value = self._memo.get(key)
        if value is None:
            if query.aggregate != "count":
                raise ValueError("the oracle only answers COUNT queries")
            value, _ = execute_full_scan(self._base, query)
            if inserts_before:
                ranges = query.filters()
                ranges[self.BATCH_COLUMN] = (0, inserts_before - 1)
                inserted, _ = execute_full_scan(self._inserts, Query.from_ranges(ranges))
                value += inserted
            self._memo[key] = value
        return value


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


@dataclass
class Request:
    """One call into the serving stack: a query batch or an insert batch."""

    kind: str  # "query" | "insert"
    payload: list
    #: The data the request saw: insert batches applied before it
    #: (``drifting_writes``), or the instance it went to (``distinct_scans``).
    state: int = 0


@dataclass
class Pass:
    """What one timed pass over a workload did."""

    wall: float = 0.0
    starts: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    queries: list[int] = field(default_factory=list)
    #: One answer per (query, data state); a later answer
    #: that differs from the kept one counts in ``inconsistent``.  Keeping
    #: every answer would grow the heap by one object per query and make
    #: the garbage collector's passes ever slower during the timed phase.
    answers: dict[tuple[Query, int], float] = field(default_factory=dict)
    inconsistent: int = 0
    attempted: int = 0
    raised: int = 0
    insert_rows: int = 0
    insert_seconds: float = 0.0
    #: Requests completed, and seconds spent, per load thread (a traced
    #: pass replays the counts).
    per_thread: list[int] = field(default_factory=list)
    walls: list[float] = field(default_factory=list)
    #: Serving only: each traced cache miss's wait minus its backend batch.
    queue_waits: list[float] = field(default_factory=list)
    #: Host-speed probes run between requests (end-to-end passes only).
    probes: ProbeLog | None = None

    def answer(self, query: Query, state: int, value: float) -> None:
        kept = self.answers.setdefault((query, state), value)
        if not kept == value:
            self.inconsistent += 1

    @property
    def latencies(self) -> list[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def add(self, other: "Pass") -> None:
        for name in (
            "starts", "ends", "queries", "per_thread", "walls", "queue_waits",
        ):
            getattr(self, name).extend(getattr(other, name))
        for key, value in other.answers.items():
            self.answer(key[0], key[1], value)
        for name in ("attempted", "raised", "inconsistent", "insert_rows", "insert_seconds"):
            setattr(self, name, getattr(self, name) + getattr(other, name))


def drive(call, requests, *, deadline=None, limit=None, tracer=None, probes=None) -> Pass:
    """Closed loop over ``requests``: each call starts when the last returned.

    Stops at ``deadline`` (a ``perf_counter`` value), after ``limit``
    requests, or when the requests run out.  A request that raises counts
    every operation in it as failed; the loop carries on.  With ``probes``,
    the host-speed probe runs between requests whenever it is due; the
    deadline is pushed back by the probes' time, so the pass still does
    ``deadline - start`` seconds of requests.
    """
    result = Pass(probes=probes)
    start = time.perf_counter()
    for position, request in enumerate(requests):
        if limit is not None and position >= limit:
            break
        now = time.perf_counter()
        if probes is not None and probes.due(now):
            ended = probes.run()
            if deadline is not None:
                deadline += ended - now
            now = ended
        if deadline is not None and now >= deadline:
            break
        operations = len(request.payload) if request.kind == "query" else 1
        result.attempted += operations
        span = tracer.open("request", request=position) if tracer else None
        began = time.perf_counter()
        try:
            values = call(request)
        except Exception:
            values = None
            result.raised += operations
        ended = time.perf_counter()
        if span is not None:
            tracer.close(span)
        if values is not None and request.kind == "query":
            for query, value in zip(request.payload, values):
                result.answer(query, request.state, value)
        elif values is not None:
            result.insert_rows += len(request.payload)
            result.insert_seconds += ended - began
        result.starts.append(began)
        result.ends.append(ended)
        result.queries.append(len(request.payload) if request.kind == "query" else 0)
    result.wall = time.perf_counter() - start
    result.per_thread = [len(result.starts)]
    result.walls = [result.wall]
    return result


def check_answers(oracle: Oracle, run: Pass) -> int:
    """Number of answers that differ from the oracle (NaN never matches)."""
    return run.inconsistent + sum(
        1
        for (query, state), value in run.answers.items()
        if not value == oracle.answer(query, state)
    )


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class BenchWorkload:
    """Common shape: inputs in ``__init__``, then setup / warm / run / teardown."""

    name = ""

    def __init__(self, seed: int, seconds: float, scale: str) -> None:
        self.seed = seed
        self.seconds = seconds
        self.params = self.SCALES[scale]
        self.rngs = spawn_rngs(seed, 8)

    # Subclasses provide requests, call, and setup, which returns the object
    # requests go to plus the index under it, and columns for the oracle.

    #: Set-ups the timed pass uses; ``combine`` turns their targets into one.
    LAYOUTS = 1
    #: Whether ``ref_query_qps`` is taken over the whole pass rather than
    #: as the median over its time slices.
    WHOLE_PASS_RATE = False

    def combine(self, targets):
        """The object a pass sends requests to, from the last set-ups' targets."""
        (target,) = targets
        return target

    def oracle(self) -> Oracle:
        return Oracle(self.columns)

    def warm(self, target) -> Pass:
        """Untimed, untraced requests before a pass (answers still checked)."""
        return Pass()

    def teardown(self, target) -> None:
        close = getattr(target, "close", None)
        if close is not None:
            close()

    def run(self, target, *, seconds=None, replay=None, tracer=None, probes=None) -> Pass:
        """One timed pass: for ``seconds``, or replaying a pass's request counts."""
        deadline = None if seconds is None else time.perf_counter() + seconds
        limit = None if replay is None else replay.per_thread[0]
        return drive(
            partial(self.call, target),
            self.requests(),
            deadline=deadline,
            limit=limit,
            tracer=tracer,
            probes=probes,
        )


class SkewedReads(BenchWorkload):
    name = "skewed_reads"
    SCALES = {
        "full": {"rows": 160_000, "templates": 48, "batch": 256},
        "tiny": {"rows": 8_000, "templates": 12, "batch": 64},
    }

    def __init__(self, seed, seconds, scale) -> None:
        super().__init__(seed, seconds, scale)
        p = self.params
        self.columns = correlated_xyz(p["rows"], self.rngs[0])
        table = make_table("xyz", self.columns)
        templates = narrow_templates(p["templates"], (0.0, 1.0), self.rngs[1])
        self.build_workload = generate_workload(table, templates, seed=self.rngs[2])
        self._pool = list(self.build_workload)
        # Enough batches for a program several times faster than today's;
        # the stream repeats from the start if a run outlasts it.
        self._batches = [
            zipf_picks(self._pool, p["batch"], self.rngs[3])
            for _ in range(max(int(seconds * 120), 8))
        ]

    def setup(self):
        index = TsunamiIndex().build(make_table("xyz", self.columns), self.build_workload)
        return QueryEngine(index), index

    def warm(self, target) -> Pass:
        # Two batches fill the plan caches for every template.
        return drive(partial(self.call, target), self.requests(), limit=2)

    def requests(self):
        while True:
            for batch in self._batches:
                yield Request("query", batch)

    def call(self, target, request):
        return [result.value for result in target.run_batch(request.payload)]


class DistinctScans(BenchWorkload):
    name = "distinct_scans"
    SCALES = {
        "full": {"rows": 60_000, "build_per_type": 4, "batch": 8, "fresh_per_second": 2_000},
        "tiny": {"rows": 6_000, "build_per_type": 2, "batch": 8, "fresh_per_second": 60},
    }
    #: Independent instances per run, each with its own taxi table, build
    #: workload and fresh stream drawn from the seed.  Set-up ``i`` builds
    #: instance ``i % LAYOUTS``, and the timed pass deals its batches
    #: round-robin over the instances.  Over nine dimensions the layout the
    #: optimizer picks for one draw of table and build queries moves the
    #: cost of the same kind of stream by up to 20%; three draws per run
    #: average that out.
    LAYOUTS = 3

    def __init__(self, seed, seconds, scale) -> None:
        super().__init__(seed, seconds, scale)
        p = self.params
        per_type = max(int(p["fresh_per_second"] * seconds / 6 / self.LAYOUTS), 1)
        self.instances = []
        for rng in spawn_rngs(self.rngs[0], self.LAYOUTS):
            table_rng, build_rng, fresh_rng = spawn_rngs(rng, 3)
            table = make_taxi_dataset(p["rows"], seed=table_rng)
            build = generate_workload(table, taxi_templates(p["build_per_type"]), seed=build_rng)
            fresh = fresh_queries(table, taxi_templates(per_type), set(build), fresh_rng)
            columns = {name: table.values(name).copy() for name in table.column_names}
            batches = [fresh[i : i + p["batch"]] for i in range(0, len(fresh), p["batch"])]
            self.instances.append((columns, build, batches))
        self.num_shards = inspect.signature(ShardedIndex).parameters["num_shards"].default
        self._setups = 0

    def oracle(self) -> "InstanceOracle":
        return InstanceOracle([Oracle(columns) for columns, _, _ in self.instances])

    def setup(self):
        columns, build, _ = self.instances[self._setups % self.LAYOUTS]
        self._setups += 1
        factory = partial(TsunamiIndex, scaled_tsunami_config(self.num_shards))
        index = ShardedIndex(factory).build(make_table("taxi", columns), build)
        return QueryEngine(index), index

    def combine(self, targets):
        # timed_setups keeps the last LAYOUTS set-ups, which built the
        # instances in order.
        return Engines(targets)

    def requests(self):
        # No repeats: when a run outlasts the streams it ends early.
        streams = [batches for _, _, batches in self.instances]
        for position in range(min(map(len, streams))):
            for instance, batches in enumerate(streams):
                yield Request("query", batches[position], state=instance)

    def call(self, target, request):
        return [result.value for result in target[request.state].run_batch(request.payload)]


class Engines(list):
    """One query engine per instance; closing it closes them all."""

    def close(self) -> None:
        for engine in self:
            close = getattr(engine, "close", None)
            if close is not None:
                close()


class InstanceOracle:
    """The oracle of each instance; a request's ``state`` names its instance."""

    def __init__(self, oracles: list[Oracle]) -> None:
        self._oracles = oracles

    def answer(self, query: Query, state: int) -> float:
        return self._oracles[state].answer(query, 0)


class DriftingWrites(BenchWorkload):
    name = "drifting_writes"
    #: Reoptimization and merges run inline in a few requests; the rate
    #: over the whole script counts them, a median over slices would not.
    WHOLE_PASS_RATE = True
    SCALES = {
        "full": {
            "rows": 40_000, "templates": 32, "shifts": 5, "pool_width": 0.1,
            "batch": 8, "queries_per_insert": 3, "insert_rows": 32,
            "stationary_windows": 2, "shift_windows_per_second": 1.3,
        },
        "tiny": {
            "rows": 6_000, "templates": 8, "shifts": 2, "pool_width": 0.2,
            "batch": 16, "queries_per_insert": 3, "insert_rows": 16,
            "stationary_windows": 1, "shift_windows_per_second": 2,
        },
    }

    def __init__(self, seed, seconds, scale) -> None:
        super().__init__(seed, seconds, scale)
        p = self.params
        self.columns = correlated_xyz(p["rows"], self.rngs[0])
        table = make_table("xyz", self.columns)
        starts = np.linspace(0.0, 1.0 - p["pool_width"], p["shifts"] + 1)
        pools = [
            list(
                generate_workload(
                    table,
                    drifting_pool(
                        p["templates"],
                        (float(start), float(start) + p["pool_width"]),
                        phase,
                        self.rngs[1],
                    ),
                    seed=self.rngs[2],
                )
            )
            for phase, start in enumerate(starts)
        ]
        self.build_workload = Workload(pools[0], name="stationary")
        # A fixed script, not a time-bounded loop: maintenance depends on
        # what came before, so every run must replay the same history.  The
        # stationary phase is short: its batches cost several times a
        # shifted phase's, and a longer one would put the latency
        # percentiles on the seam between the two.
        shift_windows = max(round(p["shift_windows_per_second"] * seconds), 1)
        self.insert_batches: list[list[dict]] = []
        self._script: list[Request] = []
        for phase, pool in enumerate(pools):
            x_low = min(query.filters()["x"][0] for query in pool)
            x_high = max(query.filters()["x"][1] for query in pool)
            windows = shift_windows if phase else p["stationary_windows"]
            # LifecycleConfig's default observe_window is 256 queries.
            for position in range(windows * 256 // p["batch"]):
                picks = self.rngs[3].integers(0, len(pool), p["batch"])
                self._script.append(
                    Request(
                        "query",
                        [pool[int(i)] for i in picks],
                        state=len(self.insert_batches),
                    )
                )
                if position % p["queries_per_insert"] == p["queries_per_insert"] - 1:
                    rows = self._insert_rows(x_low, x_high, p["insert_rows"], self.rngs[4])
                    self._script.append(Request("insert", rows, len(self.insert_batches)))
                    self.insert_batches.append(rows)

    @staticmethod
    def _insert_rows(x_low: int, x_high: int, count: int, rng) -> list[dict]:
        x = rng.integers(x_low, x_high + 1, count)
        y = 3 * x + rng.integers(-500, 501, count)
        z = rng.integers(0, Z_DOMAIN, count)
        return [
            {"x": a, "y": b, "z": c}
            for a, b, c in zip(x.tolist(), y.tolist(), z.tolist())
        ]

    def oracle(self) -> Oracle:
        return Oracle(self.columns, self.insert_batches)

    def setup(self):
        index = DeltaBufferedIndex(TsunamiIndex).build(
            make_table("xyz", self.columns), self.build_workload
        )
        return LifecycleManager(index), index

    def requests(self):
        return iter(self._script)

    def run(self, target, *, seconds=None, replay=None, tracer=None, probes=None) -> Pass:
        # The whole script runs in every pass; the deadline only guards
        # against a pathologically slow program.
        deadline = time.perf_counter() + 6 * self.seconds + 30
        return drive(
            partial(self.call, target),
            self.requests(),
            deadline=deadline,
            tracer=tracer,
            probes=probes,
        )

    def call(self, target, request):
        if request.kind == "insert":
            target.insert_many(request.payload)
            return []
        return [result.value for result in target.run_batch(request.payload)]


class ServedClients(BenchWorkload):
    name = "served_clients"
    CLIENTS = 2
    SCALES = {
        "full": {"rows": 100_000, "hot": 64, "fresh_share": 0.3, "requests_per_second": 5_000},
        "tiny": {"rows": 6_000, "hot": 12, "fresh_share": 0.2, "requests_per_second": 1_000},
    }

    def __init__(self, seed, seconds, scale) -> None:
        super().__init__(seed, seconds, scale)
        p = self.params
        self.columns = correlated_xyz(p["rows"], self.rngs[0])
        table = make_table("xyz", self.columns)
        templates = narrow_templates(p["hot"], (0.0, 1.0), self.rngs[1])
        self.build_workload = generate_workload(table, templates, seed=self.rngs[2])
        self._hot = list(self.build_workload)
        seen = set(self._hot)
        # Each request is its own Query object (equal by value to the query
        # it repeats), so a traced pass can tell which backend batch served it.
        # A client that reaches the end of its stream stops early.
        self._streams = []
        for client in range(self.CLIENTS):
            rng = self.rngs[4 + client]
            count = int(p["requests_per_second"] * seconds)
            stream = []
            for is_fresh, hot in zip(
                rng.random(count) < p["fresh_share"], zipf_picks(self._hot, count, rng)
            ):
                if is_fresh:
                    hot = shifted(hot, seen, rng)
                    seen.add(hot)
                stream.append(dataclasses.replace(hot))
            self._streams.append(stream)

    def setup(self):
        index = TsunamiIndex().build(make_table("xyz", self.columns), self.build_workload)
        return ServingFrontend(QueryEngine(index)), index

    def warm(self, target) -> Pass:
        # Every hot query once, so the timed phase starts with them cached.
        warm = Pass()
        for query in self._hot:
            warm.answer(query, 0, target.query(query).value)
        return warm

    def run(self, target, *, seconds=None, replay=None, tracer=None, probes=None) -> Pass:
        """Both clients in closed loops, in segments of ``probe.EVERY_S`` seconds.

        Between two segments both clients wait at a barrier while this
        thread runs the host-speed probe, so the probe never competes with
        them for the interpreter.  Without ``probes`` the pass is a single
        segment.  A client that reaches the end of its stream (or of the
        replayed count) stops early.
        """
        passes = [Pass() for _ in range(self.CLIENTS)]
        barrier = threading.Barrier(self.CLIENTS + 1)
        #: Deadline of the current segment; ``None`` tells the clients to stop.
        segment_end: list[float | None] = [None]
        finished = [False] * self.CLIENTS
        crashes: list[BaseException] = []

        def client(number: int) -> None:
            try:
                serve_client(number)
            except threading.BrokenBarrierError:
                pass  # another thread crashed; raised below
            except BaseException as exc:  # re-raised on the main thread
                crashes.append(exc)
                barrier.abort()

        def serve_client(number: int) -> None:
            stream = self._streams[number]
            out = passes[number]
            limit = len(stream) if replay is None else replay.per_thread[number]
            position = 0
            while True:
                barrier.wait()
                deadline = segment_end[0]
                if deadline is None:
                    break
                while position < limit and time.perf_counter() < deadline:
                    self._request(target, stream[position], number, position, out, tracer)
                    position += 1
                finished[number] = position >= limit
                barrier.wait()
            out.per_thread = [position]

        threads = [
            threading.Thread(target=client, args=(n,), name=f"bench-client-{n}")
            for n in range(self.CLIENTS)
        ]
        for thread in threads:
            thread.start()
        loaded = 0.0
        try:
            while not all(finished) and (seconds is None or loaded < seconds):
                if probes is not None:
                    probes.run()
                began = time.perf_counter()
                if probes is None:
                    length = float("inf") if seconds is None else seconds
                else:
                    length = min(probe.EVERY_S, seconds - loaded)
                segment_end[0] = began + length
                barrier.wait()
                barrier.wait()
                loaded += time.perf_counter() - began
            segment_end[0] = None
            barrier.wait()
        except threading.BrokenBarrierError:
            pass  # a client crashed; raised below
        except BaseException:
            barrier.abort()
            raise
        finally:
            for thread in threads:
                thread.join()
        if crashes:
            raise crashes[0]
        result = Pass(probes=probes)
        for part in passes:
            result.add(part)
        result.wall = loaded
        result.walls = [loaded] * self.CLIENTS
        return result

    def _request(self, target, query, number, position, out, tracer) -> None:
        """One ``query()`` call of client ``number``, recorded in ``out``."""
        out.attempted += 1
        request = number * 1_000_000 + position
        span = tracer.open("request", request=request) if tracer else None
        began = time.perf_counter()
        try:
            value = target.query(query).value
        except Exception:
            value = None
            out.raised += 1
        ended = time.perf_counter()
        if span is not None:
            tracer.close(span)
            self._trace_wait(tracer, query, request, began, ended, out)
        if value is not None:
            out.answer(query, 0, value)
        out.starts.append(began)
        out.ends.append(ended)
        out.queries.append(1)

    @staticmethod
    def _trace_wait(tracer, query, request, began, ended, out) -> None:
        """A miss waited from its enqueue until the reply: queue plus backend."""
        batch = tracer.backend_batches.pop(id(query), None)
        if batch is None:
            return
        tracer.record("serve.wait", tracer.local.put_end, ended, request)
        out.queue_waits.append((ended - began) - (batch[1] - batch[0]))


WORKLOADS = {
    workload.name: workload
    for workload in (SkewedReads, DistinctScans, DriftingWrites, ServedClients)
}
