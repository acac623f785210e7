"""Two serving stacks over the same rows, for the plan-memo invalidation tests.

A :class:`~repro.core.tsunami.TsunamiIndex` memoizes each repeated query's
absolute row ranges.  Every layout or routing change (a local merge, an
incremental re-optimization, a full ``reoptimize()``) must drop those plans.
:class:`MemoStacks` serves the same rows through
``QueryEngine(DeltaBufferedIndex(TsunamiIndex))`` and through a
``ShardedIndex`` of delta-buffered Tsunami shards, warms every memo, and
checks both stacks against a full scan of every row inserted so far.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.core.delta import DeltaBufferedIndex
from repro.core.sharding import ShardedIndex
from repro.core.tsunami import TsunamiConfig, TsunamiIndex
from repro.query.engine import QueryEngine, execute_full_scan
from repro.query.query import Query
from repro.query.workload import Workload
from repro.storage.scan import ScanExecutor
from repro.storage.table import Table

#: Merges happen only when a test asks for one.
NEVER = 10**9
#: Served passes per warm-up / check: enough to get past second-sighting
#: admission, so memo hits are what answers the later passes.
PASSES = 3


def tsunami_factory() -> TsunamiIndex:
    return TsunamiIndex(TsunamiConfig(optimizer_iterations=1, optimizer_sample_rows=2_000))


class MemoStacks:
    def __init__(self, arrays: dict[str, np.ndarray], workload: Workload, probes: list[Query]) -> None:
        self.arrays = {name: np.asarray(values, dtype=np.int64) for name, values in arrays.items()}
        self.probes = probes
        self.delta = DeltaBufferedIndex(tsunami_factory, merge_threshold=NEVER)
        self.delta.build(Table.from_arrays("memo", dict(self.arrays)), workload)
        self.engine = QueryEngine(index=self.delta)
        self.sharded = ShardedIndex(
            partial(DeltaBufferedIndex, tsunami_factory, merge_threshold=NEVER),
            num_shards=2,
            shard_dimension="x",
        )
        self.sharded.build(Table.from_arrays("memo", dict(self.arrays)), workload)

    @property
    def base(self) -> TsunamiIndex:
        return self.delta.base_index

    @property
    def tsunami_indexes(self) -> list[TsunamiIndex]:
        return [self.base, *(shard.base_index for shard in self.sharded.shards)]

    def warm(self) -> dict[Query, tuple]:
        """Serve the probes until memoized; returns the base index's memoized ranges."""
        for _ in range(PASSES):
            self.engine.run_batch(self.probes)
            self.sharded.execute_batch(self.probes)
        assert all(index.plan_memo_entries() > 0 for index in self.tsunami_indexes)
        hits = self.base.plan_memo_stats().hits
        memoized = {query: self.base._ranges_for_query(query) for query in self.probes}
        assert self.base.plan_memo_stats().hits == hits + len(self.probes)
        return memoized

    def insert_and_merge(self, rows: list[dict]) -> None:
        for index in (self.delta, self.sharded):
            index.insert_many(rows)
            index.merge()
        for name in self.arrays:
            added = np.array([row[name] for row in rows], dtype=np.int64)
            self.arrays[name] = np.concatenate([self.arrays[name], added])

    def stale_answers(self, memoized: dict[Query, tuple]) -> int:
        """How many memoized plans, scanned over the base table now, answer wrongly.

        Nonzero means the change really invalidated plans: a memo that
        survived it would serve wrong answers.
        """
        table = self.base.table
        executor = ScanExecutor(table)
        return sum(
            executor.execute(ranges, query.filters())[0]
            != execute_full_scan(table, query, executor)[0]
            for query, ranges in memoized.items()
        )

    def assert_serves_full_scan(self) -> None:
        oracle = Table.from_arrays("oracle", dict(self.arrays))
        expected = [execute_full_scan(oracle, query)[0] for query in self.probes]
        for _ in range(PASSES):
            assert [result.value for result in self.engine.run_batch(self.probes)] == expected
            assert [self.engine.run(query).value for query in self.probes] == expected
            assert [result.value for result in self.sharded.execute_batch(self.probes)] == expected
