"""Insert support via delta buffers (§8, "Data and Workload Shift").

Tsunami as published is read-only.  The paper sketches how insertions could be
supported: "each leaf node in the Grid Tree could maintain a sibling node that
acts as a delta index [39] in which updates are buffered and periodically
merged into the main node."  :class:`DeltaBufferedIndex` implements that idea
one level up, wrapping *any* clustered index in the repository:

* Inserted rows land in a :class:`DeltaBuffer` — a columnar, amortized-growth
  set of ``int64`` arrays in the same storage domain the main index uses.
  :meth:`DeltaBufferedIndex.insert_many` converts whole columns at once, so
  bulk ingestion is vectorized end to end.
* Queries are answered by combining the main index's result with a single
  columnar scan of the buffer, so reads always see every insert immediately.
* Once the buffer reaches ``merge_threshold`` rows (or on an explicit
  :meth:`merge` call), the buffered rows are folded into the table — the
  "periodic merge" of the differential-file technique the paper cites.  The
  wrapped index decides how the fold happens:

  * A built :class:`~repro.core.tsunami.TsunamiIndex` merges *locally*: the
    buffered rows are routed to their owning Grid Tree regions and *only the
    touched regions* are reorganized (see :mod:`repro.core.local_merge`) —
    regions whose pending-row fraction stays at or under
    :data:`~repro.core.local_merge.DEFAULT_SPLIT_THRESHOLD` absorb the rows
    with an in-place re-sort of just their row range, overflowing (or
    previously empty) regions get a locally re-optimized grid.  Untouched
    regions keep their rows, grids, and plan caches, so sustained-insert cost
    scales with the rows that moved, not with the table.
  * Any other wrapped index *rebuilds*: the buffer is concatenated onto the
    table and the whole wrapped index is rebuilt from scratch.  Query results
    after any insert/merge interleaving are bit-identical between the two
    paths.

The wrapper implements the full serving contract of
:class:`~repro.baselines.base.ClusteredIndex` — ``is_built`` / ``table`` /
``execute`` / ``execute_batch`` / ``execute_workload`` / ``explain`` /
``index_size_bytes`` / ``describe`` — so it can sit behind
:class:`~repro.query.engine.QueryEngine` and serve through the batched
pipeline at the same speed as a read-only index: a batch is deduped into
distinct templates, routed through the wrapped index's batched pipeline once,
the buffer is scanned once per distinct template, and the per-template results
are recombined per aggregate.  ``avg`` is recombined in a single pass: the
main index executes the corresponding ``sum`` query, whose scan already
counts the matching rows (``ScanStats.rows_matched``), so no second
count-query execution is needed and the reported scan work is conserved.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.baselines.base import (
    ClusteredIndex,
    PartialAggregate,
    QueryResult,
    avg_as_sum,
    combine_partial_results,
    dedupe_queries,
    expand_deduped_results,
    serve_workload,
)
from repro.common import faults
from repro.common.errors import IndexBuildError, QueryError, SchemaError
from repro.core.local_merge import local_merge, supports_local_merge
from repro.query.query import Query
from repro.query.workload import Workload
from repro.storage.column import Column
from repro.storage.kernels import fused_count, fused_max, fused_min, fused_sum
from repro.storage.scan import ScanStats
from repro.storage.table import Table

IndexFactory = Callable[[], ClusteredIndex]

#: Smallest per-column allocation of a :class:`DeltaBuffer`.
MIN_BUFFER_CAPACITY = 64


@dataclass
class MergeReport:
    """Outcome of folding the delta buffer into the main index.

    ``strategy`` records the path that ran (``"local"``, or ``"rebuild"``
    when the wrapped index has no region layout); ``regions_touched`` /
    ``regions_total`` are filled by local merges only.  ``rebuild_seconds``
    keeps its historical name and times whichever reorganization ran.
    """

    rows_merged: int
    rebuild_seconds: float
    total_rows: int
    strategy: str = "rebuild"
    regions_touched: int | None = None
    regions_total: int | None = None


@dataclass(frozen=True)
class BufferScan:
    """Everything one query needs from a single pass over the delta buffer.

    All aggregate pieces are computed together so one scan per distinct
    template serves any aggregate: ``total`` feeds ``sum``/``avg``,
    ``matched`` feeds ``count``/``avg``, ``minimum``/``maximum`` (``NaN``
    when no buffered row matches) feed ``min``/``max``.
    """

    total: float
    minimum: float
    maximum: float
    matched: int
    stats: ScanStats


class DeltaBuffer:
    """A columnar insert buffer with amortized-growth ``int64`` storage.

    Values are appended into preallocated per-column arrays that double in
    capacity when full, so appends are amortized O(1) and queries scan the
    live prefix of each array directly — no per-query list→array conversion.
    """

    def __init__(self, column_names: Sequence[str], capacity: int = MIN_BUFFER_CAPACITY) -> None:
        names = list(column_names)
        if not names:
            raise SchemaError("DeltaBuffer needs at least one column")
        if len(set(names)) != len(names):
            raise SchemaError(f"DeltaBuffer has duplicate column names: {names}")
        self._names = names
        self._capacity = max(int(capacity), MIN_BUFFER_CAPACITY)
        self._size = 0
        self._data = {name: np.empty(self._capacity, dtype=np.int64) for name in names}

    # -- protocol ---------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        return (
            f"DeltaBuffer(columns={self._names}, rows={self._size}, "
            f"capacity={self._capacity})"
        )

    @property
    def column_names(self) -> list[str]:
        """Buffered column names, in table order."""
        return list(self._names)

    @property
    def capacity(self) -> int:
        """Currently allocated rows per column (grows by doubling)."""
        return self._capacity

    def column(self, name: str) -> np.ndarray:
        """The buffered values of ``name`` (a view of the live prefix)."""
        try:
            return self._data[name][: self._size]
        except KeyError:
            raise SchemaError(
                f"delta buffer has no column {name!r}; available: {self._names}"
            ) from None

    # -- appends -----------------------------------------------------------------

    def _ensure_capacity(self, extra: int) -> None:
        needed = self._size + extra
        if needed <= self._capacity:
            return
        capacity = self._capacity
        while capacity < needed:
            capacity *= 2
        for name, storage in self._data.items():
            grown = np.empty(capacity, dtype=np.int64)
            grown[: self._size] = storage[: self._size]
            self._data[name] = grown
        self._capacity = capacity

    def append(self, row: Mapping[str, int]) -> None:
        """Append one already-converted row of storage-domain integers."""
        self._ensure_capacity(1)
        position = self._size
        for name in self._names:
            self._data[name][position] = row[name]
        self._size += 1

    def append_many(self, columns: Mapping[str, np.ndarray]) -> int:
        """Append equal-length storage-domain arrays, one per column.

        This is the vectorized bulk path: a single slice assignment per
        column, with capacity grown at most once.  Returns the number of rows
        appended.
        """
        missing = [name for name in self._names if name not in columns]
        if missing:
            raise SchemaError(f"append_many is missing values for columns {missing}")
        arrays: dict[str, np.ndarray] = {}
        length: int | None = None
        for name in self._names:
            array = np.asarray(columns[name], dtype=np.int64)
            if array.ndim != 1:
                raise SchemaError(
                    f"append_many values for column {name!r} must be 1-dimensional"
                )
            if length is None:
                length = int(array.shape[0])
            elif int(array.shape[0]) != length:
                raise SchemaError(
                    f"append_many column lengths differ: {name!r} has "
                    f"{array.shape[0]} values, expected {length}"
                )
            arrays[name] = array
        if not length:
            return 0
        self._ensure_capacity(length)
        start = self._size
        for name in self._names:
            self._data[name][start : start + length] = arrays[name]
        self._size += length
        return length

    def clear(self) -> None:
        """Drop every buffered row and shrink back to the minimum allocation."""
        self._size = 0
        if self._capacity > MIN_BUFFER_CAPACITY:
            self._capacity = MIN_BUFFER_CAPACITY
            self._data = {
                name: np.empty(self._capacity, dtype=np.int64) for name in self._names
            }

    # -- scans --------------------------------------------------------------------

    def mask_for_filters(self, filters: Mapping[str, tuple[int, int]]) -> np.ndarray:
        """Boolean mask of buffered rows matching every ``{dim: (low, high)}``."""
        mask = np.ones(self._size, dtype=bool)
        for dim, (low, high) in filters.items():
            if dim not in self._data:
                raise QueryError(f"query filters unknown dimension {dim!r}")
            values = self._data[dim][: self._size]
            mask &= (values >= low) & (values <= high)
        return mask

    def scan(self, query: Query) -> BufferScan:
        """Evaluate ``query`` over the buffer in one pass (see :class:`BufferScan`).

        Aggregation goes through the fused kernels: the whole live prefix is
        reduced under the filter mask without materializing matching rows.
        The buffer is staging storage and stays ``int64``, so its scan
        counters charge 8 bytes per value read.
        """
        stats = ScanStats(dims_accessed=query.num_filtered_dimensions)
        if self._size == 0:
            return BufferScan(0.0, float("nan"), float("nan"), 0, stats)
        stats.points_scanned = self._size
        stats.cell_ranges = 1
        filters = query.filters()
        stats.values_scanned = self._size * len(filters)
        stats.bytes_scanned = 8 * stats.values_scanned
        mask = self.mask_for_filters(filters)
        matched = fused_count(mask)
        stats.rows_matched = matched
        if matched == 0 or query.aggregate == "count":
            return BufferScan(0.0, float("nan"), float("nan"), matched, stats)
        target = self._data[query.aggregate_column][: self._size]
        stats.values_scanned += self._size
        stats.bytes_scanned += 8 * self._size
        return BufferScan(
            total=float(fused_sum(target, mask)),
            minimum=float(fused_min(target, mask)),
            maximum=float(fused_max(target, mask)),
            matched=matched,
            stats=stats,
        )

    def size_bytes(self) -> int:
        """Logical footprint of the buffered values (8 bytes per live value)."""
        return 8 * self._size * len(self._names)


class DeltaBufferedIndex:
    """A clustered index plus an insert buffer that is periodically merged.

    Parameters
    ----------
    index_factory:
        Zero-argument callable producing a fresh instance of the wrapped
        index; used for the initial build and for every merge-triggered
        rebuild.
    merge_threshold:
        Number of buffered rows at which inserts trigger an automatic merge.
        ``0`` merges after every insert call; use a large value to manage
        merges manually via :meth:`merge`.
    """

    name = "delta-buffered"

    def __init__(
        self,
        index_factory: IndexFactory,
        merge_threshold: int = 10_000,
    ) -> None:
        if merge_threshold < 0:
            raise ValueError(f"merge_threshold must be >= 0, got {merge_threshold}")
        self._index_factory = index_factory
        self.merge_threshold = merge_threshold
        self._index: ClusteredIndex | None = None
        self._workload: Workload | None = None
        self._buffer: DeltaBuffer | None = None
        self._merges: list[MergeReport] = []

    # -- build ----------------------------------------------------------------------

    def build(self, table: Table, workload: Workload | None = None) -> "DeltaBufferedIndex":
        """Build the wrapped index over ``table`` (optionally workload-optimized)."""
        self._index = self._index_factory()
        self._index.build(table, workload)
        self._workload = workload
        self._buffer = DeltaBuffer(table.column_names)
        return self

    def _require_built(self) -> ClusteredIndex:
        if self._index is None or not self._index.is_built:
            raise IndexBuildError("DeltaBufferedIndex has not been built yet")
        return self._index

    @property
    def is_built(self) -> bool:
        """Whether :meth:`build` has completed (serving-contract parity)."""
        return self._index is not None and self._index.is_built

    @property
    def table(self) -> Table:
        """The main index's clustered table (pending inserts live in the buffer)."""
        return self._require_built().table

    # -- inserts ----------------------------------------------------------------------

    @property
    def base_index(self) -> ClusteredIndex:
        """The wrapped clustered index (rebuilt on every merge)."""
        return self._require_built()

    @property
    def buffer(self) -> DeltaBuffer:
        """The columnar insert buffer (reset on every merge)."""
        self._require_built()
        assert self._buffer is not None
        return self._buffer

    @property
    def workload(self) -> Workload | None:
        """The workload merges rebuild the main index for."""
        return self._workload

    @workload.setter
    def workload(self, workload: Workload | None) -> None:
        """Advance the rebuild workload (e.g. after drift-triggered re-optimization)."""
        self._workload = workload

    @property
    def num_pending(self) -> int:
        """Number of inserted rows not yet merged into the main index."""
        return len(self._buffer) if self._buffer is not None else 0

    @property
    def num_rows(self) -> int:
        """Total rows visible to queries (main table plus pending inserts)."""
        return self._require_built().table.num_rows + self.num_pending

    def _convert_value(self, column: Column, value: object) -> int:
        try:
            return int(column.to_storage(value))
        except (KeyError, ValueError, TypeError, SchemaError) as exc:
            raise SchemaError(
                f"value {value!r} cannot be stored in column {column.name!r}: {exc}"
            ) from exc

    def _maybe_merge(self) -> None:
        if self.num_pending and self.num_pending >= self.merge_threshold:
            self.merge()

    def insert(self, row: Mapping[str, object]) -> None:
        """Insert one row given as ``{column: user-facing value}``.

        Values are converted to the storage domain through each column's
        existing encoding; a categorical value not present in the column's
        dictionary is rejected (extending dictionaries online is out of scope
        for this extension and the paper's).
        """
        index = self._require_built()
        table = index.table
        missing = [name for name in table.column_names if name not in row]
        if missing:
            raise SchemaError(f"insert is missing values for columns {missing}")
        converted = {
            name: self._convert_value(table.column(name), row[name])
            for name in table.column_names
        }
        assert self._buffer is not None
        self._buffer.append(converted)
        self._maybe_merge()

    def insert_many(self, rows: Sequence[Mapping[str, object]]) -> None:
        """Insert several rows at once via the vectorized columnar path.

        All rows are schema-checked and converted column-by-column (one numpy
        conversion per column) before anything is buffered, then appended in
        merge-threshold-sized chunks so the automatic merge cadence matches a
        per-row insert loop.
        """
        rows = list(rows)
        if not rows:
            return
        index = self._require_built()
        table = index.table
        column_names = table.column_names
        columns: dict[str, np.ndarray] = {}
        for name in column_names:
            try:
                values = [row[name] for row in rows]
            except KeyError:
                position = next(i for i, row in enumerate(rows) if name not in row)
                missing = [c for c in column_names if c not in rows[position]]
                raise SchemaError(
                    f"insert is missing values for columns {missing}"
                ) from None
            columns[name] = table.column(name).to_storage_array(values)
        assert self._buffer is not None
        total = len(rows)
        offset = 0
        while offset < total:
            chunk = total - offset
            if self.merge_threshold > 0:
                room = self.merge_threshold - self.num_pending
                chunk = min(chunk, max(room, 1))
            self._buffer.append_many(
                {name: array[offset : offset + chunk] for name, array in columns.items()}
            )
            offset += chunk
            self._maybe_merge()

    # -- merging ----------------------------------------------------------------------

    def merge(self) -> MergeReport | None:
        """Fold every pending insert into the table.

        Returns the merge report, or ``None`` if the buffer was empty.  When
        :func:`~repro.core.local_merge.supports_local_merge` holds for the
        wrapped index, only the regions whose rows changed are reorganized
        (see :mod:`repro.core.local_merge`); otherwise the whole wrapped index
        is rebuilt.  Either way a merge that fails mid-way leaves the index
        serving the old table with the buffer intact.
        """
        return self._merge(local=supports_local_merge(self._require_built()))

    def _merge(self, *, local: bool) -> MergeReport | None:
        """The body of :meth:`merge`; ``local=False`` takes the rebuild path."""
        index = self._require_built()
        assert self._buffer is not None
        pending = self.num_pending
        if pending == 0:
            return None
        faults.trigger("delta.merge")
        start = time.perf_counter()
        if local:
            buffer_columns = {
                name: self._buffer.column(name)
                for name in index.table.column_names
            }
            outcome = local_merge(index, buffer_columns)
            report = MergeReport(
                rows_merged=pending,
                rebuild_seconds=time.perf_counter() - start,
                total_rows=index.table.num_rows,
                strategy="local",
                regions_touched=outcome.regions_touched,
                regions_total=outcome.regions_total,
            )
        else:
            report = self._rebuild_merge(index, start)
        self._buffer = DeltaBuffer(index.table.column_names)
        self._merges.append(report)
        return report

    def _rebuild_merge(self, index: ClusteredIndex, start: float) -> MergeReport:
        """The global path: concatenate the buffer and rebuild the index."""
        assert self._buffer is not None
        old_table = index.table
        columns = []
        for name in old_table.column_names:
            source = old_table.column(name)
            # Concatenating the (possibly narrow) main column with the int64
            # buffer promotes to int64; the Column constructor then narrows to
            # the smallest dtype covering the *merged* range.  An insert that
            # overflows the old narrow dtype therefore widens the column
            # instead of crashing or wrapping.
            merged_values = np.concatenate([source.values, self._buffer.column(name)])
            columns.append(
                Column(
                    name,
                    merged_values,
                    dictionary=source.dictionary,
                    scaler=source.scaler,
                )
            )
        merged_table = Table(old_table.name, columns)
        # Build the replacement fully before installing it: a rebuild that
        # fails (or is fault-injected) must leave the index serving the old
        # table with the buffer intact, not half-replaced.
        rebuilt = self._index_factory()
        rebuilt.build(merged_table, self._workload)
        self._index = rebuilt
        return MergeReport(
            rows_merged=len(self._buffer),
            rebuild_seconds=time.perf_counter() - start,
            total_rows=merged_table.num_rows,
            strategy="rebuild",
        )

    @property
    def merge_history(self) -> list[MergeReport]:
        """Every merge performed so far, in order."""
        return list(self._merges)

    # -- queries ----------------------------------------------------------------------

    @staticmethod
    def _main_query(query: Query) -> Query:
        """The query the main index executes in place of ``query``.

        ``avg`` runs the corresponding ``sum`` query (see
        :func:`~repro.baselines.base.avg_as_sum`) so the recombination gets
        the sum and the matched-row count from one main-index pass.
        """
        return avg_as_sum(query)

    @staticmethod
    def _buffer_partial(query: Query, scan: BufferScan) -> PartialAggregate:
        """The buffer scan's contribution as a recombinable partial."""
        if query.aggregate == "count":
            value: float = scan.matched
        elif query.aggregate in ("sum", "avg"):
            value = scan.total
        elif query.aggregate == "min":
            value = scan.minimum
        else:
            value = scan.maximum
        return PartialAggregate(value=value, matched=scan.matched, stats=scan.stats)

    def _combine(self, query: Query, main: QueryResult, scan: BufferScan) -> QueryResult:
        """Recombine the main index's result with the buffer scan, per aggregate."""
        # ``main`` executed the rewritten query (see _main_query), so for
        # ``avg`` its value is the main-side sum and its rows_matched the count.
        main_partial = PartialAggregate(
            value=main.value, matched=main.stats.rows_matched, stats=main.stats
        )
        return combine_partial_results(
            query.aggregate, [main_partial, self._buffer_partial(query, scan)]
        )

    def execute(self, query: Query) -> QueryResult:
        """Answer ``query`` over the main index plus the delta buffer."""
        index = self._require_built()
        assert self._buffer is not None
        scan = self._buffer.scan(query)
        main = index.execute(self._main_query(query))
        return self._combine(query, main, scan)

    def execute_batch(self, queries: Sequence[Query]) -> list[QueryResult]:
        """Answer a batch of queries through the wrapped index's batched pipeline.

        The batch is deduped into distinct templates; the main index plans and
        scans the whole batch once (sharing grid-tree routing, plan-cache
        lookups, column slices, and filter masks), the buffer is scanned once
        per distinct template, and the results are recombined per aggregate.
        Results are in input order and identical to per-query :meth:`execute`.
        """
        self._require_built()
        assert self._buffer is not None
        queries = list(queries)
        if not queries:
            return []
        distinct, order = dedupe_queries(queries)
        main_results = self._require_built().execute_batch(
            [self._main_query(query) for query in distinct]
        )
        combined = [
            self._combine(query, main, self._buffer.scan(query))
            for query, main in zip(distinct, main_results)
        ]
        return expand_deduped_results(combined, order)

    def execute_workload(self, workload: Workload) -> tuple[list[QueryResult], ScanStats]:
        """Execute every query in ``workload`` and return results plus total work."""
        return serve_workload(self, workload)

    # -- reporting --------------------------------------------------------------------

    def explain(self, query: Query) -> dict:
        """The wrapped index's plan for ``query``, extended with the buffer scan.

        Every pending insert is scanned (one extra contiguous "range"), so the
        row counts and scanned fraction include the buffer.
        """
        index = self._require_built()
        plan = dict(index.explain(query))
        pending = self.num_pending
        plan["index"] = f"{self.name}({plan['index']})"
        plan["pending_inserts"] = pending
        if pending:
            plan["cell_ranges"] += 1
            plan["rows_to_scan"] += pending
        plan["table_fraction_scanned"] = plan["rows_to_scan"] / max(self.num_rows, 1)
        if self._merges:
            last = self._merges[-1]
            plan["last_merge"] = {
                "strategy": last.strategy,
                "rows_merged": last.rows_merged,
                "regions_touched": last.regions_touched,
                "regions_total": last.regions_total,
            }
        return plan

    def index_size_bytes(self) -> int:
        """Main index size plus the delta buffer (8 bytes per buffered value)."""
        buffered = self._buffer.size_bytes() if self._buffer is not None else 0
        return self._require_built().index_size_bytes() + buffered

    def describe(self) -> dict:
        """Structural statistics of the wrapper and the current main index."""
        info = {
            "name": self.name,
            "pending_inserts": self.num_pending,
            "merge_threshold": self.merge_threshold,
            "num_merges": len(self._merges),
            "total_rows": self.num_rows,
            "base_index": self._require_built().describe(),
        }
        if self._merges:
            last = self._merges[-1]
            info["last_merge"] = {
                "strategy": last.strategy,
                "rows_merged": last.rows_merged,
                "regions_touched": last.regions_touched,
                "regions_total": last.regions_total,
            }
        return info
