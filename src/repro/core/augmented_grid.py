"""The Augmented Grid: a correlation-aware grid index over one region (§5).

An Augmented Grid generalizes Flood's grid.  Every dimension uses one of three
partitioning strategies (see :mod:`repro.core.skeleton`):

* independent CDF partitioning (Flood's behaviour),
* a functional mapping that removes the dimension from the grid and rewrites
  its filters onto a target dimension (§5.2.1),
* conditional-CDF partitioning given a base dimension (§5.2.2), which
  staggers partition boundaries so cells stay equally sized under correlation.

The grid owns the physical order of its rows: :meth:`AugmentedGrid.fit`
computes a cell id per row and returns the permutation that clusters rows by
cell.  Queries are planned by enumerating intersecting cells (respecting the
conditional-CDF dependency structure), converted to contiguous cell ranges,
and either executed against the table or returned as cost-model features —
the optimizer (§5.3) uses the same planning code on a data sample.

:meth:`AugmentedGrid.plan` computes every per-dimension partition window
once, expands the cross product of the *outer* dimensions with numpy stride
arithmetic, and emits one coalesced span per outer-dimension prefix — cells
consecutive in the innermost dimension occupy contiguous physical rows, so no
per-cell Python work is needed.  The original per-cell recursive enumeration
lives on only as the test suite's oracle (``tests/planner_oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import IndexBuildError, OptimizationError
from repro.core.cost_model import QueryPlanFeatures
from repro.core.outliers import OutlierBoundedMapping
from repro.core.query_types import PlanCache
from repro.core.skeleton import (
    ConditionalCDFStrategy,
    FunctionalMappingStrategy,
    IndependentCDFStrategy,
    Skeleton,
)
from repro.query.query import Query
from repro.stats.cdf import ConditionalCDF, EmpiricalCDF
from repro.stats.correlation import BoundedLinearModel
from repro.storage.scan import RowRange
from repro.storage.table import Table

#: Hard ceiling on the number of grid cells a single Augmented Grid may have.
#: Protects the lookup table from exploding when an optimizer proposes an
#: unreasonable partition vector (§5.1 discusses exactly this space blow-up).
DEFAULT_MAX_CELLS = 1 << 20


@dataclass(frozen=True)
class AugmentedGridConfig:
    """A concrete Augmented Grid instantiation: skeleton plus partition counts.

    ``outlier_aware_mappings`` enables the §8 extension implemented in
    :mod:`repro.core.outliers`: functional mappings buffer extreme rows
    separately so a handful of outliers cannot inflate the mapping's error
    bounds.  ``outlier_fraction`` caps how many rows may be buffered per
    mapping.
    """

    skeleton: Skeleton
    partitions: dict[str, int]
    max_cells: int = DEFAULT_MAX_CELLS
    cdf_knots: int = 64
    conditional_knots: int = 32
    outlier_aware_mappings: bool = False
    outlier_fraction: float = 0.05

    def validated(self) -> "AugmentedGridConfig":
        """Check partition counts against the skeleton and the cell budget."""
        grid_dims = self.skeleton.grid_dimensions
        missing = [dim for dim in grid_dims if dim not in self.partitions]
        if missing:
            raise OptimizationError(
                f"partition counts missing for grid dimensions {missing}"
            )
        for dim in grid_dims:
            if self.partitions[dim] < 1:
                raise OptimizationError(
                    f"dimension {dim!r} has invalid partition count "
                    f"{self.partitions[dim]}"
                )
        total_cells = 1
        for dim in grid_dims:
            total_cells *= self.partitions[dim]
        if total_cells > self.max_cells:
            raise OptimizationError(
                f"configuration would create {total_cells} cells, exceeding the "
                f"budget of {self.max_cells}"
            )
        return self

    @property
    def total_cells(self) -> int:
        """Number of cells this configuration creates."""
        total = 1
        for dim in self.skeleton.grid_dimensions:
            total *= self.partitions[dim]
        return total


class AugmentedGrid:
    """A fitted Augmented Grid over one region's rows.

    ``plan_cache`` optionally memoizes planned spans under the
    query's type and quantized (partition-window) bounds so skewed workloads
    reuse plans instead of re-planning.  The cache is cleared by :meth:`fit`
    because spans are offsets into the clustered row order.
    """

    def __init__(
        self,
        config: AugmentedGridConfig,
        plan_cache: PlanCache | None = None,
    ) -> None:
        self.plan_cache = plan_cache
        self.config = config.validated()
        self.skeleton = config.skeleton
        # Grid-dimension order: independents first so conditional dimensions
        # always see their base's partition during enumeration and fitting.
        independents = [
            dim
            for dim in self.skeleton.dimensions
            if isinstance(self.skeleton.strategy_for(dim), IndependentCDFStrategy)
        ]
        conditionals = [
            dim
            for dim in self.skeleton.dimensions
            if isinstance(self.skeleton.strategy_for(dim), ConditionalCDFStrategy)
        ]
        self.grid_dimensions: list[str] = independents + conditionals
        # Independent dimensions some conditional dimension partitions against;
        # the vectorized planner tracks partition assignments only for these.
        self._base_dims: set[str] = {
            self.skeleton.strategy_for(dim).base for dim in conditionals
        }
        self._strides: dict[str, int] = {}
        self._cdf_models: dict[str, EmpiricalCDF] = {}
        self._conditional_models: dict[str, ConditionalCDF] = {}
        self._mapping_models: dict[str, BoundedLinearModel | OutlierBoundedMapping] = {}
        self._offsets: np.ndarray | None = None
        self._num_rows = 0
        self._fitted = False

    # -- fitting -----------------------------------------------------------------

    def fit(self, table: Table, model_cache: dict | None = None) -> np.ndarray:
        """Fit all models, assign rows to cells, and return the clustering permutation.

        The returned permutation orders the table's rows by cell id; the
        internal lookup table assumes that order, so the caller must apply the
        permutation (or an equivalent global reordering) before executing
        queries through this grid.

        ``model_cache`` lets the optimizer reuse per-dimension models across
        the many candidate configurations it evaluates on the *same* sample
        table; it must not be shared across different tables.
        """
        if table.num_rows == 0:
            raise IndexBuildError("cannot fit an Augmented Grid over zero rows")
        for dim in self.skeleton.dimensions:
            if dim not in table:
                raise IndexBuildError(
                    f"skeleton dimension {dim!r} is not a column of table {table.name!r}"
                )
        self._num_rows = table.num_rows
        partition_ids: dict[str, np.ndarray] = {}
        cache = model_cache if model_cache is not None else {}

        # Independent dimensions first: their CDF models and partition ids are
        # needed by both conditional dimensions and functional mappings.
        # Dimensions with a single partition need no model at all: every row
        # lands in partition 0.
        for dim in self.grid_dimensions:
            strategy = self.skeleton.strategy_for(dim)
            if not isinstance(strategy, IndependentCDFStrategy):
                continue
            count = self.config.partitions[dim]
            if count == 1:
                partition_ids[dim] = np.zeros(table.num_rows, dtype=np.int64)
                continue
            # Model resolution only needs to resolve ``count`` partition
            # boundaries, so size the knot budget proportionally.
            knots = min(self.config.cdf_knots, max(8, 4 * count))
            key = ("cdf", dim, knots)
            model = cache.get(key)
            if model is None:
                model = EmpiricalCDF(table.values(dim), max_knots=knots)
                cache[key] = model
            self._cdf_models[dim] = model
            partition_ids[dim] = model.partitions_of(table.values(dim), count)

        # Conditional dimensions: one CDF per base partition.
        for dim in self.grid_dimensions:
            strategy = self.skeleton.strategy_for(dim)
            if not isinstance(strategy, ConditionalCDFStrategy):
                continue
            base = strategy.base
            count = self.config.partitions[dim]
            if count == 1:
                partition_ids[dim] = np.zeros(table.num_rows, dtype=np.int64)
                continue
            knots = min(self.config.conditional_knots, max(4, 4 * count))
            key = ("cond", dim, base, self.config.partitions[base], knots)
            model = cache.get(key)
            if model is None:
                model = ConditionalCDF(
                    base_partitions=partition_ids[base],
                    dependent_values=table.values(dim),
                    num_base_partitions=self.config.partitions[base],
                    max_knots=knots,
                )
                cache[key] = model
            self._conditional_models[dim] = model
            partition_ids[dim] = model.partitions_of(
                table.values(dim), partition_ids[base], count
            )

        # Mapped dimensions: fit the bounded regression predicting the target.
        # With ``outlier_aware_mappings`` the §8 extension is used instead:
        # extreme rows go to a per-mapping outlier buffer so they cannot
        # inflate the error bounds (see repro.core.outliers).
        for dim in self.skeleton.mapped_dimensions:
            strategy = self.skeleton.strategy_for(dim)
            assert isinstance(strategy, FunctionalMappingStrategy)
            key = ("map", dim, strategy.target, self.config.outlier_aware_mappings)
            model = cache.get(key)
            if model is None:
                if self.config.outlier_aware_mappings:
                    model = OutlierBoundedMapping.fit(
                        mapped_values=table.values(dim),
                        target_values=table.values(strategy.target),
                        max_outlier_fraction=self.config.outlier_fraction,
                    )
                else:
                    model = BoundedLinearModel.fit(
                        mapped_values=table.values(dim),
                        target_values=table.values(strategy.target),
                    )
                cache[key] = model
            self._mapping_models[dim] = model

        # Row-major cell ids over the grid dimensions.
        self._strides = {}
        stride = 1
        for dim in reversed(self.grid_dimensions):
            self._strides[dim] = stride
            stride *= self.config.partitions[dim]
        total_cells = stride if self.grid_dimensions else 1

        cell_ids = np.zeros(table.num_rows, dtype=np.int64)
        for dim in self.grid_dimensions:
            cell_ids += partition_ids[dim] * self._strides[dim]

        permutation = np.argsort(cell_ids, kind="stable")
        sorted_cells = cell_ids[permutation]
        counts = np.bincount(sorted_cells, minlength=total_cells)
        self._offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        self._fitted = True
        if self.plan_cache is not None:
            # Cached spans are offsets into the previous clustered order.
            self.plan_cache.clear()
        return permutation

    def absorb(
        self, appended: Table, plan_cache: PlanCache | None = None
    ) -> tuple["AugmentedGrid", np.ndarray]:
        """Fold rows appended after this grid's rows into a new fitted grid.

        Returns the new grid plus the stable clustering permutation over the
        combined rows (this grid's rows first, ``appended`` after them);
        ``self`` is never mutated, so a caller that fails mid-merge keeps a
        consistent serving grid.

        The existing rows are *not* re-assigned: the new grid shares this
        grid's CDF and conditional-CDF models, under which their partition
        ids are unchanged, so only the appended rows are pushed through the
        models and merged into the sorted-by-cell order.  That makes absorb
        cost proportional to the appended rows (plus one O(region) stable
        merge), not to the quantile sweeps a full refit pays.  Reused CDFs
        stay correct because row assignment and query planning go through
        the same model — a stale boundary shifts cells, never answers.
        Functional mappings are the exception: their error bounds must cover
        every row they serve, so the new grid gets bound-widened copies
        (:meth:`~repro.stats.correlation.BoundedLinearModel.widened`)
        covering the appended rows' residuals.
        """
        self._require_fitted()
        assert self._offsets is not None
        num_appended = appended.num_rows
        grid = AugmentedGrid(self.config, plan_cache=plan_cache)
        grid._cdf_models = dict(self._cdf_models)
        grid._conditional_models = dict(self._conditional_models)
        grid._strides = dict(self._strides)

        partition_ids: dict[str, np.ndarray] = {}
        for dim in self.grid_dimensions:
            strategy = self.skeleton.strategy_for(dim)
            count = self.config.partitions[dim]
            if count == 1:
                partition_ids[dim] = np.zeros(num_appended, dtype=np.int64)
            elif isinstance(strategy, IndependentCDFStrategy):
                partition_ids[dim] = self._cdf_models[dim].partitions_of(
                    appended.values(dim), count
                )
            else:
                assert isinstance(strategy, ConditionalCDFStrategy)
                partition_ids[dim] = self._conditional_models[dim].partitions_of(
                    appended.values(dim), partition_ids[strategy.base], count
                )
        for dim, model in self._mapping_models.items():
            strategy = self.skeleton.strategy_for(dim)
            assert isinstance(strategy, FunctionalMappingStrategy)
            grid._mapping_models[dim] = model.widened(
                appended.values(dim), appended.values(strategy.target)
            )

        appended_cells = np.zeros(num_appended, dtype=np.int64)
        for dim in self.grid_dimensions:
            appended_cells += partition_ids[dim] * self._strides[dim]
        counts = np.diff(self._offsets)
        existing_cells = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
        permutation = np.argsort(
            np.concatenate([existing_cells, appended_cells]), kind="stable"
        )
        counts = counts + np.bincount(appended_cells, minlength=counts.size)
        grid._offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        grid._num_rows = self._num_rows + num_appended
        grid._fitted = True
        return grid, permutation

    # -- planning ------------------------------------------------------------------

    def _require_fitted(self) -> None:
        if not self._fitted or self._offsets is None:
            raise IndexBuildError("AugmentedGrid has not been fitted")

    def _effective_bounds(self, query: Query) -> dict[str, tuple[float, float]]:
        """Per-grid-dimension filter bounds after applying functional mappings.

        A filter over a mapped dimension is rewritten (via the mapping's error
        bounds) into a covering range over its target dimension and intersected
        with any direct filter over the target.
        """
        bounds: dict[str, tuple[float, float]] = {}
        for dim in self.grid_dimensions:
            predicate = query.predicate_for(dim)
            if predicate is not None:
                bounds[dim] = (float(predicate.low), float(predicate.high))
        for dim in self.skeleton.mapped_dimensions:
            predicate = query.predicate_for(dim)
            if predicate is None:
                continue
            strategy = self.skeleton.strategy_for(dim)
            assert isinstance(strategy, FunctionalMappingStrategy)
            mapped_low, mapped_high = self._mapping_models[dim].map_range(
                float(predicate.low), float(predicate.high)
            )
            if strategy.target in bounds:
                existing_low, existing_high = bounds[strategy.target]
                bounds[strategy.target] = (
                    max(existing_low, mapped_low),
                    min(existing_high, mapped_high),
                )
            else:
                bounds[strategy.target] = (mapped_low, mapped_high)
        return bounds

    def _partition_window(
        self,
        dim: str,
        bounds: dict[str, tuple[float, float]],
        assignment: dict[str, int],
    ) -> tuple[int, int]:
        """Inclusive partition-id window of ``dim`` given bounds and base assignments."""
        num_partitions = self.config.partitions[dim]
        if dim not in bounds or num_partitions == 1:
            return 0, num_partitions - 1
        low, high = bounds[dim]
        if high < low:
            return 1, 0  # empty window
        strategy = self.skeleton.strategy_for(dim)
        if isinstance(strategy, IndependentCDFStrategy):
            return self._cdf_models[dim].partition_range(low, high, num_partitions)
        assert isinstance(strategy, ConditionalCDFStrategy)
        base_partition = assignment[strategy.base]
        return self._conditional_models[dim].partition_range(
            low, high, base_partition, num_partitions
        )

    def _window_table(
        self, query: Query
    ) -> dict[str, tuple[int, int] | tuple[np.ndarray, np.ndarray]]:
        """Every grid dimension's partition window(s) for ``query``.

        Independent dimensions map to one inclusive ``(first, last)`` window.
        Conditional dimensions map to two parallel int arrays holding one
        window per base partition inside the base dimension's own window
        (empty windows are encoded as ``first > last``).  This table is the
        query's *quantized bounds*: it fully determines the planned spans, so
        it doubles as the plan-cache key material.
        """
        bounds = self._effective_bounds(query)
        windows: dict[str, tuple[int, int] | tuple[np.ndarray, np.ndarray]] = {}
        for dim in self.grid_dimensions:
            strategy = self.skeleton.strategy_for(dim)
            if isinstance(strategy, IndependentCDFStrategy):
                windows[dim] = self._partition_window(dim, bounds, {})
                continue
            assert isinstance(strategy, ConditionalCDFStrategy)
            base_window = windows[strategy.base]
            base_first, base_last = base_window  # bases are independent
            num_base = max(int(base_last) - int(base_first) + 1, 0)
            count = self.config.partitions[dim]
            if dim not in bounds or count == 1:
                firsts = np.zeros(num_base, dtype=np.int64)
                lasts = np.full(num_base, count - 1, dtype=np.int64)
            else:
                low, high = bounds[dim]
                firsts = np.empty(num_base, dtype=np.int64)
                lasts = np.empty(num_base, dtype=np.int64)
                if high < low:
                    firsts[:] = 1
                    lasts[:] = 0
                else:
                    model = self._conditional_models[dim]
                    for position, base_partition in enumerate(
                        range(int(base_first), int(base_last) + 1)
                    ):
                        first, last = model.partition_range(
                            low, high, base_partition, count
                        )
                        firsts[position] = first
                        lasts[position] = last
            windows[dim] = (firsts, lasts)
        return windows

    def _plan_key(self, query: Query, windows: dict) -> tuple:
        """Plan-cache key: query type + filtered dims + quantized bounds."""
        signature = []
        for dim in self.grid_dimensions:
            window = windows[dim]
            if isinstance(window[0], np.ndarray):
                signature.append((tuple(window[0].tolist()), tuple(window[1].tolist())))
            else:
                signature.append((int(window[0]), int(window[1])))
        return (
            query.query_type,
            tuple(sorted(query.filtered_dimensions)),
            tuple(signature),
        )

    def _vectorized_spans(
        self, query: Query, windows: dict
    ) -> list[tuple[int, int, bool]]:
        """Coalesced ``(start, stop, exact)`` spans, without per-cell work.

        The cross product of the outer dimensions' windows is expanded with
        numpy broadcasting (ragged conditional windows via ``np.repeat``); the
        innermost dimension's window then yields at most three spans per
        prefix — the two boundary cells and the exact interior run — because
        consecutive innermost cells are physically contiguous.  Output is
        byte-identical to the per-cell recursive enumeration.
        """
        assert self._offsets is not None
        offsets = self._offsets
        dims = self.grid_dimensions
        filtered_dims = set(query.filtered_dimensions)
        exactness_possible = filtered_dims.issubset(set(dims))

        if not dims:
            start, stop = int(offsets[0]), int(offsets[1])
            if stop <= start:
                return []
            return [(start, stop, exactness_possible)]

        cell_base = np.zeros(1, dtype=np.int64)
        exact = np.full(1, exactness_possible)
        part_ids: dict[str, np.ndarray] = {}

        for dim in dims[:-1]:
            stride = self._strides[dim]
            query_filters_dim = dim in filtered_dims
            strategy = self.skeleton.strategy_for(dim)
            if isinstance(strategy, IndependentCDFStrategy):
                first, last = windows[dim]
                if first > last:
                    return []
                parts = np.arange(first, last + 1, dtype=np.int64)
                width = parts.size
                if query_filters_dim:
                    interior = (parts > first) & (parts < last)
                    exact = (exact[:, None] & interior[None, :]).reshape(-1)
                else:
                    exact = np.repeat(exact, width)
                previous_size = cell_base.size
                cell_base = (cell_base[:, None] + parts[None, :] * stride).reshape(-1)
                part_ids = {d: np.repeat(a, width) for d, a in part_ids.items()}
                if dim in self._base_dims:
                    part_ids[dim] = np.tile(parts, previous_size)
            else:
                firsts_w, lasts_w = windows[dim]
                base = strategy.base
                base_first = int(windows[base][0])
                index = part_ids[base] - base_first
                firsts = firsts_w[index]
                lasts = lasts_w[index]
                lengths = np.maximum(lasts - firsts + 1, 0)
                total = int(lengths.sum())
                if total == 0:
                    return []
                repeats = np.repeat(np.arange(cell_base.size), lengths)
                run_starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
                parts = np.arange(total) - run_starts[repeats] + firsts[repeats]
                if query_filters_dim:
                    exact = exact[repeats] & (parts > firsts[repeats]) & (parts < lasts[repeats])
                else:
                    exact = exact[repeats]
                cell_base = cell_base[repeats] + parts * stride
                part_ids = {d: a[repeats] for d, a in part_ids.items()}

        innermost = dims[-1]
        strategy = self.skeleton.strategy_for(innermost)
        if isinstance(strategy, IndependentCDFStrategy):
            first, last = windows[innermost]
            if first > last:
                return []
            firsts = np.full(cell_base.size, first, dtype=np.int64)
            lasts = np.full(cell_base.size, last, dtype=np.int64)
        else:
            firsts_w, lasts_w = windows[innermost]
            base = strategy.base
            base_first = int(windows[base][0])
            index = part_ids[base] - base_first
            firsts = firsts_w[index]
            lasts = lasts_w[index]
            valid = lasts >= firsts
            if not valid.all():
                cell_base = cell_base[valid]
                exact = exact[valid]
                firsts = firsts[valid]
                lasts = lasts[valid]
        if cell_base.size == 0:
            return []

        # The innermost stride is 1: cells [base+first, base+last] are one
        # contiguous physical run.  A prefix whose exactness survived emits
        # its two boundary cells inexactly and the interior exactly; any
        # other prefix is a single span.
        query_filters_innermost = innermost in filtered_dims
        low_cell = cell_base + firsts
        high_cell = cell_base + lasts + 1
        decomposed = exact & query_filters_innermost
        multi = decomposed & (lasts > firsts)

        num_prefixes = cell_base.size
        span_lo = np.zeros((num_prefixes, 3), dtype=np.int64)
        span_hi = np.zeros((num_prefixes, 3), dtype=np.int64)
        span_exact = np.zeros((num_prefixes, 3), dtype=bool)
        span_lo[:, 0] = low_cell
        span_hi[:, 0] = np.where(decomposed, low_cell + 1, high_cell)
        span_exact[:, 0] = np.where(decomposed, False, exact)
        span_lo[:, 1] = np.where(multi, low_cell + 1, 0)
        span_hi[:, 1] = np.where(multi, high_cell - 1, 0)
        span_exact[:, 1] = multi
        span_lo[:, 2] = np.where(multi, high_cell - 1, 0)
        span_hi[:, 2] = np.where(multi, high_cell, 0)

        cell_lo = span_lo.reshape(-1)
        cell_hi = span_hi.reshape(-1)
        flags = span_exact.reshape(-1)
        keep = cell_lo < cell_hi
        cell_lo, cell_hi, flags = cell_lo[keep], cell_hi[keep], flags[keep]

        row_start = offsets[cell_lo]
        row_stop = offsets[cell_hi]
        keep = row_start < row_stop
        row_start, row_stop, flags = row_start[keep], row_stop[keep], flags[keep]
        if row_start.size == 0:
            return []

        # Coalesce row-contiguous spans agreeing on exactness (the candidates
        # are already sorted and non-overlapping by construction).
        breaks = np.empty(row_start.size, dtype=bool)
        breaks[0] = True
        breaks[1:] = (row_start[1:] != row_stop[:-1]) | (flags[1:] != flags[:-1])
        first_index = np.flatnonzero(breaks)
        last_index = np.append(first_index[1:], row_start.size) - 1
        return list(
            zip(
                row_start[first_index].tolist(),
                row_stop[last_index].tolist(),
                flags[first_index].tolist(),
            )
        )

    def _spans(self, query: Query) -> list[tuple[int, int, bool]]:
        """Relative row ranges for ``query``, through the plan cache."""
        self._require_fitted()
        windows = self._window_table(query)
        if self.plan_cache is None:
            return self._vectorized_spans(query, windows)
        key = self._plan_key(query, windows)
        spans = self.plan_cache.get(key)
        if spans is None:
            spans = self._vectorized_spans(query, windows)
            self.plan_cache.put(key, spans)
        return spans

    def plan(self, query: Query) -> tuple[list[tuple[int, int, bool]], QueryPlanFeatures]:
        """Plan ``query``: relative row ranges plus cost-model features."""
        spans = self._spans(query)
        features = QueryPlanFeatures(
            num_cell_ranges=len(spans),
            points_scanned=sum(stop - start for start, stop, _ in spans),
            num_filtered_dimensions=query.num_filtered_dimensions,
        )
        return spans, features

    def ranges_for_query(self, query: Query, offset: int = 0) -> list[RowRange]:
        """Physical row ranges for ``query``, shifted by the region's ``offset``."""
        return [
            RowRange(offset + start, offset + stop, exact=exact)
            for start, stop, exact in self._spans(query)
        ]

    # -- reporting ---------------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        """Number of rows this grid indexes."""
        return self._num_rows

    @property
    def num_cells(self) -> int:
        """Total number of grid cells (including empty ones)."""
        return self.config.total_cells

    @property
    def num_nonempty_cells(self) -> int:
        """Number of grid cells containing at least one row."""
        self._require_fitted()
        assert self._offsets is not None
        return int(np.count_nonzero(np.diff(self._offsets)))

    def cell_sizes(self) -> np.ndarray:
        """Number of rows in every cell (length ``num_cells``)."""
        self._require_fitted()
        assert self._offsets is not None
        return np.diff(self._offsets)

    def index_size_bytes(self) -> int:
        """Lookup table plus all per-dimension models (§5.1 space accounting)."""
        self._require_fitted()
        total = self.num_cells * 8  # lookup table: one offset per cell
        for model in self._cdf_models.values():
            total += model.size_bytes()
        for conditional in self._conditional_models.values():
            total += conditional.size_bytes()
        for mapping in self._mapping_models.values():
            total += mapping.size_bytes()
        return total

    def describe(self) -> dict:
        """Structural statistics used by Table 4 and the drill-down benchmarks."""
        return {
            "skeleton": self.skeleton.describe(),
            "partitions": dict(self.config.partitions),
            "num_cells": self.num_cells,
            "num_nonempty_cells": self.num_nonempty_cells if self._fitted else 0,
            "num_functional_mappings": self.skeleton.num_functional_mappings,
            "num_conditional_cdfs": self.skeleton.num_conditional_cdfs,
            "size_bytes": self.index_size_bytes() if self._fitted else 0,
        }
