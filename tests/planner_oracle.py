"""The reference planner: per-cell recursive enumeration over a fitted grid.

The original Augmented Grid planner, about 35x slower than
:meth:`~repro.core.augmented_grid.AugmentedGrid.plan` and never used for
serving.  It is the oracle the vectorized planner is diffed against
(``test_planner_vectorized.py``) and the baseline of the planning gate in
``test_perf_gates.py``.
"""

from __future__ import annotations

from repro.core.augmented_grid import AugmentedGrid
from repro.query.query import Query


def enumerate_cells(grid: AugmentedGrid, query: Query) -> list[tuple[int, bool]]:
    """All ``(cell_id, exact)`` cells intersecting ``query``, in visit order."""
    bounds = grid._effective_bounds(query)
    filtered_dims = set(query.filtered_dimensions)
    # The exact-range optimization is only safe when every filtered
    # dimension is constrained by the grid itself (mapped dimensions are
    # not: their cells can contain rows outside the mapped filter).
    exactness_possible = filtered_dims.issubset(set(grid.grid_dimensions))

    hits: list[tuple[int, bool]] = []

    def recurse(position: int, cell_base: int, assignment: dict[str, int], exact: bool) -> None:
        if position == len(grid.grid_dimensions):
            hits.append((cell_base, exact))
            return
        dim = grid.grid_dimensions[position]
        first, last = grid._partition_window(dim, bounds, assignment)
        if first > last:
            return
        stride = grid._strides[dim]
        query_filters_dim = dim in filtered_dims
        for partition in range(first, last + 1):
            # A partition strictly inside the window only contains values
            # inside the filter range (CDF monotonicity), so it preserves
            # exactness; boundary partitions may straddle the filter edge.
            interior = first < partition < last
            child_exact = exact and (not query_filters_dim or interior)
            assignment[dim] = partition
            recurse(position + 1, cell_base + partition * stride, assignment, child_exact)
        del assignment[dim]

    recurse(0, 0, {}, exactness_possible)
    return hits


def reference_spans(grid: AugmentedGrid, query: Query) -> list[tuple[int, int, bool]]:
    """The ``(start, stop, exact)`` spans ``grid.plan(query)`` must return."""
    grid._require_fitted()
    offsets = grid._offsets
    spans: list[tuple[int, int, bool]] = []
    for cell_id, exact in sorted(enumerate_cells(grid, query)):
        start = int(offsets[cell_id])
        stop = int(offsets[cell_id + 1])
        if stop <= start:
            continue
        if spans and spans[-1][1] == start and spans[-1][2] == exact:
            spans[-1] = (spans[-1][0], stop, exact)
        else:
            spans.append((start, stop, exact))
    return spans
