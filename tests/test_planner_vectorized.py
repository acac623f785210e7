"""Differential tests: the vectorized planner vs the reference recursive planner.

``AugmentedGrid.plan`` must be indistinguishable from the original per-cell
recursive enumeration (``planner_oracle.reference_spans``, the oracle kept
with the tests): identical spans, identical order,
identical ``exact`` flags, on every skeleton shape (independent / mapped /
conditional dimensions), partition vector, and query — including degenerate
queries with empty or inverted windows.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from planner_oracle import reference_spans

from repro.core.augmented_grid import AugmentedGrid, AugmentedGridConfig
from repro.core.query_types import PlanCache
from repro.core.skeleton import (
    ConditionalCDFStrategy,
    FunctionalMappingStrategy,
    IndependentCDFStrategy,
    Skeleton,
)
from repro.query.engine import execute_full_scan
from repro.query.query import Query
from repro.storage.table import Table

DIMS = ("a", "b", "c", "d")


def make_table(num_rows: int, seed: int) -> Table:
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 10_000, num_rows)
    b = a * 2 + rng.integers(-60, 61, num_rows)  # tight correlation with a
    c = rng.integers(0, 700, num_rows)
    d = (a // 3) + rng.integers(-200, 201, num_rows)  # loose correlation
    return Table.from_arrays("diff", {"a": a, "b": b, "c": c, "d": d})


@st.composite
def planner_cases(draw):
    """A random (skeleton, partitions, table seed, queries) configuration."""
    num_dims = draw(st.integers(min_value=2, max_value=4))
    dims = DIMS[:num_dims]
    # Dimension "a" anchors the skeleton: bases and targets must stay
    # independent, so every other dimension may reference it.
    strategies = {"a": IndependentCDFStrategy()}
    for dim in dims[1:]:
        choice = draw(st.sampled_from(["independent", "conditional", "mapped"]))
        if choice == "conditional":
            strategies[dim] = ConditionalCDFStrategy(base="a")
        elif choice == "mapped":
            strategies[dim] = FunctionalMappingStrategy(target="a")
        else:
            strategies[dim] = IndependentCDFStrategy()
    skeleton = Skeleton(strategies)
    partitions = {
        dim: draw(st.integers(min_value=1, max_value=6))
        for dim in skeleton.grid_dimensions
    }
    table_seed = draw(st.integers(min_value=0, max_value=50))
    num_rows = draw(st.integers(min_value=200, max_value=800))

    queries = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        filtered = draw(
            st.lists(st.sampled_from(dims), unique=True, min_size=0, max_size=num_dims)
        )
        ranges = {}
        for dim in filtered:
            low = draw(st.integers(min_value=-2_000, max_value=22_000))
            # Occasionally inverted (low > high) to exercise empty windows.
            high = low + draw(st.integers(min_value=-500, max_value=9_000))
            ranges[dim] = (low, high)
        if not ranges:
            ranges = {"a": (0, draw(st.integers(min_value=0, max_value=10_000)))}
        try:
            queries.append(Query.from_ranges(ranges))
        except Exception:
            pass
    return skeleton, partitions, num_rows, table_seed, queries


class TestDifferentialPlanning:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(planner_cases())
    def test_vectorized_planner_matches_reference(self, case):
        skeleton, partitions, num_rows, table_seed, queries = case
        table = make_table(num_rows, table_seed)
        config = AugmentedGridConfig(skeleton=skeleton, partitions=partitions)
        grid = AugmentedGrid(config)
        grid.fit(table)
        for query in queries:
            spans, features = grid.plan(query)
            assert spans == reference_spans(grid, query)
            assert features.num_cell_ranges == len(spans)

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(planner_cases())
    def test_cached_plans_match_reference(self, case):
        """Plan-cache hits must replay exactly the reference plan."""
        skeleton, partitions, num_rows, table_seed, queries = case
        table = make_table(num_rows, table_seed)
        config = AugmentedGridConfig(skeleton=skeleton, partitions=partitions)
        cached = AugmentedGrid(config, plan_cache=PlanCache())
        cached.fit(table)
        for query in queries * 2:  # second pass is all cache hits
            spans_c, _ = cached.plan(query)
            assert spans_c == reference_spans(cached, query)
        assert cached.plan_cache.stats.hits >= len(queries)


class TestPlannerConfiguration:
    def test_fit_clears_plan_cache(self):
        table = make_table(400, seed=3)
        config = AugmentedGridConfig(
            skeleton=Skeleton.all_independent(["a", "b", "c", "d"]),
            partitions={"a": 4, "b": 4, "c": 2, "d": 2},
        )
        grid = AugmentedGrid(config, plan_cache=PlanCache())
        grid.fit(table)
        grid.plan(Query.from_ranges({"a": (0, 5_000)}))
        assert len(grid.plan_cache) == 1
        grid.fit(table)
        assert len(grid.plan_cache) == 0

    def test_vectorized_answers_match_full_scan(self):
        table = make_table(700, seed=4)
        config = AugmentedGridConfig(
            skeleton=Skeleton(
                {
                    "a": IndependentCDFStrategy(),
                    "b": ConditionalCDFStrategy(base="a"),
                    "c": IndependentCDFStrategy(),
                    "d": FunctionalMappingStrategy(target="a"),
                }
            ),
            partitions={"a": 5, "b": 4, "c": 3},
        )
        grid = AugmentedGrid(config)
        permutation = grid.fit(table)
        table.reorder(permutation)
        from repro.storage.scan import ScanExecutor

        executor = ScanExecutor(table)
        for ranges in (
            {"a": (1_000, 6_000)},
            {"b": (2_000, 9_000), "c": (100, 400)},
            {"d": (500, 2_500)},
            {"a": (20_000, 30_000)},  # empty result
        ):
            query = Query.from_ranges(ranges)
            expected, _ = execute_full_scan(table, query)
            value, _ = executor.execute(
                grid.ranges_for_query(query), query.filters(), query.aggregate
            )
            assert value == expected
