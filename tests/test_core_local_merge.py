"""Tests for localized structural updates (repro.core.local_merge).

The local merge path must be observationally identical to the whole-index
rebuild (the path bases without a region layout take): same query answers,
same merged column dtypes, same sorted row multiset — only the amount of
work differs.  These tests pin that equivalence on fixed streams, on
hypothesis-generated interleavings (including dtype-overflow and
far-out-of-domain inserts), and across persistence round trips, including
snapshots written before merges picked their own path.
"""

import json
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import KdTreeIndex
from repro.common.errors import SchemaError
from repro.core.delta import DeltaBufferedIndex
from repro.core.local_merge import local_merge, supports_local_merge
from repro.core.outliers import OutlierBoundedMapping
from repro.core.sharding import ShardedIndex
from repro.core.tsunami import TsunamiConfig, TsunamiIndex
from repro.query.engine import execute_full_scan
from repro.query.query import Query
from repro.query.workload import Workload
from repro.stats.correlation import BoundedLinearModel
from repro.storage.column import Column
from repro.storage.persistence import load_index, load_table, save_index, save_table
from repro.storage.table import Table


def tsunami_factory():
    return TsunamiIndex(TsunamiConfig(optimizer_iterations=1, optimizer_sample_rows=2_000))


def make_table(num_rows: int = 2_000, seed: int = 3) -> Table:
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 10_000, num_rows)
    return Table.from_arrays(
        "local", {"x": x, "y": x * 3 + rng.integers(-50, 51, num_rows), "z": rng.integers(0, 120, num_rows)}
    )


def make_workload(seed: int = 5, count: int = 24) -> Workload:
    rng = np.random.default_rng(seed)
    queries = []
    for _ in range(count):
        low = int(rng.integers(0, 9_000))
        queries.append(
            Query.from_ranges({"x": (low, low + int(rng.integers(200, 1_500))), "z": (0, int(rng.integers(40, 120)))})
        )
    return Workload(queries, name="local-merge")


def make_rows(count: int, seed: int, x_low: int = 0, x_high: int = 10_000) -> list[dict]:
    rng = np.random.default_rng(seed)
    return [
        {
            "x": int(rng.integers(x_low, x_high)),
            "y": int(rng.integers(-200, 30_000)),
            "z": int(rng.integers(0, 120)),
        }
        for _ in range(count)
    ]


def probe_queries() -> list[Query]:
    probes = list(make_workload(seed=17, count=12))
    # Out-of-domain probe: rows inserted past the build-time domain must be
    # reachable through the widened edge regions.
    probes.append(Query.from_ranges({"x": (10_000, 10**13), "z": (0, 120)}))
    probes.append(Query.from_ranges({"x": (-(10**13), 0), "z": (0, 120)}))
    return probes


class RebuildingIndex(DeltaBufferedIndex):
    """A delta index whose every merge calls the rebuild path directly."""

    def merge(self):
        return self._merge(local=False)


def build_pair(table_seed: int = 3) -> tuple[DeltaBufferedIndex, DeltaBufferedIndex]:
    """Two identical delta indexes: one merging locally, one rebuilding."""
    pair = []
    for cls in (DeltaBufferedIndex, RebuildingIndex):
        index = cls(tsunami_factory, merge_threshold=1_000_000)
        index.build(make_table(seed=table_seed), make_workload())
        pair.append(index)
    return pair[0], pair[1]


def assert_identical(local: DeltaBufferedIndex, rebuild: DeltaBufferedIndex) -> None:
    for query in probe_queries():
        left = local.execute(query)
        right = rebuild.execute(query)
        assert left.value == right.value
        assert left.stats.rows_matched == right.stats.rows_matched
    for name in local.base_index.table.column_names:
        left_values = np.sort(np.asarray(local.base_index.table.values(name), dtype=np.int64))
        right_values = np.sort(np.asarray(rebuild.base_index.table.values(name), dtype=np.int64))
        np.testing.assert_array_equal(left_values, right_values)
        assert local.base_index.table.column(name).dtype == rebuild.base_index.table.column(name).dtype


def add_manifest_keys(path, **keys) -> None:
    """Write ``keys`` into a snapshot manifest, as an older release would have."""
    manifest = json.loads(path.read_text())
    manifest.update(keys)
    path.write_text(json.dumps(manifest))


# ---------------------------------------------------------------------------
# Ranged reorder primitives
# ---------------------------------------------------------------------------


class TestReorderRows:
    def test_column_ranged_reorder_permutes_only_the_slice(self):
        column = Column("x", np.arange(10, dtype=np.int64))
        column.reorder_rows(np.array([2, 0, 1]), 4, 7)
        np.testing.assert_array_equal(
            column.values, [0, 1, 2, 3, 6, 4, 5, 7, 8, 9]
        )

    def test_table_ranged_reorder_keeps_rows_aligned(self):
        table = make_table(200)
        before = {name: np.array(table.values(name)) for name in table.column_names}
        rows = np.random.default_rng(0).permutation(60)
        table.reorder_rows(rows, 100, 160)
        for name in table.column_names:
            np.testing.assert_array_equal(table.values(name)[:100], before[name][:100])
            np.testing.assert_array_equal(table.values(name)[160:], before[name][160:])
            np.testing.assert_array_equal(
                table.values(name)[100:160], before[name][100:160][rows]
            )

    def test_dtype_and_meta_unchanged(self):
        column = Column("x", np.arange(50, dtype=np.int64))
        dtype, meta = column.dtype, column.meta
        column.reorder_rows(np.arange(10)[::-1], 20, 30)
        assert column.dtype == dtype
        assert column.meta == meta

    def test_non_bijection_rejected(self):
        table = make_table(50)
        with pytest.raises(SchemaError):
            table.reorder_rows(np.array([0, 0, 1]), 0, 3)

    def test_wrong_shape_rejected(self):
        with pytest.raises(SchemaError):
            Column("x", np.arange(10)).reorder_rows(np.array([0, 1]), 0, 3)

    def test_out_of_range_slice_rejected(self):
        column = Column("x", np.arange(10))
        with pytest.raises(SchemaError):
            column.reorder_rows(np.array([0]), 9, 11)
        with pytest.raises(SchemaError):
            column.reorder_rows(np.array([0]), -1, 0)

    def test_memory_mapped_column_copied_to_heap(self, tmp_path):
        save_table(make_table(100), tmp_path)
        table = load_table(tmp_path, mmap_mode="r")
        column = table.column("x")
        assert column.is_memory_mapped
        before = np.array(table.values("x"))
        table.reorder_rows(np.arange(20)[::-1], 10, 30)
        np.testing.assert_array_equal(table.values("x")[10:30], before[10:30][::-1])
        # The read-only mmap backing was replaced by a private heap copy.
        assert not table.column("x").is_memory_mapped


# ---------------------------------------------------------------------------
# Local merge vs rebuild
# ---------------------------------------------------------------------------


class TestLocalMerge:
    def test_supports_local_merge(self):
        assert not supports_local_merge(KdTreeIndex())
        index = tsunami_factory()
        assert not supports_local_merge(index)
        index.build(make_table(), make_workload())
        assert supports_local_merge(index)

    def test_local_merge_matches_rebuild_on_fixed_stream(self):
        local, rebuild = build_pair()
        for seed in (11, 12, 13):
            rows = make_rows(400, seed)
            local.insert_many(rows)
            rebuild.insert_many(rows)
            local.merge()
            rebuild.merge()
        assert [r.strategy for r in local.merge_history] == ["local"] * 3
        assert [r.strategy for r in rebuild.merge_history] == ["rebuild"] * 3
        assert_identical(local, rebuild)

    def test_out_of_domain_inserts_reach_edge_regions(self):
        local, rebuild = build_pair()
        rows = make_rows(100, 21, x_low=500_000, x_high=600_000)
        rows += [{"x": -40_000, "y": 0, "z": 5}] * 10
        local.insert_many(rows)
        rebuild.insert_many(rows)
        local.merge()
        rebuild.merge()
        probe = Query.from_ranges({"x": (500_000, 600_000), "z": (0, 120)})
        assert local.execute(probe).value == rebuild.execute(probe).value == 100
        low_probe = Query.from_ranges({"x": (-40_000, -39_999), "z": (0, 120)})
        assert local.execute(low_probe).value == rebuild.execute(low_probe).value == 10
        assert_identical(local, rebuild)

    def test_dtype_overflow_widens_only_touched_columns(self):
        local, rebuild = build_pair()
        narrow_before = local.base_index.table.column("z").dtype
        rows = [{"x": 5_000, "y": 2**40, "z": 7}] * 8
        local.insert_many(rows)
        rebuild.insert_many(rows)
        local.merge()
        rebuild.merge()
        assert local.base_index.table.column("y").dtype == np.dtype(np.int64)
        assert local.base_index.table.column("z").dtype == narrow_before
        assert_identical(local, rebuild)

    def test_merge_report_counts_touched_regions(self):
        local, _ = build_pair()
        local.insert_many(make_rows(50, 31, x_low=100, x_high=300))
        report = local.merge()
        assert report.strategy == "local"
        assert report.rows_merged == 50
        assert 1 <= report.regions_touched <= report.regions_total
        # A tight insert hotspot must not touch the whole region set.
        assert report.regions_touched < report.regions_total

    def test_untouched_regions_keep_row_data(self):
        local, _ = build_pair()
        index = local.base_index
        untouched = [
            region
            for region in index._regions
            if region.node.bounds["x"][1] < 100 or region.node.bounds["x"][0] > 300
        ]
        before = {
            region.node.region_id: np.array(
                index.table.values("x")[region.row_offset : region.row_offset + region.num_rows]
            )
            for region in untouched
        }
        local.insert_many(make_rows(50, 31, x_low=100, x_high=300))
        local.merge()
        for region in index._regions:
            if region.node.region_id in before:
                now = index.table.values("x")[
                    region.row_offset : region.row_offset + region.num_rows
                ]
                np.testing.assert_array_equal(now, before[region.node.region_id])

    def test_empty_region_split_path(self):
        """Inserts routed into zero-row regions (the bimodal gap) must work."""
        rng = np.random.default_rng(0)
        x = np.concatenate([rng.integers(0, 500, 1_500), rng.integers(90_000, 99_000, 1_500)])
        table = {"x": x, "y": x * 3, "z": rng.integers(0, 100, 3_000)}
        gap_queries = [
            Query.from_ranges({"x": (40_000 + i * 500, 41_000 + i * 500), "z": (0, 50)})
            for i in range(8)
        ] + [
            Query.from_ranges({"x": (i * 50, i * 50 + 100), "z": (0, 50)})
            for i in range(8)
        ]
        workload = Workload(gap_queries)
        indexes = {}
        for strategy, cls in (("local", DeltaBufferedIndex), ("rebuild", RebuildingIndex)):
            index = cls(tsunami_factory, merge_threshold=1_000_000)
            index.build(Table.from_arrays("bimodal", dict(table)), workload)
            indexes[strategy] = index
        assert any(r.num_rows == 0 for r in indexes["local"].base_index._regions)
        rows = make_rows(120, 41, x_low=40_000, x_high=45_000)
        for index in indexes.values():
            index.insert_many(rows)
            index.merge()
        probe = Query.from_ranges({"x": (40_000, 45_000), "z": (0, 120)})
        assert indexes["local"].execute(probe).value == indexes["rebuild"].execute(probe).value == 120
        for query in gap_queries:
            assert (
                indexes["local"].execute(query).value
                == indexes["rebuild"].execute(query).value
            )

    def test_local_merge_result_reports_splits(self):
        index = tsunami_factory()
        index.build(make_table(), make_workload())
        region = max(index._regions, key=lambda r: r.num_rows)
        low, high = region.node.bounds["x"]
        rng = np.random.default_rng(51)
        count = max(64, int(region.num_rows * 2))
        xs = rng.integers(max(int(low), 0), max(int(high), 1), count)
        buffer_columns = {
            "x": xs.astype(np.int64),
            "y": (xs * 3).astype(np.int64),
            "z": rng.integers(0, 120, count).astype(np.int64),
        }
        outcome = local_merge(index, buffer_columns)
        assert outcome.rows_merged == count
        assert outcome.regions_split >= 1
        assert outcome.regions_touched <= outcome.regions_total

    def test_explain_and_describe_report_strategy(self):
        local, _ = build_pair()
        assert "merge_strategy" not in local.describe()
        assert "split_threshold" not in local.describe()
        local.insert_many(make_rows(64, 61))
        local.merge()
        plan = local.explain(probe_queries()[0])
        assert "merge_strategy" not in plan
        last = plan["last_merge"]
        assert last["strategy"] == "local"
        assert last["rows_merged"] == 64
        assert last["regions_touched"] <= last["regions_total"]
        described = local.describe()["last_merge"]
        assert described["strategy"] == "local"

    def test_rebuild_path_reports_no_regions(self):
        index = RebuildingIndex(tsunami_factory, merge_threshold=1_000_000)
        index.build(make_table(), make_workload())
        index.insert_many(make_rows(32, 71))
        report = index.merge()
        assert report.strategy == "rebuild"
        assert report.regions_touched is None
        assert index.describe()["last_merge"]["strategy"] == "rebuild"

    def test_non_tsunami_base_falls_back_to_rebuild(self):
        index = DeltaBufferedIndex(
            lambda: KdTreeIndex(page_size=512), merge_threshold=1_000_000
        )
        index.build(make_table(), make_workload())
        index.insert_many(make_rows(32, 81))
        report = index.merge()
        assert report.strategy == "rebuild"


# ---------------------------------------------------------------------------
# Incremental absorb: model reuse and mapping-bound widening
# ---------------------------------------------------------------------------


class TestAbsorbModelReuse:
    def test_absorbing_regions_keep_cdf_models_by_identity(self):
        """Absorb must fold rows into the fitted grid, not refit it: the new
        grid object of every absorbed region shares the old grid's CDF model
        objects (only the sweep over the appended rows runs)."""
        local, _ = build_pair()
        index = local.base_index
        grids_before = {
            region.node.region_id: region.grid for region in index._regions
        }
        local.insert_many(make_rows(50, 31, x_low=100, x_high=300))
        report = local.merge()
        assert report.strategy == "local"
        touched = [
            (region, grids_before[region.node.region_id])
            for region in index._regions
            if region.grid is not None
            and grids_before[region.node.region_id] is not None
            and region.grid is not grids_before[region.node.region_id]
        ]
        assert touched
        modeled = [
            (region, old) for region, old in touched if old._cdf_models
        ]
        assert modeled, "expected at least one touched region with CDF models"
        for region, old in modeled:
            for dim, model in old._cdf_models.items():
                assert region.grid._cdf_models[dim] is model

    def test_widened_linear_model_covers_appended_rows(self):
        rng = np.random.default_rng(3)
        y = rng.integers(0, 10_000, 500).astype(np.float64)
        x = y * 2 + rng.integers(-50, 51, 500)
        model = BoundedLinearModel.fit(y, x)
        appended_y = np.array([20_000.0, 25_000.0])
        appended_x = np.array([70_000.0, 10_000.0])  # far off the fit line
        widened = model.widened(appended_y, appended_x)
        assert widened.slope == model.slope
        assert widened.intercept == model.intercept
        for yy, xx in [*zip(y, x), *zip(appended_y, appended_x)]:
            low, high = widened.map_range(float(yy), float(yy))
            assert low <= xx <= high
        # The original model need not cover them (that is the point).
        low, high = model.map_range(25_000.0, 25_000.0)
        assert not (low <= 10_000.0 <= high)

    def test_widened_outlier_mapping_covers_appended_rows(self):
        rng = np.random.default_rng(9)
        y = rng.integers(0, 10_000, 400).astype(np.float64)
        x = y * 3 + rng.integers(-20, 21, 400)
        x[:4] = [90_000.0, -5_000.0, 80_000.0, -1_000.0]  # buffered outliers
        mapping = OutlierBoundedMapping.fit(y, x)
        appended_y = np.array([30_000.0])
        appended_x = np.array([200_000.0])
        widened = mapping.widened(appended_y, appended_x)
        assert widened.num_outliers == mapping.num_outliers
        low, high = widened.map_range(30_000.0, 30_000.0)
        assert low <= 200_000.0 <= high
        for yy, xx in zip(y, x):
            low, high = widened.map_range(float(yy), float(yy))
            assert low <= xx <= high


# ---------------------------------------------------------------------------
# Persistence round trip after a local merge
# ---------------------------------------------------------------------------


class TestPersistenceAfterLocalMerge:
    def test_round_trip_preserves_values_dtypes_and_mmap(self, tmp_path):
        local, rebuild = build_pair()
        rows = make_rows(300, 91) + [{"x": 5_000, "y": 2**40, "z": 7}] * 4
        local.insert_many(rows)
        rebuild.insert_many(rows)
        local.merge()
        rebuild.merge()
        save_index(local, tmp_path)

        loaded = load_index(tmp_path, mmap_mode="r")
        for name in local.base_index.table.column_names:
            np.testing.assert_array_equal(
                loaded.base_index.table.values(name), local.base_index.table.values(name)
            )
            assert (
                loaded.base_index.table.column(name).dtype
                == local.base_index.table.column(name).dtype
            )
            assert loaded.base_index.table.column(name).is_memory_mapped
        assert_identical(loaded, rebuild)

    def test_loaded_index_keeps_merging_locally(self, tmp_path):
        local, rebuild = build_pair()
        local.insert_many(make_rows(200, 93))
        rebuild.insert_many(make_rows(200, 93))
        local.merge()
        rebuild.merge()
        save_index(local, tmp_path)
        loaded = load_index(tmp_path, mmap_mode="r")
        more = make_rows(150, 94)
        loaded.insert_many(more)
        rebuild.insert_many(more)
        report = loaded.merge()
        rebuild.merge()
        assert report.strategy == "local"
        assert_identical(loaded, rebuild)

    @pytest.mark.parametrize("strategy", ["rebuild", "local"])
    def test_old_delta_snapshot_loads_and_merges_locally(self, tmp_path, strategy):
        """Manifests that still carry the removed merge options load as today's."""
        local, rebuild = build_pair()
        local.insert_many(make_rows(120, 95))
        rebuild.insert_many(make_rows(120, 95))
        save_index(local, tmp_path)
        add_manifest_keys(
            tmp_path / "delta.json", merge_strategy=strategy, split_threshold=0.25
        )
        loaded = load_index(tmp_path)
        assert_identical(loaded, rebuild)
        more = make_rows(150, 96)
        loaded.insert_many(more)
        rebuild.insert_many(more)
        assert loaded.merge().strategy == "local"
        rebuild.merge()
        assert_identical(loaded, rebuild)

    def test_old_sharded_snapshot_loads_and_merges_locally(self, tmp_path):
        def make_sharded():
            factory = partial(DeltaBufferedIndex, tsunami_factory, merge_threshold=1_000_000)
            index = ShardedIndex(factory, num_shards=3, shard_dimension="x")
            return index.build(make_table(), make_workload())

        sharded, twin = make_sharded(), make_sharded()
        rows = make_rows(200, 97)
        sharded.insert_many(rows)
        twin.insert_many(rows)
        save_index(sharded, tmp_path)
        add_manifest_keys(tmp_path / "sharded.json", parallelism=4)
        for shard_dir in sorted(tmp_path.glob("shard_*")):
            add_manifest_keys(
                shard_dir / "delta.json", merge_strategy="rebuild", split_threshold=0.5
            )
        loaded = load_index(tmp_path)
        probes = probe_queries()
        expected = [twin.execute(query) for query in probes]
        for query, want in zip(probes, expected):
            got = loaded.execute(query)
            assert got.value == want.value
            assert got.stats.rows_matched == want.stats.rows_matched
        reports = [report for report in loaded.merge() if report is not None]
        assert reports and all(report.strategy == "local" for report in reports)
        oracle = Table.from_arrays(
            "oracle",
            {
                name: np.concatenate(
                    [make_table().values(name), [row[name] for row in rows]]
                ).astype(np.int64)
                for name in ("x", "y", "z")
            },
        )
        for query in probes:
            assert loaded.execute(query).value == execute_full_scan(oracle, query)[0]


# ---------------------------------------------------------------------------
# Hypothesis: differential over random interleavings
# ---------------------------------------------------------------------------


row_strategy = st.fixed_dictionaries(
    {
        # Mix of in-domain, far-out-of-domain, and dtype-overflow values.
        "x": st.one_of(
            st.integers(0, 10_000),
            st.integers(-(2**35), -1),
            st.integers(10_001, 2**35),
        ),
        "y": st.one_of(st.integers(-200, 30_000), st.integers(2**33, 2**45)),
        "z": st.integers(0, 120),
    }
)

op_strategy = st.one_of(
    st.tuples(st.just("insert"), st.lists(row_strategy, min_size=1, max_size=40)),
    st.tuples(st.just("merge"), st.none()),
    st.tuples(st.just("query"), st.integers(0, 13)),
)


class TestDifferentialProperties:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(ops=st.lists(op_strategy, min_size=2, max_size=8))
    def test_random_interleavings_match_rebuild(self, ops):
        local, rebuild = build_pair(table_seed=9)
        probes = probe_queries()
        for op, payload in ops:
            if op == "insert":
                local.insert_many(payload)
                rebuild.insert_many(payload)
            elif op == "merge":
                local.merge()
                rebuild.merge()
            else:
                query = probes[payload % len(probes)]
                left = local.execute(query)
                right = rebuild.execute(query)
                assert left.value == right.value
                assert left.stats.rows_matched == right.stats.rows_matched
        local.merge()
        rebuild.merge()
        assert_identical(local, rebuild)

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        rows=st.lists(row_strategy, min_size=1, max_size=60),
        seed=st.integers(0, 2**16),
    )
    def test_merged_index_matches_full_scan_oracle(self, rows, seed):
        index = DeltaBufferedIndex(tsunami_factory, merge_threshold=1_000_000)
        table = make_table(seed=11)
        reference = {
            name: np.concatenate(
                [
                    np.asarray(table.values(name), dtype=np.int64),
                    np.array([row[name] for row in rows], dtype=np.int64),
                ]
            )
            for name in table.column_names
        }
        index.build(table, make_workload())
        index.insert_many(rows)
        index.merge()
        oracle = Table.from_arrays("oracle", reference)
        rng = np.random.default_rng(seed)
        low = int(rng.integers(-(2**34), 2**34))
        probes = probe_queries() + [
            Query.from_ranges({"x": (low, low + int(rng.integers(1, 2**33))), "z": (0, 120)})
        ]
        for query in probes:
            expected, _ = execute_full_scan(oracle, query)
            assert index.execute(query).value == expected
